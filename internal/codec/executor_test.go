package codec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tensor"
)

// withConcurrency raises GOMAXPROCS and the SetMaxWorkers cap to n for
// the rest of the test. The executor's helpers follow GOMAXPROCS, so a
// test that needs concurrent plane bodies must raise it even on a
// one-CPU host.
func withConcurrency(t *testing.T, n int) {
	t.Helper()
	prevProcs := runtime.GOMAXPROCS(n)
	prevCap := SetMaxWorkers(n)
	t.Cleanup(func() {
		SetMaxWorkers(prevCap)
		runtime.GOMAXPROCS(prevProcs)
	})
}

// peakGauge tracks the peak number of concurrently running bodies.
type peakGauge struct {
	running, peak atomic.Int64
}

// enter marks a body running, holds it long enough for every goroutine
// able to run a body at the same time to overlap it, and marks it done.
func (g *peakGauge) enter() {
	n := g.running.Add(1)
	for {
		old := g.peak.Load()
		if n <= old || g.peak.CompareAndSwap(old, n) {
			break
		}
	}
	time.Sleep(time.Millisecond)
	g.running.Add(-1)
}

// TestForEachPlaneNestingIsBounded nests plane loops: every outer plane
// runs an inner plane loop. One shared executor bounds the running
// inner bodies by the cap plus the one external caller; a pool per loop
// would run cap² of them.
func TestForEachPlaneNestingIsBounded(t *testing.T) {
	const workers = 4
	withConcurrency(t, workers)
	var g peakGauge
	err := forEachPlane(context.Background(), workers, 0, func(int) error {
		return forEachPlane(context.Background(), 4*workers, 0, func(int) error {
			g.enter()
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, limit := g.peak.Load(), int64(workers+1); got > limit {
		t.Fatalf("%d nested plane bodies ran at once, want at most cap+callers = %d", got, limit)
	}
}

// countingBackend encodes each plane of a record through an inner
// backend as its own [1,1,h,w] tensor, counting how many plane bodies
// run at once. With dctc at s=2 each plane body opens a core chunk
// round, so a record nests three loops deep.
type countingBackend struct {
	inner backend
	g     *peakGauge
}

func (b *countingBackend) name() string   { return b.inner.name() }
func (b *countingBackend) ratio() float64 { return b.inner.ratio() }
func (b *countingBackend) encode(ctx context.Context, x *tensor.Tensor) ([]byte, error) {
	h, w := x.Dim(-2), x.Dim(-1)
	return compressPlanes(ctx, x, h, w, func(p int, plane *tensor.Tensor) ([]byte, error) {
		b.g.enter()
		return b.inner.encode(ctx, plane.Reshape(1, 1, h, w))
	})
}
func (b *countingBackend) decode(ctx context.Context, payload []byte, shape []int) (*tensor.Tensor, error) {
	return nil, errors.New("countingBackend: encode only")
}

// TestStreamWriterNestingIsBounded: four writer workers each encode a
// multi-plane dctc record. The plane bodies of all records share the
// executor, so at most cap + 4 of them run at once.
func TestStreamWriterNestingIsBounded(t *testing.T) {
	const workers = 4
	withConcurrency(t, workers)
	dc, err := New("dctc:cf=4,s=2")
	if err != nil {
		t.Fatal(err)
	}
	var g peakGauge
	c := *dc.(*codecImpl)
	c.b = &countingBackend{inner: c.b, g: &g}
	sw := NewStreamWriter(io.Discard)
	if err := sw.SetConcurrency(workers); err != nil {
		t.Fatal(err)
	}
	x := mkStreamTensor(2, 4, 16, 16) // 8 planes per record
	for i := 0; i < 2*workers; i++ {
		if err := sw.WriteTensor(context.Background(), &c, x); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if got, limit := g.peak.Load(), int64(2*workers); got > limit {
		t.Fatalf("%d plane bodies ran at once, want at most cap+writer workers = %d", got, limit)
	}
}

// TestSetMaxWorkersConcurrent changes the cap while compressions and
// decompressions run on other goroutines: under -race this must report
// nothing, and every round trip must decode to the same tensor.
func TestSetMaxWorkersConcurrent(t *testing.T) {
	withConcurrency(t, 4)
	x := mkStreamTensor(4, 3, 16, 16)
	stop := make(chan struct{})
	setterDone := make(chan struct{})
	go func() {
		defer close(setterDone)
		for n := 0; ; n = (n + 1) % 5 {
			select {
			case <-stop:
				return
			default:
			}
			SetMaxWorkers(n)
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, spec := range []string{"dctc:cf=4,s=2", "zfp:rate=8"} {
		c, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		data, err := c.Compress(x)
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.Decompress(data)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				data, err := c.Compress(x)
				if err == nil {
					var got *tensor.Tensor
					if got, err = c.Decompress(data); err == nil && got.MaxAbsDiff(want) != 0 {
						err = fmt.Errorf("%s: round trip %d differs under a changing cap", spec, i)
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-setterDone
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// indexedRecords writes n multi-plane dctc records with the index
// footer and opens the stream for random access through a reader that
// holds reads of record gated until its gate opens. corrupt lists
// records whose last payload byte is flipped, so decoding them fails
// the chunk CRC.
func indexedRecords(t *testing.T, n, gated int, corrupt ...int) (*IndexedStream, chan struct{}) {
	t.Helper()
	c, err := New("dctc:cf=4")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	if err := sw.SetIndex(true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := sw.WriteTensor(context.Background(), c, mkStreamTensor(1, 4, 16, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	ix, err := OpenIndexedStream(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range corrupt {
		data[ix.entries[k+1].off-1] ^= 0xff
	}
	gate := &gatedReaderAt{r: bytes.NewReader(data), lo: -1, open: make(chan struct{})}
	if gated >= 0 {
		gate.lo, gate.hi = ix.entries[gated].off, ix.entries[gated+1].off
	}
	ix.r = gate
	return ix, gate.open
}

// gatedReaderAt holds reads that start in [lo, hi) until open closes.
type gatedReaderAt struct {
	r      io.ReaderAt
	lo, hi int64
	open   chan struct{}
}

func (g *gatedReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off >= g.lo && off < g.hi {
		<-g.open
	}
	return g.r.ReadAt(p, off)
}

// TestDecodeRangeCausalErrorFirst pins DecodeRange's error selection:
// record 5 fails its CRC, which cancels the range while record 2 is
// still held at the reader. Record 2's cancellation fallout has the
// lower index but must not mask record 5's causal error.
func TestDecodeRangeCausalErrorFirst(t *testing.T) {
	withConcurrency(t, 4)
	ix, open := indexedRecords(t, 8, 2, 5, 6)
	if err := ix.SetConcurrency(4); err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(50*time.Millisecond, func() { close(open) })
	_, err := ix.DecodeRange(context.Background(), 0, ix.Len())
	if ErrorKind(err) != "crc" || !strings.Contains(err.Error(), "(record 6)") {
		t.Fatalf("DecodeRange error %v (kind %q), want record 6's CRC failure", err, ErrorKind(err))
	}
}

// settledGoroutines raises the concurrency to 4, runs one parallel
// round so the executor's resident helpers exist, and returns the
// goroutine count the checks below must fall back to.
func settledGoroutines(t *testing.T) int {
	t.Helper()
	withConcurrency(t, 4)
	if err := forEachPlane(context.Background(), 8, 0, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	return runtime.NumGoroutine()
}

// requireNoLeak fails unless runtime.NumGoroutine() falls back to at
// most want within a deadline.
func requireNoLeak(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			stacks := make([]byte, 1<<20)
			stacks = stacks[:runtime.Stack(stacks, true)]
			t.Fatalf("%d goroutines still running, want at most %d:\n%s", n, want, stacks)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestNoGoroutineLeak: errors and cancellation in every concurrent
// path leave no goroutine behind once the executor's fixed helpers
// exist.
func TestNoGoroutineLeak(t *testing.T) {
	t.Run("decode-range-error", func(t *testing.T) {
		base := settledGoroutines(t)
		ix, open := indexedRecords(t, 8, -1, 3)
		close(open)
		if _, err := ix.DecodeRange(context.Background(), 0, ix.Len()); ErrorKind(err) != "crc" {
			t.Fatalf("DecodeRange over a corrupt record: %v", err)
		}
		requireNoLeak(t, base)
	})
	t.Run("decode-range-cancel", func(t *testing.T) {
		base := settledGoroutines(t)
		ix, open := indexedRecords(t, 8, 1)
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(20*time.Millisecond, func() {
			cancel()
			close(open)
		})
		if _, err := ix.DecodeRange(ctx, 0, ix.Len()); ErrorKind(err) != "canceled" {
			t.Fatalf("cancelled DecodeRange: %v", err)
		}
		requireNoLeak(t, base)
	})
	t.Run("plane-loop-cancel", func(t *testing.T) {
		base := settledGoroutines(t)
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		err := forEachPlane(ctx, 64, 0, func(int) error {
			if calls.Add(1) == 3 {
				cancel()
			}
			time.Sleep(time.Millisecond)
			return nil
		})
		if !errors.Is(err, context.Canceled) || calls.Load() == 64 {
			t.Fatalf("cancel mid-round: err %v after %d of 64 planes", err, calls.Load())
		}
		requireNoLeak(t, base)
	})
	t.Run("writer-budget-cancel", func(t *testing.T) {
		base := settledGoroutines(t)
		g := &gateBackend{gate: make(chan struct{})}
		c := &codecImpl{spec: "dctc:cf=4", b: g}
		x := mkStreamTensor(4, 4)
		sw := NewStreamWriter(io.Discard)
		if err := sw.SetConcurrency(2); err != nil {
			t.Fatal(err)
		}
		if err := sw.SetMaxInFlightBytes(int64(x.SizeBytes())); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		if err := sw.WriteTensor(ctx, c, x); err != nil {
			t.Fatal(err)
		}
		// The first record holds the whole budget while its encode sits
		// on the gate, so this submission blocks on the budget.
		time.AfterFunc(20*time.Millisecond, cancel)
		if err := sw.WriteTensor(ctx, c, x); !errors.Is(err, context.Canceled) {
			t.Fatalf("WriteTensor blocked on the budget returned %v, want context.Canceled", err)
		}
		if err := sw.Close(); !errors.Is(err, context.Canceled) {
			t.Fatalf("Close: %v, want context.Canceled", err)
		}
		requireNoLeak(t, base)
	})
	t.Run("read-ahead-cancel", func(t *testing.T) {
		base := settledGoroutines(t)
		var buf bytes.Buffer
		writeParallelStream(t, NewStreamWriter(&buf))
		sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		if err := sr.SetReadAhead(ctx, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := sr.Next(); err != nil {
			t.Fatal(err)
		}
		cancel()
		requireNoLeak(t, base)
	})
}
