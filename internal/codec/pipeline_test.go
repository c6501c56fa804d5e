package codec

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/tensor"
)

func TestForEachPlaneRunsAll(t *testing.T) {
	const planes = 137
	var hits [planes]atomic.Int32
	if err := forEachPlane(context.Background(), planes, 0, func(p int) error {
		hits[p].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for p := range hits {
		if got := hits[p].Load(); got != 1 {
			t.Fatalf("plane %d ran %d times", p, got)
		}
	}
}

func TestForEachPlanePropagatesError(t *testing.T) {
	boom := errors.New("boom")
	err := forEachPlane(context.Background(), 64, 0, func(p int) error {
		if p == 13 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v", err)
	}
}

func TestPlaneFramingRoundTrip(t *testing.T) {
	x := tensor.New(5, 4, 4)
	for i := range x.Data() {
		x.Data()[i] = float32(i)
	}
	payload, err := compressPlanes(context.Background(), x, 4, 4, func(p int, plane *tensor.Tensor) ([]byte, error) {
		// Variable-length per-plane payload: p+1 copies of byte p.
		out := make([]byte, p+1)
		for i := range out {
			out[i] = byte(p)
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := splitPlanePayloads(payload, 5)
	if err != nil {
		t.Fatal(err)
	}
	for p, part := range parts {
		if len(part) != p+1 {
			t.Fatalf("plane %d length %d", p, len(part))
		}
		for _, b := range part {
			if b != byte(p) {
				t.Fatalf("plane %d payload corrupted", p)
			}
		}
	}
}

func TestSplitPlanePayloadsRejectsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":           {},
		"short header":    {1, 0},
		"truncated table": binary.LittleEndian.AppendUint32(nil, 3),
		"overrun length": func() []byte {
			b := binary.LittleEndian.AppendUint32(nil, 1)
			b = binary.LittleEndian.AppendUint32(b, 100)
			return append(b, 1, 2, 3)
		}(),
		"trailing bytes": func() []byte {
			b := binary.LittleEndian.AppendUint32(nil, 1)
			b = binary.LittleEndian.AppendUint32(b, 1)
			return append(b, 1, 2)
		}(),
	}
	for name, payload := range cases {
		if _, err := splitPlanePayloads(payload, wantPlanesFor(name)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Plane-count mismatch against the shape-implied count.
	good := binary.LittleEndian.AppendUint32(nil, 2)
	good = binary.LittleEndian.AppendUint32(good, 0)
	good = binary.LittleEndian.AppendUint32(good, 0)
	if _, err := splitPlanePayloads(good, 3); err == nil {
		t.Error("plane-count mismatch accepted")
	}
}

// wantPlanesFor keeps the malformed-payload cases honest: each claims
// the count its header would imply, so the failure is structural.
func wantPlanesFor(name string) int {
	switch name {
	case "truncated table":
		return 3
	default:
		return 1
	}
}

func TestScratchPoolReuse(t *testing.T) {
	a := getScratch(64)
	for i := range a {
		a[i] = 42
	}
	putScratch(a)
	b := getScratch(32)
	for i, v := range b {
		if v != 0 {
			t.Fatalf("scratch not zeroed at %d: %g", i, v)
		}
	}
	putScratch(b)
}

func BenchmarkPipelineZFPPlanar(b *testing.B) {
	c, err := New("zfp:rate=8")
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.New(16, 3, 64, 64)
	for i := range x.Data() {
		x.Data()[i] = float32(i%97) / 97
	}
	b.SetBytes(int64(x.SizeBytes()))
	for i := 0; i < b.N; i++ {
		if _, _, err := c.RoundTrip(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineDCTCPlanar(b *testing.B) {
	for _, spec := range []string{"dctc:cf=4", "dctc:cf=4,sg"} {
		b.Run(spec, func(b *testing.B) {
			c, err := New(spec)
			if err != nil {
				b.Fatal(err)
			}
			x := tensor.New(16, 3, 64, 64)
			for i := range x.Data() {
				x.Data()[i] = float32(i%89) / 89
			}
			b.SetBytes(int64(x.SizeBytes()))
			for i := 0; i < b.N; i++ {
				data, err := c.Compress(x)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := c.Decompress(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func ExampleNew() {
	c, _ := New("dctc:cf=4,sg")
	fmt.Println(c.Name(), c.Spec())
	// Output: dctc dctc:cf=4,sg
}

// TestForEachPlaneLowestIndexedError pins the determinism contract:
// when several planes fail concurrently, the pipeline reports the
// lowest-indexed failure no matter which worker finishes first. Plane 3
// is made the slowest failure by spinning until every other plane is
// claimed, so a first-error-wins implementation would report plane 40.
func TestForEachPlaneLowestIndexedError(t *testing.T) {
	withConcurrency(t, 4) // force the concurrent path, even on one CPU
	const planes = 64
	var claimed atomic.Int64
	err3 := errors.New("plane 3 failed")
	err40 := errors.New("plane 40 failed")
	err := forEachPlane(context.Background(), planes, 0, func(p int) error {
		claimed.Add(1)
		switch p {
		case 3:
			for claimed.Load() < planes {
				// Wait until the whole batch is claimed, so plane 40's
				// error lands first in wall-clock order.
				runtime.Gosched()
			}
			return err3
		case 40:
			return err40
		}
		return nil
	})
	if !errors.Is(err, err3) {
		t.Fatalf("got %v, want the lowest-indexed failure (plane 3)", err)
	}
}

// TestCompressPlanesRaggedLength: a tensor that is not a whole number
// of planes must be rejected, not silently truncated.
func TestCompressPlanesRaggedLength(t *testing.T) {
	x := tensor.New(100)
	_, err := compressPlanes(context.Background(), x, 3, 3, func(p int, plane *tensor.Tensor) ([]byte, error) {
		return []byte{0}, nil
	})
	if err == nil {
		t.Fatal("100 values over 3×3 planes compressed without error")
	}
	if want := "1 trailing values"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the trailing values", err)
	}
}

// TestGetScratchNoZero checks the no-zero variant really skips the
// clear (the zeroing variant is the one with the stronger contract, so
// reuse must surface stale data here, not zeros).
func TestGetScratchNoZero(t *testing.T) {
	a := getScratchNoZero(64)
	for i := range a {
		a[i] = 42
	}
	putScratch(a)
	b := getScratchNoZero(64)
	defer putScratch(b)
	// sync.Pool may or may not hand back the same buffer; only assert
	// when it did.
	if &a[0] == &b[0] {
		if b[0] != 42 {
			t.Fatal("no-zero scratch was cleared")
		}
	}
}
