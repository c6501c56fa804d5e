package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/codec"
	"repro/internal/tensor"
)

// ckptSpec codes the checkpoint: byte-grouped float32 lanes, each lane
// entropy coded on its own.
const ckptSpec = "lossless:bg=4+huf"

// ckptBench is the ckpt-lossless workload: one pass writes the corpus
// as an indexed ACCF v2 stream at concurrency nproc, then reads it back
// with read-ahead and checks every tensor bit for bit.
type ckptBench struct {
	corpus  []namedTensor
	tensors []*tensor.Tensor
	raw     int64
	nproc   int
	c       codec.Codec
	buf     bytes.Buffer // stream output, reused across passes
}

func newCkptBench(seed uint64, nproc int) *ckptBench {
	corpus := ckptCorpus(seed)
	ts := tensorsOf(corpus)
	return &ckptBench{corpus: corpus, tensors: ts, raw: totalBytes(ts), nproc: nproc}
}

func (b *ckptBench) inputs() string { return describe(b.corpus) }

func (b *ckptBench) setup() error {
	c, err := codec.New(ckptSpec)
	if err != nil {
		return err
	}
	b.c = c
	data, _, err := writeStream(&b.buf, c, b.tensors[:1], b.nproc)
	if err != nil {
		return err
	}
	out, _, err := readStream(data, 2)
	if err != nil {
		return err
	}
	return checkExact(out, b.tensors[:1])
}

// writeStream writes ts to buf (reset first) as one indexed stream at
// concurrency conc and returns the stream bytes, which alias buf.
func writeStream(buf *bytes.Buffer, c codec.Codec, ts []*tensor.Tensor, conc int) ([]byte, codec.StreamWriterStats, error) {
	buf.Reset()
	sw := codec.NewStreamWriter(buf)
	if err := sw.SetConcurrency(conc); err != nil {
		return nil, codec.StreamWriterStats{}, err
	}
	if err := sw.SetIndex(true); err != nil {
		return nil, codec.StreamWriterStats{}, err
	}
	for _, t := range ts {
		if err := sw.WriteTensor(context.Background(), c, t); err != nil {
			return nil, sw.Stats(), err
		}
	}
	if err := sw.Close(); err != nil {
		return nil, sw.Stats(), err
	}
	return buf.Bytes(), sw.Stats(), nil
}

// readStream decodes every record of data, with read-ahead depth ra
// (0 reads synchronously).
func readStream(data []byte, ra int) ([]*tensor.Tensor, codec.StreamReaderStats, error) {
	sr, err := codec.NewStreamReader(bytes.NewReader(data))
	if err != nil {
		return nil, codec.StreamReaderStats{}, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if ra > 0 {
		if err := sr.SetReadAhead(ctx, ra); err != nil {
			return nil, sr.Stats(), err
		}
	}
	var out []*tensor.Tensor
	for {
		if _, err := sr.Next(); err == io.EOF {
			return out, sr.Stats(), nil
		} else if err != nil {
			return out, sr.Stats(), err
		}
		t, err := sr.Decode(ctx)
		if err != nil {
			return out, sr.Stats(), err
		}
		out = append(out, t)
	}
}

// checkExact requires got to reproduce want bit for bit.
func checkExact(got, want []*tensor.Tensor) error {
	if len(got) != len(want) {
		return fmt.Errorf("decoded %d tensors, wrote %d", len(got), len(want))
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			return fmt.Errorf("tensor %d is not bit-exact", i)
		}
	}
	return nil
}

// passResult is one pass's outcome: the operation durations (0 for a
// failed side), span ids, stream bytes and engine statistics.
type passResult struct {
	wd, rd   time.Duration
	wID, rID int64
	data     []byte
	ws       codec.StreamWriterStats
	rs       codec.StreamReaderStats
}

// pass runs one write at concurrency conc and one read, timing each as
// an operation; verification runs after the read's span ends.
func (b *ckptBench) pass(r *Report, tr *tracer, conc int) passResult {
	var p passResult
	var err error
	p.wID, p.wd, err = tr.timeOp("ckpt.write", func() error {
		var err error
		p.data, p.ws, err = writeStream(&b.buf, b.c, b.tensors, conc)
		return err
	})
	if !r.Op("ckpt write pass", err) {
		return passResult{}
	}
	var out []*tensor.Tensor
	p.rID, p.rd, err = tr.timeOp("ckpt.read", func() error {
		var err error
		out, p.rs, err = readStream(p.data, 2)
		return err
	})
	if err == nil {
		err = checkExact(out, b.tensors)
	}
	if !r.Op("ckpt read pass", err) {
		p.rd = 0
	}
	return p
}

// loop runs passes until d has elapsed and returns the write and read
// durations of the successful ones, in nanoseconds.
func (b *ckptBench) loop(r *Report, d time.Duration) (ws, rs []float64, moved int64, ratioV float64) {
	deadline := time.Now().Add(d)
	for len(ws) < minSamples || time.Now().Before(deadline) {
		p := b.pass(r, nil, b.nproc)
		if p.wd > 0 {
			ws = append(ws, float64(p.wd))
			moved += b.raw
			ratioV = float64(b.raw) / float64(len(p.data))
		}
		if p.rd > 0 {
			rs = append(rs, float64(p.rd))
			moved += b.raw
		}
		if r.Failed > maxFailures {
			break
		}
	}
	return ws, rs, moved, ratioV
}

func (b *ckptBench) measure(r *Report, d time.Duration) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ws, rs, moved, ratioV := b.loop(r, d)
	runtime.ReadMemStats(&m1)
	r.AddDist("compress_mbps", "MB/s", throughput(b.raw, ws))
	r.AddDist("decompress_mbps", "MB/s", throughput(b.raw, rs))
	r.Add("ratio", "x", ratioV, 1, "input bytes / stream bytes incl. records, chunks and index")
	r.Add("alloc_bytes_per_byte", "B/B", ratio(float64(m1.TotalAlloc-m0.TotalAlloc), float64(moved)), len(ws)+len(rs), "Go heap bytes per uncompressed byte written or read")
	r.AddDist("write_pass_ms", "ms", Summarize(scaled(ws, 1e-6)))
	r.AddDist("read_pass_ms", "ms", Summarize(scaled(rs, 1e-6)))
}

func (b *ckptBench) trace(r *Report, d time.Duration, tr *tracer) {
	// Untraced reference for the tracing overhead.
	untracedW, untracedR, _, _ := b.loop(r, d*2/5)

	kit, err := newLayerKit(ckptSpec, 4, 0)
	if !r.Op("layer kit", err) {
		return
	}
	prepared := make([]*replayInput, len(b.tensors))
	for i, x := range b.tensors {
		if prepared[i], err = kit.prepare(x); !r.Op("replay prep", err) {
			return
		}
	}
	var acc layerAcc
	var maxInflight int64
	var hits, misses int64
	var overhead int64
	deadline := time.Now().Add(d * 3 / 5)
	for first := true; first || time.Now().Before(deadline); first = false {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		before := blockCounts()
		p := b.pass(r, tr, b.nproc)
		after := blockCounts()
		runtime.ReadMemStats(&m1)
		if p.wd == 0 || p.rd == 0 {
			break
		}
		if first {
			addBlockDelta(r, before, after, "blocks per write pass (telemetry delta)")
			overhead = int64(len(p.data))
			for _, ri := range prepared {
				overhead -= int64(len(ri.stagedP))
			}
		}
		acc.streamAlloc += m1.TotalAlloc - m0.TotalAlloc
		acc.streamRaw += uint64(2 * b.raw)
		maxInflight = max(maxInflight, p.ws.MaxInFlightBytes)
		hits += p.rs.ReadAheadHits
		misses += p.rs.ReadAheadMisses

		// The serial write is the denominator of the write-side shares:
		// the replays run serially too.
		sID, sd, err := tr.timeOp("ckpt.write_serial", func() error {
			_, _, err := writeStream(&b.buf, b.c, b.tensors, 1)
			return err
		})
		if !r.Op("ckpt serial write pass", err) {
			break
		}
		acc.enc.opNs += int64(sd)
		acc.dec.opNs += int64(p.rd)
		for i, ri := range prepared {
			if !r.Op("replay encode", kit.replayEncode(tr, &acc.enc, sID, sID, ri)) ||
				!r.Op("replay decode", kit.replayDecode(tr, &acc.dec, p.rID, p.rID, ri, b.tensors[i])) {
				return
			}
		}
		if r.Failed > maxFailures {
			break
		}
	}
	r.Op("replay allocations", kit.measureAllocs(&acc, prepared))
	addLayerMetrics(r, &acc, 0)
	r.Add("framing.overhead_bytes", "B", float64(overhead), 1, "stream bytes - staged payload bytes, per pass")
	r.Add("stream.write_speedup", "x", ratio(Summarize(tr.spansOf("ckpt.write_serial")).P50, Summarize(tr.spansOf("ckpt.write")).P50), 0, fmt.Sprintf("write pass at concurrency 1 / at %d", b.nproc))
	r.Add("stream.writer.max_inflight_bytes", "B", float64(maxInflight), 0, "high-water mark over traced passes")
	r.Add("stream.reader.readahead_hit_ratio", "fraction", ratio(float64(hits), float64(hits+misses)), int(hits+misses), "hits / (hits + misses)")
	r.Add("stream.reader.footer_skips", "count", 0, 0, "no Skip in this workload")
	addIndexZero(r)
	sp, err := kit.pipelineSpeedup(b.tensors, b.nproc, 3)
	if r.Op("pipeline speedup", err) {
		r.Add("pipeline.speedup", "x", sp, 3, "lossless has no planes: expect 1")
	}
	addOverhead(r, map[string][2][]float64{
		"write": {untracedW, tr.spansOf("ckpt.write")},
		"read":  {untracedR, tr.spansOf("ckpt.read")},
	})
	r.Note(selfTable(&acc)...)
}
