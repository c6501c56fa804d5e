package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/codec"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

const (
	// trainSpec is the paper's DCT+Chop at chop factor 4, no stages.
	trainSpec = "dctc:cf=4"
	// trainPSNRFloor is the fidelity every decoded training batch must
	// reach; the lowest class measures about 23.5 dB at cf=4.
	trainPSNRFloor = 20.0
)

// trainBench is the train-dctc workload: each batch is compressed to an
// in-memory container and decoded back with DecodeBytes, as a training
// input pipeline would, and must meet the PSNR floor.
type trainBench struct {
	corpus  []namedTensor
	tensors []*tensor.Tensor
	raw     int64
	nproc   int
	c       codec.Codec
}

func newTrainBench(seed uint64, nproc int) *trainBench {
	corpus := trainCorpus(seed)
	ts := tensorsOf(corpus)
	return &trainBench{corpus: corpus, tensors: ts, raw: totalBytes(ts), nproc: nproc}
}

func (b *trainBench) inputs() string { return describe(b.corpus) }

func (b *trainBench) setup() error {
	c, err := codec.New(trainSpec)
	if err != nil {
		return err
	}
	if _, err := codec.Compiler(c, 256); err != nil {
		return err
	}
	b.c = c
	x := b.tensors[0]
	data, err := c.Compress(x)
	if err != nil {
		return err
	}
	out, _, err := codec.DecodeBytes(data)
	if err != nil {
		return err
	}
	_, err = checkPSNR(x, out, trainPSNRFloor)
	return err
}

// checkPSNR returns the PSNR of got against want, failing below floor.
func checkPSNR(want, got *tensor.Tensor, floor float64) (float64, error) {
	if got == nil || !got.SameShape(want) {
		return 0, fmt.Errorf("decoded shape differs from the input's")
	}
	p := metrics.PSNR(want, got)
	if !(p >= floor) {
		return p, fmt.Errorf("PSNR %.2f dB below the %.0f dB floor", p, floor)
	}
	return p, nil
}

// batchResult is one batch's compress and decompress operations.
type batchResult struct {
	cd, dd   time.Duration // 0 for a failed side
	cID, dID int64
	data     []byte
	out      *tensor.Tensor
	psnr     float64
}

// batch compresses and decodes tensor i as two operations; the PSNR
// check runs after the decode's span ends.
func (b *trainBench) batch(r *Report, tr *tracer, i int) batchResult {
	x := b.tensors[i]
	var br batchResult
	var err error
	br.cID, br.cd, err = tr.timeOp("train.compress", func() error {
		var err error
		br.data, err = b.c.Compress(x)
		return err
	})
	if !r.Op("train compress", err) {
		return batchResult{}
	}
	br.dID, br.dd, err = tr.timeOp("train.decompress", func() error {
		var err error
		br.out, _, err = codec.DecodeBytes(br.data)
		return err
	})
	if err == nil {
		br.psnr, err = checkPSNR(x, br.out, trainPSNRFloor)
	}
	if !r.Op("train decompress", err) {
		br.dd = 0
	}
	return br
}

// trainSamples are the untraced loop's per-pass and per-batch times.
type trainSamples struct {
	passC, passD   []float64 // per pass, ns
	batchC, batchD []float64 // per batch, ns
	moved, stored  int64
	psnr           float64
}

// loop runs passes over the corpus until d has elapsed.
func (b *trainBench) loop(r *Report, d time.Duration) trainSamples {
	s := trainSamples{psnr: math.Inf(1)}
	deadline := time.Now().Add(d)
	for len(s.passC) < minSamples || time.Now().Before(deadline) {
		var pc, pd time.Duration
		ok := true
		var stored int64
		for i := range b.tensors {
			br := b.batch(r, nil, i)
			if br.cd == 0 || br.dd == 0 {
				ok = false
				continue
			}
			pc += br.cd
			pd += br.dd
			stored += int64(len(br.data))
			s.batchC = append(s.batchC, float64(br.cd))
			s.batchD = append(s.batchD, float64(br.dd))
			s.psnr = math.Min(s.psnr, br.psnr)
		}
		if ok {
			s.passC = append(s.passC, float64(pc))
			s.passD = append(s.passD, float64(pd))
			s.moved += 2 * b.raw
			s.stored = stored
		}
		if r.Failed > maxFailures {
			break
		}
	}
	return s
}

func (b *trainBench) measure(r *Report, d time.Duration) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s := b.loop(r, d)
	runtime.ReadMemStats(&m1)
	r.AddDist("compress_mbps", "MB/s", throughput(b.raw, s.passC))
	r.AddDist("decompress_mbps", "MB/s", throughput(b.raw, s.passD))
	r.Add("ratio", "x", ratio(float64(b.raw), float64(s.stored)), 1, "input bytes / container bytes")
	r.Add("alloc_bytes_per_byte", "B/B", ratio(float64(m1.TotalAlloc-m0.TotalAlloc), float64(s.moved)), len(s.passC), "Go heap bytes per uncompressed byte compressed or decoded")
	r.Add("psnr_db", "dB", s.psnr, len(s.batchD), "minimum over decoded batches")
	r.AddDist("compress_batch_ms", "ms", Summarize(scaled(s.batchC, 1e-6)))
	r.AddDist("decompress_batch_ms", "ms", Summarize(scaled(s.batchD, 1e-6)))
}

func (b *trainBench) trace(r *Report, d time.Duration, tr *tracer) {
	untraced := b.loop(r, d*2/5)

	kit, err := newLayerKit(trainSpec, 1, 256)
	if !r.Op("layer kit", err) {
		return
	}
	prepared := make([]*replayInput, len(b.tensors))
	var coreMoved, overhead int64
	for i, x := range b.tensors {
		if prepared[i], err = kit.prepare(x); !r.Op("replay prep", err) {
			return
		}
		coreMoved += 2 * int64(x.SizeBytes()+prepared[i].y.CompressedBytes())
		overhead += int64(len(prepared[i].stagedC) - len(prepared[i].stagedP))
	}
	var acc layerAcc
	deadline := time.Now().Add(d * 3 / 5)
	for first := true; first || time.Now().Before(deadline); first = false {
		before := blockCounts()
		for i, ri := range prepared {
			br := b.batch(r, tr, i)
			if br.cd == 0 || br.dd == 0 {
				return
			}
			acc.enc.opNs += int64(br.cd)
			acc.dec.opNs += int64(br.dd)
			if !r.Op("replay encode", kit.replayEncode(tr, &acc.enc, br.cID, br.cID, ri)) ||
				!r.Op("replay decode", kit.replayDecode(tr, &acc.dec, br.dID, br.dID, ri, br.out)) {
				return
			}
		}
		if first {
			addBlockDelta(r, before, blockCounts(), "blocks per pass (telemetry delta); dctc has no entropy stage")
		}
		if r.Failed > maxFailures {
			break
		}
	}
	r.Op("replay allocations", kit.measureAllocs(&acc, prepared))
	addLayerMetrics(r, &acc, coreMoved)
	r.Add("framing.overhead_bytes", "B", float64(overhead), 1, "container bytes - payload bytes, per pass")
	addStreamZero(r)
	addIndexZero(r)
	sp, err := kit.pipelineSpeedup(b.tensors, b.nproc, 3)
	if r.Op("pipeline speedup", err) {
		r.Add("pipeline.speedup", "x", sp, 3, fmt.Sprintf("backend round trip at SetMaxWorkers(1) / SetMaxWorkers(%d)", b.nproc))
	}
	addOverhead(r, map[string][2][]float64{
		"compress":   {untraced.batchC, tr.spansOf("train.compress")},
		"decompress": {untraced.batchD, tr.spansOf("train.decompress")},
	})
	r.Note(selfTable(&acc)...)
}
