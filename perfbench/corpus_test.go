package main

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// corpusBits flattens every corpus tensor's shape and bit patterns.
func corpusBits(ts []*tensor.Tensor) []uint32 {
	var out []uint32
	for _, t := range ts {
		for _, d := range t.Shape() {
			out = append(out, uint32(d))
		}
		for _, v := range t.Data() {
			out = append(out, math.Float32bits(v))
		}
	}
	return out
}

func sameCorpus(a, b []*tensor.Tensor) bool {
	x, y := corpusBits(a), corpusBits(b)
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

func TestCorpusIsAFunctionOfTheSeed(t *testing.T) {
	for _, c := range []struct {
		name string
		gen  func(seed uint64) []*tensor.Tensor
	}{
		{"ckpt", func(s uint64) []*tensor.Tensor { return tensorsOf(ckptCorpus(s)) }},
		{"train", func(s uint64) []*tensor.Tensor { return tensorsOf(trainCorpus(s)) }},
		{"archive", func(s uint64) []*tensor.Tensor { return archiveCorpus(s, 64) }},
	} {
		a, b := c.gen(7), c.gen(7)
		if !sameCorpus(a, b) {
			t.Errorf("%s: seed 7 gave different inputs on two runs", c.name)
		}
		if sameCorpus(a, c.gen(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", c.name)
		}
	}
}

// staticMetrics are the figures a seed fixes: the ratio, the lowest
// PSNR (0 for lossless) and the entropy blocks one write pass emits.
type staticMetrics struct {
	ratio  float64
	psnr   float64
	blocks [4]uint64
}

func blockDelta(before [4]uint64) [4]uint64 {
	after := blockCounts()
	for i := range after {
		after[i] -= before[i]
	}
	return after
}

func ckptStatic(t *testing.T, seed uint64) staticMetrics {
	b := newCkptBench(seed, runtime.NumCPU())
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	before := blockCounts()
	r := newReport()
	p := b.pass(r, nil, b.nproc)
	if r.Failed != 0 {
		t.Fatalf("ckpt pass failed: %v", r.failures)
	}
	return staticMetrics{ratio: float64(b.raw) / float64(len(p.data)), blocks: blockDelta(before)}
}

func trainStatic(t *testing.T, seed uint64) staticMetrics {
	b := newTrainBench(seed, runtime.NumCPU())
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	before := blockCounts()
	r := newReport()
	m := staticMetrics{psnr: math.Inf(1)}
	var stored int
	for i := range b.tensors {
		br := b.batch(r, nil, i)
		stored += len(br.data)
		m.psnr = math.Min(m.psnr, br.psnr)
	}
	if r.Failed != 0 {
		t.Fatalf("train pass failed: %v", r.failures)
	}
	m.ratio = float64(b.raw) / float64(stored)
	m.blocks = blockDelta(before)
	return m
}

func archiveStatic(t *testing.T, seed uint64) staticMetrics {
	before := blockCounts()
	b, err := buildArchiveBench(archiveCorpus(seed, 64), 1, runtime.NumCPU())
	if err != nil {
		t.Fatal(err)
	}
	return staticMetrics{ratio: float64(b.raw) / float64(len(b.archive)), psnr: b.psnr, blocks: blockDelta(before)}
}

func TestSeedFixesRatioPSNRAndBlocks(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(*testing.T, uint64) staticMetrics
	}{{"ckpt-lossless", ckptStatic}, {"train-dctc", trainStatic}, {"archive-seek", archiveStatic}} {
		a, b := c.run(t, 3), c.run(t, 3)
		if a != b {
			t.Errorf("%s: two runs of seed 3 gave %+v and %+v", c.name, a, b)
		}
		if a.ratio <= 1 {
			t.Errorf("%s: ratio %v", c.name, a.ratio)
		}
	}
}

func TestTrainBypassesEntropy(t *testing.T) {
	if m := trainStatic(t, 1); m.blocks != [4]uint64{} {
		t.Errorf("train-dctc emitted entropy blocks %v", m.blocks)
	}
}
