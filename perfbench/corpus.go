package main

import (
	"fmt"
	"math"

	"repro/internal/datagen"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// The benchmark's input corpus. Every tensor is a pure function of the
// workload seed: the generators below draw only from seeded RNGs, so one
// seed reproduces the corpus bit for bit (corpus_test.go holds this).
// These modules are input generators only and are never timed.

// namedTensor is one corpus tensor with a label for the report.
type namedTensor struct {
	name string
	t    *tensor.Tensor
}

// subSeed derives an independent generator seed from the workload seed.
func subSeed(seed uint64, k uint64) uint64 {
	return (seed+1)*0x9E3779B97F4A7C15 + k*0xBF58476D1CE4E5B9
}

// ckptCorpus returns the checkpoint tensors: the three large weight
// matrices of a small MLP after a short seeded SGD run on classify
// images, the gradients of the last step, and one tensor of uniform
// noise bits as an incompressible control. Each tensor is 1 to 1.5 MiB,
// 8 MiB in all, twice the 4 MiB L2 of the reference host. The batch is
// large enough that few ReLU units are dead across all of it, which
// keeps the gradients' sparsity, and so the ratio, steady across seeds.
func ckptCorpus(seed uint64) []namedTensor {
	const (
		n      = 16 // classify image edge: 3·16·16 = 768 inputs
		hidden = 512
		steps  = 3
		batch  = 192
	)
	rng := tensor.NewRNG(subSeed(seed, 1))
	l1 := nn.NewLinear(rng, "fc1", 3*n*n, hidden)
	l2 := nn.NewLinear(rng, "fc2", hidden, hidden)
	l3 := nn.NewLinear(rng, "fc3", hidden, hidden)
	model := nn.NewSequential(nn.NewFlatten(),
		l1, nn.NewReLU(), l2, nn.NewReLU(), l3, nn.NewReLU(),
		nn.NewLinear(rng, "head", hidden, 10))
	opt := nn.NewSGD(0.05, 0.9)
	data := datagen.NewClassify(subSeed(seed, 2), n, 10)
	for s := 0; s < steps; s++ {
		x, labels := data.Batch(batch)
		model.ZeroGrad()
		_, grad := nn.SoftmaxCrossEntropy(model.Forward(x, true), labels)
		model.Backward(grad)
		if s < steps-1 {
			opt.Step(model.Params())
		}
	}
	var out []namedTensor
	for _, l := range []*nn.Linear{l1, l2, l3} {
		out = append(out,
			namedTensor{l.W.Name, l.W.Value},
			namedTensor{l.W.Name + ".grad", l.W.Grad})
	}
	return append(out, namedTensor{"noise", noiseBits(subSeed(seed, 3), hidden, hidden)})
}

// noiseBits returns a tensor of uniformly random float32 bit patterns:
// every byte lane is incompressible, unlike uniform values in a range,
// whose exponent bytes are skewed.
func noiseBits(seed uint64, shape ...int) *tensor.Tensor {
	rng := tensor.NewRNG(seed)
	t := tensor.New(shape...)
	d := t.Data()
	for i := range d {
		d[i] = math.Float32frombits(uint32(rng.Uint64() >> 32))
	}
	return t
}

// trainCorpus returns one [8,C,256,256] batch from each of the four
// datagen classes, 16 MiB in all.
func trainCorpus(seed uint64) []namedTensor {
	const n, bd = 256, 8
	classify, _ := datagen.NewClassify(subSeed(seed, 10), n, 10).Batch(bd)
	noisy, _ := datagen.NewDenoise(subSeed(seed, 11), n).Batch(bd)
	optical := datagen.NewOptical(subSeed(seed, 12), n).Batch(bd)
	cloud, _ := datagen.NewCloudSeg(subSeed(seed, 13), n, 3).Batch(bd)
	return []namedTensor{
		{"classify", classify},
		{"denoise", noisy},
		{"optical", optical},
		{"cloud", cloud},
	}
}

// archiveRecords is the record count of the archive-seek archive.
const archiveRecords = 1024

// archiveCorpus returns the archive's records: [1,3,64,64] images,
// alternating classify and cloud-segmentation scenes.
func archiveCorpus(seed uint64, records int) []*tensor.Tensor {
	const n = 64
	classify := datagen.NewClassify(subSeed(seed, 20), n, 10)
	cloud := datagen.NewCloudSeg(subSeed(seed, 21), n, 3)
	out := make([]*tensor.Tensor, records)
	for i := range out {
		if i%2 == 0 {
			out[i], _ = classify.Batch(1)
		} else {
			out[i], _ = cloud.Batch(1)
		}
	}
	return out
}

// totalBytes sums the float32 sizes of ts.
func totalBytes(ts []*tensor.Tensor) int64 {
	var n int64
	for _, t := range ts {
		n += int64(t.SizeBytes())
	}
	return n
}

// tensorsOf strips the names.
func tensorsOf(nts []namedTensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(nts))
	for i, nt := range nts {
		out[i] = nt.t
	}
	return out
}

// describe renders the corpus shapes for the report header.
func describe(nts []namedTensor) string {
	s := ""
	for i, nt := range nts {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s%v", nt.name, nt.t.Shape())
	}
	return s
}
