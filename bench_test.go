// Package repro's root benchmark suite regenerates every table and
// figure of the paper's evaluation as testing.B benchmarks, one bench
// family per figure (see DESIGN.md §3 for the index), plus the ablation
// benches DESIGN.md §4 calls out.
//
// Two kinds of numbers appear here:
//
//   - wall-clock ns/op of the host implementation (the Go tensor engine
//     actually doing the math), and
//   - "sim_GB/s" / "sim_ms" custom metrics: the calibrated device-model
//     results that correspond to the paper's reported throughputs.
//
// Run with: go test -bench=. -benchmem
package repro

import (
	"fmt"
	"testing"

	"repro/internal/accel"
	"repro/internal/accel/platforms"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dct"
	"repro/internal/experiments"
	"repro/internal/jpegq"
	"repro/internal/tensor"
	"repro/internal/vle"
)

// benchBatch builds the standard workload at a reduced batch size (the
// host engine executes these for real; the simulated sweeps below use
// the paper's full 100-sample batches).
func benchBatch(bd, ch, n int) *tensor.Tensor {
	r := tensor.NewRNG(99)
	return r.Uniform(0, 1, bd, ch, n, n)
}

func mustComp(b *testing.B, cfg core.Config, n int) *core.Compressor {
	b.Helper()
	c, err := core.NewCompressor(cfg, n)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkTable1Specs checks the device registry stays cheap to build —
// and, more usefully, prints nothing unless specs drift from Table 1.
func BenchmarkTable1Specs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		devs := platforms.All()
		if len(devs) != 5 {
			b.Fatal("expected 5 devices")
		}
	}
}

// BenchmarkFig3Heatmap regenerates the JPEG-quantization nonzero
// heatmap over a 100-image sample.
func BenchmarkFig3Heatmap(b *testing.B) {
	gen := datagen.NewClassify(3, 32, 10)
	imgs, _ := gen.Batch(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := jpegq.NonzeroHeatmaps(imgs, 50); err != nil {
			b.Fatal(err)
		}
	}
}

// simSweep runs one (device, op, workload) measurement per iteration and
// reports the device model's throughput as a custom metric.
func simSweep(b *testing.B, dev *accel.Device, op experiments.Op, cfg core.Config, n, bd int) {
	b.Helper()
	var row experiments.ThroughputRow
	for i := 0; i < b.N; i++ {
		row = experiments.Measure(dev, cfg, op, n, bd, 3)
	}
	if row.CompileErr != "" {
		b.Skipf("compile failure (as in the paper): %s", row.CompileErr)
	}
	b.ReportMetric(row.Throughput, "sim_GB/s")
	b.ReportMetric(float64(row.SimTime.Microseconds())/1000, "sim_ms")
}

// BenchmarkFig10Compression: compression time vs resolution, per device
// and chop factor (100 samples × 3 channels).
func BenchmarkFig10Compression(b *testing.B) {
	for _, dev := range platforms.Accelerators() {
		for _, n := range []int{32, 64, 128, 256, 512} {
			for _, cf := range []int{2, 4, 7} {
				dev, n, cf := dev, n, cf
				b.Run(fmt.Sprintf("%s/n%d/cf%d", dev.Name(), n, cf), func(b *testing.B) {
					simSweep(b, dev, experiments.Compress, core.Config{ChopFactor: cf, Serialization: 1}, n, 100)
				})
			}
		}
	}
}

// BenchmarkFig11Decompression: decompression time vs resolution.
func BenchmarkFig11Decompression(b *testing.B) {
	for _, dev := range platforms.Accelerators() {
		for _, n := range []int{32, 64, 128, 256, 512} {
			for _, cf := range []int{2, 4, 7} {
				dev, n, cf := dev, n, cf
				b.Run(fmt.Sprintf("%s/n%d/cf%d", dev.Name(), n, cf), func(b *testing.B) {
					simSweep(b, dev, experiments.Decompress, core.Config{ChopFactor: cf, Serialization: 1}, n, 100)
				})
			}
		}
	}
}

// BenchmarkFig12CompressionBatch: compression time vs batch size
// (3×64×64 samples).
func BenchmarkFig12CompressionBatch(b *testing.B) {
	for _, dev := range platforms.Accelerators() {
		for _, bd := range []int{10, 100, 1000, 2000, 5000} {
			dev, bd := dev, bd
			b.Run(fmt.Sprintf("%s/bd%d", dev.Name(), bd), func(b *testing.B) {
				simSweep(b, dev, experiments.Compress, core.Config{ChopFactor: 4, Serialization: 1}, 64, bd)
			})
		}
	}
}

// BenchmarkFig13DecompressionBatch: decompression time vs batch size.
func BenchmarkFig13DecompressionBatch(b *testing.B) {
	for _, dev := range platforms.Accelerators() {
		for _, bd := range []int{10, 100, 1000, 2000, 5000} {
			dev, bd := dev, bd
			b.Run(fmt.Sprintf("%s/bd%d", dev.Name(), bd), func(b *testing.B) {
				simSweep(b, dev, experiments.Decompress, core.Config{ChopFactor: 4, Serialization: 1}, 64, bd)
			})
		}
	}
}

// BenchmarkFig14A100: the GPU reference decompression sweep.
func BenchmarkFig14A100(b *testing.B) {
	gpu := platforms.ByName("A100")
	for _, n := range []int{64, 128, 256, 512} {
		for _, cf := range []int{2, 4, 7} {
			n, cf := n, cf
			b.Run(fmt.Sprintf("n%d/cf%d", n, cf), func(b *testing.B) {
				simSweep(b, gpu, experiments.Decompress, core.Config{ChopFactor: cf, Serialization: 1}, n, 100)
			})
		}
	}
}

// BenchmarkFig15PS: partial-serialization decompression of 512×512 on
// the two devices the optimization unlocks.
func BenchmarkFig15PS(b *testing.B) {
	for _, name := range []string{"SN30", "IPU"} {
		dev := platforms.ByName(name)
		for _, cf := range []int{7, 4, 2} {
			dev, cf := dev, cf
			b.Run(fmt.Sprintf("%s/cf%d", name, cf), func(b *testing.B) {
				simSweep(b, dev, experiments.Decompress, core.Config{ChopFactor: cf, Serialization: 2}, 512, 100)
			})
		}
	}
}

// BenchmarkFig17SG: scatter/gather vs chop decompression on the IPU.
func BenchmarkFig17SG(b *testing.B) {
	ipu := platforms.ByName("IPU")
	for _, cf := range []int{2, 4, 7} {
		for _, mode := range []core.Mode{core.ModeChop, core.ModeSG} {
			cf, mode := cf, mode
			b.Run(fmt.Sprintf("cf%d/%s", cf, mode), func(b *testing.B) {
				simSweep(b, ipu, experiments.Decompress, core.Config{ChopFactor: cf, Mode: mode, Serialization: 1}, 32, 100)
			})
		}
	}
}

// BenchmarkHostCompress measures the Go tensor engine actually running
// the two-matmul compression kernel (wall clock, not simulation).
func BenchmarkHostCompress(b *testing.B) {
	for _, n := range []int{32, 64, 128, 256} {
		n := n
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			comp := mustComp(b, core.Config{ChopFactor: 4, Serialization: 1}, n)
			x := benchBatch(8, 3, n)
			b.SetBytes(int64(x.SizeBytes()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := comp.Compress(x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHostDecompress is the decompression counterpart.
func BenchmarkHostDecompress(b *testing.B) {
	for _, n := range []int{32, 64, 128, 256} {
		n := n
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			comp := mustComp(b, core.Config{ChopFactor: 4, Serialization: 1}, n)
			x := benchBatch(8, 3, n)
			y, err := comp.Compress(x)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(x.SizeBytes()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := comp.Decompress(y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHostRoundTrip512 is the acceptance headline: the fast
// separable kernel vs the dense fused-matmul reference on the paper's
// largest resolution. perfbench/run.py measures the same kernel end to
// end on realistic tensors.
func BenchmarkHostRoundTrip512(b *testing.B) {
	const n = 512
	comp := mustComp(b, core.Config{ChopFactor: 4, Serialization: 1}, n)
	x := benchBatch(1, 3, n)
	b.Run("fast", func(b *testing.B) {
		out := tensor.New(1, 3, n, n)
		if err := comp.RoundTripInto(out, x); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(x.SizeBytes()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := comp.RoundTripInto(out, x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dense", func(b *testing.B) {
		b.SetBytes(int64(x.SizeBytes()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := comp.RoundTripDense(x); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// hostIntoCases are the fast-path configurations the Into benchmarks
// run: the base DCT+Chop config at two resolutions, plus the
// scatter/gather and s=2 partial-serialization variants.
var hostIntoCases = []struct {
	name string
	cfg  core.Config
	n    int
}{
	{"n64", core.Config{ChopFactor: 4, Serialization: 1}, 64},
	{"n256", core.Config{ChopFactor: 4, Serialization: 1}, 256},
	{"sg-n256", core.Config{ChopFactor: 4, Mode: core.ModeSG, Serialization: 1}, 256},
	{"s2-n256", core.Config{ChopFactor: 4, Serialization: 2}, 256},
}

// BenchmarkHostCompressInto measures the zero-allocation steady-state
// entry points the training loop uses (allocs/op must report 0).
func BenchmarkHostCompressInto(b *testing.B) {
	for _, tc := range hostIntoCases {
		b.Run(tc.name, func(b *testing.B) {
			comp := mustComp(b, tc.cfg, tc.n)
			x := benchBatch(8, 3, tc.n)
			dst := comp.NewCompressed(8, 3)
			if err := comp.CompressInto(dst, x); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(x.SizeBytes()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := comp.CompressInto(dst, x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHostDecompressInto is the decompression counterpart.
func BenchmarkHostDecompressInto(b *testing.B) {
	for _, tc := range hostIntoCases {
		b.Run(tc.name, func(b *testing.B) {
			comp := mustComp(b, tc.cfg, tc.n)
			x := benchBatch(8, 3, tc.n)
			dst := comp.NewCompressed(8, 3)
			out := tensor.New(8, 3, tc.n, tc.n)
			if err := comp.CompressInto(dst, x); err != nil {
				b.Fatal(err)
			}
			if err := comp.DecompressInto(out, dst); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(x.SizeBytes()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := comp.DecompressInto(out, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMatmul compares the blocked parallel matmul against
// the naive triple loop (DESIGN.md ablation 2).
func BenchmarkAblationMatmul(b *testing.B) {
	r := tensor.NewRNG(5)
	x := r.Uniform(-1, 1, 256, 256)
	y := r.Uniform(-1, 1, 256, 256)
	b.Run("blocked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.MatMul(x, y)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.MatMulNaive(x, y)
		}
	})
}

// BenchmarkAblationFusedVsChain compares the paper's fused
// (M·T_L)A(T_Lᵀ·Mᵀ) two-matmul form against the unfused four-matmul
// chain M(T_L·A·T_Lᵀ)Mᵀ (DESIGN.md ablation 1), plus the separable
// fast kernel that replaces both on the host path.
func BenchmarkAblationFusedVsChain(b *testing.B) {
	const n, cf = 128, 4
	x := benchBatch(8, 3, n)
	comp := mustComp(b, core.Config{ChopFactor: cf, Serialization: 1}, n)
	tl := dct.BlockDiagTransform(dct.BlockSize, n/dct.BlockSize)
	tlT := tl.Transpose()
	m := dct.ChopMask(n, cf, dct.BlockSize)
	mT := m.Transpose()
	b.Run("fast", func(b *testing.B) {
		b.SetBytes(int64(x.SizeBytes()))
		for i := 0; i < b.N; i++ {
			if _, err := comp.Compress(x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fused", func(b *testing.B) {
		b.SetBytes(int64(x.SizeBytes()))
		for i := 0; i < b.N; i++ {
			if _, err := comp.CompressDense(x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("chain", func(b *testing.B) {
		b.SetBytes(int64(x.SizeBytes()))
		for i := 0; i < b.N; i++ {
			d := tensor.BatchedMatMul(tensor.BatchedMatMulLeft(tl, x), tlT)
			tensor.BatchedMatMul(tensor.BatchedMatMulLeft(m, d), mT)
		}
	})
}

// BenchmarkAblationTransform compares DCT+Chop against the ZFP-style
// block-transform codec as the decorrelator (the paper's future-work
// alternative; DESIGN.md ablation 3).
func BenchmarkAblationTransform(b *testing.B) {
	x := benchBatch(8, 1, 64)
	b.Run("dct-chop", func(b *testing.B) {
		comp := mustComp(b, core.Config{ChopFactor: 4, Serialization: 1}, 64)
		b.SetBytes(int64(x.SizeBytes()))
		for i := 0; i < b.N; i++ {
			if _, err := comp.RoundTrip(x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("zfp-block", func(b *testing.B) {
		c, err := codec.New("zfp:rate=8") // CR 4, matching chop CF=4
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(x.SizeBytes()))
		for i := 0; i < b.N; i++ {
			if _, _, err := c.RoundTrip(x); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationRetention compares the three retention schemes on the
// same DCT coefficients: chop (square), SG (triangle), and full
// zigzag+RLE+Huffman VLE — quantifying what the accelerators' missing
// bit ops cost in compression ratio (DESIGN.md ablation 4).
func BenchmarkAblationRetention(b *testing.B) {
	const n = 64
	x := benchBatch(8, 3, n)
	b.Run("chop", func(b *testing.B) {
		comp := mustComp(b, core.Config{ChopFactor: 4, Serialization: 1}, n)
		var ratio float64
		for i := 0; i < b.N; i++ {
			y, err := comp.Compress(x)
			if err != nil {
				b.Fatal(err)
			}
			ratio = y.EffectiveRatio()
		}
		b.ReportMetric(ratio, "ratio")
	})
	b.Run("triangle-sg", func(b *testing.B) {
		comp := mustComp(b, core.Config{ChopFactor: 4, Mode: core.ModeSG, Serialization: 1}, n)
		var ratio float64
		for i := 0; i < b.N; i++ {
			y, err := comp.Compress(x)
			if err != nil {
				b.Fatal(err)
			}
			ratio = y.EffectiveRatio()
		}
		b.ReportMetric(ratio, "ratio")
	})
	b.Run("zigzag-vle", func(b *testing.B) {
		// Quantize DCT coefficients (quality 50 luminance), zigzag, then
		// RLE+Huffman — the JPEG-style pipeline no accelerator can run.
		table, err := jpegq.ScaleTable(jpegq.LuminanceTable(), 50)
		if err != nil {
			b.Fatal(err)
		}
		order := dct.ZigZag(8)
		var ratio float64
		for i := 0; i < b.N; i++ {
			var blocks [][]int
			block := tensor.New(8, 8)
			for s := 0; s < x.Dim(0); s++ {
				for c := 0; c < x.Dim(1); c++ {
					for bi := 0; bi < n; bi += 8 {
						for bj := 0; bj < n; bj += 8 {
							for ii := 0; ii < 8; ii++ {
								for jj := 0; jj < 8; jj++ {
									block.Set2(x.At4(s, c, bi+ii, bj+jj)*255-128, ii, jj)
								}
							}
							q := jpegq.QuantizeBlock(dct.Apply2D(block), table)
							zz := make([]int, 64)
							for k, ix := range order {
								zz[k] = q[ix]
							}
							blocks = append(blocks, zz)
						}
					}
				}
			}
			data, err := vle.Encode(blocks)
			if err != nil {
				b.Fatal(err)
			}
			ratio = float64(x.SizeBytes()) / float64(len(data))
		}
		b.ReportMetric(ratio, "ratio")
	})
}

// BenchmarkAblationSerial sweeps the partial-serialization factor on the
// host engine (DESIGN.md ablation 5): more chunks, smaller matrices,
// same output.
func BenchmarkAblationSerial(b *testing.B) {
	const n = 128
	x := benchBatch(4, 3, n)
	for _, s := range []int{1, 2, 4} {
		s := s
		b.Run(fmt.Sprintf("s%d", s), func(b *testing.B) {
			comp := mustComp(b, core.Config{ChopFactor: 4, Serialization: s}, n)
			b.SetBytes(int64(x.SizeBytes()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := comp.RoundTrip(x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkZFPCodec measures the baseline codec itself, selected
// through the registry the way every consumer now reaches it.
func BenchmarkZFPCodec(b *testing.B) {
	x := benchBatch(4, 1, 64)
	for _, rate := range []float64{2, 8, 16} {
		rate := rate
		b.Run(fmt.Sprintf("rate%g", rate), func(b *testing.B) {
			c, err := codec.New(fmt.Sprintf("zfp:rate=%g", rate))
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(x.SizeBytes()))
			for i := 0; i < b.N; i++ {
				if _, _, err := c.RoundTrip(x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
