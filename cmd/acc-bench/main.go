// Command acc-bench regenerates the paper's throughput evaluation:
// Table 1 (accelerator specs) and Figs. 10–15 and 17 (compression and
// decompression time/throughput across the four simulated AI
// accelerators plus the A100 reference).
//
// Usage:
//
//	acc-bench -table1          # accelerator specification table
//	acc-bench -fig10 -fig11    # time vs resolution sweeps
//	acc-bench -fig12 -fig13    # time vs batch-size sweeps
//	acc-bench -fig14           # A100 decompression sweep
//	acc-bench -fig15           # partial-serialization throughput
//	acc-bench -fig17           # scatter/gather vs chop on the IPU
//	acc-bench -all             # everything
//	acc-bench -all -csv out/   # additionally write one CSV per figure
//
// Host-side performance is measured elsewhere: perfbench/run.py for
// end-to-end claims, and `go test -bench` for the kernel and codec rows.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/accel"
	"repro/internal/accel/platforms"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/report"
)

func main() {
	var (
		table1  = flag.Bool("table1", false, "print Table 1 accelerator specs")
		fig10   = flag.Bool("fig10", false, "compression time vs resolution")
		fig11   = flag.Bool("fig11", false, "decompression time vs resolution")
		fig12   = flag.Bool("fig12", false, "compression time vs batch size")
		fig13   = flag.Bool("fig13", false, "decompression time vs batch size")
		fig14   = flag.Bool("fig14", false, "A100 decompression vs resolution")
		fig15   = flag.Bool("fig15", false, "partial serialization, 512x512, s=2")
		fig17   = flag.Bool("fig17", false, "scatter/gather vs chop on IPU")
		zfp4    = flag.Bool("zfp4", false, "future work: ZFP block-transform variant across devices")
		overlap = flag.Bool("overlap", false, "pipeline-masking analysis (§4.2.2 samples/s comparison)")
		all     = flag.Bool("all", false, "run every table and figure")
		csvDir  = flag.String("csv", "", "directory to write per-figure CSV files")
	)
	flag.Parse()
	if *all {
		*table1, *fig10, *fig11, *fig12, *fig13, *fig14, *fig15, *fig17, *zfp4, *overlap =
			true, true, true, true, true, true, true, true, true, true
	}
	if !(*table1 || *fig10 || *fig11 || *fig12 || *fig13 || *fig14 || *fig15 || *fig17 || *zfp4 || *overlap) {
		flag.Usage()
		os.Exit(2)
	}

	emit := func(name string, t *report.Table) {
		if _, err := t.WriteTo(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println()
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			f, err := os.Create(filepath.Join(*csvDir, name+".csv"))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := t.WriteCSV(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			f.Close()
		}
	}

	cfs := []int{2, 3, 4, 5, 6, 7}
	resolutions := []int{32, 64, 128, 256, 512}
	batches := []int{10, 50, 100, 500, 1000, 2000, 5000}

	if *table1 {
		emit("table1", specTable())
	}
	if *fig10 {
		rows := experiments.SweepResolution(platforms.Accelerators(), experiments.Compress, resolutions, cfs)
		emit("fig10", sweepTable("Fig. 10: compression time vs resolution (100 samples, 3 channels)", rows, "n"))
	}
	if *fig11 {
		rows := experiments.SweepResolution(platforms.Accelerators(), experiments.Decompress, resolutions, cfs)
		emit("fig11", sweepTable("Fig. 11: decompression time vs resolution (100 samples, 3 channels)", rows, "n"))
	}
	if *fig12 {
		rows := experiments.SweepBatch(platforms.Accelerators(), experiments.Compress, batches, cfs)
		emit("fig12", sweepTable("Fig. 12: compression time vs batch size (3x64x64 samples)", rows, "batch"))
	}
	if *fig13 {
		rows := experiments.SweepBatch(platforms.Accelerators(), experiments.Decompress, batches, cfs)
		emit("fig13", sweepTable("Fig. 13: decompression time vs batch size (3x64x64 samples)", rows, "batch"))
	}
	if *fig14 {
		gpu := []*accel.Device{platforms.ByName("A100")}
		rows := experiments.SweepResolution(gpu, experiments.Decompress, resolutions, cfs)
		emit("fig14", sweepTable("Fig. 14: A100 decompression time vs resolution", rows, "n"))
	}
	if *fig15 {
		devs := []*accel.Device{platforms.ByName("SN30"), platforms.ByName("IPU")}
		rows := experiments.SweepPartialSerialization(devs, []int{7, 6, 5, 4, 3, 2})
		emit("fig15", sweepTable("Fig. 15: partial serialization s=2, 100x3x512x512, decompression", rows, "n"))
	}
	if *overlap {
		// §4.2.2: decompression vs training samples/s — the pipeline
		// masking argument. Training rates are the paper's citations.
		t := report.New("Pipeline masking: decompression vs training throughput (ResNet34/CIFAR10 scenario)",
			"device", "decomp samples/s", "train samples/s (paper)", "ratio", "masked")
		for _, r := range experiments.PipelineOverlap(platforms.Accelerators()) {
			if r.Err != "" {
				t.Add(r.Device, "-", "-", "-", "COMPILE FAIL")
				continue
			}
			train, ratio := "n/a", "n/a"
			masked := "n/a"
			if r.TrainSamplesPerSec > 0 {
				train = fmt.Sprintf("%.0f", r.TrainSamplesPerSec)
				ratio = fmt.Sprintf("%.0fx", r.Ratio)
				masked = fmt.Sprint(r.Masked)
			}
			t.Add(r.Device, fmt.Sprintf("%.0f", r.DecompSamplesPerSec), train, ratio, masked)
		}
		emit("overlap", t)
	}
	if *zfp4 {
		// Future work §6: the ZFP block transform through the same
		// portable pipeline, decompression at 256×256 on every device.
		t := report.New("Future work: ZFP block-transform variant, decompression, 100x3x256x256",
			"device", "CF", "CR", "time", "GB/s", "status")
		for _, d := range platforms.All() {
			for _, cf := range []int{1, 2, 3, 4} {
				cfg := core.Config{ChopFactor: cf, Serialization: 1, Transform: core.TransformZFP4}
				r := experiments.Measure(d, cfg, experiments.Decompress, 256, 100, 3)
				if r.CompileErr != "" {
					t.Add(r.Device, cf, cfg.Ratio(), "-", "-", "COMPILE FAIL: "+r.CompileErr)
					continue
				}
				t.Add(r.Device, cf, cfg.Ratio(), r.SimTime, r.Throughput, "ok")
			}
		}
		emit("zfp4-variant", t)
	}
	if *fig17 {
		rows := experiments.SweepSG(platforms.ByName("IPU"), cfs)
		t := report.New("Fig. 17: scatter/gather (opt) vs DCT+Chop (dct) decompression, IPU, 100x3x32x32",
			"mode", "CF", "CR", "time", "GB/s")
		for _, r := range rows {
			mode := "dct"
			if r.Config.Mode != 0 {
				mode = "opt"
			}
			t.Add(mode, r.Config.ChopFactor, r.Config.Ratio(), r.SimTime, r.Throughput)
		}
		emit("fig17", t)
	}
}

func specTable() *report.Table {
	t := report.New("Table 1: accelerator specifications",
		"", "CS-2", "SN30", "GroqChip", "IPU")
	devs := platforms.Accelerators()
	row := func(label string, f func(accel.Specs) string) {
		cells := []any{label}
		for _, d := range devs {
			cells = append(cells, f(d.Specs()))
		}
		t.Add(cells...)
	}
	row("CUs", func(s accel.Specs) string { return fmt.Sprint(s.ComputeUnits) })
	row("OCM", func(s accel.Specs) string { return fmtBytes(s.OnChipMemory) })
	row("OCM/CUs", func(s accel.Specs) string { return fmtBytes(s.PerUnitMemory) })
	row("Software", func(s accel.Specs) string { return strings.Join(s.Software, ", ") })
	row("Arch.", func(s accel.Specs) string { return s.Architecture.String() })
	return t
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.4g GB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.4g MB", float64(b)/(1<<20))
	default:
		return fmt.Sprintf("%.4g KB", float64(b)/(1<<10))
	}
}

func sweepTable(title string, rows []experiments.ThroughputRow, xlabel string) *report.Table {
	t := report.New(title, "device", "CF", "CR", xlabel, "time", "GB/s", "status")
	for _, r := range rows {
		x := r.N
		if xlabel == "batch" {
			x = r.Batch
		}
		status := "ok"
		if r.CompileErr != "" {
			status = "COMPILE FAIL: " + r.CompileErr
			t.Add(r.Device, r.Config.ChopFactor, r.Config.Ratio(), x, "-", "-", status)
			continue
		}
		t.Add(r.Device, r.Config.ChopFactor, r.Config.Ratio(), x, r.SimTime, r.Throughput, status)
	}
	return t
}
