// Command perfbench is the repository benchmark: three closed-loop
// workloads over the codec stack, each checked for correctness, with an
// untraced mode that reports the end-to-end metrics and a traced mode
// that attributes each workload's time to the program's layers. See
// README.md for the metrics, the workloads and how to read the output.
//
//	go run . --workload ckpt-lossless --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it list
// every metric with its unit and sample count.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/codec"
)

// metricSpec names a metric of the result line and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics an untraced run prints in its result line;
// every workload measures each of them. BENCHMARK.json lists the same
// metrics with their bounds.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"compress_mbps", "MB/s"},
	{"decompress_mbps", "MB/s"},
	{"ratio", "x"},
	{"alloc_bytes_per_byte", "B/B"},
}

// perLayer are the metrics a traced run prints in its result line. A
// layer a workload does not use reports 0.
var perLayer = []metricSpec{
	{"core.compress_mbps", "MB/s"},
	{"core.decompress_mbps", "MB/s"},
	{"core.share", "fraction"},
	{"core.bytes_moved", "B"},
	{"backend.compress_mbps", "MB/s"},
	{"backend.decompress_mbps", "MB/s"},
	{"backend.serialize_share", "fraction"},
	{"entropy.encode_mbps", "MB/s"},
	{"entropy.decode_mbps", "MB/s"},
	{"entropy.ratio", "x"},
	{"entropy.encode_share", "fraction"},
	{"entropy.decode_share", "fraction"},
	{"entropy.blocks.raw", "count"},
	{"entropy.blocks.rle", "count"},
	{"entropy.blocks.fse", "count"},
	{"entropy.blocks.huf", "count"},
	{"framing.container_write_mbps", "MB/s"},
	{"framing.container_read_mbps", "MB/s"},
	{"framing.overhead_bytes", "B"},
	{"stream.write_speedup", "x"},
	{"stream.writer.max_inflight_bytes", "B"},
	{"stream.reader.readahead_hit_ratio", "fraction"},
	{"stream.reader.footer_skips", "count"},
	{"index.open_us", "us"},
	{"index.decode_at_overhead_us", "us"},
	{"index.range_speedup", "x"},
	{"index.scan_last_ms.seekable", "ms"},
	{"index.scan_last_ms.stream", "ms"},
	{"pipeline.speedup", "x"},
	{"runtime.alloc_bytes.core", "B/B"},
	{"runtime.alloc_bytes.backend", "B/B"},
	{"runtime.alloc_bytes.entropy", "B/B"},
	{"runtime.alloc_bytes.framing", "B/B"},
	{"runtime.alloc_bytes.stream", "B/B"},
	{"runtime.alloc_bytes.index", "B/B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"unattributed_share", "fraction"},
	{"trace.overhead_share", "fraction"},
}

const (
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 15
	// minSamples is the fewest passes a loop runs, however short the run.
	minSamples = 5
	// maxFailures stops a loop that keeps failing.
	maxFailures = 100
)

// workload is one benchmark workload over its generated inputs.
type workload interface {
	// inputs describes the generated corpus.
	inputs() string
	// setup builds everything the timed loop uses and runs one warm-up
	// operation.
	setup() error
	// measure runs the untraced closed loop for about d.
	measure(r *Report, d time.Duration)
	// trace runs an untraced reference loop and then the traced loop
	// with layer replays, for about d in all.
	trace(r *Report, d time.Duration, tr *tracer)
}

// workloads maps each workload name to its input generator.
var workloads = map[string]func(seed uint64, nproc int) (workload, error){
	"ckpt-lossless": func(seed uint64, nproc int) (workload, error) { return newCkptBench(seed, nproc), nil },
	"train-dctc":    func(seed uint64, nproc int) (workload, error) { return newTrainBench(seed, nproc), nil },
	"archive-seek":  func(seed uint64, nproc int) (workload, error) { return newArchiveBench(seed, nproc) },
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: ckpt-lossless, train-dctc or archive-seek")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured time per run")
	traced := fs.Int("trace", 0, "1 for the traced per-layer run")
	spansDir := fs.String("spans-dir", "", "directory for the traced run's span file (none if empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	gen, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: need --workload in %v, --seconds > 0 and --trace 0 or 1\n", names)
		return 2
	}

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	codec.SetMaxWorkers(nproc)

	w, err := gen(*seed, nproc)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: generating %s inputs: %v\n", *name, err)
		return 1
	}
	fmt.Fprintf(stdout, "workload %s seed %d nproc %d trace %d\ninputs %s\n", *name, *seed, nproc, *traced, w.inputs())

	r := newReport()
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := time.Now()
		if err := w.setup(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s setup: %v\n", *name, err)
			return 1
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.AddDist("setup_s", "s", Summarize(setups))

	// Each set-up and the timed loop start from a collected heap.
	runtime.GC()
	d := time.Duration(*seconds * float64(time.Second))
	metrics := endToEnd
	if *traced == 1 {
		metrics = perLayer
		tr := newTracer()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		w.trace(r, d, tr)
		runtime.ReadMemStats(&m1)
		r.Add("runtime.gc_cycles", "count", float64(m1.NumGC-m0.NumGC), 1, "during the traced run")
		r.Add("runtime.gc_pause_ms", "ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, 1, "during the traced run")
		if *spansDir != "" {
			path := filepath.Join(*spansDir, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
			if err := tr.writeFile(path); err != nil {
				fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "spans %d written to %s\n", len(tr.spans), path)
		}
	} else {
		w.measure(r, d)
	}
	r.WriteHuman(stdout)
	line, err := r.JSON(metrics)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// throughput turns per-operation durations (ns) of ops that each move
// bytes into MB/s: the median duration gives the median rate, and the
// tail duration the rate of the slow tail.
func throughput(bytes int64, ns []float64) Dist {
	d := Summarize(ns)
	d.P50 = mbps(bytes, int64(d.P50))
	if d.TailP > 0 {
		d.Tail = mbps(bytes, int64(d.Tail))
	}
	return d
}

// scaled multiplies every sample by f.
func scaled(samples []float64, f float64) []float64 {
	out := make([]float64, len(samples))
	for i, v := range samples {
		out[i] = v * f
	}
	return out
}

// addOverhead reports trace.overhead_share: for each operation kind the
// traced span median over the untraced median, minus one, averaged
// over the kinds.
func addOverhead(r *Report, kinds map[string][2][]float64) {
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	var sum float64
	note := ""
	for _, k := range names {
		u, t := Summarize(kinds[k][0]).P50, Summarize(kinds[k][1]).P50
		share := ratio(t-u, u)
		sum += share
		note += fmt.Sprintf(" %s %.3f→%.3f ms", k, u/1e6, t/1e6)
	}
	r.Add("trace.overhead_share", "fraction", sum/math.Max(1, float64(len(names))), len(names), "traced/untraced op median - 1:"+note)
}

// addIndexZero reports the index metrics of a workload without an index.
func addIndexZero(r *Report) {
	for _, m := range [][2]string{
		{"index.open_us", "us"}, {"index.decode_at_overhead_us", "us"}, {"index.range_speedup", "x"},
		{"index.scan_last_ms.seekable", "ms"}, {"index.scan_last_ms.stream", "ms"},
	} {
		r.Add(m[0], m[1], 0, 0, "no indexed reads in this workload")
	}
}

// addStreamZero reports the stream metrics of a workload without streams.
func addStreamZero(r *Report) {
	r.Add("stream.write_speedup", "x", 0, 0, "no stream in this workload")
	r.Add("stream.writer.max_inflight_bytes", "B", 0, 0, "no stream in this workload")
	r.Add("stream.reader.readahead_hit_ratio", "fraction", 0, 0, "no stream in this workload")
	r.Add("stream.reader.footer_skips", "count", 0, 0, "no stream in this workload")
}
