package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// minBeyond is how many samples must lie beyond a tail percentile for
// the benchmark to report it.
const minBeyond = 10

// tailLadder lists the tail percentiles a distribution may report, in
// increasing order; Summarize picks the highest one the sample supports.
var tailLadder = []float64{90, 99, 99.9, 99.99}

// Percentile returns the nearest-rank p-th percentile of samples, the
// value at rank ceil(p·n/100) of the sorted sample. For a tail
// percentile (p > 50) it refuses a sample with fewer than ten values
// beyond that rank: such a percentile is the sample's maximum or close
// to it, not a property of the distribution.
func Percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of an empty sample", p)
	}
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile p%g outside (0,100)", p)
	}
	rank := int(math.Ceil(p * float64(n) / 100))
	if rank < 1 {
		rank = 1
	}
	if p > 50 && n-rank < minBeyond {
		return 0, fmt.Errorf("percentile p%g needs %d samples beyond it, %d samples leave %d", p, minBeyond, n, n-rank)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// Dist is a timing distribution reduced to what the benchmark reports:
// the median, the highest tail percentile with at least ten samples
// beyond it (TailP is 0 when the sample supports none), and the count.
type Dist struct {
	N     int
	P50   float64
	TailP float64
	Tail  float64
}

// Summarize reduces samples to a Dist. An empty sample gives the zero
// Dist.
func Summarize(samples []float64) Dist {
	d := Dist{N: len(samples)}
	if d.N == 0 {
		return d
	}
	d.P50, _ = Percentile(samples, 50)
	for _, p := range tailLadder {
		v, err := Percentile(samples, p)
		if err != nil {
			break
		}
		d.TailP, d.Tail = p, v
	}
	return d
}

// String renders "p50 <median>, p<tail> <value> (n=<count>)".
func (d Dist) String() string {
	if d.TailP == 0 {
		return fmt.Sprintf("p50 %.6g (n=%d)", d.P50, d.N)
	}
	return fmt.Sprintf("p50 %.6g, p%g %.6g (n=%d)", d.P50, d.TailP, d.Tail, d.N)
}

// metric is one reported value with its unit and sample count.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
	Note  string
}

// Report collects a run's metrics and its operation tally.
type Report struct {
	metrics   []metric
	index     map[string]int
	Attempted int
	Failed    int
	failures  []string
	notes     []string
}

func newReport() *Report { return &Report{index: map[string]int{}} }

// Add records a single value measured over n samples.
func (r *Report) Add(name, unit string, v float64, n int, note string) {
	if i, ok := r.index[name]; ok {
		r.metrics[i] = metric{name, unit, v, n, note}
		return
	}
	r.index[name] = len(r.metrics)
	r.metrics = append(r.metrics, metric{name, unit, v, n, note})
}

// AddDist records a distribution's median, noting its tail.
func (r *Report) AddDist(name, unit string, d Dist) {
	r.Add(name, unit, d.P50, d.N, d.String())
}

// Op counts one attempted operation; a non-nil err counts it failed.
// It reports whether the operation succeeded.
func (r *Report) Op(what string, err error) bool {
	r.Attempted++
	if err == nil {
		return true
	}
	r.Failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", what, err))
	}
	return false
}

// Note adds free-text lines to the human report.
func (r *Report) Note(lines ...string) { r.notes = append(r.notes, lines...) }

// WriteHuman prints every recorded metric, one per line.
func (r *Report) WriteHuman(w io.Writer) {
	for _, m := range r.metrics {
		line := fmt.Sprintf("%-40s %14.6g %-8s n=%d", m.Name, m.Value, m.Unit, m.N)
		if m.Note != "" {
			line += "  " + m.Note
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	errRate := 0.0
	if r.Attempted > 0 {
		errRate = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "%-40s %14.6g %-8s n=%d\n", "error_rate", errRate, "fraction", r.Attempted)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "failed:", f)
	}
}

// resultLine is the machine-readable last line of a run.
type resultLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// JSON renders the result line with exactly the given metrics. A metric
// the run did not record, recorded in another unit, or with a
// non-finite value is an error: the set is the benchmark's contract.
// Only a run with failed operations, which may have stopped early and
// reports correct=false, may leave metrics unmeasured; they read 0.
func (r *Report) JSON(specs []metricSpec) ([]byte, error) {
	out := resultLine{
		Correct:   r.Failed == 0 && r.Attempted > 0,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   map[string]resultMetric{},
	}
	for _, spec := range specs {
		i, ok := r.index[spec.name]
		if !ok && r.Failed > 0 {
			out.Metrics[spec.name] = resultMetric{0, spec.unit}
			continue
		}
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", spec.name)
		}
		m := r.metrics[i]
		if m.Unit != spec.unit {
			return nil, fmt.Errorf("metric %s measured in %s, want %s", spec.name, m.Unit, spec.unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", spec.name, m.Value)
		}
		out.Metrics[spec.name] = resultMetric{m.Value, m.Unit}
	}
	return json.Marshal(out)
}
