package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // descending: Percentile must sort
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{1, 50, 1},
		{4, 50, 2},
		{5, 50, 3},
		{100, 90, 90},
		{1000, 99, 990},
		{10000, 99.9, 9990},
	} {
		got, err := Percentile(seq(c.n), c.p)
		if err != nil || got != c.want {
			t.Errorf("Percentile(1..%d, p%g) = %v, %v; want %v", c.n, c.p, got, err, c.want)
		}
	}
}

func TestPercentileRefusesUnsupportedTail(t *testing.T) {
	for _, c := range []struct {
		n int
		p float64
	}{
		{99, 90},     // rank 90 leaves 9 beyond
		{999, 99},    // rank 990 leaves 9 beyond
		{9999, 99.9}, // rank 9990 leaves 9 beyond
		{5, 99},
	} {
		if v, err := Percentile(seq(c.n), c.p); err == nil {
			t.Errorf("Percentile(n=%d, p%g) = %v, want a refusal", c.n, c.p, v)
		}
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("Percentile of an empty sample succeeded")
	}
	for _, p := range []float64{0, 100, -1} {
		if _, err := Percentile(seq(10), p); err == nil {
			t.Errorf("Percentile(p%g) succeeded", p)
		}
	}
}

func TestSummarizePicksHighestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n     int
		tailP float64
	}{
		{0, 0}, {50, 0}, {99, 0}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		d := Summarize(seq(c.n))
		if d.N != c.n || d.TailP != c.tailP {
			t.Errorf("Summarize(n=%d) = %+v, want tail p%g", c.n, d, c.tailP)
		}
		if c.tailP > 0 {
			beyond := 0
			for _, v := range seq(c.n) {
				if v > d.Tail {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: p%g has %d samples beyond it", c.n, d.TailP, beyond)
			}
		}
	}
}

func TestThroughputTailIsTheSlowEnd(t *testing.T) {
	d := throughput(1e6, seq(1000)) // 1 MB in 1..1000 ns
	if d.P50 != 2e6 || d.TailP != 99 || d.Tail != 1e9/990 {
		t.Errorf("throughput = %+v", d)
	}
}

func TestJSONHasExactlyTheNamedMetrics(t *testing.T) {
	r := newReport()
	r.Add("a", "s", 1.5, 3, "")
	r.Add("b", "x", 2, 1, "")
	r.Add("extra", "x", 3, 1, "")
	r.Op("ok", nil)
	line, err := r.JSON([]metricSpec{{"a", "s"}, {"b", "x"}})
	if err != nil {
		t.Fatal(err)
	}
	var got resultLine
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Correct || got.Attempted != 1 || got.Failed != 0 || len(got.Metrics) != 2 || got.Metrics["a"] != (resultMetric{1.5, "s"}) {
		t.Errorf("result line %s", line)
	}
	if _, err := r.JSON([]metricSpec{{"a", "s"}, {"missing", "x"}}); err == nil {
		t.Error("a missing metric was not refused")
	}
	if _, err := r.JSON([]metricSpec{{"a", "ms"}}); err == nil {
		t.Error("a metric in the wrong unit was not refused")
	}
	r.Add("nan", "x", math.NaN(), 1, "")
	if _, err := r.JSON([]metricSpec{{"nan", "x"}}); err == nil {
		t.Error("a NaN metric was not refused")
	}
	r.Op("bad", os.ErrInvalid)
	line, err = r.JSON([]metricSpec{{"a", "s"}, {"missing", "x"}})
	if err != nil {
		t.Fatalf("a failed run must still print its result: %v", err)
	}
	if err := json.Unmarshal(line, &got); err != nil || got.Correct || got.Failed != 1 || got.Attempted != 2 || got.Metrics["missing"] != (resultMetric{0, "x"}) {
		t.Errorf("after a failed op: %s", line)
	}
}

// TestBenchmarkFileMatchesMetricLists keeps the metrics the program
// prints in step with BENCHMARK.json.
func TestBenchmarkFileMatchesMetricLists(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("BENCHMARK.json not found: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		key  string
		file []struct{ Name, Unit string }
		prog []metricSpec
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.file) != len(c.prog) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", c.key, len(c.file), len(c.prog))
			continue
		}
		for i, m := range c.file {
			if m.Name != c.prog[i].name || m.Unit != c.prog[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), the program %s (%s)", c.key, i, m.Name, m.Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
}
