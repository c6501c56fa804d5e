package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// Span is one timed call made by the benchmark: an operation (Parent 0)
// or a layer replay whose Parent is that operation's span. Spans of one
// operation share Op. Times are nanoseconds since the tracer started.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay only a nil check per call.
type tracer struct {
	t0    time.Time
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]Span, 0, 1<<16)} }

// record stores a span for [start, end) and returns its id.
func (t *tracer) record(name string, parent, op int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return id
}

// timeOp runs fn as an operation: a root span whose id is also the
// operation id its replays carry. It returns that id and fn's duration.
func (t *tracer) timeOp(name string, fn func() error) (int64, time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	var id int64
	if t != nil {
		id = int64(len(t.spans)) + 1
		t.record(name, 0, id, start, end)
	}
	return id, end.Sub(start), err
}

// spansOf returns the durations of the recorded spans with name.
func (t *tracer) spansOf(name string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
