package main

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/codec"
	"repro/internal/tensor"
)

// Seek benchmark extension to -hostbench: measures random access into
// ACCF v2 streams. Three modes on the same in-memory indexed stream:
//
//	scan_last  — sequential reader: Next/Skip past every record, then
//	             decode the final one (the only option pre-index)
//	seek_last  — OpenIndexedStream (footer load included) + DecodeAt
//	             on the final record
//	range      — parallel DecodeRange over the whole stream at each
//	             worker count
//
// scan_last vs seek_last is the headline the index footer buys; the
// range rows record what the shared executor does with real codec work
// per record.

type seekBenchEntry struct {
	Spec        string  `json:"spec"`
	Mode        string  `json:"mode"` // scan_last | seek_last | range
	Workers     int     `json:"workers,omitempty"`
	Records     int     `json:"records"`
	Shape       []int   `json:"shape"`
	StreamBytes int     `json:"stream_bytes"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	RecordsPerS float64 `json:"records_per_s,omitempty"` // range mode only
}

// buildSeekStream writes the benchmark stream once: `records` copies of
// a deterministic tensor, index footer on.
func buildSeekStream(spec string, records int, shape []int) ([]byte, error) {
	c, err := codec.New(spec)
	if err != nil {
		return nil, fmt.Errorf("seekbench %s: %w", spec, err)
	}
	r := tensor.NewRNG(3)
	x := r.Uniform(0, 1, shape...)
	var buf bytes.Buffer
	sw := codec.NewStreamWriter(&buf)
	if err := sw.SetIndex(true); err != nil {
		return nil, err
	}
	ctx := context.Background()
	for i := 0; i < records; i++ {
		if err := sw.WriteTensor(ctx, c, x); err != nil {
			return nil, err
		}
	}
	if err := sw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// measureSeekCase benchmarks one access mode over a prebuilt stream.
// Every op includes the open (NewStreamReader or OpenIndexedStream), so
// scan_last and seek_last compare the full cost of "read the last
// record of this file".
func measureSeekCase(data []byte, spec, mode string, workers, records int, shape []int) (seekBenchEntry, error) {
	ctx := context.Background()
	var body func(b *testing.B)
	switch mode {
	case "scan_last":
		body = func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sr, err := codec.NewStreamReader(bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				for rec := 0; rec < records-1; rec++ {
					if _, err := sr.Next(); err != nil {
						b.Fatal(err)
					}
					if err := sr.Skip(); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := sr.Next(); err != nil {
					b.Fatal(err)
				}
				if _, err := sr.Decode(ctx); err != nil {
					b.Fatal(err)
				}
			}
		}
	case "seek_last":
		body = func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix, err := codec.OpenIndexedStream(bytes.NewReader(data), int64(len(data)))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ix.DecodeAt(ctx, records-1); err != nil {
					b.Fatal(err)
				}
			}
		}
	case "range":
		body = func(b *testing.B) {
			ix, err := codec.OpenIndexedStream(bytes.NewReader(data), int64(len(data)))
			if err != nil {
				b.Fatal(err)
			}
			if err := ix.SetConcurrency(workers); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ix.DecodeRange(ctx, 0, records); err != nil {
					b.Fatal(err)
				}
			}
		}
	default:
		return seekBenchEntry{}, fmt.Errorf("seekbench: unknown mode %q", mode)
	}
	res := testing.Benchmark(body)
	e := seekBenchEntry{
		Spec:        spec,
		Mode:        mode,
		Workers:     workers,
		Records:     records,
		Shape:       shape,
		StreamBytes: len(data),
		Iterations:  res.N,
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
	}
	if mode == "range" && res.T.Seconds() > 0 {
		e.RecordsPerS = float64(records*res.N) / res.T.Seconds()
	}
	return e, nil
}

// runSeekBench measures the seek matrix, appending to the hostbench
// output file.
func runSeekBench(out *hostBenchFile, full bool, gomaxprocs int) error {
	const spec = "sz:eb=1e-3"
	records, shape := 64, []int{1, 3, 64, 64}
	if !full {
		records = 12
	}
	data, err := buildSeekStream(spec, records, shape)
	if err != nil {
		return err
	}
	print := func(e seekBenchEntry) {
		label := fmt.Sprintf("seek/%s/%s", e.Mode, e.Spec)
		if e.Mode == "range" {
			label += fmt.Sprintf("/workers=%d", e.Workers)
		}
		extra := ""
		if e.RecordsPerS > 0 {
			extra = fmt.Sprintf("  %10.1f rec/s", e.RecordsPerS)
		}
		fmt.Printf("%-44s %12.0f ns/op%s\n", label, e.NsPerOp, extra)
	}
	for _, mode := range []string{"scan_last", "seek_last"} {
		e, err := measureSeekCase(data, spec, mode, 0, records, shape)
		if err != nil {
			return err
		}
		print(e)
		out.Seek = append(out.Seek, e)
	}
	seen := map[int]bool{}
	for _, w := range []int{1, 4, gomaxprocs} {
		if w < 1 || seen[w] {
			continue
		}
		seen[w] = true
		e, err := measureSeekCase(data, spec, "range", w, records, shape)
		if err != nil {
			return err
		}
		print(e)
		out.Seek = append(out.Seek, e)
	}
	return nil
}
