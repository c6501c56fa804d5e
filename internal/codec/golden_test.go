package codec

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/tensor"
)

// goldenContainerTensor regenerates the fixed input the golden
// containers were recorded from (same generator as the capture tool).
func goldenContainerTensor(shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	d := x.Data()
	for i := range d {
		// int64 arithmetic keeps this compiling (and identical) on
		// 32-bit hosts: the Knuth constant alone overflows a 32-bit int.
		d[i] = float32((int64(i)*2654435761)%1000) / 999
	}
	return x
}

// TestGoldenContainers holds the ported backends (pooled bit-level
// plane engines, flat entropy paths) to byte-identical v1 container
// output against streams recorded from the pre-port implementations,
// and requires every recorded container to still decode.
func TestGoldenContainers(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_v1_containers.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct {
		Name  string `json:"name"`
		Shape []int  `json:"shape"`
		Hex   string `json:"hex"`
	}
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("empty golden corpus")
	}
	for _, tc := range cases {
		t.Run(tc.Name, func(t *testing.T) {
			c, err := New(tc.Name)
			if err != nil {
				t.Fatal(err)
			}
			x := goldenContainerTensor(tc.Shape...)
			data, err := c.Compress(x)
			if err != nil {
				t.Fatal(err)
			}
			want, err := hex.DecodeString(tc.Hex)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, want) {
				t.Fatalf("container bytes diverge from recorded stream (len %d vs %d)", len(data), len(want))
			}
			back, _, err := DecodeBytes(want)
			if err != nil {
				t.Fatal(err)
			}
			if !back.SameShape(x) {
				t.Fatalf("decoded shape %v, want %v", back.Shape(), tc.Shape)
			}
		})
	}
}

// TestRoundTripIntoMatchesSerializePath pins the pooled in-place round
// trip to the serialize path for every conformance spec: identical
// reconstruction (bit-exact for the fast-path codecs) and identical
// reported payload size.
func TestRoundTripIntoMatchesSerializePath(t *testing.T) {
	x := conformanceBatch()
	for _, tc := range conformanceSpecs {
		tc := tc
		t.Run(tc.spec, func(t *testing.T) {
			c, err := New(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			impl := c.(*codecImpl)
			// encodePayload/decodePayload run the stage chain (if any) on
			// top of the backend, so staged specs compare against the
			// bytes that actually hit the wire.
			payload, err := impl.encodePayload(context.Background(), x)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := impl.decodePayload(context.Background(), payload, x.Shape())
			if err != nil {
				t.Fatal(err)
			}
			dst := tensor.New(x.Shape()...)
			n, err := RoundTripInto(c, dst, x)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(payload) {
				t.Errorf("RoundTripInto size %d, serialize path payload %d", n, len(payload))
			}
			switch c.Name() {
			case "zfp", "jpegq", "sz":
				// These decode deterministically: the in-place path must
				// agree bit for bit.
				for i, v := range ref.Data() {
					if dst.Data()[i] != v {
						t.Fatalf("position %d: RoundTripInto %g, serialize path %g", i, dst.Data()[i], v)
					}
				}
			default:
				if !dst.AllClose(ref, 1e-5) {
					t.Errorf("RoundTripInto diverges from serialize path (max diff %g)", dst.MaxAbsDiff(ref))
				}
			}
		})
	}
}

// roundTripAllocCases pins RoundTripInto's steady-state allocations
// per op on a uniform [1,3,256,256] batch: every baseline family bare
// and through "+fse", plus the "+huf" headline specs. The counts are
// taken with the collector paused, so no pool refill after a collection
// blurs them and each ceiling is the exact count. Lower a ceiling when
// a change removes allocations.
var roundTripAllocCases = []struct {
	spec   string
	allocs float64
}{
	{"zfp:rate=8", 0},
	{"zfp:rate=8+fse", 37},
	{"jpegq:q=50", 0},
	{"jpegq:q=50+fse", 35},
	{"sz:eb=1e-3", 34},
	{"sz:eb=1e-3+fse", 36},
	{"dctc:cf=4", 70},
	{"dctc:cf=4+fse", 72},
	{"dctc:cf=4+huf", 72},
	{"lossless:bg=4", 5},
	{"lossless:bg=4+fse", 8},
	{"lossless:bg=4+huf", 8},
}

// allocBatch is the input of roundTripAllocCases and
// BenchmarkRoundTripInto.
func allocBatch() *tensor.Tensor {
	return tensor.NewRNG(1).Uniform(0, 1, 1, 3, 256, 256)
}

// strandedMallocs is the two-worker pass's allowance over a spec's
// ceiling: over 25 runs of the test, the fewest-malloc call still met
// up to two parked buffers. One allocation per plane adds three.
const strandedMallocs = 2

// fewestMallocs is testing.AllocsPerRun without its GOMAXPROCS=1 pin:
// the fewest process-wide mallocs any one of runs calls of f makes,
// after one warm-up call. With two Ps a pooled buffer parked in the
// other P's private slot now and then misses; a reuse break allocates
// in every call.
func fewestMallocs(runs int, f func()) float64 {
	f()
	fewest := uint64(math.MaxUint64)
	for i := 0; i < runs; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	return float64(fewest)
}

// TestRoundTripIntoAllocs holds every spec of roundTripAllocCases to
// its ceiling at one worker (testing.AllocsPerRun) and, within
// strandedMallocs, at two workers on GOMAXPROCS 2 (fewestMallocs). A
// reuse break — one allocation per plane, block or lane — lands above
// it.
func TestRoundTripIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only hold without -race")
	}
	x := allocBatch()
	dst := tensor.New(x.Shape()...)
	check := func(t *testing.T, slack float64, count func(func()) float64) {
		for _, tc := range roundTripAllocCases {
			t.Run(tc.spec, func(t *testing.T) {
				c, err := New(tc.spec)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := RoundTripInto(c, dst, x); err != nil {
					t.Fatal(err)
				}
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				allocs := count(func() {
					if _, err := RoundTripInto(c, dst, x); err != nil {
						t.Fatal(err)
					}
				})
				if ceiling := tc.allocs + slack; allocs > ceiling {
					t.Errorf("RoundTripInto allocates %v/op, ceiling %v", allocs, ceiling)
				}
			})
		}
	}
	t.Run("workers=1", func(t *testing.T) {
		defer SetMaxWorkers(SetMaxWorkers(1))
		check(t, 0, func(f func()) float64 { return testing.AllocsPerRun(20, f) })
	})
	t.Run("workers=2", func(t *testing.T) {
		withConcurrency(t, 2)
		check(t, strandedMallocs, func(f func()) float64 { return fewestMallocs(20, f) })
	})
}

// BenchmarkRoundTripInto reports ns/op and allocs/op of every
// roundTripAllocCases spec.
func BenchmarkRoundTripInto(b *testing.B) {
	x := allocBatch()
	dst := tensor.New(x.Shape()...)
	for _, tc := range roundTripAllocCases {
		b.Run(tc.spec, func(b *testing.B) {
			c, err := New(tc.spec)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := RoundTripInto(c, dst, x); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(x.SizeBytes()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RoundTripInto(c, dst, x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// goldenHufCases is the fixed spec/shape matrix the huf golden fixture
// records: every family through "+huf", including the per-lane
// lossless framings whose block layout (one sequence per byte-group
// lane) is part of the wire contract, plus "+fse" controls.
var goldenHufCases = []struct {
	Name  string `json:"name"`
	Shape []int  `json:"shape"`
}{
	{"dctc:cf=4+huf", []int{2, 3, 16, 16}},
	{"zfp:rate=8+huf", []int{1, 2, 16, 16}},
	{"sz:eb=1e-3+huf", []int{3, 5, 7}},
	{"jpegq:q=50+huf", []int{1, 2, 8, 8}},
	{"lossless:bg=1+huf", []int{2, 3, 16, 16}},
	{"lossless:bg=2+huf", []int{2, 3, 16, 16}},
	{"lossless:bg=4+huf", []int{2, 3, 16, 16}},
	// bg=1 keeps the whole payload one lane, so 17·1024 elements
	// (68 KiB) pins a lane spanning multiple entropy blocks without a
	// megabyte-scale fixture.
	{"lossless:bg=1+huf", []int{17, 1024}},
	// "+fse" codes the whole payload as one block sequence — it does
	// not restart at lane boundaries — so these pin that the lossless
	// lanes reach only "+huf".
	{"lossless:bg=4+fse", []int{2, 3, 16, 16}},
	{"lossless:bg=1+fse", []int{17, 1024}},
	{"dctc:cf=4+fse", []int{2, 3, 16, 16}},
}

// TestGoldenHufContainers pins "+huf" container output byte-for-byte:
// the huf block format, the fse-vs-huf selection rule, and the
// per-lane lossless block sequences are all wire contracts — an
// innocent change to any of them breaks recorded streams in the field.
// Regenerate with GOLDEN_UPDATE=1 only for a deliberate, documented
// format change.
func TestGoldenHufContainers(t *testing.T) {
	const path = "testdata/golden_huf_containers.json"
	type fixture struct {
		Name  string `json:"name"`
		Shape []int  `json:"shape"`
		Hex   string `json:"hex"`
	}
	if os.Getenv("GOLDEN_UPDATE") != "" {
		var out []fixture
		for _, tc := range goldenHufCases {
			c, err := New(tc.Name)
			if err != nil {
				t.Fatal(err)
			}
			data, err := c.Compress(goldenContainerTensor(tc.Shape...))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fixture{tc.Name, tc.Shape, hex.EncodeToString(data)})
		}
		blob, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cases []fixture
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) != len(goldenHufCases) {
		t.Fatalf("fixture has %d cases, test expects %d", len(cases), len(goldenHufCases))
	}
	for i, tc := range cases {
		t.Run(tc.Name, func(t *testing.T) {
			c, err := New(tc.Name)
			if err != nil {
				t.Fatal(err)
			}
			x := goldenContainerTensor(tc.Shape...)
			data, err := c.Compress(x)
			if err != nil {
				t.Fatal(err)
			}
			want, err := hex.DecodeString(tc.Hex)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, want) {
				t.Fatalf("case %d: container bytes diverge from recorded stream (len %d vs %d)", i, len(data), len(want))
			}
			back, decoded, err := DecodeBytes(want)
			if err != nil {
				t.Fatal(err)
			}
			if decoded.Spec() != c.Spec() || !back.SameShape(x) {
				t.Fatalf("decoded spec %q shape %v", decoded.Spec(), back.Shape())
			}
		})
	}
}

// goldenStreamRecords is the fixed record sequence of the recorded v2
// stream: every family, both plane framings, all unstaged (so the
// stream predates — and must survive — the v3 stage-chain refactor).
var goldenStreamRecords = []struct {
	Spec  string `json:"spec"`
	Shape []int  `json:"shape"`
}{
	{"dctc:cf=4", []int{1, 2, 16, 16}},
	{"zfp:rate=8", []int{100}},
	{"sz:eb=0.001", []int{3, 5, 7}}, // canonical form of eb=1e-3
	{"jpegq:q=50", []int{1, 2, 8, 8}},
}

// writeGoldenStream re-encodes the fixed record sequence with today's
// writer (serial path, 4 KiB chunks — the recording configuration).
func writeGoldenStream(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	sw.SetChunkSize(4 << 10)
	for _, rec := range goldenStreamRecords {
		c, err := New(rec.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.WriteTensor(context.Background(), c, goldenContainerTensor(rec.Shape...)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenStream holds unstaged v2 stream output byte-identical to
// the recorded fixture across the v3 stage-chain refactor, and requires
// the (v3-capable) reader to still decode every recorded record with
// its 'T' marker intact. Regenerate with GOLDEN_UPDATE=1 only for a
// deliberate, documented format change.
func TestGoldenStream(t *testing.T) {
	const path = "testdata/golden_v2_stream.json"
	if os.Getenv("GOLDEN_UPDATE") != "" {
		blob, err := json.MarshalIndent(struct {
			Records any    `json:"records"`
			Hex     string `json:"hex"`
		}{goldenStreamRecords, hex.EncodeToString(writeGoldenStream(t))}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var fixture struct {
		Records []struct {
			Spec  string `json:"spec"`
			Shape []int  `json:"shape"`
		} `json:"records"`
		Hex string `json:"hex"`
	}
	if err := json.Unmarshal(raw, &fixture); err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(fixture.Hex)
	if err != nil {
		t.Fatal(err)
	}
	if got := writeGoldenStream(t); !bytes.Equal(got, want) {
		t.Fatalf("stream bytes diverge from recording (len %d vs %d)", len(got), len(want))
	}
	if len(fixture.Records) != len(goldenStreamRecords) {
		t.Fatalf("fixture has %d records, test expects %d", len(fixture.Records), len(goldenStreamRecords))
	}

	sr, err := NewStreamReader(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range fixture.Records {
		hdr, err := sr.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if hdr.Spec != rec.Spec {
			t.Fatalf("record %d: spec %q, recorded %q", i, hdr.Spec, rec.Spec)
		}
		x := goldenContainerTensor(rec.Shape...)
		out, err := sr.Decode(context.Background())
		if err != nil {
			t.Fatalf("record %d (%s): %v", i, rec.Spec, err)
		}
		if !out.SameShape(x) {
			t.Fatalf("record %d: shape %v, recorded %v", i, out.Shape(), rec.Shape)
		}
		// The recorded payload must decode to exactly what decoding a
		// fresh container of the same spec produces (decode paths are
		// deterministic).
		c, err := New(rec.Spec)
		if err != nil {
			t.Fatal(err)
		}
		data, err := c.Compress(x)
		if err != nil {
			t.Fatal(err)
		}
		ref, _, err := DecodeBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Equal(ref) {
			t.Errorf("record %d (%s): stream decode diverges from container decode", i, rec.Spec)
		}
	}
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("after last record: %v, want EOF", err)
	}
}
