package codec

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// stagedRepSpecs maps every registered family to a representative spec,
// used to assert the whole registry composes with the "+fse" stage.
func stagedRepSpecs(t *testing.T) map[string]string {
	t.Helper()
	reps := map[string]string{
		"dctc":     "dctc:cf=4",
		"zfp":      "zfp:rate=8",
		"sz":       "sz:eb=1e-3",
		"jpegq":    "jpegq:q=50",
		"lossless": "lossless:bg=4",
	}
	for _, fam := range Families() {
		if _, ok := reps[fam]; !ok {
			t.Fatalf("family %q has no staged-conformance representative spec; add one", fam)
		}
	}
	return reps
}

// TestStageSpecParsing pins the grammar: '+' splits only before a
// letter, canonical specs round-trip, and bad chains fail with the
// stage (or its valid alternatives) named.
func TestStageSpecParsing(t *testing.T) {
	// A '+' inside a numeric option value is not a separator.
	s, err := ParseSpec("sz:eb=1e+3")
	if err != nil {
		t.Fatal(err)
	}
	if s.Family != "sz" || len(s.Stages) != 0 {
		t.Fatalf("sz:eb=1e+3 parsed as family %q stages %v", s.Family, s.Stages)
	}
	c, err := New("sz:eb=1e+3")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Spec(); strings.Contains(got, "+f") || !strings.HasPrefix(got, "sz:") {
		t.Fatalf("canonical spec %q", got)
	}

	s, err = ParseSpec("dctc:cf=4,sg+fse")
	if err != nil {
		t.Fatal(err)
	}
	if s.Family != "dctc" || len(s.Stages) != 1 || s.Stages[0] != "fse" {
		t.Fatalf("parsed family %q stages %v", s.Family, s.Stages)
	}
	c, err = New("dctc:cf=4+fse")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Spec(); got != "dctc:cf=4+fse" {
		t.Fatalf("canonical staged spec %q, want dctc:cf=4+fse", got)
	}
	// The canonical spec rebuilds the same codec.
	if _, err := New(c.Spec()); err != nil {
		t.Fatalf("canonical spec does not rebuild: %v", err)
	}

	if _, err := New("zfp:rate=8+nope"); err == nil || !strings.Contains(err.Error(), `"nope"`) || !strings.Contains(err.Error(), "fse") {
		t.Errorf("unknown stage error should name it and list registered stages: %v", err)
	}
	if _, err := New("zfp:rate=8+fse:level=3"); err == nil || !strings.Contains(err.Error(), "no options") {
		t.Errorf("stage options must be rejected: %v", err)
	}
	if names := StageNames(); len(names) == 0 || names[0] != "fse" {
		t.Errorf("StageNames() = %v", names)
	}
}

func TestValidKeys(t *testing.T) {
	keys, err := ValidKeys("zfp")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "planen" || keys[1] != "rate" {
		t.Fatalf("ValidKeys(zfp) = %v", keys)
	}
	if _, err := ValidKeys("nope"); err == nil || !strings.Contains(err.Error(), "registered") {
		t.Errorf("unknown family: %v", err)
	}
}

// TestStagedFamilies is the registry-wide staged conformance check:
// every family round-trips with and without "+fse", and the staged
// reconstruction is bit-identical to the unstaged one — the entropy
// stage must be invisible to the decoded values.
func TestStagedFamilies(t *testing.T) {
	x := conformanceBatch()
	for fam, base := range stagedRepSpecs(t) {
		t.Run(fam, func(t *testing.T) {
			plain, err := New(base)
			if err != nil {
				t.Fatal(err)
			}
			staged, err := New(base + "+fse")
			if err != nil {
				t.Fatal(err)
			}
			plainData, err := plain.Compress(x)
			if err != nil {
				t.Fatal(err)
			}
			stagedData, err := staged.Compress(x)
			if err != nil {
				t.Fatal(err)
			}
			plainOut, _, err := DecodeBytes(plainData)
			if err != nil {
				t.Fatal(err)
			}
			stagedOut, decoded, err := DecodeBytes(stagedData)
			if err != nil {
				t.Fatal(err)
			}
			if want := base + "+fse"; decoded.Spec() != want {
				// Canonical form may reorder options; just require the
				// stage suffix survived the wire.
				if !strings.HasSuffix(decoded.Spec(), "+fse") {
					t.Errorf("staged container decoded with spec %q", decoded.Spec())
				}
			}
			if !bitsEqual(plainOut, stagedOut) {
				t.Error("staged decode differs from unstaged decode")
			}
			// The instance path agrees too.
			viaInstance, err := staged.Decompress(stagedData)
			if err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(viaInstance, stagedOut) {
				t.Error("instance Decompress differs from registry Decode")
			}
		})
	}
}

// bitsEqual compares two tensors bit-for-bit (NaN patterns included).
func bitsEqual(a, b *tensor.Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		if math.Float32bits(ad[i]) != math.Float32bits(bd[i]) {
			return false
		}
	}
	return true
}

// TestLosslessExact round-trips adversarial bit patterns — NaNs with
// payloads, infinities, denormals, signed zeros — through every byte
// grouping, with and without the entropy stage. Reconstruction must be
// exact to the bit.
func TestLosslessExact(t *testing.T) {
	x := tensor.New(2, 3, 16, 16)
	d := x.Data()
	rng := uint64(0x243f6a8885a308d3)
	for i := range d {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		switch i % 7 {
		case 0:
			d[i] = math.Float32frombits(uint32(rng)) // arbitrary bits (NaNs included)
		case 1:
			d[i] = float32(math.Inf(1))
		case 2:
			d[i] = math.Float32frombits(1 + uint32(rng)%100) // denormal
		case 3:
			d[i] = math.Float32frombits(0x80000000) // -0
		default:
			d[i] = float32(math.Sin(float64(i))) * float32(rng%1000)
		}
	}
	for _, spec := range []string{"lossless", "lossless:bg=1", "lossless:bg=2", "lossless:bg=4", "lossless:bg=4+fse", "lossless:bg=1+fse"} {
		c, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		data, err := c.Compress(x)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		back, _, err := DecodeBytes(data)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if !bitsEqual(x, back) {
			t.Errorf("%s: reconstruction is not bit-exact", spec)
		}
		// RoundTrip and RoundTripInto take the staged slow path.
		rt, n, err := c.RoundTrip(x)
		if err != nil {
			t.Fatalf("%s: RoundTrip: %v", spec, err)
		}
		if !bitsEqual(x, rt) || n <= 0 {
			t.Errorf("%s: RoundTrip bits/size wrong (n=%d)", spec, n)
		}
		dst := tensor.New(2, 3, 16, 16)
		if _, err := RoundTripInto(c, dst, x); err != nil {
			t.Fatalf("%s: RoundTripInto: %v", spec, err)
		}
		if !bitsEqual(x, dst) {
			t.Errorf("%s: RoundTripInto not bit-exact", spec)
		}
	}
	if _, err := New("lossless:bg=3"); err == nil || !strings.Contains(err.Error(), `"bg"`) {
		t.Errorf("bg=3 must be rejected: %v", err)
	}
}

// TestLosslessFSEShrinksWeights checks the headline ZipNN-style claim:
// on realistic weight-like data (smooth magnitudes → skewed exponent
// lane) the byte-group transpose plus entropy stage beats raw size.
func TestLosslessFSEShrinksWeights(t *testing.T) {
	x := tensor.New(64, 1024)
	d := x.Data()
	rng := uint64(0x9e3779b97f4a7c15)
	for i := range d {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		// Gaussian-ish weights via a crude sum of uniforms, scaled small.
		s := float64(rng%1000)/1000 + float64((rng>>10)%1000)/1000 - 1
		d[i] = float32(s * 0.05)
	}
	c, err := New("lossless:bg=4+fse")
	if err != nil {
		t.Fatal(err)
	}
	_, n, err := c.RoundTrip(x)
	if err != nil {
		t.Fatal(err)
	}
	if n >= x.SizeBytes() {
		t.Errorf("lossless+fse on weight-like data: %d bytes vs raw %d", n, x.SizeBytes())
	}
}

// TestStagedStream runs staged records through the v2 stream engine
// with the pipelined writer and read-ahead reader, mixed with unstaged
// records — the stage chain must ride SetConcurrency/SetReadAhead
// unchanged, and markers must match the specs.
func TestStagedStream(t *testing.T) {
	ctx := context.Background()
	x := conformanceBatch()
	specs := []string{"dctc:cf=4+fse", "zfp:rate=8", "lossless:bg=4+fse", "sz:eb=1e-3+fse"}
	codecs := make([]Codec, len(specs))
	for i, s := range specs {
		c, err := New(s)
		if err != nil {
			t.Fatal(err)
		}
		codecs[i] = c
	}

	write := func(conc int) []byte {
		var buf bytes.Buffer
		sw := NewStreamWriter(&buf)
		if conc != 1 {
			if err := sw.SetConcurrency(conc); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range codecs {
			if err := sw.WriteTensor(ctx, c, x); err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	serial := write(1)
	pipelined := write(4)
	if !bytes.Equal(serial, pipelined) {
		t.Fatal("pipelined staged stream differs from serial stream")
	}

	// Marker check: staged specs must ride 'S' records, unstaged 'T'.
	if n := bytes.Count(serial, []byte("dctc:cf=4+fse")); n != 1 {
		t.Fatalf("spec appears %d times in stream", n)
	}
	for i, c := range codecs {
		idx := bytes.Index(serial, []byte(c.Spec()))
		if idx < 3 {
			t.Fatalf("spec %q not found in stream", c.Spec())
		}
		marker := serial[idx-3] // marker, then u16 spec length, then spec
		want := byte(recTensor)
		if len(c.(*codecImpl).chain) > 0 {
			want = recStaged
		}
		if marker != want {
			t.Errorf("record %d (%s): marker %#x, want %#x", i, c.Spec(), marker, want)
		}
	}

	decodeAll := func(readAhead bool) []*tensor.Tensor {
		sr, err := NewStreamReader(bytes.NewReader(serial))
		if err != nil {
			t.Fatal(err)
		}
		if readAhead {
			if err := sr.SetReadAhead(ctx, 2); err != nil {
				t.Fatal(err)
			}
		}
		var out []*tensor.Tensor
		for i := 0; ; i++ {
			hdr, err := sr.Next()
			if err != nil {
				break
			}
			if hdr.Spec != codecs[i].Spec() {
				t.Fatalf("record %d spec %q, want %q", i, hdr.Spec, codecs[i].Spec())
			}
			got, err := sr.Decode(ctx)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, got)
		}
		return out
	}

	plain := decodeAll(false)
	ahead := decodeAll(true)
	if len(plain) != len(specs) || len(ahead) != len(specs) {
		t.Fatalf("decoded %d/%d records", len(plain), len(ahead))
	}
	for i := range plain {
		if !bitsEqual(plain[i], ahead[i]) {
			t.Errorf("record %d: read-ahead decode differs", i)
		}
	}
	// The lossless record reconstructs the batch exactly.
	if !bitsEqual(plain[2], x) {
		t.Error("staged lossless stream record is not bit-exact")
	}
}

// TestStagedMarkerForgery flips a staged record's marker to 'T' (and
// an unstaged one's to 'S'): the reader must reject the mismatch
// before handing the payload to a decoder. The header CRC covers the
// marker, so this also exercises the CRC path; a matching CRC forgery
// is tested by recomputing it.
func TestStagedMarkerForgery(t *testing.T) {
	ctx := context.Background()
	x := conformanceBatch()
	c, err := New("dctc:cf=4+fse")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	if err := sw.WriteTensor(ctx, c, x); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	if stream[8] != recStaged {
		t.Fatalf("first record marker %#x, want 'S'", stream[8])
	}

	// Plain flip: caught by the header CRC.
	forged := append([]byte(nil), stream...)
	forged[8] = recTensor
	sr, err := NewStreamReader(bytes.NewReader(forged))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Next(); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Errorf("marker flip: %v", err)
	}

	// Flip plus recomputed CRC: caught by the marker/spec consistency
	// check.
	forged = append([]byte(nil), stream...)
	forged[8] = recTensor
	hdrLen := 3 + len(c.Spec()) + 1 + 4*4 + 4 // marker..payload-length
	crc := crc32.ChecksumIEEE(forged[8 : 8+hdrLen])
	binary.LittleEndian.PutUint32(forged[8+hdrLen:], crc)
	sr, err = NewStreamReader(bytes.NewReader(forged))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Next(); err == nil || !strings.Contains(err.Error(), "does not match spec") {
		t.Errorf("marker flip with recomputed CRC: %v", err)
	}
}

// TestStagedContainerVersion pins the wire versioning: unstaged
// containers stay version 1 byte-for-byte, staged ones are version 3,
// and version/spec mismatches are rejected.
func TestStagedContainerVersion(t *testing.T) {
	x := conformanceBatch()
	plain, _ := New("zfp:rate=8")
	staged, _ := New("zfp:rate=8+fse")
	pd, err := plain.Compress(x)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := staged.Compress(x)
	if err != nil {
		t.Fatal(err)
	}
	if v := uint16(pd[4]) | uint16(pd[5])<<8; v != containerVersion {
		t.Errorf("unstaged container version %d", v)
	}
	if v := uint16(sd[4]) | uint16(sd[5])<<8; v != containerVersionStaged {
		t.Errorf("staged container version %d", v)
	}
	// Forge the version field down to 1: the spec still carries the
	// chain, so the reader must reject the mismatch.
	forged := append([]byte(nil), sd...)
	forged[4] = containerVersion
	if _, _, err := DecodeBytes(forged); err == nil || !strings.Contains(err.Error(), "does not match spec") {
		t.Errorf("staged payload under v1 header: %v", err)
	}
	// And the reverse: an unstaged spec under a staged version.
	forged = append([]byte(nil), pd...)
	forged[4] = containerVersionStaged
	if _, _, err := DecodeBytes(forged); err == nil || !strings.Contains(err.Error(), "does not match spec") {
		t.Errorf("unstaged payload under v3 header: %v", err)
	}
}

// TestStagedCorruptPayload corrupts a staged container's payload (CRC
// recomputed so the corruption reaches the stage): the entropy inverse
// must fail cleanly, never hand garbage to the family decoder
// silently, and never panic.
func TestStagedCorruptPayload(t *testing.T) {
	x := conformanceBatch()
	c, err := New("dctc:cf=4+fse")
	if err != nil {
		t.Fatal(err)
	}
	data, err := c.Compress(x)
	if err != nil {
		t.Fatal(err)
	}
	hdr, payload, err := ReadContainer(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(payload); pos += 7 {
		mut := append([]byte(nil), payload...)
		mut[pos] ^= 0x55
		var buf bytes.Buffer
		if _, err := WriteContainer(&buf, hdr.Spec, hdr.Shape, mut); err != nil {
			t.Fatal(err)
		}
		out, _, err := DecodeBytes(buf.Bytes())
		// Corruption may decode to different-but-valid bytes (entropy
		// streams are dense); what must never happen is a crash or an
		// undetected truncation. Either an error or a full-shape tensor
		// is acceptable.
		if err == nil && !out.SameShape(x) {
			t.Fatalf("pos %d: silent shape corruption", pos)
		}
	}
}

// TestStagedSizeHint pins the decompression-bomb bound, including on
// 32-bit hosts: at maxElems the 8-bytes-per-element hint is 2 GiB,
// which wraps a 32-bit int negative and would slip past the clamp.
func TestStagedSizeHint(t *testing.T) {
	for _, tc := range []struct {
		shape []int
		want  int
	}{
		{[]int{16384, 16384}, maxPayload},
		{[]int{2, 3, 16, 16}, 8*2*3*16*16 + 64<<10},
	} {
		if got := stagedSizeHint(tc.shape); got != tc.want {
			t.Errorf("stagedSizeHint(%v) = %d, want %d", tc.shape, got, tc.want)
		}
	}
}

// TestPooledInverseBufferNotRetained decodes two different staged
// containers back to back through one codec, and two staged records
// through one IndexedStream. The stage inverse hands its output buffer
// back to the pool once the family decoder returns, so a decoder that
// kept a view into its payload would see the first tensor change under
// the second decode.
func TestPooledInverseBufferNotRetained(t *testing.T) {
	ctx := context.Background()
	a := conformanceBatch()
	b := a.Clone()
	for i, v := range b.Data() {
		b.Data()[i] = 1 - v
	}
	for fam, base := range stagedRepSpecs(t) {
		for _, stage := range StageNames() {
			spec := base + "+" + stage
			t.Run(fam+"+"+stage, func(t *testing.T) {
				c, err := New(spec)
				if err != nil {
					t.Fatal(err)
				}
				ca, err := c.Compress(a)
				if err != nil {
					t.Fatal(err)
				}
				cb, err := c.Compress(b)
				if err != nil {
					t.Fatal(err)
				}
				first, err := c.Decompress(ca)
				if err != nil {
					t.Fatal(err)
				}
				snap := first.Clone()
				second, err := c.Decompress(cb)
				if err != nil {
					t.Fatal(err)
				}
				if bitsEqual(second, snap) {
					t.Fatal("the two containers decode alike; the check needs different tensors")
				}
				if !bitsEqual(first, snap) {
					t.Error("Decompress: first tensor changed under the second decode")
				}

				var buf bytes.Buffer
				sw := NewStreamWriter(&buf)
				if err := sw.SetIndex(true); err != nil {
					t.Fatal(err)
				}
				for _, x := range []*tensor.Tensor{a, b} {
					if err := sw.WriteTensor(ctx, c, x); err != nil {
						t.Fatal(err)
					}
				}
				if err := sw.Close(); err != nil {
					t.Fatal(err)
				}
				ix, err := OpenIndexedStream(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
				if err != nil {
					t.Fatal(err)
				}
				r0, err := ix.DecodeRange(ctx, 0, 1)
				if err != nil {
					t.Fatal(err)
				}
				snap = r0[0].Clone()
				if _, err := ix.DecodeRange(ctx, 1, 2); err != nil {
					t.Fatal(err)
				}
				if !bitsEqual(r0[0], snap) {
					t.Error("DecodeRange: first tensor changed under the second decode")
				}
			})
		}
	}
}
