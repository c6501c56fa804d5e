package entropy

import (
	"bytes"
	"testing"
)

// hufCorpus extends the shared corpus with byte-group-lane shapes —
// wide-alphabet, moderately skewed — where the huf backend should win
// the size selection (the fse table cost dominates at 100+ symbols).
func hufCorpus() map[string][]byte {
	c := corpus()
	rng := testRNG(0x6a09e667f3bcc909)
	mantissa := make([]byte, 3*maxBlock/2)
	for i := range mantissa {
		// Gaussian-ish wide alphabet: sum of uniforms, like the low
		// mantissa lane of trained-weight float32s.
		v := (rng.next()&0xFF + rng.next()&0xFF + rng.next()&0xFF) / 3
		mantissa[i] = byte(v)
	}
	c["mantissa-lane"] = mantissa
	exponents := make([]byte, maxBlock)
	for i := range exponents {
		exponents[i] = 0xBA + byte(rng.next()&0x07) // bf16-style exponent lane
	}
	c["exponent-lane"] = exponents
	return c
}

// hufBlockModes walks a compressed stream's block framing and returns
// the sequence of mode bytes, so tests can assert which backend the
// selector actually chose.
func hufBlockModes(t *testing.T, comp []byte) []byte {
	t.Helper()
	var modes []byte
	for len(comp) > 0 {
		mode, rawLen, rest, err := blockHeader(comp)
		if err != nil {
			t.Fatalf("walking own output: %v", err)
		}
		modes = append(modes, mode)
		switch mode {
		case modeRaw:
			comp = rest[rawLen:]
		case modeRLE:
			comp = rest[1:]
		case modeFSE, modeHUF:
			bodyLen, used := uvarint(t, rest)
			comp = rest[used+bodyLen:]
		default:
			t.Fatalf("unknown mode %d in own output", mode)
		}
	}
	return modes
}

func uvarint(t *testing.T, b []byte) (int, int) {
	t.Helper()
	v, n := 0, 0
	for shift := 0; ; shift += 7 {
		if n >= len(b) {
			t.Fatal("truncated uvarint in own output")
		}
		c := b[n]
		n++
		v |= int(c&0x7F) << shift
		if c < 0x80 {
			return v, n
		}
	}
}

func TestHufRoundTrip(t *testing.T) {
	for name, src := range hufCorpus() {
		comp := CompressHuf(nil, src)
		got, err := Decompress(nil, comp)
		if err != nil {
			t.Fatalf("%s: decompress: %v", name, err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("%s: round trip mismatch: got %d bytes, want %d", name, len(got), len(src))
		}
		blocks := (len(src) + maxBlock - 1) / maxBlock
		if max := len(src) + 4*blocks; len(comp) > max {
			t.Fatalf("%s: compressed %d bytes exceeds bound %d", name, len(comp), max)
		}
	}
}

// TestHufSelection pins the block-mode selector: wide-alphabet lanes
// must actually choose huf blocks, skewed small-alphabet data must
// stay on fse, and constant lanes on rle.
func TestHufSelection(t *testing.T) {
	c := hufCorpus()
	want := map[string]byte{
		"mantissa-lane": modeHUF,
		"text":          modeFSE, // ~35 symbols: the 3n-byte fse table beats huf's fixed 134
		"skewed-4k":     modeFSE,
		"exponent-lane": modeFSE, // 8 symbols: tiny fse table wins
		"rle":           modeRLE,
	}
	c["record-12k"] = hufRecord()
	want["record-12k"] = modeHUF
	for name, mode := range want {
		comp := CompressHuf(nil, c[name])
		for i, m := range hufBlockModes(t, comp) {
			if m != mode {
				t.Errorf("%s block %d: selected mode %d, want %d", name, i, m, mode)
			}
		}
	}
}

// TestHufReferenceEquivalence pins CompressHuf to the bit-serial oracle
// in both directions, mirroring TestReferenceEquivalence for fse.
func TestHufReferenceEquivalence(t *testing.T) {
	for name, src := range hufCorpus() {
		fast := CompressHuf(nil, src)
		ref := ReferenceCompressHuf(src)
		if !bytes.Equal(fast, ref) {
			t.Fatalf("%s: fast and reference compressed bytes differ (%d vs %d bytes)", name, len(fast), len(ref))
		}
		got, err := ReferenceDecompress(fast)
		if err != nil {
			t.Fatalf("%s: reference decode of fast output: %v", name, err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("%s: reference decode mismatch", name)
		}
	}
}

// TestHufSIMDEquivalence decodes every corpus stream with the 4-stream
// kernel forced on and off; the outputs must be bit-identical. On
// hardware without the kernel both runs take the portable path and the
// test degenerates to a round-trip check.
func TestHufSIMDEquivalence(t *testing.T) {
	prev := SetSIMD(true)
	defer SetSIMD(prev)
	for name, src := range hufCorpus() {
		comp := CompressHuf(nil, src)
		SetSIMD(true)
		vec, vecErr := Decompress(nil, comp)
		SetSIMD(false)
		port, portErr := Decompress(nil, comp)
		if vecErr != nil || portErr != nil {
			t.Fatalf("%s: vec err=%v, portable err=%v", name, vecErr, portErr)
		}
		if !bytes.Equal(vec, port) {
			t.Fatalf("%s: kernel and portable decodes differ", name)
		}
		if !bytes.Equal(port, src) {
			t.Fatalf("%s: portable decode mismatch", name)
		}
	}
}

func TestHufShrinksWideAlphabet(t *testing.T) {
	c := hufCorpus()
	for _, name := range []string{"mantissa-lane", "text", "exp-heavy"} {
		src := c[name]
		comp := CompressHuf(nil, src)
		if len(comp) >= len(src) {
			t.Errorf("%s: expected compression, got %d -> %d bytes", name, len(src), len(comp))
		}
		// The selector must never do worse than the fse-only path by
		// more than the per-block mode slack.
		fse := Compress(nil, src)
		if len(comp) > len(fse) {
			t.Errorf("%s: huf-selected stream (%d bytes) larger than fse-only (%d bytes)", name, len(comp), len(fse))
		}
	}
}

func TestHufTruncatedStream(t *testing.T) {
	comp := CompressHuf(nil, hufCorpus()["mantissa-lane"][:8192])
	if modes := hufBlockModes(t, comp); modes[0] != modeHUF {
		t.Fatalf("setup: expected a huf block, got mode %d", modes[0])
	}
	for cut := 1; cut < len(comp); cut += 101 {
		if _, err := Decompress(nil, comp[:cut]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(comp))
		}
		if _, err := ReferenceDecompress(comp[:cut]); err == nil {
			t.Fatalf("oracle: prefix of %d/%d bytes decoded without error", cut, len(comp))
		}
	}
}

// TestHufCorruptAgreement flips bytes across a huf-bearing stream —
// covering the length table, jump table, and all four bitstreams — and
// requires the fast path and the oracle to agree exactly.
func TestHufCorruptAgreement(t *testing.T) {
	comp := CompressHuf(nil, hufCorpus()["mantissa-lane"][:8192])
	mut := make([]byte, len(comp))
	for pos := 0; pos < len(comp); pos += 11 {
		for _, flip := range []byte{0x01, 0x80, 0xFF} {
			copy(mut, comp)
			mut[pos] ^= flip
			fast, fastErr := Decompress(nil, mut)
			ref, refErr := ReferenceDecompress(mut)
			if (fastErr == nil) != (refErr == nil) {
				t.Fatalf("pos %d flip %#x: fast err=%v, oracle err=%v", pos, flip, fastErr, refErr)
			}
			if fastErr == nil && !bytes.Equal(fast, ref) {
				t.Fatalf("pos %d flip %#x: fast and oracle decoded different bytes", pos, flip)
			}
		}
	}
}

// TestHufCorruptRejected hand-builds structurally invalid huf blocks:
// every one must be rejected by both paths, never decoded to bytes.
func TestHufCorruptRejected(t *testing.T) {
	valid := CompressHuf(nil, hufCorpus()["mantissa-lane"][:4096])
	if valid[0] != modeHUF {
		t.Fatalf("setup: expected a huf block, got mode %d", valid[0])
	}
	forge := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		mutate(b)
		return b
	}
	// Offsets inside the block: [0]=mode, [1,2]=rawLen uvarint (4096),
	// then bodyLen uvarint (2 bytes), then the 128-byte nibble table,
	// the 6-byte jump table, and the streams.
	lensOff := 1 + 2 + 2
	jumpOff := lensOff + hufTableBytes
	cases := map[string][]byte{
		"huf-no-body":      {modeHUF, 0x20},
		"huf-body-overrun": {modeHUF, 0x20, 9, 1, 2},
		// rawLen below the encoder minimum (the fse path would store
		// such blocks raw, so a huf header claiming one is a forgery —
		// and would drive stream 3's segment length negative).
		"huf-tiny-rawlen": forge(func(b []byte) { b[1], b[2] = 16, b[2]&0x7F }),
		"huf-nibble-high": forge(func(b []byte) { b[lensOff] = 0xFF }), // length 15 > 11
		"huf-kraft-under": forge(func(b []byte) {
			// Zero out the first present length: the code becomes
			// incomplete, kraft sum below 1<<11.
			for i := lensOff; i < jumpOff; i++ {
				if b[i] != 0 {
					b[i] = 0
					return
				}
			}
		}),
		"huf-jump-overrun": forge(func(b []byte) { b[jumpOff], b[jumpOff+1] = 0xFF, 0xFF }),
	}
	for name, src := range cases {
		if _, err := Decompress(nil, src); err == nil {
			t.Errorf("%s: fast path accepted corrupt input", name)
		}
		if _, err := ReferenceDecompress(src); err == nil {
			t.Errorf("%s: oracle accepted corrupt input", name)
		}
	}
	// Tiny-rawLen also through the bodyLen-intact variant: rebuild the
	// header so the framing stays self-consistent and only the huf body
	// validation can catch it.
	body := valid[1+2+2:]
	tiny := []byte{modeHUF, 31}
	tiny = append(tiny, valid[3:5]...) // original bodyLen uvarint
	tiny = append(tiny, body...)
	if _, err := Decompress(nil, tiny); err == nil {
		t.Error("reframed tiny-rawlen huf block accepted by fast path")
	}
	if _, err := ReferenceDecompress(tiny); err == nil {
		t.Error("reframed tiny-rawlen huf block accepted by oracle")
	}
}

func TestHufDecompressCap(t *testing.T) {
	src := hufCorpus()["mantissa-lane"][:4096]
	comp := CompressHuf(nil, src)
	if _, err := DecompressCap(nil, comp, len(src)); err != nil {
		t.Fatalf("cap == decoded size must succeed: %v", err)
	}
	if _, err := DecompressCap(nil, comp, len(src)-1); err == nil {
		t.Fatal("cap below decoded size must fail")
	}
}

// hufRecord is a 12 KiB block shaped like one archive record's
// quantized-coefficient payload: a two-sided geometric alphabet wide
// enough (about 50 symbols) that the selector codes it as huf.
func hufRecord() []byte {
	rng := testRNG(0xa4093822299f31d0)
	out := make([]byte, 12<<10)
	for i := range out {
		v := rng.next()
		for v&3 != 0 && out[i] < 100 {
			out[i]++
			v >>= 2
		}
		if v&4 != 0 {
			out[i] = -out[i]
		}
	}
	return out
}

// TestHufZeroAllocSteadyState is the huf-path counterpart of the
// alloc-regression gate: with reused dst buffers, encode (including
// the selector) and decode (including the 4-stream kernel) must not
// allocate — on a huf-selecting lane, on the fse-selecting exponent
// lane, and on a 12 KiB archive-record-sized block.
func TestHufZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only hold without -race")
	}
	cases := map[string][]byte{
		"mantissa-lane": hufCorpus()["mantissa-lane"][:maxBlock],
		"exponent-lane": hufCorpus()["exponent-lane"],
		"record-12k":    hufRecord(),
	}
	for name, src := range cases {
		dst := CompressHuf(nil, src)
		comp := append([]byte(nil), dst...)
		out, err := Decompress(nil, comp)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			dst = CompressHuf(dst[:0], src)
			out, err = Decompress(out[:0], comp)
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: steady-state huf encode+decode allocates %.1f/op, want 0", name, allocs)
		}
	}
}

func FuzzHufRoundTrip(f *testing.F) {
	for _, src := range hufCorpus() {
		if len(src) <= 8192 {
			f.Add(src)
		}
	}
	f.Add(hufCorpus()["mantissa-lane"][:4096])
	f.Fuzz(func(t *testing.T, data []byte) {
		comp := CompressHuf(nil, data)
		got, err := Decompress(nil, comp)
		if err != nil {
			t.Fatalf("decompress own output: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("round trip mismatch")
		}
		if len(data) <= 4096 {
			if ref := ReferenceCompressHuf(data); !bytes.Equal(comp, ref) {
				t.Fatal("fast and reference compressed bytes differ")
			}
		}
	})
}

func BenchmarkCompressHufWide(b *testing.B) {
	src := hufCorpus()["mantissa-lane"][:maxBlock]
	var dst []byte
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = CompressHuf(dst[:0], src)
	}
}

func BenchmarkDecompressHufWide(b *testing.B) {
	src := hufCorpus()["mantissa-lane"][:maxBlock]
	comp := CompressHuf(nil, src)
	var dst []byte
	var err error
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, err = Decompress(dst[:0], comp)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecompressFSEWide decodes the same wide-alphabet payload
// through the fse-only encoder — the direct baseline the huf fast path
// is measured against.
func BenchmarkDecompressFSEWide(b *testing.B) {
	src := hufCorpus()["mantissa-lane"][:maxBlock]
	comp := Compress(nil, src)
	var dst []byte
	var err error
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, err = Decompress(dst[:0], comp)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// The per-mode CompressHuf benchmarks: one input per block mode the
// selector ends up emitting (huf is BenchmarkCompressHufWide).

// BenchmarkCompressHufExponent codes the 8-symbol exponent lane, which
// the selector sends to fse.
func BenchmarkCompressHufExponent(b *testing.B) {
	src := hufCorpus()["exponent-lane"]
	var dst []byte
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = CompressHuf(dst[:0], src)
	}
}

// BenchmarkCompressHufRecord codes one 12 KiB archive-record-sized
// block, where per-block table costs weigh most.
func BenchmarkCompressHufRecord(b *testing.B) {
	src := hufRecord()
	var dst []byte
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = CompressHuf(dst[:0], src)
	}
}

// BenchmarkCompressHufIncompressible codes a uniform-random lane, which
// the selector stores raw on the size estimates alone.
func BenchmarkCompressHufIncompressible(b *testing.B) {
	src := corpus()["uniform-big"][:maxBlock]
	var dst []byte
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = CompressHuf(dst[:0], src)
	}
}
