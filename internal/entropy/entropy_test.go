package entropy

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
)

// testRNG is a small deterministic xorshift generator so the corpora
// are stable across runs and platforms.
type testRNG uint64

func (r *testRNG) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = testRNG(x)
	return x
}

// corpus returns named byte patterns spanning the coder's block modes:
// rle, raw (short and incompressible), fse (skewed, text-like,
// exponent-heavy), and multi-block sizes straddling maxBlock.
func corpus() map[string][]byte {
	rng := testRNG(0x9e3779b97f4a7c15)
	skewed := func(n int) []byte {
		// Geometric-ish: low byte values dominate, like quantized DCT
		// coefficient magnitudes.
		out := make([]byte, n)
		for i := range out {
			v := rng.next()
			b := byte(0)
			for v&1 == 1 && b < 12 {
				b++
				v >>= 1
			}
			out[i] = b
		}
		return out
	}
	uniform := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(rng.next())
		}
		return out
	}
	text := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog — ношу 1e-3 "), 200)
	expHeavy := make([]byte, 4096)
	for i := range expHeavy {
		if i%4 == 3 {
			expHeavy[i] = 0x3e | byte(rng.next()&1) // float32 exponent lane
		} else {
			expHeavy[i] = byte(rng.next())
		}
	}
	c := map[string][]byte{
		"empty":       nil,
		"one":         {42},
		"two":         {42, 43},
		"short-raw":   uniform(minCompressBlock - 1),
		"rle":         bytes.Repeat([]byte{7}, 1000),
		"rle-2block":  bytes.Repeat([]byte{9}, maxBlock+17),
		"text":        text,
		"skewed-4k":   skewed(4096),
		"skewed-1blk": skewed(maxBlock),
		"skewed-big":  skewed(2*maxBlock + 100),
		"uniform-4k":  uniform(4096),
		"uniform-big": uniform(maxBlock + 5000),
		"exp-heavy":   expHeavy,
		"min-fse":     skewed(minCompressBlock),
		"all-bytes":   nil,
	}
	all := make([]byte, 0, 256*16)
	for r := 0; r < 16; r++ {
		for v := 0; v < 256; v++ {
			all = append(all, byte(v))
		}
	}
	c["all-bytes"] = all
	// Rare symbols (normalized count 1) leading a block put the widest
	// fse chunks first, right after the two initial states.
	rareLead := skewed(8192)
	for i := 0; i < 8; i++ {
		rareLead[i] = byte(200 + i)
	}
	c["rare-lead"] = rareLead
	return c
}

func TestRoundTrip(t *testing.T) {
	for name, src := range corpus() {
		comp := Compress(nil, src)
		got, err := Decompress(nil, comp)
		if err != nil {
			t.Fatalf("%s: decompress: %v", name, err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("%s: round trip mismatch: got %d bytes, want %d", name, len(got), len(src))
		}
		// Framing overhead is bounded: ≤ 4 bytes per 64 KiB block.
		blocks := (len(src) + maxBlock - 1) / maxBlock
		if max := len(src) + 4*blocks; len(comp) > max {
			t.Fatalf("%s: compressed %d bytes exceeds bound %d", name, len(comp), max)
		}
	}
}

// TestReferenceEquivalence pins the fast path to the bit-serial oracle
// in both directions: identical compressed bytes, and each side decodes
// the other's output.
func TestReferenceEquivalence(t *testing.T) {
	for name, src := range corpus() {
		fast := Compress(nil, src)
		ref := ReferenceCompress(src)
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

func TestSkewedDataShrinks(t *testing.T) {
	for _, name := range []string{"skewed-4k", "skewed-1blk", "text", "rle"} {
		src := corpus()[name]
		comp := Compress(nil, src)
		if len(comp) >= len(src) {
			t.Errorf("%s: expected compression, got %d -> %d bytes", name, len(src), len(comp))
		}
	}
}

// TestTruncatedStream checks every proper prefix of a compressed stream
// fails to decode (the body-length framing catches all of them), on
// both the fast path and the oracle.
func TestTruncatedStream(t *testing.T) {
	comp := Compress(nil, corpus()["skewed-4k"])
	for cut := 1; cut < len(comp); cut += 97 {
		if _, err := Decompress(nil, comp[:cut]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(comp))
		}
		if _, err := ReferenceDecompress(comp[:cut]); err == nil {
			t.Fatalf("oracle: prefix of %d/%d bytes decoded without error", cut, len(comp))
		}
	}
}

// TestCorruptAgreement flips bytes across a compressed stream and
// requires the fast path and the oracle to agree exactly: both error,
// or both succeed with identical output.
func TestCorruptAgreement(t *testing.T) {
	comp := Compress(nil, corpus()["skewed-4k"])
	mut := make([]byte, len(comp))
	for pos := 0; pos < len(comp); pos += 13 {
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

// TestFSETailBoundary covers the fse decoder's hand-off from the
// 8-bytes-per-refill bulk loop to the zero-padded tail: short blocks of
// both parities (so either state ends the block) whose streams run from
// under 8 bytes (skewed 2-symbol) to a few words (geometric). Every
// prefix, every prefix re-framed as a complete block with a shortened
// stream, and every single-bit flip must get the same verdict and the
// same bytes from the fast decoder and the oracle.
func TestFSETailBoundary(t *testing.T) {
	rng := testRNG(0x243f6a8885a308d3)
	agree := func(t *testing.T, what string, in []byte) {
		t.Helper()
		fast, fastErr := Decompress(nil, in)
		ref, refErr := ReferenceDecompress(in)
		if (fastErr == nil) != (refErr == nil) {
			t.Fatalf("%s: fast err=%v, oracle err=%v", what, fastErr, refErr)
		}
		if fastErr == nil && !bytes.Equal(fast, ref) {
			t.Fatalf("%s: fast and oracle decoded different bytes", what)
		}
	}
	shortStreams := 0
	for rawLen := minCompressBlock; rawLen <= 80; rawLen++ {
		twoSym := make([]byte, rawLen)
		geometric := make([]byte, rawLen)
		for i := range twoSym {
			v := rng.next()
			if v%10 == 0 {
				twoSym[i] = 1
			}
			for v&1 == 1 && geometric[i] < 6 {
				geometric[i]++
				v >>= 1
			}
		}
		twoSym[rawLen/2] = 1 // at least two symbols
		for _, src := range [][]byte{twoSym, geometric} {
			comp := Compress(nil, src)
			mode, n, rest, err := blockHeader(comp)
			if err != nil || mode != modeFSE || n != rawLen {
				t.Fatalf("rawLen %d: setup expected one fse block, got mode %d (err %v)", rawLen, mode, err)
			}
			bodyLen, used := uvarint(t, rest)
			body := rest[used:]
			if bodyLen != len(body) {
				t.Fatalf("rawLen %d: setup expected a single block", rawLen)
			}
			nsym := int(body[1]) + 1
			stream := body[2+3*nsym:]
			if len(stream) < 8 {
				shortStreams++
			}
			if got, err := Decompress(nil, comp); err != nil || !bytes.Equal(got, src) {
				t.Fatalf("rawLen %d: round trip failed: %v", rawLen, err)
			}
			for cut := 0; cut < len(comp); cut++ {
				agree(t, fmt.Sprintf("rawLen %d prefix %d", rawLen, cut), comp[:cut])
			}
			for k := 0; k < len(stream); k++ {
				short := appendBlockHeader(nil, modeFSE, rawLen)
				short = binary.AppendUvarint(short, uint64(2+3*nsym+k))
				short = append(short, body[:2+3*nsym+k]...)
				agree(t, fmt.Sprintf("rawLen %d stream cut to %d bytes", rawLen, k), short)
			}
			mut := make([]byte, len(comp))
			for bit := 0; bit < 8*len(comp); bit++ {
				copy(mut, comp)
				mut[bit/8] ^= 0x80 >> (bit % 8)
				agree(t, fmt.Sprintf("rawLen %d bit %d", rawLen, bit), mut)
			}
		}
	}
	if shortStreams == 0 {
		t.Fatal("no block had a stream under 8 bytes; the tail-only path went untested")
	}
}

// TestNormalizeMatchesReference compares the fast normalize, whose
// under-target repair is closed-form, with the oracle's one-unit-at-a-
// time refNormalize over random histograms of every alphabet size, and
// checks both drift directions actually occurred.
func TestNormalizeMatchesReference(t *testing.T) {
	rng := testRNG(0x13198a2e03707344)
	var over, under int
	for iter := 0; iter < 4000; iter++ {
		nsym := 2 + iter%255
		fast, ref := new(scratch), new(scratch)
		perm := make([]int, 256)
		for i := range perm {
			perm[i] = i
		}
		for i := 255; i > 0; i-- {
			j := int(rng.next() % uint64(i+1))
			perm[i], perm[j] = perm[j], perm[i]
		}
		slices.Sort(perm[:nsym])
		blockLen := 0
		for i := 0; i < nsym; i++ {
			var c int32
			switch iter % 3 {
			case 0: // near-uniform
				c = int32(1 + rng.next()%64)
			case 1: // one dominant symbol, many rare ones
				c = int32(1 + rng.next()%4)
				if i == int(rng.next()%uint64(nsym)) {
					c += int32(rng.next() % 20000)
				}
			default: // geometric-ish
				c = int32(1 + (rng.next()%4096)>>uint(rng.next()%12))
			}
			sym := perm[i]
			fast.hist[sym], ref.hist[sym] = c, c
			fast.syms[i], ref.syms[i] = uint8(sym), uint8(sym)
			blockLen += int(c)
		}
		tableLog := tableLogFor(blockLen, nsym)
		var sum int64
		for i := 0; i < nsym; i++ {
			sum += max(1, int64(fast.hist[fast.syms[i]])<<tableLog/int64(blockLen))
		}
		switch {
		case sum > 1<<tableLog:
			over++
		case sum < 1<<tableLog:
			under++
		}
		fast.normalize(blockLen, nsym, tableLog)
		refNormalize(ref, blockLen, nsym, tableLog)
		for i := 0; i < nsym; i++ {
			if sym := fast.syms[i]; fast.norm[sym] != ref.norm[sym] {
				t.Fatalf("iter %d (nsym %d, tableLog %d): symbol %d normalized to %d, oracle %d",
					iter, nsym, tableLog, sym, fast.norm[sym], ref.norm[sym])
			}
		}
	}
	if over == 0 || under == 0 {
		t.Fatalf("drift directions not both covered: %d over target, %d under", over, under)
	}
}

func TestCorruptRejected(t *testing.T) {
	cases := map[string][]byte{
		"unknown-mode":     {9, 0},
		"rawlen-too-big":   {modeRaw, 0x81, 0x80, 0x04}, // 65537 > maxBlock
		"raw-truncated":    {modeRaw, 5, 1, 2},
		"rle-missing-sym":  {modeRLE, 5},
		"fse-no-body":      {modeFSE, 0x20},
		"fse-body-overrun": {modeFSE, 0x20, 9, 5, 1},
		"tablelog-low":     {modeFSE, 0x20, 2, 4, 1},
		"tablelog-high":    {modeFSE, 0x20, 2, 13, 1},
		"one-symbol":       {modeFSE, 0x20, 2, 5, 0},
		"table-truncated":  {modeFSE, 0x20, 3, 5, 1, 0},
		"zero-count":       {modeFSE, 0x20, 8, 5, 1, 0, 0, 0, 1, 1, 0},
		"unsorted-syms":    {modeFSE, 0x20, 8, 5, 1, 5, 1, 0, 3, 1, 0},
		"bad-count-sum":    {modeFSE, 0x20, 8, 5, 1, 0, 1, 0, 1, 1, 0},
		"missing-states":   {modeFSE, 0x20, 8, 5, 1, 0, 16, 0, 1, 16, 0},
	}
	for name, src := range cases {
		if _, err := Decompress(nil, src); err == nil {
			t.Errorf("%s: fast path accepted corrupt input", name)
		}
		if _, err := ReferenceDecompress(src); err == nil {
			t.Errorf("%s: oracle accepted corrupt input", name)
		}
	}
}

// TestDecompressCap checks the output bound trips on claimed lengths
// before any oversized append.
func TestDecompressCap(t *testing.T) {
	src := corpus()["skewed-4k"]
	comp := Compress(nil, src)
	if _, err := DecompressCap(nil, comp, len(src)); err != nil {
		t.Fatalf("cap == decoded size must succeed: %v", err)
	}
	if _, err := DecompressCap(nil, comp, len(src)-1); err == nil {
		t.Fatal("cap below decoded size must fail")
	}
	// A tiny rle block claiming maxBlock output against a small cap.
	bomb := []byte{modeRLE, 0x80, 0x80, 0x04, 7} // rawLen = 65536
	if _, err := DecompressCap(nil, bomb, 1024); err == nil {
		t.Fatal("expansion bomb must trip the cap")
	}
}

// TestZeroAllocSteadyState is the alloc-regression gate check.sh runs:
// with reused dst buffers, encode and decode must not allocate.
func TestZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only hold without -race")
	}
	src := corpus()["skewed-4k"]
	dst := Compress(nil, src)
	comp := append([]byte(nil), dst...)
	out, err := Decompress(nil, comp)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		dst = Compress(dst[:0], src)
		out, err = Decompress(out[:0], comp)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state encode+decode allocates %.1f/op, want 0", allocs)
	}
}

func FuzzRoundTrip(f *testing.F) {
	for _, src := range corpus() {
		if len(src) <= 8192 {
			f.Add(src)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		comp := Compress(nil, data)
		got, err := Decompress(nil, comp)
		if err != nil {
			t.Fatalf("decompress own output: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("round trip mismatch")
		}
		if len(data) <= 4096 {
			if ref := ReferenceCompress(data); !bytes.Equal(comp, ref) {
				t.Fatal("fast and reference compressed bytes differ")
			}
		}
	})
}

func FuzzDecode(f *testing.F) {
	for _, src := range corpus() {
		if len(src) > 0 && len(src) <= 8192 {
			f.Add(Compress(nil, src))
		}
	}
	f.Add([]byte{modeFSE, 0x20, 8, 5, 1, 0, 16, 0, 1, 16, 0, 0xAA, 0xBB})
	// Huf-mode seeds: the wide-alphabet lanes select huf blocks, so the
	// fuzzer starts inside the huf table and 4-stream parsers too.
	for _, name := range []string{"mantissa-lane", "exponent-lane"} {
		src := hufCorpus()[name]
		if len(src) > 8192 {
			src = src[:8192]
		}
		f.Add(CompressHuf(nil, src))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fast, fastErr := Decompress(nil, data)
		if len(data) > 1<<16 {
			return // keep the bit-serial oracle affordable
		}
		ref, refErr := ReferenceDecompress(data)
		if (fastErr == nil) != (refErr == nil) {
			t.Fatalf("fast err=%v, oracle err=%v", fastErr, refErr)
		}
		if fastErr == nil && !bytes.Equal(fast, ref) {
			t.Fatal("fast and oracle decoded different bytes")
		}
	})
}

func BenchmarkCompressSkewed(b *testing.B) {
	src := corpus()["skewed-1blk"]
	var dst []byte
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = Compress(dst[:0], src)
	}
}

func BenchmarkDecompressSkewed(b *testing.B) {
	comp := Compress(nil, corpus()["skewed-1blk"])
	src := corpus()["skewed-1blk"]
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
