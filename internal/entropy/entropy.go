// Package entropy is the shared table-driven entropy backend for the
// codec stage pipeline: a tANS/FSE-style coder (histogram → normalized
// power-of-two table → two-state interleaved encode/decode) over byte
// payloads, in the style of klauspost/compress's FSE/huff0. As there,
// every inner loop keeps its bit container in local variables — a
// 64-bit accumulator plus a bit count and a byte position — instead of
// calling a bit reader or writer per symbol.
//
// The coder is byte-oriented and payload-agnostic: any codec family's
// serialized payload — quantized DCT coefficient bytes, zfp bit-planes,
// sz/jpegq Huffman streams, lossless byte-group lanes — can be appended
// through it as a container stage ("+fse" in a codec spec). Streams are
// framed as independent blocks so encode scratch stays bounded no
// matter how large the payload is:
//
//	stream := block*                      (until the source is exhausted)
//	block  := u8 mode, uvarint rawLen, body
//	  mode 0 (raw): body = rawLen verbatim bytes
//	  mode 1 (rle): body = 1 symbol byte, repeated rawLen times
//	  mode 2 (fse): body = uvarint bodyLen, then bodyLen bytes:
//	    u8  tableLog L (5..12)
//	    u8  nsym-1    (number of distinct symbols, ≥ 2)
//	    nsym × { u8 symbol, u16le normalized count }   (counts sum to 1<<L)
//	    bitstream, MSB-first, zero-padded to a byte:
//	      state0 (L bits), state1 (L bits), then per decoded symbol i the
//	      bits that step consumes (≤ L each)
//
// The fse bitstream is the standard ANS arrangement: the encoder walks
// the block backwards (symbol n-1 first), alternating two states by
// symbol-index parity, and the decoder walks forwards consuming bits in
// exactly the reverse order of emission — so the encoder records each
// step's bit chunk at its symbol index and replays them forwards. Every
// step reads table-bounded state transitions, so a decoder fed a valid
// table never indexes out of range; truncation shows as more bits
// consumed than the stream holds.
//
// The encoders sum the chunk widths (fse) or measure the streams (huf)
// before the raw-fallback decision, and push four chunks or codes per
// accumulator update, each update storing the whole accumulator as one
// big-endian word and advancing past the completed bytes, so no push
// branches on a flush. The fse decoder refills a left-aligned 64-bit
// buffer 8 bytes at a time and decodes four symbols per refill; a
// zero-padded byte-wise tail finishes the block.
//
// Compress never fails and never expands a payload by more than the
// per-block framing overhead: blocks whose fse body would match or
// exceed the raw bytes are stored raw. Both directions run with zero
// heap allocations at steady state when the caller reuses dst buffers
// (scratch is pooled via sync.Pool).
//
// ReferenceCompress and ReferenceDecompress are the slow, obviously
// correct bit-serial implementations of the same format, kept as the
// equivalence oracle for this fast path — the same idiom as
// core.CompressDense for the fast DCT kernel.
package entropy

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/vecops"
)

const (
	modeRaw = 0
	modeRLE = 1
	modeFSE = 2
	modeHUF = 3

	// maxBlock bounds the raw bytes one block encodes; encode scratch is
	// proportional to it (2 bytes per symbol), decode scratch constant.
	maxBlock = 1 << 16

	// minTableLog..maxTableLog bound the normalized table size. 12 keeps
	// every per-step bit chunk (≤ tableLog bits) packable in a uint16
	// alongside its 4-bit width.
	minTableLog = 5
	maxTableLog = 12

	// minCompressBlock: blocks shorter than this are stored raw — the
	// table description alone would dwarf any coding gain.
	minCompressBlock = 32
)

// scratch carries every per-block working buffer so steady-state
// encode/decode allocates nothing.
type scratch struct {
	hist [256]int32
	norm [256]uint16
	syms [256]uint8 // present symbols, in ascending order
	cum  [257]int32 // cumulative normalized counts over present symbols

	// decode table: sym<<24 | nbBits<<16 | newStateBase (base < 1<<12),
	// sized for the largest table so the decode loop's masked state
	// indexes need no bounds checks.
	dtable [1 << maxTableLog]uint32
	// encode table: posTable[cum[s]+(x-freq)] = table position of x.
	ptable []uint16
	// per-symbol encode params, indexed by symbol value. A step from
	// state v emits (v + deltaNb[s]) >> 16 bits: deltaNb[s] is
	// maxBits<<16 - (norm[s]<<maxBits), so states below that threshold
	// borrow one bit, without a branch. cumStart[s] is
	// cum[rank(s)] - norm[s], so ptable[cumStart[s]+q] maps an encode
	// step's quotient q ∈ [norm, 2·norm) straight to its table position.
	deltaNb  [256]uint32
	cumStart [256]int32

	// chunks records the encoder's per-step emissions (width<<12 | bits)
	// at their symbol indexes, for the forward replay.
	chunks []uint16

	// spread order scratch for table construction.
	tsym []uint8

	// huf scratch: canonical code-length construction (two-queue Huffman
	// over frequency-sorted keys), the per-symbol encode table, and the
	// single- and multi-symbol decode LUTs (see huf.go).
	hkeys   [256]uint32 // hist<<8 | sym, sorted ascending for the build
	hfreq   [512]int32  // two-queue node frequencies (leaves + internals)
	hparent [512]int16
	hdepth  [512]uint8
	hcnt    [hufMaxLen + 2]int32 // symbols per code length
	hlen    [256]uint8           // code length per symbol (0 = absent)
	henc    [256]uint16          // canonical code<<4 | length
	hlut1   [hufLutSize]uint16   // symbol<<8 | length per 11-bit probe
	hlut    [hufLutSize]uint32   // multi-symbol entries (see hufBuildLUT)
	hbuf    []byte               // the encoder's four streams, back to back
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch  { return scratchPool.Get().(*scratch) }
func putScratch(s *scratch) { scratchPool.Put(s) }

func (s *scratch) sized(tableSize, blockLen int) {
	if cap(s.ptable) < tableSize {
		s.ptable = make([]uint16, tableSize)
		s.tsym = make([]uint8, tableSize)
	}
	s.ptable = s.ptable[:tableSize]
	s.tsym = s.tsym[:tableSize]
	if cap(s.chunks) < blockLen+2 {
		s.chunks = make([]uint16, blockLen+2)
	}
	s.chunks = s.chunks[:0]
}

// Compress appends the entropy-coded form of src to dst and returns the
// extended slice. It never fails: incompressible blocks are stored raw,
// so the output is at most a few framing bytes per 64 KiB block larger
// than src. Reusing dst across calls makes the steady state
// allocation-free.
func Compress(dst, src []byte) []byte {
	st := getScratch()
	for len(src) > 0 {
		n := len(src)
		if n > maxBlock {
			n = maxBlock
		}
		dst = compressBlock(dst, src[:n], st)
		src = src[n:]
	}
	putScratch(st)
	return dst
}

// CompressedIsSmaller reports whether Compress would shrink src. It is
// a convenience for callers that want to branch without keeping the
// output (the encode still runs).
func CompressedIsSmaller(src []byte) bool {
	out := Compress(nil, src)
	return len(out) < len(src)
}

// histogram fills s.hist and s.syms for block, returning the number of
// distinct symbols.
func (s *scratch) histogram(block []byte) int {
	for i := range s.hist {
		s.hist[i] = 0
	}
	vecops.Histogram256(&s.hist, block)
	nsym := 0
	for v := 0; v < 256; v++ {
		if s.hist[v] > 0 {
			s.syms[nsym] = uint8(v)
			nsym++
		}
	}
	return nsym
}

// tableLogFor picks the table size for a block: large enough to give
// every present symbol a slot, small enough not to dwarf short blocks.
func tableLogFor(blockLen, nsym int) int {
	tl := maxTableLog - 1 // 11: the FSE default
	for tl > minTableLog && 1<<tl > blockLen {
		tl--
	}
	for 1<<tl < nsym {
		tl++
	}
	return tl
}

// normalize scales the histogram of the present symbols to sum exactly
// 1<<tableLog with every present count ≥ 1, filling s.norm and s.cum.
// The largest-remainder rounding plus the deterministic drift repair
// below are format-defining: the reference implementation's
// refNormalize, which repairs one unit at a time, must produce the
// identical table.
func (s *scratch) normalize(blockLen, nsym, tableLog int) {
	target := int32(1) << tableLog
	total := int64(blockLen)
	var sum int32
	for i := 0; i < nsym; i++ {
		c := int64(s.hist[s.syms[i]])
		n := int32(c * int64(target) / total)
		if n == 0 {
			n = 1
		}
		s.norm[s.syms[i]] = uint16(n)
		sum += n
	}
	// Deterministic drift repair: shrink the largest counts while over
	// target, grow the largest while under. Ties break on the lower
	// symbol value, so the result is a pure function of the histogram.
	for sum > target {
		best := -1
		var bestN uint16
		for i := 0; i < nsym; i++ {
			if n := s.norm[s.syms[i]]; n > 1 && (best < 0 || n > bestN) {
				best, bestN = i, n
			}
		}
		s.norm[s.syms[best]]--
		sum--
	}
	// Growing one unit at a time would pick the first largest count,
	// which then stays the unique largest, so the whole deficit goes to
	// it at once.
	if sum < target {
		best := 0
		bestN := s.norm[s.syms[0]]
		for i := 1; i < nsym; i++ {
			if n := s.norm[s.syms[i]]; n > bestN {
				best, bestN = i, n
			}
		}
		s.norm[s.syms[best]] += uint16(target - sum)
	}
	s.cum[0] = 0
	for i := 0; i < nsym; i++ {
		s.cum[i+1] = s.cum[i] + int32(s.norm[s.syms[i]])
	}
}

// spreadStep returns the position increment used to scatter symbol
// occurrences over the table; odd, so it cycles the whole power-of-two
// table exactly once.
func spreadStep(tableSize int) int {
	return (tableSize >> 1) + (tableSize >> 3) + 3
}

// buildTables constructs the decode table (position → symbol, bit
// count, next-state base) and the encode tables (per-symbol position
// lookup and bit-count deltas) from the normalized counts.
func (s *scratch) buildTables(nsym, tableLog int) {
	size := 1 << tableLog
	step, mask := spreadStep(size), size-1

	// Scatter symbol occurrences over the table positions.
	pos := 0
	for i := 0; i < nsym; i++ {
		sym := s.syms[i]
		for c := uint16(0); c < s.norm[sym]; c++ {
			s.tsym[pos&mask] = sym
			pos = (pos + step) & mask
		}
	}

	// Per-symbol occurrence counters walk x through [freq, 2·freq) in
	// table-position order; the decode entry at p inverts the encode
	// step that landed on x, and the encode table remembers p for x.
	var next [256]int32
	var symIndex [256]int32
	for i := 0; i < nsym; i++ {
		sym := s.syms[i]
		next[sym] = int32(s.norm[sym])
		symIndex[sym] = s.cum[i]
		f := uint32(s.norm[sym])
		mb := uint32(tableLog) - uint32(bits.Len32(f)-1)
		s.deltaNb[sym] = mb<<16 - f<<mb
		s.cumStart[sym] = s.cum[i] - int32(f)
	}
	for p := 0; p < size; p++ {
		sym := s.tsym[p]
		x := next[sym]
		next[sym]++
		nb := uint32(tableLog) - uint32(bits.Len32(uint32(x))-1)
		base := uint32(x)<<nb - uint32(size)
		s.dtable[p] = uint32(sym)<<24 | nb<<16 | base
		s.ptable[symIndex[sym]+x-int32(s.norm[sym])] = uint16(p)
	}
}

// appendBlockHeader writes a block's mode byte and raw length.
func appendBlockHeader(dst []byte, mode byte, rawLen int) []byte {
	dst = append(dst, mode)
	return binary.AppendUvarint(dst, uint64(rawLen))
}

// compressBlock encodes one ≤ maxBlock slice as a raw, rle, or fse
// block, whichever is smallest.
func compressBlock(dst, block []byte, st *scratch) []byte {
	nsym := st.histogram(block)
	if nsym == 1 {
		backendRLE.Inc()
		dst = appendBlockHeader(dst, modeRLE, len(block))
		return append(dst, block[0])
	}
	if len(block) < minCompressBlock {
		backendRaw.Inc()
		dst = appendBlockHeader(dst, modeRaw, len(block))
		return append(dst, block...)
	}
	return appendFSEBlock(dst, block, st, nsym)
}

// appendFSEBlock runs the fse encoder over one block (histogram already
// taken), falling back to a raw block when the coded form would not
// shrink it. Shared by the fse-only Compress path and the selecting
// CompressHuf path.
func appendFSEBlock(dst, block []byte, st *scratch, nsym int) []byte {
	tableLog := tableLogFor(len(block), nsym)
	size := 1 << tableLog
	st.sized(size, len(block))
	st.normalize(len(block), nsym, tableLog)
	st.buildTables(nsym, tableLog)

	// Walk the block backwards, alternating states by index parity, and
	// record each step's emitted chunk at its symbol index: the decoder
	// consumes symbol 0's bits first, so the replay below reads forward.
	// The widths are summed on the way, which sizes the body before any
	// byte is emitted.
	n := len(block)
	chunks := st.chunks[:n]
	deltaNb := &st.deltaNb
	cumStart, ptable := &st.cumStart, st.ptable
	v0, v1 := uint32(2*size-1), uint32(2*size-1)
	payloadBits := 2 * tableLog
	i := n - 1
	if i&1 == 0 { // odd length: the last symbol belongs to state 0
		sym := block[i]
		nb := (v0 + deltaNb[sym]) >> 16
		chunks[i] = uint16(nb<<12) | uint16(v0&(1<<nb-1))
		payloadBits += int(nb)
		v0 = uint32(size) + uint32(ptable[cumStart[sym]+int32(v0>>nb)])
		i--
	}
	for ; i > 0; i -= 2 {
		sym := block[i]
		nb := (v1 + deltaNb[sym]) >> 16
		chunks[i] = uint16(nb<<12) | uint16(v1&(1<<nb-1))
		payloadBits += int(nb)
		v1 = uint32(size) + uint32(ptable[cumStart[sym]+int32(v1>>nb)])

		sym = block[i-1]
		nb = (v0 + deltaNb[sym]) >> 16
		chunks[i-1] = uint16(nb<<12) | uint16(v0&(1<<nb-1))
		payloadBits += int(nb)
		v0 = uint32(size) + uint32(ptable[cumStart[sym]+int32(v0>>nb)])
	}

	streamLen := (payloadBits + 7) / 8
	bodyLen := 2 + 3*nsym + streamLen
	headLen := 1 + uvarintLen(uint64(len(block))) + uvarintLen(uint64(bodyLen))
	if headLen+bodyLen >= 1+uvarintLen(uint64(len(block)))+len(block) {
		backendRaw.Inc()
		dst = appendBlockHeader(dst, modeRaw, len(block))
		return append(dst, block...)
	}

	backendFSE.Inc()
	dst = slices.Grow(dst, headLen+bodyLen+8) // +8: the last word store
	dst = appendBlockHeader(dst, modeFSE, len(block))
	dst = binary.AppendUvarint(dst, uint64(bodyLen))
	dst = append(dst, byte(tableLog), byte(nsym-1))
	for i := 0; i < nsym; i++ {
		sym := st.syms[i]
		dst = append(dst, sym, byte(st.norm[sym]), byte(st.norm[sym]>>8))
	}

	// MSB-first emission straight into dst through a local accumulator
	// holding its pending bits right-aligned: four chunks of ≤ 12 bits
	// join the < 8 pending bits per push, and every push stores the
	// whole accumulator as one big-endian word and advances past the
	// completed bytes (the partial byte is rewritten next time).
	out := dst[len(dst) : len(dst)+streamLen+8]
	acc := uint64(v0-uint32(size))<<tableLog | uint64(v1-uint32(size))
	nacc := uint(2 * tableLog)
	binary.BigEndian.PutUint64(out, acc<<(64-nacc))
	o := int(nacc >> 3)
	nacc &= 7
	for c := chunks; len(c) >= 4; c = c[4:] {
		c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
		w1, w23 := uint(c1>>12), uint(c2>>12)+uint(c3>>12)
		v01 := uint64(c0&0xFFF)<<w1 | uint64(c1&0xFFF)
		v23 := uint64(c2&0xFFF)<<(c3>>12) | uint64(c3&0xFFF)
		w := uint(c0>>12) + w1 + w23
		acc = acc<<w | v01<<w23 | v23
		nacc += w
		binary.BigEndian.PutUint64(out[o:], acc<<(64-nacc))
		o += int(nacc >> 3)
		nacc &= 7
	}
	for _, c := range chunks[n&^3:] {
		acc = acc<<(c>>12) | uint64(c&0xFFF)
		nacc += uint(c >> 12)
	}
	binary.BigEndian.PutUint64(out[o:], acc<<(64-nacc))
	return dst[:len(dst)+streamLen]
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Decompress appends the decoded form of src to dst, returning the
// extended slice. Corrupt input — bad modes, impossible tables,
// truncated bitstreams, length overflows — returns an error; a
// successful decode is exactly the bytes Compress consumed. Reusing dst
// across calls makes the steady state allocation-free.
func Decompress(dst, src []byte) ([]byte, error) {
	return DecompressCap(dst, src, maxInt)
}

const maxInt = int(^uint(0) >> 1)

// DecompressCap is Decompress with an output bound: decoding fails as
// soon as the blocks' claimed raw lengths would push the appended
// output past limit bytes. Untrusted streams can claim ~32k× expansion
// per byte, so callers that know a plausible decoded size (a container
// stage inverting a payload for a known tensor shape) should pass it
// here and fail before the allocation, not after.
func DecompressCap(dst, src []byte, limit int) ([]byte, error) {
	st := getScratch()
	defer putScratch(st)
	produced := 0
	for len(src) > 0 {
		var err error
		var n int
		dst, src, n, err = decompressBlock(dst, src, st, limit-produced)
		if err != nil {
			return nil, err
		}
		produced += n
	}
	return dst, nil
}

// blockHeader parses a block's mode, raw length, and remaining input.
func blockHeader(src []byte) (mode byte, rawLen int, rest []byte, err error) {
	if len(src) < 2 {
		return 0, 0, nil, fmt.Errorf("entropy: truncated block header (%d bytes)", len(src))
	}
	mode = src[0]
	n, used := binary.Uvarint(src[1:])
	if used <= 0 || n > maxBlock {
		return 0, 0, nil, fmt.Errorf("entropy: bad block length")
	}
	return mode, int(n), src[1+used:], nil
}

func decompressBlock(dst, src []byte, st *scratch, limit int) ([]byte, []byte, int, error) {
	mode, rawLen, src, err := blockHeader(src)
	if err != nil {
		return nil, nil, 0, err
	}
	if rawLen > limit {
		return nil, nil, 0, fmt.Errorf("entropy: block claims %d bytes, exceeding the caller's %d-byte output bound", rawLen, limit)
	}
	// The block's exact output size is known up front, so one Grow here
	// replaces the per-append growth ladder in every body decoder (the
	// claimed rawLen is already capped by the caller's bound above).
	dst = slices.Grow(dst, rawLen)
	switch mode {
	case modeRaw:
		if len(src) < rawLen {
			return nil, nil, 0, fmt.Errorf("entropy: raw block truncated (%d of %d bytes)", len(src), rawLen)
		}
		return append(dst, src[:rawLen]...), src[rawLen:], rawLen, nil
	case modeRLE:
		if len(src) < 1 {
			return nil, nil, 0, fmt.Errorf("entropy: rle block missing symbol")
		}
		sym := src[0]
		base := len(dst)
		dst = slices.Grow(dst, rawLen)[:base+rawLen]
		vecops.FillBytes(dst[base:], sym)
		return dst, src[1:], rawLen, nil
	case modeFSE:
		bodyLen64, used := binary.Uvarint(src)
		if used <= 0 || bodyLen64 > uint64(len(src)-used) {
			return nil, nil, 0, fmt.Errorf("entropy: bad fse body length")
		}
		src = src[used:]
		body := src[:bodyLen64]
		dst, err := decodeFSEBody(dst, body, rawLen, st)
		if err != nil {
			return nil, nil, 0, err
		}
		return dst, src[bodyLen64:], rawLen, nil
	case modeHUF:
		bodyLen64, used := binary.Uvarint(src)
		if used <= 0 || bodyLen64 > uint64(len(src)-used) {
			return nil, nil, 0, fmt.Errorf("entropy: bad huf body length")
		}
		src = src[used:]
		body := src[:bodyLen64]
		dst, err := decodeHufBody(dst, body, rawLen, st)
		if err != nil {
			return nil, nil, 0, err
		}
		return dst, src[bodyLen64:], rawLen, nil
	default:
		return nil, nil, 0, fmt.Errorf("entropy: unknown block mode %d", mode)
	}
}

// parseTable reads an fse body's table description into the scratch,
// returning the table log and the bitstream remainder. It rejects
// out-of-range logs, duplicate or unsorted symbols, zero counts, and
// count sums that do not exactly fill the table — the properties the
// table-driven decode loop's in-range guarantees rest on.
func parseTable(body []byte, st *scratch) (tableLog int, stream []byte, err error) {
	if len(body) < 2 {
		return 0, nil, fmt.Errorf("entropy: fse body truncated")
	}
	tableLog = int(body[0])
	nsym := int(body[1]) + 1
	if tableLog < minTableLog || tableLog > maxTableLog {
		return 0, nil, fmt.Errorf("entropy: table log %d outside [%d,%d]", tableLog, minTableLog, maxTableLog)
	}
	if nsym < 2 {
		return 0, nil, fmt.Errorf("entropy: fse block with %d symbols", nsym)
	}
	if len(body) < 2+3*nsym {
		return 0, nil, fmt.Errorf("entropy: table description truncated")
	}
	size := 1 << tableLog
	var sum int32
	prev := -1
	for i := 0; i < nsym; i++ {
		sym := body[2+3*i]
		if int(sym) <= prev {
			return 0, nil, fmt.Errorf("entropy: table symbols not strictly ascending")
		}
		prev = int(sym)
		n := uint16(body[3+3*i]) | uint16(body[4+3*i])<<8
		if n == 0 || int(n) > size {
			return 0, nil, fmt.Errorf("entropy: normalized count %d outside [1,%d]", n, size)
		}
		st.syms[i] = sym
		st.norm[sym] = n
		sum += int32(n)
	}
	if sum != int32(size) {
		return 0, nil, fmt.Errorf("entropy: normalized counts sum %d, table holds %d", sum, size)
	}
	st.cum[0] = 0
	for i := 0; i < nsym; i++ {
		st.cum[i+1] = st.cum[i] + int32(st.norm[st.syms[i]])
	}
	st.sized(size, 0)
	st.buildTables(nsym, tableLog)
	return tableLog, body[2+3*nsym:], nil
}

// decodeFSEBody rebuilds rawLen bytes from one fse body using the fast
// table-driven two-state loop. The bit container lives in locals: a
// left-aligned 64-bit buffer refilled 8 bytes at a time while that many
// remain, then byte by byte with zero padding past the end of the
// stream. Table construction bounds every transition inside the table,
// so the loops need no per-step range checks; truncation shows as more
// bits consumed than the stream holds, checked once after the block.
func decodeFSEBody(dst, body []byte, rawLen int, st *scratch) ([]byte, error) {
	tableLog, stream, err := parseTable(body, st)
	if err != nil {
		return nil, err
	}
	if 8*len(stream) < 2*tableLog {
		return nil, fmt.Errorf("entropy: bitstream truncated before initial states")
	}
	base := len(dst)
	dst = slices.Grow(dst, rawLen)[:base+rawLen]
	out := dst[base:]
	dt := &st.dtable

	// The bit container: unread bits left-aligned in buf (bits below
	// cnt are stream bits or zero), and the next stream byte to load,
	// which the padded refill may move past the end.
	var buf uint64
	var cnt uint
	pos := 0
	buf, cnt, pos = fseRefillPadded(stream, buf, cnt, pos)
	tl := uint(tableLog)
	p0 := uint32(buf >> (64 - tl))
	buf <<= tl
	p1 := uint32(buf >> (64 - tl))
	buf <<= tl
	cnt -= 2 * tl

	// Two-state interleave: even output positions decode on p0, odd on
	// p1. A refill leaves ≥ 57 bits and four steps take ≤ 48.
	i := 0
	for ; i+4 <= rawLen && pos+8 <= len(stream); i += 4 {
		if cnt <= 56 {
			buf |= binary.BigEndian.Uint64(stream[pos:]) >> cnt
			k := (64 - cnt) >> 3
			pos += int(k)
			cnt += k << 3
		}
		e := dt[p0&0xFFF]
		nb := uint(e>>16) & 0xF
		out[i] = byte(e >> 24)
		p0 = e&0xFFFF + uint32(buf>>1>>((63-nb)&63))
		buf <<= nb
		cnt -= nb
		e = dt[p1&0xFFF]
		nb = uint(e>>16) & 0xF
		out[i+1] = byte(e >> 24)
		p1 = e&0xFFFF + uint32(buf>>1>>((63-nb)&63))
		buf <<= nb
		cnt -= nb
		e = dt[p0&0xFFF]
		nb = uint(e>>16) & 0xF
		out[i+2] = byte(e >> 24)
		p0 = e&0xFFFF + uint32(buf>>1>>((63-nb)&63))
		buf <<= nb
		cnt -= nb
		e = dt[p1&0xFFF]
		nb = uint(e>>16) & 0xF
		out[i+3] = byte(e >> 24)
		p1 = e&0xFFFF + uint32(buf>>1>>((63-nb)&63))
		buf <<= nb
		cnt -= nb
	}
	for ; i < rawLen; i += 2 {
		buf, cnt, pos = fseRefillPadded(stream, buf, cnt, pos)
		e := dt[p0&0xFFF]
		nb := uint(e>>16) & 0xF
		out[i] = byte(e >> 24)
		p0 = e&0xFFFF + uint32(buf>>1>>((63-nb)&63))
		buf <<= nb
		cnt -= nb
		if i+1 == rawLen {
			break
		}
		e = dt[p1&0xFFF]
		nb = uint(e>>16) & 0xF
		out[i+1] = byte(e >> 24)
		p1 = e&0xFFFF + uint32(buf>>1>>((63-nb)&63))
		buf <<= nb
		cnt -= nb
	}
	if 8*pos-int(cnt) > 8*len(stream) {
		return nil, fmt.Errorf("entropy: bitstream truncated mid-block")
	}
	return dst, nil
}

// fseRefillPadded tops a left-aligned bit buffer up to ≥ 57 valid bits
// one byte at a time, loading zeros once pos passes the end of stream.
func fseRefillPadded(stream []byte, buf uint64, cnt uint, pos int) (uint64, uint, int) {
	for cnt <= 56 {
		if pos < len(stream) {
			buf |= uint64(stream[pos]) << (56 - cnt)
		}
		pos++
		cnt += 8
	}
	return buf, cnt, pos
}
