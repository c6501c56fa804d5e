package entropy

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/vecops"
)

// This file is the huff0-style multi-symbol fast path: a canonical
// length-limited Huffman coder whose blocks ride in the same framing as
// the fse coder (entropy.go) under mode 3, so raw, rle, fse, and huf
// blocks coexist in one stream and one decoder:
//
//	block := u8 mode=3, uvarint rawLen, uvarint bodyLen, body
//	body  :=
//	  128 bytes  code lengths, one nibble per symbol 0..255 (even
//	             symbol in the low nibble), 0 = absent, max length 11;
//	             the lengths must describe a *complete* canonical code
//	             (Kraft weights summing to exactly 2^11), so every
//	             decode-LUT probe lands on a defined entry
//	  3 × u16le  jump table: byte lengths of streams 0..2 (stream 3
//	             runs to the end of the body)
//	  4 streams  independent MSB-first bitstreams, each zero-padded to
//	             a byte; stream i encodes raw bytes
//	             [i·segLen, min((i+1)·segLen, rawLen)) with
//	             segLen = ceil(rawLen/4)
//
// Codes are canonical: lengths are assigned by a two-queue Huffman
// build over (frequency, symbol)-sorted leaves, length-limited to 11
// bits by the deterministic histogram repair in hufBuildLengths, and
// code values are assigned in (length, symbol) ascending order. The
// whole construction is a pure function of the block's histogram —
// format-defining, shared with the reference oracle.
//
// Decoding uses an 11-bit multi-symbol LUT: each probe returns up to
// two symbols plus the total bit length consumed, and the four streams
// decode independently (the asm kernel interleaves them for ILP; the
// portable path runs them back to back and doubles as the oracle for
// the kernel).
//
// CompressHuf is the encoder entry point: per block it picks the
// cheapest of raw, rle, fse, and huf, comparing the exact huf
// table+payload size against a deterministic fse size estimate (see
// fseEstimateBody). Decompress handles all four modes, so "+huf"
// streams need no decoder-side configuration.

const (
	// hufLutBits is the decode-LUT probe width; hufMaxLen (the code
	// length cap) must not exceed it so one probe always resolves at
	// least one symbol.
	hufLutBits = 11
	hufLutSize = 1 << hufLutBits
	hufMaxLen  = 11

	// hufTableBytes is the nibble-packed code-length table (256 symbols
	// × 4 bits); hufJumpBytes the 3 × u16le stream jump table.
	hufTableBytes = 128
	hufJumpBytes  = 6
	hufNumStreams = 4
)

// CompressHuf appends the multi-symbol entropy-coded form of src to
// dst and returns the extended slice. It frames src exactly like
// Compress — independent ≤ 64 KiB blocks — but per block picks the
// cheapest of raw, rle, fse, and the 4-stream canonical-Huffman (huf)
// representation, so Decompress reads its output unchanged. It never
// fails and never expands a payload by more than the per-block framing
// overhead. Reusing dst across calls makes the steady state
// allocation-free.
func CompressHuf(dst, src []byte) []byte {
	st := getScratch()
	for len(src) > 0 {
		n := len(src)
		if n > maxBlock {
			n = maxBlock
		}
		dst = compressHufBlock(dst, src[:n], st)
		src = src[n:]
	}
	putScratch(st)
	return dst
}

// compressHufBlock encodes one ≤ maxBlock slice, choosing the backend
// by measured (huf) or deterministically estimated (fse) table+payload
// size.
func compressHufBlock(dst, block []byte, st *scratch) []byte {
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
	hufBody := st.hufBuildLengths(nsym)
	fseBody := st.fseEstimateBody(len(block), nsym)
	// Incompressible early out: when neither body beats storing the
	// block raw, skip the trial encode entirely — both backends' raw
	// fallbacks would fire anyway, and on near-uniform data (float32
	// mantissa lanes) the discarded fse walk is the dominant cost.
	// Like the fse-vs-huf comparison this rule runs on the estimates,
	// is format-defining, and is shared with the reference oracle.
	if hufBody >= len(block) && fseBody >= len(block) {
		backendRaw.Inc()
		dst = appendBlockHeader(dst, modeRaw, len(block))
		return append(dst, block...)
	}
	if fseBody < hufBody {
		return appendFSEBlock(dst, block, st, nsym)
	}
	return appendHufBlock(dst, block, st)
}

// hufBuildLengths fills st.hlen with the canonical length-limited code
// lengths for the current histogram and returns the huf body size those
// lengths imply (table + jump + payload, padding bounded). The whole
// derivation — frequency-sorted two-queue Huffman build, clamp to
// hufMaxLen, deterministic Kraft repair, monotone length reassignment —
// is format-defining and shared with the reference oracle. Requires
// nsym ≥ 2.
func (s *scratch) hufBuildLengths(nsym int) int {
	// Leaves sorted by (frequency, symbol) ascending: block length caps
	// at 1<<16, so hist<<8|sym is collision-free in a uint32.
	for i := 0; i < nsym; i++ {
		sym := s.syms[i]
		s.hkeys[i] = uint32(s.hist[sym])<<8 | uint32(sym)
	}
	slices.Sort(s.hkeys[:nsym])

	// Two-queue Huffman build: leaves 0..nsym-1 carry the sorted
	// frequencies, internal nodes are created in nondecreasing
	// frequency order, and ties prefer the leaf queue (deterministic,
	// and biased toward shallower leaves).
	for i := 0; i < nsym; i++ {
		s.hfreq[i] = int32(s.hkeys[i] >> 8)
	}
	total := 2*nsym - 1
	leaf, internal := 0, nsym
	for created := nsym; created < total; created++ {
		take := func() int {
			if leaf < nsym && (internal >= created || s.hfreq[leaf] <= s.hfreq[internal]) {
				leaf++
				return leaf - 1
			}
			internal++
			return internal - 1
		}
		a, b := take(), take()
		s.hfreq[created] = s.hfreq[a] + s.hfreq[b]
		s.hparent[a], s.hparent[b] = int16(created), int16(created)
	}
	s.hdepth[total-1] = 0
	for k := total - 2; k >= 0; k-- {
		s.hdepth[k] = s.hdepth[s.hparent[k]] + 1
	}

	// Clamp depths to hufMaxLen and repair the length histogram until
	// the Kraft weights sum exactly to the LUT size again: each step
	// turns the deepest available shorter leaf into an internal node
	// whose children are that leaf and one promoted max-length leaf,
	// reducing the integer Kraft sum by exactly 1.
	for l := range s.hcnt {
		s.hcnt[l] = 0
	}
	kraft := int32(0)
	for i := 0; i < nsym; i++ {
		d := int(s.hdepth[i])
		if d > hufMaxLen {
			d = hufMaxLen
		}
		s.hcnt[d]++
		kraft += 1 << (hufMaxLen - d)
	}
	for debt := kraft - hufLutSize; debt > 0; debt-- {
		b := hufMaxLen - 1
		for s.hcnt[b] == 0 {
			b--
		}
		s.hcnt[b]--
		s.hcnt[b+1] += 2
		s.hcnt[hufMaxLen]--
	}

	// Reassign lengths monotonically: walking the repaired histogram
	// from the longest length down hands the longest codes to the
	// least frequent symbols (the sorted key order).
	for i := range s.hlen {
		s.hlen[i] = 0
	}
	idx := 0
	for l := hufMaxLen; l >= 1; l-- {
		for c := s.hcnt[l]; c > 0; c-- {
			s.hlen[byte(s.hkeys[idx])] = uint8(l)
			idx++
		}
	}

	payloadBits := int64(0)
	for i := 0; i < nsym; i++ {
		sym := s.syms[i]
		payloadBits += int64(s.hist[sym]) * int64(s.hlen[sym])
	}
	// +3: the 4 per-stream byte paddings cost at most 28 bits beyond
	// the rounded total.
	return hufTableBytes + hufJumpBytes + int((payloadBits+7)/8) + 3
}

// fseEstimateBody returns a deterministic estimate of the fse body size
// for the current histogram, without running the encoder: per symbol
// with normalized count f, a step emits mb = tableLog-floor(log2 f)
// bits from states at or above f<<mb and mb-1 below it, so averaging
// over the state range gives the expected payload exactly up to state
// path effects. Used only for backend selection, so the (format-
// defining) rule is "estimate, not measurement" — shared with the
// oracle.
func (s *scratch) fseEstimateBody(blockLen, nsym int) int {
	tableLog := tableLogFor(blockLen, nsym)
	s.normalize(blockLen, nsym, tableLog)
	return s.fseEstimateNormalized(nsym, tableLog)
}

// fseEstimateNormalized is fseEstimateBody past normalization: the
// estimate from the counts already in s.norm.
func (s *scratch) fseEstimateNormalized(nsym, tableLog int) int {
	size := int32(1) << tableLog
	var num int64
	for i := 0; i < nsym; i++ {
		sym := s.syms[i]
		f := uint32(s.norm[sym])
		mb := uint32(tableLog) - uint32(bits.Len32(f)-1)
		below := int64(f)<<mb - int64(size) // states emitting mb-1 bits
		num += int64(s.hist[sym]) * (int64(mb)*int64(size) - below)
	}
	estBits := (num + int64(size) - 1) / int64(size)
	return 2 + 3*nsym + int((2*int64(tableLog)+estBits+7)/8)
}

// hufAssignCodes derives the canonical code values from st.hlen and
// st.hcnt: codes are assigned in (length, symbol) ascending order, the
// textbook canonical numbering.
func (s *scratch) hufAssignCodes() {
	var first [hufMaxLen + 2]uint16
	code := uint16(0)
	for l := 1; l <= hufMaxLen; l++ {
		first[l] = code
		code = (code + uint16(s.hcnt[l])) << 1
	}
	for sym := 0; sym < 256; sym++ {
		if l := s.hlen[sym]; l > 0 {
			s.henc[sym] = first[l]<<4 | uint16(l)
			first[l]++
		}
	}
}

// appendHufBlock emits one huf block from the lengths hufBuildLengths
// left in the scratch, falling back to raw if the measured size does
// not beat it. The four streams are written back to back into the
// scratch stream buffer, whose end offsets give the jump table.
func appendHufBlock(dst, block []byte, st *scratch) []byte {
	st.hufAssignCodes()
	// Codes cap at hufMaxLen bits, so the streams never exceed this
	// bound; the 8 bytes beyond it take the last word store. One make
	// per scratch keeps later blocks allocation-free.
	if need := hufMaxLen*len(block)/8 + hufNumStreams + 8; len(st.hbuf) < need {
		st.hbuf = make([]byte, need)
	}
	buf := st.hbuf
	henc := &st.henc
	segLen := (len(block) + 3) / 4
	var ends [hufNumStreams]int
	o := 0
	for s := 0; s < hufNumStreams; s++ {
		lo := s * segLen
		hi := lo + segLen
		if hi > len(block) {
			hi = len(block)
		}
		// MSB-first through a local accumulator holding its pending
		// bits right-aligned: four codes of ≤ 11 bits join the < 8
		// pending bits per push, and every push stores the whole
		// accumulator as one big-endian word and advances past the
		// completed bytes (the partial byte is rewritten next time).
		seg := block[lo:hi]
		var acc uint64
		var nacc uint
		for ; len(seg) >= 4; seg = seg[4:] {
			e0, e1 := henc[seg[0]], henc[seg[1]]
			e2, e3 := henc[seg[2]], henc[seg[3]]
			w1, w23 := uint(e1&0xF), uint(e2&0xF)+uint(e3&0xF)
			v01 := uint64(e0>>4)<<w1 | uint64(e1>>4)
			v23 := uint64(e2>>4)<<(e3&0xF) | uint64(e3>>4)
			w := uint(e0&0xF) + w1 + w23
			acc = acc<<w | v01<<w23 | v23
			nacc += w
			binary.BigEndian.PutUint64(buf[o:], acc<<(64-nacc))
			o += int(nacc >> 3)
			nacc &= 7
		}
		for _, v := range seg {
			e := henc[v]
			acc = acc<<(e&0xF) | uint64(e>>4)
			nacc += uint(e & 0xF)
		}
		binary.BigEndian.PutUint64(buf[o:], acc<<(64-nacc))
		o += int(nacc+7) >> 3
		ends[s] = o
	}
	buf = buf[:o]

	bodyLen := hufTableBytes + hufJumpBytes + len(buf)
	headLen := 1 + uvarintLen(uint64(len(block))) + uvarintLen(uint64(bodyLen))
	if headLen+bodyLen >= 1+uvarintLen(uint64(len(block)))+len(block) {
		backendRaw.Inc()
		dst = appendBlockHeader(dst, modeRaw, len(block))
		return append(dst, block...)
	}

	backendHuf.Inc()
	dst = slices.Grow(dst, headLen+bodyLen)
	dst = appendBlockHeader(dst, modeHUF, len(block))
	dst = binary.AppendUvarint(dst, uint64(bodyLen))
	for i := 0; i < hufTableBytes; i++ {
		dst = append(dst, st.hlen[2*i]|st.hlen[2*i+1]<<4)
	}
	prev := 0
	for s := 0; s < hufNumStreams-1; s++ {
		n := ends[s] - prev // ≤ 16384 symbols × 11 bits: fits u16
		dst = append(dst, byte(n), byte(n>>8))
		prev = ends[s]
	}
	return append(dst, buf...)
}

// hufParseLens reads a block's nibble-packed code-length table into
// st.hlen/st.hcnt, rejecting out-of-range lengths and any length set
// that is not a complete canonical code — the property the decode
// LUT's total coverage (and thus the loop's in-range guarantee) rests
// on.
func (s *scratch) hufParseLens(table []byte) error {
	for l := range s.hcnt {
		s.hcnt[l] = 0
	}
	kraft := int32(0)
	for i := 0; i < hufTableBytes; i++ {
		b := table[i]
		for half := 0; half < 2; half++ {
			l := b & 0xF
			b >>= 4
			s.hlen[2*i+half] = l
			if l > hufMaxLen {
				return fmt.Errorf("entropy: huf code length %d exceeds %d (symbol %d)", l, hufMaxLen, 2*i+half)
			}
			if l > 0 {
				s.hcnt[l]++
				kraft += 1 << (hufMaxLen - l)
			}
		}
	}
	if kraft != hufLutSize {
		return fmt.Errorf("entropy: huf code lengths are not a complete code (kraft sum %d, want %d)", kraft, hufLutSize)
	}
	return nil
}

// hufBuildLUT builds the decode tables from st.hlen/st.hcnt: first the
// single-symbol LUT by bulk span fills (one span per code, the
// canonical layout making every span contiguous), then the
// multi-symbol LUT by probing the single-symbol table for a second
// code inside each probe's remainder. Entry layout:
//
//	sym2<<24 | sym1<<16 | pair<<15 | totalBits<<8 | len1
func (s *scratch) hufBuildLUT() {
	s.hufAssignCodes()
	for sym := 0; sym < 256; sym++ {
		l := uint32(s.hlen[sym])
		if l == 0 {
			continue
		}
		code := uint32(s.henc[sym]) >> 4
		lo := code << (hufLutBits - l)
		hi := lo + 1<<(hufLutBits-l)
		vecops.FillUint16(s.hlut1[lo:hi], uint16(sym)<<8|uint16(l))
	}
	for i := 0; i < hufLutSize; i++ {
		e1 := uint32(s.hlut1[i])
		l1 := e1 & 0xFF
		entry := (e1>>8)<<16 | l1<<8 | l1
		if rem := hufLutBits - l1; rem > 0 {
			e2 := uint32(s.hlut1[(i<<l1)&(hufLutSize-1)])
			if l2 := e2 & 0xFF; l2 <= rem {
				entry = (e2>>8)<<24 | (e1>>8)<<16 | 1<<15 | (l1+l2)<<8 | l1
			}
		}
		s.hlut[i] = entry
	}
}

// decodeHufBody rebuilds rawLen bytes from one huf body: parse and
// validate the code-length table, split the four streams via the jump
// table, and decode each stream into its contiguous output segment.
func decodeHufBody(dst, body []byte, rawLen int, st *scratch) ([]byte, error) {
	if rawLen < minCompressBlock {
		return nil, fmt.Errorf("entropy: huf block claims %d raw bytes, encoder minimum is %d", rawLen, minCompressBlock)
	}
	if len(body) < hufTableBytes+hufJumpBytes {
		return nil, fmt.Errorf("entropy: huf body truncated (%d bytes)", len(body))
	}
	if err := st.hufParseLens(body[:hufTableBytes]); err != nil {
		return nil, err
	}
	st.hufBuildLUT()

	jump := body[hufTableBytes : hufTableBytes+hufJumpBytes]
	j0 := int(binary.LittleEndian.Uint16(jump[0:]))
	j1 := int(binary.LittleEndian.Uint16(jump[2:]))
	j2 := int(binary.LittleEndian.Uint16(jump[4:]))
	streamBytes := body[hufTableBytes+hufJumpBytes:]
	if j0+j1+j2 > len(streamBytes) {
		return nil, fmt.Errorf("entropy: huf jump table claims %d stream bytes, body holds %d", j0+j1+j2, len(streamBytes))
	}
	var srcs [hufNumStreams][]byte
	srcs[0] = streamBytes[:j0]
	srcs[1] = streamBytes[j0 : j0+j1]
	srcs[2] = streamBytes[j0+j1 : j0+j1+j2]
	srcs[3] = streamBytes[j0+j1+j2:]

	segLen := (rawLen + 3) / 4
	base := len(dst)
	dst = slices.Grow(dst, rawLen)[:base+rawLen]
	out := dst[base:]
	var outs [hufNumStreams][]byte
	outs[0] = out[:segLen]
	outs[1] = out[segLen : 2*segLen]
	outs[2] = out[2*segLen : 3*segLen]
	outs[3] = out[3*segLen:]

	// Bulk decode: the asm kernel runs the four streams interleaved (one
	// probe per stream per iteration) while every stream has ≥ 8
	// readable source bytes and ≥ 2 writable output bytes; the portable
	// per-stream loop finishes each stream from wherever the kernel
	// stopped (or does everything when the kernel is unavailable).
	var pos, oi [hufNumStreams]int
	var buf [hufNumStreams]uint64
	var cnt [hufNumStreams]uint
	if hufSIMD() && hufKernelViable(&srcs, &outs) {
		hufVectorCalls.Inc()
		hufDecode4(st, &srcs, &outs, &pos, &oi, &buf, &cnt)
	} else {
		hufPortableCalls.Inc()
	}
	for s := 0; s < hufNumStreams; s++ {
		if !st.hufDecodeStream(outs[s], srcs[s], oi[s], pos[s], buf[s], cnt[s]) {
			return nil, fmt.Errorf("entropy: huf stream %d truncated mid-block", s)
		}
	}
	return dst, nil
}

// hufKernelViable reports whether every stream meets the asm kernel's
// entry bounds (8 readable bytes, 2 writable output slots).
func hufKernelViable(srcs, outs *[hufNumStreams][]byte) bool {
	for s := 0; s < hufNumStreams; s++ {
		if len(srcs[s]) < 8 || len(outs[s]) < 2 {
			return false
		}
	}
	return true
}

// hufDecodeStream decodes one stream into out, resuming from the
// position (output index, source byte position, bit buffer, bit count)
// the asm kernel left off at (all zero when starting fresh). The bulk
// loop keeps a left-aligned 64-bit buffer refilled 8 bytes at a time;
// the bit-serial tail reads the final probes with zero padding. It
// reports false when the stream consumed more bits than it holds —
// truncation, or a forged jump table.
func (st *scratch) hufDecodeStream(out []byte, stream []byte, i, pos int, buf uint64, cnt uint) bool {
	n := len(out)
	for i+2 <= n && pos+8 <= len(stream) {
		if cnt <= 56 {
			buf |= binary.BigEndian.Uint64(stream[pos:]) >> cnt
			k := (64 - cnt) >> 3
			pos += int(k)
			cnt += k << 3
		}
		e := st.hlut[buf>>(64-hufLutBits)]
		out[i] = byte(e >> 16)
		out[i+1] = byte(e >> 24)
		i += 1 + int(e>>15&1)
		tb := uint(e>>8) & 0x1F
		buf <<= tb
		cnt -= tb
	}
	bit := pos*8 - int(cnt)
	totalBits := 8 * len(stream)
	for i < n {
		v := 0
		for k := 0; k < hufLutBits; k++ {
			v <<= 1
			if p := bit + k; p < totalBits {
				v |= int(stream[p>>3]>>(7-uint(p&7))) & 1
			}
		}
		e := st.hlut1[v]
		out[i] = byte(e >> 8)
		i++
		bit += int(e & 0xFF)
	}
	return bit <= totalBits
}
