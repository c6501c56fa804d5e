// Package bitstream provides MSB-first bit-level I/O for the ZFP-style
// fixed-rate codec and the host-side variable-length encoders. These are
// exactly the bit-shift/bit-mask operations the paper's accelerators
// cannot express from PyTorch (§3.1) — which is why they live here, on
// the host, and never inside a device graph.
//
// Both ends run on a 64-bit accumulator: the Writer packs bits into a
// word and flushes eight bytes at a time, and the Reader refills a word
// and serves Peek/Consume out of it, so the per-bit inner loops of the
// bit-plane and Huffman coders touch memory once per word instead of
// once per byte. The byte stream produced is identical, bit for bit, to
// the original byte-at-a-time implementation.
package bitstream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Writer accumulates bits MSB-first into a growable byte buffer.
//
// The zero value is ready to use. A Writer may be reused across streams
// with Reset, which retains the underlying buffer; pool Writers with
// GetWriter/PutWriter to make steady-state encoding allocation-free.
type Writer struct {
	buf    []byte
	acc    uint64 // pending bits, left-aligned (top n bits valid)
	n      uint   // number of pending bits in acc, < 64 between calls
	bits   int    // total bits written
	sealed bool   // Bytes has been called; writes are rejected until Reset
}

// NewWriter returns an empty bit writer.
func NewWriter() *Writer { return &Writer{} }

var writerPool = sync.Pool{New: func() any { return &Writer{} }}

// GetWriter returns a reset Writer from a package pool.
func GetWriter() *Writer {
	w := writerPool.Get().(*Writer)
	w.Reset()
	return w
}

// PutWriter returns w to the package pool. The caller must not use w —
// or any slice previously obtained from w.Bytes() — afterwards.
func PutWriter(w *Writer) { writerPool.Put(w) }

// Reset discards all written bits and un-seals the writer, retaining
// the underlying buffer for reuse. Any slice previously returned by
// Bytes aliases that buffer and is invalidated.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.acc = 0
	w.n = 0
	w.bits = 0
	w.sealed = false
}

func (w *Writer) flushWord() {
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc)
	w.acc = 0
	w.n = 0
}

// WriteBits appends the low `width` bits of v, most significant first.
// width must be ≤ 64.
func (w *Writer) WriteBits(v uint64, width uint) {
	if width > 64 {
		panic(fmt.Sprintf("bitstream: width %d > 64", width))
	}
	if w.sealed {
		panic("bitstream: WriteBits after Bytes; call Reset first")
	}
	if width == 0 {
		return
	}
	if width < 64 {
		v &= (1 << width) - 1
	}
	w.bits += int(width)
	if space := 64 - w.n; width <= space {
		w.acc |= v << (space - width)
		w.n += width
		if w.n == 64 {
			w.flushWord()
		}
		return
	}
	// Split across the word boundary: top `space` bits complete the
	// accumulator, the low remainder starts the next word.
	space := 64 - w.n
	w.acc |= v >> (width - space)
	w.flushWord()
	rem := width - space // ≥ 1 and ≤ 63
	w.acc = v << (64 - rem)
	w.n = rem
}

// WriteBit appends one bit.
func (w *Writer) WriteBit(b uint) {
	if w.sealed {
		panic("bitstream: WriteBit after Bytes; call Reset first")
	}
	w.bits++
	w.acc |= uint64(b&1) << (63 - w.n)
	w.n++
	if w.n == 64 {
		w.flushWord()
	}
}

// Bits returns the total number of bits written.
func (w *Writer) Bits() int { return w.bits }

// Bytes seals the writer and returns the encoded buffer, with the final
// partial byte zero-padded. The returned slice aliases the Writer's
// internal buffer: it is invalidated by Reset (and by returning the
// Writer to the pool), so callers handing the bytes to longer-lived
// owners must copy. Further writes without an intervening Reset panic;
// repeated Bytes calls return the same sealed buffer.
func (w *Writer) Bytes() []byte {
	if !w.sealed {
		for w.n > 0 {
			w.buf = append(w.buf, byte(w.acc>>56))
			w.acc <<= 8
			if w.n > 8 {
				w.n -= 8
			} else {
				w.n = 0
			}
		}
		w.sealed = true
	}
	return w.buf
}

// Reader consumes bits MSB-first from a byte slice.
//
// Two usage styles are supported and may be mixed:
//
//   - ReadBits/ReadBit/Skip: strict, error-checked. An over-read
//     returns ErrOutOfBits without consuming anything.
//   - Peek/Consume: the table-driven decode style. Peek returns the
//     next bits zero-padded past the end of the stream; Consume
//     advances unconditionally and sets a sticky Overread flag when it
//     runs past the end. Check Overread once per decoded run instead
//     of per bit.
type Reader struct {
	buf  []byte
	off  int    // next unread byte offset in buf
	acc  uint64 // unread bits, left-aligned (top n bits valid)
	n    uint   // number of valid bits in acc
	over bool   // a Consume ran past the end of the stream
}

// NewReader wraps buf for reading.
func NewReader(buf []byte) *Reader {
	r := &Reader{}
	r.Reset(buf)
	return r
}

// Reset re-points the reader at buf, clearing all state. It allows a
// stack- or struct-embedded Reader to be reused without allocation.
func (r *Reader) Reset(buf []byte) {
	r.buf = buf
	r.off = 0
	r.acc = 0
	r.n = 0
	r.over = false
	r.refill()
}

// ErrOutOfBits reports an over-read.
var ErrOutOfBits = errors.New("bitstream: read past end of stream")

// refill tops the accumulator up to at least 57 valid bits, or to the
// end of the stream, whichever comes first.
func (r *Reader) refill() {
	if r.n == 0 && r.off+8 <= len(r.buf) {
		r.acc = binary.BigEndian.Uint64(r.buf[r.off:])
		r.off += 8
		r.n = 64
		return
	}
	for r.n <= 56 && r.off < len(r.buf) {
		r.acc |= uint64(r.buf[r.off]) << (56 - r.n)
		r.off++
		r.n += 8
	}
}

// take consumes width ≤ r.n bits from the accumulator. take(0) is a
// no-op returning 0; take(64) drains a full accumulator.
func (r *Reader) take(width uint) uint64 {
	v := r.acc >> (64 - width) // Go defines x>>64 == 0, so width 0 works
	r.acc <<= width
	r.n -= width
	return v
}

// ReadBits consumes `width` bits and returns them in the low positions.
// If fewer than width bits remain, it returns ErrOutOfBits and consumes
// nothing.
func (r *Reader) ReadBits(width uint) (uint64, error) {
	if width > 64 {
		panic(fmt.Sprintf("bitstream: width %d > 64", width))
	}
	if width <= r.n {
		return r.take(width), nil
	}
	if uint(8*(len(r.buf)-r.off))+r.n < width {
		return 0, ErrOutOfBits
	}
	r.refill()
	if width <= r.n {
		return r.take(width), nil
	}
	// width ∈ [58, 64] straddling a refill boundary: drain, refill, finish.
	have := r.n
	v := r.take(have)
	r.refill()
	rest := width - have
	return v<<rest | r.take(rest), nil
}

// ReadBit consumes one bit.
func (r *Reader) ReadBit() (uint, error) {
	if r.n == 0 {
		if r.off >= len(r.buf) {
			return 0, ErrOutOfBits
		}
		r.refill()
	}
	b := uint(r.acc >> 63)
	r.acc <<= 1
	r.n--
	return b, nil
}

// Peek returns the next `width` ≤ 56 bits without consuming them. Past
// the end of the stream the missing low bits read as zero; pair with
// Consume and check Overread to detect truncation.
func (r *Reader) Peek(width uint) uint64 {
	if r.n < width {
		r.refill()
	}
	return r.acc >> (64 - width)
}

// Consume advances past `width` bits previously examined with Peek.
// Consuming more bits than remain empties the reader and sets the
// sticky Overread flag.
func (r *Reader) Consume(width uint) {
	if r.n < width {
		r.refill()
		if r.n < width {
			r.acc, r.n, r.over = 0, 0, true
			return
		}
	}
	r.acc <<= width
	r.n -= width
}

// Overread reports whether a Consume ran past the end of the stream.
func (r *Reader) Overread() bool { return r.over }

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return 8*(len(r.buf)-r.off) + int(r.n) }

// Skip advances past n ≥ 0 bits, or returns ErrOutOfBits (consuming
// nothing) if fewer remain.
func (r *Reader) Skip(n int) error {
	if n > r.Remaining() {
		return ErrOutOfBits
	}
	for n > 0 {
		if r.n == 0 {
			r.refill()
		}
		step := uint(n)
		if step > r.n {
			step = r.n
		}
		r.take(step)
		n -= int(step)
	}
	return nil
}
