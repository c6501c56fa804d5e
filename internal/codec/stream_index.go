package codec

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync/atomic"

	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// The optional index footer makes an ACCF v2 stream seekable: a
// CRC-protected table of every record's byte offset, payload length,
// spec, and shape, written by StreamWriter.SetIndex immediately before
// the end-of-stream marker. It is length-suffixed with a trailing magic
// (the s2/seekable-zstd convention) so a random-access reader finds it
// from the tail in one bounded read, while the sequential StreamReader —
// and every pre-index reader of footer-less streams — keeps working:
// the footer is just one more marker-framed record to verify and skip.
//
// Footer layout, all fields little-endian, at stream offset F:
//
//	F+0     1   marker 'I' (0x49)
//	F+1     4   body length N (u32)
//	F+5     N   body:
//	              u32 record count R
//	              R entries, each:
//	                u64 record offset (of the record's marker byte)
//	                u64 payload length
//	                u8  record marker ('T' or 'S')
//	                u16 spec length L, then L spec bytes
//	                u8  rank K, then K × u32 dims
//	F+5+N   4   CRC32 (IEEE) over F+0 .. F+5+N (marker through body)
//	F+9+N   4   footer size S = N + 17 (u32)
//	F+13+N  4   index magic "ACCX"
//	F+17+N  1   end-of-stream marker 'E' (the stream's own, not the
//	            footer's: the footer always sits last, so the stream's
//	            final 13 bytes are CRC | S | magic | 'E' and
//	            F = size − 1 − S)
//
// Offsets and payload lengths are u64 on the wire; readers validate
// them against the stream size and maxPayload before ever converting to
// int, so 32-bit hosts reject rather than truncate (the same discipline
// as the PR 3 u32-length fixes).
//
// Trust model: the footer's CRC protects against corruption, not
// forgery — CRC32 is not cryptographic, and an attacker who can rewrite
// the footer can rewrite the records too. OpenIndexedStream therefore
// (a) statically validates every entry at load, (b) re-verifies the
// record header CRC at the entry's offset on every seek, and (c)
// cross-checks the entry's spec/shape/payload length against that
// CRC-verified header, returning ErrIndex on disagreement. An index
// that fails (a) — or whose CRC/framing fails — is discarded and the
// index is rebuilt from the records themselves.
const (
	// indexMagic trails the footer ("ACCX" on disk): the tail probe that
	// distinguishes an indexed stream from a plain one.
	indexMagic = 0x58434341
	// indexFooterOverhead is the footer's fixed framing: marker (1) +
	// body length (4) + CRC (4) + size (4) + magic (4).
	indexFooterOverhead = 17
	// minIndexFooter is the size of a footer with an empty table (the
	// body is just its u32 record count).
	minIndexFooter = indexFooterOverhead + 4
	// maxIndexBody bounds the footer body a stream may claim (64 MiB:
	// beyond 200k records even at the maximum entry size).
	maxIndexBody = 1 << 26
	// minIndexEntry is the smallest possible entry: offset (8) + payload
	// length (8) + marker (1) + spec length (2) + spec (≥1) + rank (1) +
	// dims (≥4). Used to bound the claimed record count against the body
	// length before anything is allocated.
	minIndexEntry = 25
)

// indexEntry is one record's row in the index, both as accumulated by
// the writer and as loaded (or rebuilt) by IndexedStream.
type indexEntry struct {
	off    int64 // stream offset of the record's marker byte
	payLen int64
	marker byte
	spec   string
	shape  []int
}

// encodeIndexFooter serializes the footer for a set of entries.
// Factored out of writeIndexFooter so tests can build forged footers.
func encodeIndexFooter(entries []indexEntry) ([]byte, error) {
	body := make([]byte, 0, 4+40*len(entries))
	body = binary.LittleEndian.AppendUint32(body, uint32(len(entries)))
	for _, e := range entries {
		body = binary.LittleEndian.AppendUint64(body, uint64(e.off))
		body = binary.LittleEndian.AppendUint64(body, uint64(e.payLen))
		body = append(body, e.marker)
		body = binary.LittleEndian.AppendUint16(body, uint16(len(e.spec)))
		body = append(body, e.spec...)
		body = append(body, byte(len(e.shape)))
		for _, d := range e.shape {
			body = binary.LittleEndian.AppendUint32(body, uint32(d))
		}
	}
	if len(body) > maxIndexBody {
		return nil, fmt.Errorf("codec: index footer body %d bytes exceeds limit %d", len(body), maxIndexBody)
	}
	foot := make([]byte, 0, len(body)+indexFooterOverhead)
	foot = append(foot, recIndex)
	foot = binary.LittleEndian.AppendUint32(foot, uint32(len(body)))
	foot = append(foot, body...)
	foot = binary.LittleEndian.AppendUint32(foot, crc32.ChecksumIEEE(foot))
	foot = binary.LittleEndian.AppendUint32(foot, uint32(len(body)+indexFooterOverhead))
	foot = binary.LittleEndian.AppendUint32(foot, indexMagic)
	return foot, nil
}

// writeIndexFooter emits the accumulated index as the stream's last
// record before the end marker. Called by Close with the pipelined
// engine already drained, so sw.index and sw.off are settled.
func (sw *StreamWriter) writeIndexFooter() error {
	foot, err := encodeIndexFooter(sw.index)
	if err != nil {
		return err
	}
	if _, err := sw.w.Write(foot); err != nil {
		return fmt.Errorf("codec: writing index footer: %w", err)
	}
	sw.off += int64(len(foot))
	return nil
}

// skipIndexFooter verifies and discards an index footer mid-stream: the
// sequential reader has no use for the table, but its CRC and framing
// are still enforced so corruption never passes silently. The marker
// byte has already been consumed (it is covered by the footer CRC).
func (sr *StreamReader) skipIndexFooter() error {
	crc := crc32.ChecksumIEEE([]byte{recIndex})
	var lenBuf [4]byte
	if err := sr.readFull(lenBuf[:]); err != nil {
		return sr.posw("reading index footer length", noEOF(err))
	}
	crc = crc32.Update(crc, crc32.IEEETable, lenBuf[:])
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n < 4 || n > maxIndexBody {
		return sr.posf("index footer body %d bytes outside [4,%d]", n, maxIndexBody)
	}
	// Stream the body through the CRC in bounded pieces; the sequential
	// reader never materializes the table.
	buf := getByteScratch(32 << 10)
	remaining := int64(n)
	for remaining > 0 {
		k := int64(len(buf))
		if k > remaining {
			k = remaining
		}
		if err := sr.readFull(buf[:k]); err != nil {
			putByteScratch(buf)
			return sr.posw("reading index footer body", noEOF(err))
		}
		crc = crc32.Update(crc, crc32.IEEETable, buf[:k])
		remaining -= k
	}
	putByteScratch(buf)
	var tail [12]byte
	if err := sr.readFull(tail[:]); err != nil {
		return sr.posw("reading index footer trailer", noEOF(err))
	}
	if want := binary.LittleEndian.Uint32(tail[0:]); want != crc {
		sr.nCRCFail.Add(1)
		streamM.rCRCFail.Inc()
		return sr.poskf(ErrCRC, "index footer CRC mismatch (stored %#x, computed %#x)", want, crc)
	}
	if s := binary.LittleEndian.Uint32(tail[4:]); uint64(s) != uint64(n)+indexFooterOverhead {
		return sr.posf("index footer size %d does not match body length %d", s, n)
	}
	if m := binary.LittleEndian.Uint32(tail[8:]); m != indexMagic {
		return sr.posf("bad index footer magic %#x", m)
	}
	return nil
}

// probeIndex loads the index footer from a seekable source before any
// sequential read, enabling the O(1) seek path in Skip. The stream may
// start anywhere in the source (the current position is the stream's
// byte 0); entry offsets stay stream-relative throughout. Every probe
// failure — short source, no trailing magic, bad framing or CRC,
// invalid entries — silently leaves seekIdx nil: the sequential walk
// still verifies the footer inline when it reaches the 'I' record, so
// nothing is lost but the fast skips. Only a failure to restore the
// source position is fatal (the reader would otherwise consume from
// the wrong offset).
func (sr *StreamReader) probeIndex(rs io.ReadSeeker) error {
	base, err := rs.Seek(0, io.SeekCurrent)
	if err != nil {
		return nil // claims io.Seeker but cannot seek: stay sequential
	}
	sr.rs = rs
	end, err := rs.Seek(0, io.SeekEnd)
	probe := func() {
		if err != nil || end-base < 8+minIndexFooter+1 {
			return
		}
		// Indexed tail: CRC | size S | magic | 'E'; the magic is the
		// discriminator (see loadFooter, which this mirrors for the
		// sequential reader).
		var tail [13]byte
		if _, err := rs.Seek(end-13, io.SeekStart); err != nil {
			return
		}
		if _, err := io.ReadFull(rs, tail[:]); err != nil {
			return
		}
		if tail[12] != recEnd || binary.LittleEndian.Uint32(tail[8:12]) != indexMagic {
			return
		}
		s := int64(binary.LittleEndian.Uint32(tail[4:8]))
		if s < minIndexFooter || s-indexFooterOverhead > maxIndexBody {
			return
		}
		footOff := end - 1 - s
		if footOff < base+8 {
			return
		}
		foot := make([]byte, s)
		if _, err := rs.Seek(footOff, io.SeekStart); err != nil {
			return
		}
		if _, err := io.ReadFull(rs, foot); err != nil {
			return
		}
		n := int64(binary.LittleEndian.Uint32(foot[1:5]))
		if foot[0] != recIndex || n != s-indexFooterOverhead {
			return
		}
		if crc32.ChecksumIEEE(foot[:5+n]) != binary.LittleEndian.Uint32(foot[5+n:]) {
			return
		}
		entries, err := parseIndexBody(foot[5:5+n], footOff-base)
		if err != nil {
			return
		}
		sr.seekIdx = entries
		sr.footIdxOff = footOff - base
	}
	probe()
	if _, err := rs.Seek(base, io.SeekStart); err != nil {
		return fmt.Errorf("codec: restoring stream position after index probe: %w", err)
	}
	return nil
}

// checkStreamHeader validates the fixed 8-byte ACCF v2 stream header.
func checkStreamHeader(fixed []byte) error {
	if m := binary.LittleEndian.Uint32(fixed[0:]); m != containerMagic {
		return fmt.Errorf("codec: bad magic %#x (not an ACCF stream)", m)
	}
	if v := binary.LittleEndian.Uint16(fixed[4:]); v != streamVersion {
		return fmt.Errorf("codec: unsupported stream version %d (want %d)", v, streamVersion)
	}
	if rsv := binary.LittleEndian.Uint16(fixed[6:]); rsv != 0 {
		return fmt.Errorf("codec: nonzero reserved field %#x in stream header", rsv)
	}
	return nil
}

// errNoFooter signals OpenIndexedStream's internal fallback: the stream
// carries no loadable footer, so the index must be rebuilt by walking
// the records. Never returned to callers.
var errNoFooter = errors.New("codec: no index footer")

// IndexedStream is the random-access view of an ACCF v2 stream: a
// loaded (or rebuilt) record index over an io.ReaderAt, with O(1)
// per-record seeks and a bounded-parallel range decoder. Methods are
// safe for concurrent use; decoded codecs are cached per spec and
// shared across all seeks.
type IndexedStream struct {
	r       io.ReaderAt
	size    int64
	entries []indexEntry
	rebuilt bool
	workers atomic.Int64 // DecodeRange's cap; 0 = the SetMaxWorkers cap

	codecs codecCache
}

// OpenIndexedStream opens a stream for random access. r must cover the
// whole stream: size is its total byte length (io.ReaderAt carries no
// length of its own — pass the file size, or len of the backing slice).
//
// If the stream ends with an index footer, it is loaded and validated
// with two tail reads, independent of stream length. Otherwise — no
// footer, or a footer whose CRC, framing, or entries fail validation —
// the index is rebuilt by sequentially walking the record headers
// (reading headers and chunk framing only, not payloads; see Rebuilt).
func OpenIndexedStream(r io.ReaderAt, size int64) (*IndexedStream, error) {
	// Minimum well-formed stream: the 8-byte header plus the end marker.
	if size < 9 {
		return nil, markErr(ErrTruncated, fmt.Errorf("codec: stream size %d below minimum 9", size))
	}
	var fixed [8]byte
	if _, err := r.ReadAt(fixed[:], 0); err != nil {
		return nil, fmt.Errorf("codec: reading stream header: %w", noEOF(err))
	}
	if err := checkStreamHeader(fixed[:]); err != nil {
		return nil, err
	}
	ix := &IndexedStream{r: r, size: size}
	if err := ix.loadFooter(); err == nil {
		streamM.iLoads.Inc()
		return ix, nil
	} else if !errors.Is(err, errNoFooter) {
		// A read error from the medium itself (not a malformed footer)
		// would fail the rebuild too; surface it now.
		var readErr *indexReadError
		if errors.As(err, &readErr) {
			return nil, readErr.err
		}
	}
	entries, err := ix.rebuild()
	if err != nil {
		return nil, err
	}
	ix.entries = entries
	ix.rebuilt = true
	streamM.iRebuilds.Inc()
	return ix, nil
}

// indexReadError distinguishes an I/O failure while probing the footer
// from a malformed footer: the latter falls back to a rebuild, the
// former aborts the open.
type indexReadError struct{ err error }

func (e *indexReadError) Error() string { return e.err.Error() }

// loadFooter probes the stream tail for the footer and, if present,
// validates and parses it into ix.entries. Any malformation returns an
// error wrapping errNoFooter, which the caller answers with a rebuild.
func (ix *IndexedStream) loadFooter() error {
	if ix.size < 8+minIndexFooter+1 {
		return errNoFooter
	}
	// The stream's last 13 bytes of an indexed stream: CRC | size S |
	// magic | 'E'. The magic is the discriminator; a plain stream ends
	// with arbitrary record bytes before its 'E'.
	var tail [13]byte
	if _, err := ix.r.ReadAt(tail[:], ix.size-13); err != nil {
		return &indexReadError{err: fmt.Errorf("codec: reading stream tail: %w", noEOF(err))}
	}
	if tail[12] != recEnd || binary.LittleEndian.Uint32(tail[8:12]) != indexMagic {
		return errNoFooter
	}
	s := int64(binary.LittleEndian.Uint32(tail[4:8]))
	if s < minIndexFooter || s-indexFooterOverhead > maxIndexBody {
		return fmt.Errorf("%w: implausible footer size %d", errNoFooter, s)
	}
	footOff := ix.size - 1 - s
	if footOff < 8 {
		return fmt.Errorf("%w: footer size %d overruns the stream", errNoFooter, s)
	}
	foot := make([]byte, s)
	if _, err := ix.r.ReadAt(foot, footOff); err != nil {
		return &indexReadError{err: fmt.Errorf("codec: reading index footer at offset %d: %w", footOff, noEOF(err))}
	}
	n := int64(binary.LittleEndian.Uint32(foot[1:5]))
	if foot[0] != recIndex || n != s-indexFooterOverhead {
		return fmt.Errorf("%w: malformed footer framing at offset %d", errNoFooter, footOff)
	}
	if got, want := crc32.ChecksumIEEE(foot[:5+n]), binary.LittleEndian.Uint32(foot[5+n:]); got != want {
		return fmt.Errorf("%w: footer CRC mismatch at offset %d (stored %#x, computed %#x)", errNoFooter, footOff, want, got)
	}
	entries, err := parseIndexBody(foot[5:5+n], footOff)
	if err != nil {
		return fmt.Errorf("%w: %s", errNoFooter, err)
	}
	ix.entries = entries
	return nil
}

// parseIndexBody decodes and validates the footer's entry table.
// footOff is where the footer starts: every record the table describes
// must lie in [8, footOff). All wire fields are validated as unsigned
// before any int conversion.
func parseIndexBody(body []byte, footOff int64) ([]indexEntry, error) {
	count := binary.LittleEndian.Uint32(body[0:4])
	// Bound the claimed count against the body before allocating.
	if uint64(count)*minIndexEntry > uint64(len(body)-4) {
		return nil, fmt.Errorf("codec: index claims %d entries in a %d-byte body", count, len(body))
	}
	entries := make([]indexEntry, 0, count)
	p := 4
	prev := int64(7) // records start at offset 8, strictly increasing
	for i := 0; i < int(count); i++ {
		if len(body)-p < minIndexEntry {
			return nil, fmt.Errorf("codec: index entry %d truncated", i)
		}
		off64 := binary.LittleEndian.Uint64(body[p:])
		pay64 := binary.LittleEndian.Uint64(body[p+8:])
		marker := body[p+16]
		specLen := int(binary.LittleEndian.Uint16(body[p+17:]))
		p += 19
		// footOff ≥ 8 and fits int64, so the unsigned comparison both
		// bounds the offset and licenses the conversion.
		if off64 >= uint64(footOff) {
			return nil, fmt.Errorf("codec: index entry %d offset %d beyond footer at %d", i, off64, footOff)
		}
		off := int64(off64)
		if off <= prev {
			return nil, fmt.Errorf("codec: index entry %d offset %d not increasing past %d", i, off, prev)
		}
		if pay64 > maxPayload {
			return nil, fmt.Errorf("codec: index entry %d payload %d bytes exceeds limit %d", i, pay64, maxPayload)
		}
		if marker != recTensor && marker != recStaged {
			return nil, fmt.Errorf("codec: index entry %d bad record marker %#x", i, marker)
		}
		if specLen == 0 || specLen > maxSpecLen {
			return nil, fmt.Errorf("codec: index entry %d spec length %d outside [1,%d]", i, specLen, maxSpecLen)
		}
		if len(body)-p < specLen+1 {
			return nil, fmt.Errorf("codec: index entry %d truncated", i)
		}
		spec := string(body[p : p+specLen])
		rank := int(body[p+specLen])
		p += specLen + 1
		if staged := specHasStages(spec); staged != (marker == recStaged) {
			return nil, fmt.Errorf("codec: index entry %d marker %#x does not match spec %q", i, marker, spec)
		}
		if rank == 0 || rank > maxRank {
			return nil, fmt.Errorf("codec: index entry %d rank %d outside [1,%d]", i, rank, maxRank)
		}
		if len(body)-p < 4*rank {
			return nil, fmt.Errorf("codec: index entry %d truncated", i)
		}
		shape := make([]int, rank)
		elems := uint64(1)
		for k := range shape {
			d := binary.LittleEndian.Uint32(body[p+4*k:])
			if d < 1 || d > maxDim {
				return nil, fmt.Errorf("codec: index entry %d dimension %d outside [1,%d]", i, d, maxDim)
			}
			shape[k] = int(d)
			elems *= uint64(d)
			if elems > maxElems {
				return nil, fmt.Errorf("codec: index entry %d shape %v exceeds %d elements", i, shape, maxElems)
			}
		}
		p += 4 * rank
		entries = append(entries, indexEntry{off: off, payLen: int64(pay64), marker: marker, spec: spec, shape: shape})
		prev = off
	}
	if p != len(body) {
		return nil, fmt.Errorf("codec: %d trailing bytes after index entries", len(body)-p)
	}
	return entries, nil
}

// newRecordReader positions a sequential StreamReader at an absolute
// record offset via an io.SectionReader window, sharing the stream's
// codec cache. rec seeds the 0-based record count so position-bearing
// errors report the true record number.
func (ix *IndexedStream) newRecordReader(off int64, rec, bufSize int) *StreamReader {
	sec := io.NewSectionReader(ix.r, off, ix.size-off)
	return &StreamReader{
		br:     bufio.NewReaderSize(sec, bufSize),
		off:    off,
		rec:    rec,
		codecs: &ix.codecs,
	}
}

// rebuild reconstructs the index by walking the records sequentially:
// each header is parsed and CRC-verified through the same code path as
// the sequential reader, then the payload is skipped by hopping chunk
// headers — payload bytes themselves are never read, so a rebuild costs
// O(records + chunks) reads, not O(stream bytes). A footer encountered
// on the walk is skipped structurally (its length field and position
// only): a corrupt footer is exactly why the rebuild is running.
func (ix *IndexedStream) rebuild() ([]indexEntry, error) {
	var entries []indexEntry
	off := int64(8)
	sawFooter := false
	for {
		if off >= ix.size {
			return nil, markErr(ErrTruncated, fmt.Errorf("codec: stream offset %d (record %d): missing end-of-stream marker", off, len(entries)))
		}
		var mb [1]byte
		if _, err := ix.r.ReadAt(mb[:], off); err != nil {
			return nil, fmt.Errorf("codec: stream offset %d (record %d): reading record marker: %w", off, len(entries), noEOF(err))
		}
		switch mb[0] {
		case recEnd:
			if off != ix.size-1 {
				return nil, fmt.Errorf("codec: stream offset %d (record %d): trailing data after end-of-stream marker", off+1, len(entries))
			}
			return entries, nil
		case recIndex:
			if sawFooter {
				return nil, fmt.Errorf("codec: stream offset %d (record %d): duplicate index footer", off+1, len(entries))
			}
			var lenBuf [4]byte
			if _, err := ix.r.ReadAt(lenBuf[:], off+1); err != nil {
				return nil, fmt.Errorf("codec: stream offset %d (record %d): reading index footer length: %w", off+1, len(entries), noEOF(err))
			}
			n := binary.LittleEndian.Uint32(lenBuf[:])
			if n < 4 || n > maxIndexBody {
				return nil, fmt.Errorf("codec: stream offset %d (record %d): index footer body %d bytes outside [4,%d]", off+5, len(entries), n, maxIndexBody)
			}
			// The footer must run exactly to the end marker.
			if off+int64(n)+indexFooterOverhead != ix.size-1 {
				return nil, fmt.Errorf("codec: stream offset %d (record %d): index footer does not reach the end marker", off+5, len(entries))
			}
			sawFooter = true
			off = ix.size - 1
		case recTensor, recStaged:
			if sawFooter {
				return nil, fmt.Errorf("codec: stream offset %d (record %d): tensor record after index footer", off+1, len(entries))
			}
			// Small window: a rebuild touches one header per record, and
			// the maximum header is ~300 bytes.
			sr := ix.newRecordReader(off, len(entries), 512)
			hdr, err := sr.nextRecord()
			if err != nil {
				return nil, err
			}
			payLen := int64(sr.cur.len())
			entries = append(entries, indexEntry{
				off:    off,
				payLen: payLen,
				marker: mb[0],
				spec:   hdr.Spec,
				shape:  hdr.Shape,
			})
			// Hop the chunk framing without reading payload bytes.
			pos := off + int64(hdr.wireSize)
			for remaining := payLen; remaining > 0; {
				var ch [8]byte
				if _, err := ix.r.ReadAt(ch[:], pos); err != nil {
					return nil, markErr(ErrTruncated, fmt.Errorf("codec: stream offset %d (record %d): reading chunk header: %w", pos, len(entries), noEOF(err)))
				}
				clen := binary.LittleEndian.Uint32(ch[0:])
				if clen == 0 || clen > maxStreamChunk || int64(clen) > remaining {
					return nil, fmt.Errorf("codec: stream offset %d (record %d): chunk length %d outside [1,%d] with %d payload bytes left", pos+8, len(entries), clen, maxStreamChunk, remaining)
				}
				pos += 8 + int64(clen)
				remaining -= int64(clen)
			}
			if pos > ix.size {
				return nil, markErr(ErrTruncated, fmt.Errorf("codec: stream offset %d (record %d): record overruns the stream", ix.size, len(entries)))
			}
			off = pos
		default:
			return nil, fmt.Errorf("codec: stream offset %d (record %d): bad record marker %#x", off+1, len(entries), mb[0])
		}
	}
}

// Len reports the number of records in the index.
func (ix *IndexedStream) Len() int { return len(ix.entries) }

// Rebuilt reports whether the index was reconstructed by walking the
// records (no footer, or a footer that failed validation) rather than
// loaded from the footer.
func (ix *IndexedStream) Rebuilt() bool { return ix.rebuilt }

// Header returns record i's spec and shape from the index, without
// touching the stream. The shape is a fresh copy.
func (ix *IndexedStream) Header(i int) (Header, error) {
	if i < 0 || i >= len(ix.entries) {
		return Header{}, fmt.Errorf("codec: record index %d outside [0,%d)", i, len(ix.entries))
	}
	e := ix.entries[i]
	return Header{Spec: e.spec, Shape: append([]int(nil), e.shape...)}, nil
}

// SetConcurrency caps the goroutines that decode one DecodeRange on
// the shared executor. n == 0 (the default) means the process-wide
// SetMaxWorkers cap; n ≥ 1 sets an explicit cap, never above
// runtime.GOMAXPROCS(0). Unlike the sequential engines this may be
// changed at any time — it only affects subsequent DecodeRange calls.
func (ix *IndexedStream) SetConcurrency(n int) error {
	if n < 0 {
		return fmt.Errorf("codec: negative concurrency %d", n)
	}
	ix.workers.Store(int64(n))
	return nil
}

// DecodeAt decodes record i with a single seek: the record's header is
// re-parsed and CRC-verified at the indexed offset, cross-checked
// against the index entry (ErrIndex on disagreement — a forged or stale
// index never yields a wrong tensor silently), and the payload decoded
// through the same chunk-CRC-verified path as the sequential reader.
// Safe for concurrent use.
func (ix *IndexedStream) DecodeAt(ctx context.Context, i int) (*tensor.Tensor, error) {
	if i < 0 || i >= len(ix.entries) {
		return nil, fmt.Errorf("codec: record index %d outside [0,%d)", i, len(ix.entries))
	}
	start := telemetry.NowNanos()
	streamM.iSeeks.Inc()
	e := ix.entries[i]
	// Size the buffered window to the record itself (header + payload +
	// chunk framing slack), so a seek's reads are proportional to the
	// record, not to a fixed window that may span half the stream.
	bufSize := 64 << 10
	if n := int(e.payLen) + 1024; n < bufSize {
		bufSize = n
	}
	sr := ix.newRecordReader(e.off, i, bufSize)
	hdr, err := sr.nextRecord()
	if err != nil {
		return nil, err
	}
	if hdr.Spec != e.spec || int64(sr.cur.len()) != e.payLen || !equalShape(hdr.Shape, e.shape) {
		return nil, markErr(ErrIndex, fmt.Errorf(
			"codec: stream offset %d (record %d): index entry disagrees with record header (entry %q %v %d payload bytes, record %q %v %d)",
			e.off, i+1, e.spec, e.shape, e.payLen, hdr.Spec, hdr.Shape, sr.cur.len()))
	}
	out, err := sr.decodeRecord(ctx)
	if err != nil {
		return nil, err
	}
	streamM.iSeekNs.ObserveSince(start)
	return out, nil
}

// equalShape reports whether two shapes match exactly.
func equalShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// DecodeRange decodes records [lo, hi) concurrently on the shared
// executor (see SetConcurrency) and returns them in record order. The
// first failure cancels the decodes still in flight, and the
// lowest-indexed causal error is returned: cancellation fallout from
// sibling decodes does not mask it.
func (ix *IndexedStream) DecodeRange(ctx context.Context, lo, hi int) ([]*tensor.Tensor, error) {
	if lo < 0 || hi > len(ix.entries) || lo > hi {
		return nil, fmt.Errorf("codec: record range [%d,%d) outside [0,%d)", lo, hi, len(ix.entries))
	}
	if lo == hi {
		return nil, ctx.Err()
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := make([]*tensor.Tensor, hi-lo)
	err := forEachPlane(wctx, len(out), int(ix.workers.Load()), func(i int) error {
		t, err := ix.DecodeAt(wctx, lo+i)
		if err != nil {
			cancel()
			return err
		}
		out[i] = t
		streamM.iRangeRecords.Inc()
		return nil
	})
	if err != nil && ctx.Err() != nil && ErrorKind(err) == "canceled" {
		return nil, markErr(ErrCanceled, fmt.Errorf("codec: range decode aborted: %w", ctx.Err()))
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}
