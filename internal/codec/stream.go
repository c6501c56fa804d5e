package codec

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// ACCF v2 is the streaming multi-tensor container: a sequence of
// independently decodable, CRC-protected records framing one tensor
// each. Unlike the v1 container (one monolithic payload, CRC over the
// payload only), v2 protects the record header itself with a CRC and
// splits the payload into CRC-protected chunks, so decode can stream
// with bounded memory and corruption is reported with a byte position.
//
// Layout, all fields little-endian:
//
//	stream header:
//	  0   4   magic "ACCF"
//	  4   2   format version (2)
//	  6   2   reserved (0)
//	record, repeated:
//	  +0  1   marker: 'T' (0x54) tensor record, 'S' (0x53) staged
//	          tensor record (spec carries a "+stage" chain), 'E' (0x45)
//	          end of stream
//	tensor record, after the marker:
//	  +0  2   spec length L
//	  +2  L   codec spec string
//	  +2+L 1  tensor rank R
//	  …   4·R dims (uint32 each)
//	  …   4   payload length P
//	  …   4   header CRC32 (IEEE) over marker..payload-length
//	  …       chunked payload until P bytes delivered:
//	            u32 chunk length C (1..min(P remaining, 64 MiB))
//	            u32 chunk CRC32 (IEEE)
//	            C bytes
//	end-of-stream record: the marker alone; nothing may follow it.
//
// The reader never buffers a whole payload: chunk bytes flow straight
// into the decoder's plane-group scratch, with CRCs verified as the
// bytes pass through. A corrupted chunk therefore surfaces before its
// group's Decode call can return success.
const (
	streamVersion = 2

	recTensor = 0x54 // 'T'
	recEnd    = 0x45 // 'E'
	// recStaged ('S') frames a tensor record whose spec carries a stage
	// chain ("family:…+stage"). The record layout after the marker is
	// identical to 'T'; the distinct marker makes pre-stage readers fail
	// on "bad record marker" instead of feeding an entropy-coded payload
	// to a family decoder. Unstaged records keep the 'T' marker, so
	// pre-stage streams are byte-identical.
	recStaged = 0x53 // 'S'
	// recIndex ('I') frames the optional index footer: a CRC-protected
	// table of every record's offset, payload length, spec, and shape,
	// written immediately before the end marker (see stream_index.go for
	// the wire layout and the random-access reader built on it).
	recIndex = 0x49 // 'I'

	// maxStreamChunk bounds a chunk length a record may claim.
	maxStreamChunk = 1 << 26
	// defaultStreamChunk is the writer's chunk size.
	defaultStreamChunk = 1 << 20
	// minStreamChunk floors configurable chunk sizes.
	minStreamChunk = 4 << 10
)

// planeGroupBytes is the target size of one streamed plane-group read —
// the decoder's peak transient buffer. A single plane larger than this
// forms a group of one.
const planeGroupBytes = 1 << 20

// StreamWriter frames a sequence of tensors as ACCF v2 records on w.
// By default records are encoded serially as WriteTensor is called,
// buffering one record's payload at a time (peak memory is bounded by
// the largest single tensor's payload), never the stream.
// SetConcurrency enables the pipelined engine: records encode on a
// worker pool and are emitted strictly in WriteTensor order, producing
// a byte-identical stream (see stream_parallel.go).
type StreamWriter struct {
	w       io.Writer
	chunk   int
	started bool
	closed  bool
	// locked flips on the first WriteTensor and freezes configuration.
	// It is owned by the caller's goroutine — unlike started, which the
	// pipelined engine's emitter goroutine writes.
	locked  bool
	records atomic.Int64
	eng     *swEngine

	// off is the running byte offset of the stream: every write to w
	// passes through writeStreamHeader, emitRecord, or Close, each of
	// which advances it. With the pipelined engine only the emitter
	// goroutine touches it mid-stream; Close reads it after drain.
	off int64
	// indexOn, set by SetIndex, makes Close emit the index footer;
	// emitRecord accumulates one index entry per record while it is set.
	indexOn bool
	index   []indexEntry

	// Per-writer statistics (see Stats). These count unconditionally —
	// they are plain atomics with no allocation — while the matching
	// global telemetry metrics honor the telemetry enable switch.
	admitted atomic.Int64 // records accepted by WriteTensor
	bytesIn  atomic.Int64 // uncompressed bytes admitted
	bytesOut atomic.Int64 // encoded payload bytes emitted
}

// StreamWriterStats is a point-in-time snapshot of one writer's
// counters and back-pressure state. With the pipelined engine enabled,
// RecordsAdmitted can lead RecordsEmitted by up to the job quota;
// InFlightBytes is the uncompressed bytes of records admitted but not
// yet emitted, bounded by BudgetBytes (see SetMaxInFlightBytes) except
// that one oversized record may exceed the budget while alone in the
// pipeline. For the serial writer the three engine fields are zero.
type StreamWriterStats struct {
	RecordsAdmitted   int64
	RecordsEmitted    int64
	UncompressedBytes int64
	PayloadBytes      int64
	InFlightBytes     int64
	MaxInFlightBytes  int64 // high-water mark of InFlightBytes
	BudgetBytes       int64
}

// Stats returns the writer's current statistics. Safe to call
// concurrently with WriteTensor, including from other goroutines while
// the pipelined engine is running.
func (sw *StreamWriter) Stats() StreamWriterStats {
	s := StreamWriterStats{
		RecordsAdmitted:   sw.admitted.Load(),
		RecordsEmitted:    sw.records.Load(),
		UncompressedBytes: sw.bytesIn.Load(),
		PayloadBytes:      sw.bytesOut.Load(),
	}
	if sw.eng != nil {
		sw.eng.mu.Lock()
		s.InFlightBytes = sw.eng.inflight
		s.MaxInFlightBytes = sw.eng.maxInFlight
		s.BudgetBytes = sw.eng.budget
		sw.eng.mu.Unlock()
	}
	return s
}

// noteAdmitted records one accepted record and returns its 1-based
// sequence number (the trace record id). Called by the serial
// WriteTensor path and by the engine once admission succeeds.
func (sw *StreamWriter) noteAdmitted(cost int64) int64 {
	seq := sw.admitted.Add(1)
	sw.bytesIn.Add(cost)
	streamM.wAdmitted.Inc()
	streamM.wBytesIn.Add(uint64(cost))
	telemetry.TraceRecord(seq, telemetry.PhaseAdmitted)
	return seq
}

// NewStreamWriter returns a StreamWriter targeting w. The stream header
// is written lazily on the first record (or Close).
func NewStreamWriter(w io.Writer) *StreamWriter {
	return &StreamWriter{w: w, chunk: defaultStreamChunk}
}

// SetChunkSize overrides the payload chunk size, clamped to
// [4 KiB, 64 MiB]. Smaller chunks localize corruption and lower the
// reader's transient buffer; larger chunks shave framing overhead.
// Must be called before the first WriteTensor (later calls are
// ignored: with the pipelined engine the emitter goroutine owns the
// chunk size once records are in flight).
func (sw *StreamWriter) SetChunkSize(n int) {
	if sw.locked {
		return
	}
	if n < minStreamChunk {
		n = minStreamChunk
	}
	if n > maxStreamChunk {
		n = maxStreamChunk
	}
	sw.chunk = n
}

// Records reports how many tensor records have been written. With the
// pipelined engine enabled this counts emitted records, which may trail
// WriteTensor calls until Close.
func (sw *StreamWriter) Records() int { return int(sw.records.Load()) }

// SetIndex enables (or disables) the index footer: with it on, Close
// emits a CRC-protected table of every record's byte offset, payload
// length, spec, and shape just before the end-of-stream marker, which
// OpenIndexedStream uses for O(1) record seeks. The footer is
// self-describing and optional: a plain StreamReader verifies and skips
// it, and streams written without it are byte-identical to pre-index
// writers. Must be called before the first WriteTensor.
func (sw *StreamWriter) SetIndex(on bool) error {
	if sw.locked || sw.closed {
		return fmt.Errorf("codec: SetIndex must be called before the first WriteTensor")
	}
	sw.indexOn = on
	return nil
}

func (sw *StreamWriter) writeStreamHeader() error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], containerMagic)
	binary.LittleEndian.PutUint16(hdr[4:], streamVersion)
	binary.LittleEndian.PutUint16(hdr[6:], 0)
	if _, err := sw.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("codec: writing stream header: %w", err)
	}
	sw.off += int64(len(hdr))
	sw.started = true
	return nil
}

// WriteTensor appends one tensor record, encoded with c (which must be
// a registry codec). The record is self-describing: spec and shape ride
// in its CRC-protected header.
func (sw *StreamWriter) WriteTensor(ctx context.Context, c Codec, x *tensor.Tensor) error {
	if sw.closed {
		return fmt.Errorf("codec: stream writer is closed")
	}
	sw.locked = true
	impl, ok := c.(*codecImpl)
	if !ok {
		return fmt.Errorf("codec: %T is not a registry codec", c)
	}
	shape := x.Shape()
	if err := validateFrame(impl.spec, shape, 0); err != nil {
		return err
	}
	if sw.eng != nil {
		return sw.eng.submit(ctx, impl, shape, x)
	}
	seq := sw.noteAdmitted(int64(x.SizeBytes()))
	payload, err := impl.encodePayload(ctx, x)
	if err != nil {
		return err
	}
	telemetry.TraceRecord(seq, telemetry.PhaseEncoded)
	return sw.emitRecord(impl.spec, shape, payload)
}

// emitRecord frames one encoded payload as a tensor record: the lazily
// written stream header, the CRC-protected record header, then the
// chunked payload. Both the serial path and the pipelined engine's
// ordered emitter call this, so their byte output is identical by
// construction.
func (sw *StreamWriter) emitRecord(spec string, shape []int, payload []byte) error {
	if len(payload) > maxPayload {
		return fmt.Errorf("codec: payload %d bytes exceeds limit %d", len(payload), maxPayload)
	}
	if !sw.started {
		if err := sw.writeStreamHeader(); err != nil {
			return err
		}
	}
	marker := byte(recTensor)
	if specHasStages(spec) {
		marker = recStaged
	}
	recOff := sw.off // offset of the record's marker byte, for the index
	// Record header: marker..payload-length, then its CRC.
	hdr := make([]byte, 0, 12+len(spec)+4*len(shape))
	hdr = append(hdr, marker)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(spec)))
	hdr = append(hdr, spec...)
	hdr = append(hdr, byte(len(shape)))
	for _, d := range shape {
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(d))
	}
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(payload)))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
	if _, err := sw.w.Write(hdr); err != nil {
		return fmt.Errorf("codec: writing record header: %w", err)
	}
	sw.off += int64(len(hdr))
	for off := 0; off < len(payload); {
		n := len(payload) - off
		if n > sw.chunk {
			n = sw.chunk
		}
		chunk := payload[off : off+n]
		var ch [8]byte
		binary.LittleEndian.PutUint32(ch[0:], uint32(n))
		binary.LittleEndian.PutUint32(ch[4:], crc32.ChecksumIEEE(chunk))
		if _, err := sw.w.Write(ch[:]); err != nil {
			return fmt.Errorf("codec: writing chunk header: %w", err)
		}
		if _, err := sw.w.Write(chunk); err != nil {
			return fmt.Errorf("codec: writing chunk: %w", err)
		}
		sw.off += int64(len(ch)) + int64(n)
		off += n
	}
	if sw.indexOn {
		sw.index = append(sw.index, indexEntry{
			off:    recOff,
			payLen: int64(len(payload)),
			marker: marker,
			spec:   spec,
			shape:  append([]int(nil), shape...),
		})
	}
	seq := sw.records.Add(1)
	sw.bytesOut.Add(int64(len(payload)))
	streamM.wRecords.Inc()
	streamM.wBytesOut.Add(uint64(len(payload)))
	// Emission is strictly in admission order, so the emitted record's
	// sequence number equals the running emit count.
	telemetry.TraceRecord(seq, telemetry.PhaseEmitted)
	return nil
}

// Close terminates the stream with the end-of-stream marker. With the
// pipelined engine enabled it first waits for every in-flight record to
// encode and emit; an engine failure is returned here (and the end
// marker withheld, so the truncation is visible to readers). It does
// not close the underlying writer.
func (sw *StreamWriter) Close() error {
	if sw.closed {
		return nil
	}
	if sw.eng != nil {
		if err := sw.eng.drain(); err != nil {
			sw.closed = true
			return err
		}
	}
	if !sw.started {
		if err := sw.writeStreamHeader(); err != nil {
			return err
		}
	}
	if sw.indexOn {
		if err := sw.writeIndexFooter(); err != nil {
			return err
		}
	}
	if _, err := sw.w.Write([]byte{recEnd}); err != nil {
		return fmt.Errorf("codec: writing end-of-stream marker: %w", err)
	}
	sw.off++
	sw.closed = true
	return nil
}

// StreamReader decodes an ACCF v2 stream record by record: Next parses
// and returns the next record's header, then Decode (or Skip) consumes
// its payload. Peak extra memory during Decode is one plane-group
// buffer, not the record payload. All errors carry the stream byte
// offset; any error other than the clean io.EOF from Next is sticky —
// a corrupted stream cannot be resynchronized.
type StreamReader struct {
	br  *bufio.Reader
	off int64 // bytes consumed from the underlying stream
	rec int   // records seen (1-based once Next succeeds)
	hdr Header
	cur *payloadReader // pending record payload, nil between records
	err error          // sticky failure (or io.EOF after the end marker)
	// sawFooter flips once an index footer has been verified and
	// skipped; only the end marker may follow it.
	sawFooter bool
	// rs is the underlying source when it supports seeking; with a
	// preloaded index (seekIdx) Skip can then seek past a payload in
	// O(1) instead of draining its chunks.
	rs io.ReadSeeker
	// seekIdx is the index footer's entry table, loaded by a tail probe
	// at construction (nil when the source is unseekable, the stream
	// carries no footer, or the footer fails validation — all of which
	// leave the reader in plain sequential mode).
	seekIdx []indexEntry
	// footIdxOff is the stream-relative byte offset of the footer's 'I'
	// marker: the skip target after the last indexed record.
	footIdxOff int64
	// markOff is the stream-relative offset of the pending record's
	// marker byte, cross-checked against seekIdx before any seek-skip.
	markOff int64
	// codecs resolves record specs. The per-seek readers an
	// IndexedStream constructs share the stream's cache, so compiled
	// codec state is built once no matter how many parallel seeks hit
	// the spec (see stream_index.go).
	codecs *codecCache
	// ra, when non-nil, is the background read-ahead state: the
	// prefetch goroutine owns every field above and the public methods
	// serve from ra's queue instead (see stream_parallel.go).
	ra *readAhead

	// Per-reader statistics (see Stats). Atomics, because in read-ahead
	// mode the prefetch goroutine updates them while the consumer reads.
	nRecords      atomic.Int64
	nChunks       atomic.Int64
	nPayloadBytes atomic.Int64
	nDecodedBytes atomic.Int64
	nCRCFail      atomic.Int64
	nRAHits       atomic.Int64
	nRAMiss       atomic.Int64
	nFooterSkips  atomic.Int64
}

// StreamReaderStats is a point-in-time snapshot of one reader's
// counters. In read-ahead mode Records/Chunks/PayloadBytes/DecodedBytes
// track the background prefetcher, so they can lead the records the
// consumer has taken from Next; ReadAheadHits counts Next calls served
// without blocking on the prefetcher, ReadAheadMisses the calls that
// had to wait (both zero without SetReadAhead). FooterSkips counts the
// Skips served by an index-footer seek: those records' payload chunks
// are never read, so they appear in none of Chunks, PayloadBytes, or
// CRCFailures.
type StreamReaderStats struct {
	Records         int64
	Chunks          int64
	PayloadBytes    int64
	DecodedBytes    int64
	CRCFailures     int64
	ReadAheadHits   int64
	ReadAheadMisses int64
	FooterSkips     int64
}

// Stats returns the reader's current statistics. Safe to call
// concurrently with the read-ahead prefetcher.
func (sr *StreamReader) Stats() StreamReaderStats {
	return StreamReaderStats{
		Records:         sr.nRecords.Load(),
		Chunks:          sr.nChunks.Load(),
		PayloadBytes:    sr.nPayloadBytes.Load(),
		DecodedBytes:    sr.nDecodedBytes.Load(),
		CRCFailures:     sr.nCRCFail.Load(),
		ReadAheadHits:   sr.nRAHits.Load(),
		ReadAheadMisses: sr.nRAMiss.Load(),
		FooterSkips:     sr.nFooterSkips.Load(),
	}
}

// NewStreamReader validates the stream header and returns a reader
// positioned before the first record.
//
// When r also implements io.Seeker, the constructor probes the stream
// tail for the optional index footer before the first sequential read:
// with the footer loaded, Skip seeks directly past a record's payload
// instead of draining its chunks. The probe is best-effort — a missing
// or malformed footer just leaves the reader in plain sequential mode.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	sr := &StreamReader{codecs: new(codecCache)}
	if rs, ok := r.(io.ReadSeeker); ok {
		if err := sr.probeIndex(rs); err != nil {
			return nil, err
		}
	}
	sr.br = bufio.NewReaderSize(r, 64<<10)
	var fixed [8]byte
	if err := sr.readFull(fixed[:]); err != nil {
		return nil, fmt.Errorf("codec: reading stream header: %w", err)
	}
	if err := checkStreamHeader(fixed[:]); err != nil {
		return nil, err
	}
	return sr, nil
}

// readFull reads exactly len(p) bytes, tracking the stream offset.
func (sr *StreamReader) readFull(p []byte) error {
	n, err := io.ReadFull(sr.br, p)
	sr.off += int64(n)
	return err
}

// posf builds a position-bearing error and latches it as the reader's
// sticky failure.
func (sr *StreamReader) posf(format string, args ...any) error {
	err := fmt.Errorf("codec: stream offset %d (record %d): %s", sr.off, sr.rec, fmt.Sprintf(format, args...))
	sr.err = err
	return err
}

// poskf is posf with a typed error kind attached (see errors.go): the
// message is identical, errors.Is additionally matches the kind.
func (sr *StreamReader) poskf(kind error, format string, args ...any) error {
	err := markErr(kind, fmt.Errorf("codec: stream offset %d (record %d): %s", sr.off, sr.rec, fmt.Sprintf(format, args...)))
	sr.err = err
	return err
}

// posw wraps an underlying error with the stream position and latches
// it, preserving the chain for errors.Is/As.
func (sr *StreamReader) posw(context string, err error) error {
	wrapped := fmt.Errorf("codec: stream offset %d (record %d): %s: %w", sr.off, sr.rec, context, err)
	sr.err = wrapped
	return wrapped
}

// nextRecord advances to the next record and returns its header. It
// returns io.EOF (exactly, not wrapped) after a well-formed
// end-of-stream marker; a stream that simply stops without the marker
// is a truncation error. An unconsumed previous payload is skipped
// (CRC-verified) first.
func (sr *StreamReader) nextRecord() (Header, error) {
	if sr.err != nil {
		return Header{}, sr.err
	}
	if sr.cur != nil {
		if err := sr.skipRecord(); err != nil {
			return Header{}, err
		}
	}
	var marker byte
	for {
		var err error
		marker, err = sr.br.ReadByte()
		if err != nil {
			return Header{}, sr.posw("reading record marker", noEOF(err))
		}
		sr.off++
		switch marker {
		case recEnd:
			// Nothing may follow the end marker: a concatenation or a
			// duplicated tail is a framing error, not silently ignored.
			if _, err := sr.br.ReadByte(); err == nil {
				return Header{}, sr.posf("trailing data after end-of-stream marker")
			} else if err != io.EOF {
				return Header{}, sr.posw("probing for end of stream", err)
			}
			sr.err = io.EOF
			return Header{}, io.EOF
		case recIndex:
			// The index footer is for random-access readers; the
			// sequential reader verifies its CRC and framing, then skips
			// it. It must be the last record before the end marker.
			if sr.sawFooter {
				return Header{}, sr.posf("duplicate index footer")
			}
			if err := sr.skipIndexFooter(); err != nil {
				return Header{}, err
			}
			sr.sawFooter = true
			continue
		case recTensor, recStaged:
			if sr.sawFooter {
				return Header{}, sr.posf("tensor record after index footer")
			}
		default:
			return Header{}, sr.posf("bad record marker %#x", marker)
		}
		break
	}
	sr.markOff = sr.off - 1
	sr.rec++

	// Accumulate the variable-length header exactly as written so the
	// CRC can be verified before the fields are trusted.
	raw := make([]byte, 3, 64)
	raw[0] = marker
	if err := sr.readFull(raw[1:3]); err != nil {
		return Header{}, sr.posw("reading spec length", noEOF(err))
	}
	specLen := int(binary.LittleEndian.Uint16(raw[1:3]))
	if specLen == 0 || specLen > maxSpecLen {
		return Header{}, sr.posf("spec length %d outside [1,%d]", specLen, maxSpecLen)
	}
	raw = append(raw, make([]byte, specLen+1)...)
	if err := sr.readFull(raw[3:]); err != nil {
		return Header{}, sr.posw("reading spec", noEOF(err))
	}
	rank := int(raw[len(raw)-1])
	if rank == 0 || rank > maxRank {
		return Header{}, sr.posf("rank %d outside [1,%d]", rank, maxRank)
	}
	base := len(raw)
	raw = append(raw, make([]byte, 4*rank+4)...)
	if err := sr.readFull(raw[base:]); err != nil {
		return Header{}, sr.posw("reading dims", noEOF(err))
	}
	var crcBuf [4]byte
	if err := sr.readFull(crcBuf[:]); err != nil {
		return Header{}, sr.posw("reading header CRC", noEOF(err))
	}
	if want, got := binary.LittleEndian.Uint32(crcBuf[:]), crc32.ChecksumIEEE(raw); want != got {
		sr.nCRCFail.Add(1)
		streamM.rCRCFail.Inc()
		return Header{}, sr.poskf(ErrCRC, "record header CRC mismatch (stored %#x, computed %#x)", want, got)
	}

	hdr := Header{Spec: string(raw[3 : 3+specLen])}
	// The marker and the spec's stage chain must agree — a 'T' record
	// smuggling a staged spec (or the reverse) is a forgery.
	if staged := specHasStages(hdr.Spec); staged != (marker == recStaged) {
		return Header{}, sr.posf("record marker %#x does not match spec %q", marker, hdr.Spec)
	}
	hdr.Shape = make([]int, rank)
	// The element product accumulates in uint64: dims are validated to
	// ≤ 2²⁴ and the running product to ≤ 2²⁸ before each multiply, so the
	// intermediate stays ≤ 2⁵², which a 32-bit int would wrap straight
	// past the maxElems check.
	elems := uint64(1)
	for i := range hdr.Shape {
		d := binary.LittleEndian.Uint32(raw[base+4*i:])
		if d < 1 || d > maxDim {
			return Header{}, sr.posf("dimension %d outside [1,%d]", d, maxDim)
		}
		hdr.Shape[i] = int(d)
		elems *= uint64(d)
		if elems > maxElems {
			return Header{}, sr.posf("shape %v exceeds %d elements", hdr.Shape, maxElems)
		}
	}
	payLen := binary.LittleEndian.Uint32(raw[base+4*rank:])
	if payLen > maxPayload {
		return Header{}, sr.posf("payload %d bytes exceeds limit %d", payLen, maxPayload)
	}
	hdr.wireSize = len(raw) + 4
	sr.hdr = hdr
	sr.cur = &payloadReader{sr: sr, remaining: int(payLen)}
	sr.nRecords.Add(1)
	streamM.rRecords.Inc()
	// The caller gets its own copy of the shape: the reader keeps using
	// sr.hdr.Shape for the decode, so a caller mutating the returned
	// header cannot redirect it (and nothing the reader does later can
	// touch the caller's slice).
	ret := hdr
	ret.Shape = append([]int(nil), hdr.Shape...)
	return ret, nil
}

// codecCache resolves codecs by spec and keeps them: multi-record
// streams typically repeat one spec, and some backends (dctc) compile
// per-resolution state that must not be rebuilt per record. Safe for
// concurrent use; the zero value is ready.
type codecCache struct {
	mu sync.RWMutex
	m  map[string]Codec
}

func (cc *codecCache) lookup(spec string) (Codec, error) {
	cc.mu.RLock()
	c, ok := cc.m[spec]
	cc.mu.RUnlock()
	if ok {
		return c, nil
	}
	c, err := New(spec)
	if err != nil {
		return nil, err
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if prev, ok := cc.m[spec]; ok {
		return prev, nil
	}
	if cc.m == nil {
		cc.m = make(map[string]Codec)
	}
	cc.m[spec] = c
	return c, nil
}

// decodeRecord decompresses the pending record into a tensor, streaming
// the payload through at most one plane-group of scratch at a time. The
// codec is resolved from the record's (CRC-verified) spec.
func (sr *StreamReader) decodeRecord(ctx context.Context) (*tensor.Tensor, error) {
	if sr.err != nil {
		return nil, sr.err
	}
	if sr.cur == nil {
		return nil, fmt.Errorf("codec: no pending record (call Next first)")
	}
	start := telemetry.NowNanos()
	c, err := sr.codecs.lookup(sr.hdr.Spec)
	if err != nil {
		return nil, sr.posw(fmt.Sprintf("record spec %q", sr.hdr.Spec), err)
	}
	impl := c.(*codecImpl)
	var out *tensor.Tensor
	if sd, ok := impl.b.(streamDecoder); ok && len(impl.chain) == 0 {
		out, err = sd.decodeStream(ctx, sr.cur, sr.hdr.Shape)
	} else {
		// Staged records (the chain must invert over the whole payload)
		// and backends without streaming support buffer the one record.
		// The buffer grows as chunk data actually arrives rather than
		// being pre-allocated at the claimed payload length: a forged
		// (CRC-valid) header claiming maxPayload would otherwise force a
		// 1 GiB allocation before the first truncated chunk could fail.
		var buf bytes.Buffer
		if _, err = io.Copy(&buf, sr.cur); err == nil {
			out, err = impl.decodePayload(ctx, buf.Bytes(), sr.hdr.Shape)
		}
	}
	if err != nil {
		if sr.err == nil {
			return nil, sr.posw("decoding record", err)
		}
		return nil, sr.err
	}
	if sr.cur.len() != 0 {
		return nil, sr.posf("%d trailing payload bytes after decode", sr.cur.len())
	}
	sr.cur = nil
	sr.nDecodedBytes.Add(int64(out.SizeBytes()))
	streamM.rDecoded.Add(uint64(out.SizeBytes()))
	streamM.rDecodeNs.ObserveSince(start)
	return out, nil
}

// skipRecord discards the pending record's payload. With an index
// footer preloaded from a seekable source it seeks straight to the
// next record boundary in O(1); otherwise it drains the chunks,
// verifying every chunk CRC along the way.
func (sr *StreamReader) skipRecord() error {
	if sr.err != nil {
		return sr.err
	}
	if sr.cur == nil {
		return nil
	}
	if sr.trySeekSkip() {
		return nil
	}
	buf := getByteScratch(32 << 10)
	defer putByteScratch(buf)
	for sr.cur.len() > 0 {
		n := sr.cur.len()
		if n > len(buf) {
			n = len(buf)
		}
		if err := sr.cur.readFull(buf[:n]); err != nil {
			return err
		}
	}
	sr.cur = nil
	return nil
}

// trySeekSkip serves a Skip from the preloaded index: the next record's
// offset (or the footer's, after the last record) is in the table, so
// the pending payload's chunks need not be read at all. Returns false —
// leaving the payload for the sequential CRC-verifying drain — when no
// index is loaded, the record is beyond the table, or the table
// disagrees with the record the reader actually parsed. The skipped
// chunk CRCs go unverified by construction; a lying footer cannot
// produce wrong output, because whatever the seek lands on must still
// parse as a record marker with a CRC-verified header.
func (sr *StreamReader) trySeekSkip() bool {
	i := sr.rec - 1 // entries are in record order; rec is 1-based
	if sr.seekIdx == nil || i < 0 || i >= len(sr.seekIdx) {
		return false
	}
	if sr.seekIdx[i].off != sr.markOff {
		return false
	}
	next := sr.footIdxOff
	if i+1 < len(sr.seekIdx) {
		next = sr.seekIdx[i+1].off
	}
	skip := next - sr.off
	// The gap must at least hold the undelivered payload plus one chunk
	// header per pending chunk; anything less means the table and the
	// stream disagree.
	if skip < int64(sr.cur.len()) {
		return false
	}
	buffered := int64(sr.br.Buffered())
	if skip <= buffered {
		sr.br.Discard(int(skip))
	} else {
		// The source sits buffered bytes ahead of the reader's logical
		// position; seek the difference, then drop the stale buffer.
		if _, err := sr.rs.Seek(skip-buffered, io.SeekCurrent); err != nil {
			return false // source untouched on failure: drain instead
		}
		sr.br.Reset(sr.rs)
	}
	sr.off = next
	sr.cur = nil
	sr.nFooterSkips.Add(1)
	streamM.iFooterSkips.Inc()
	return true
}

// noEOF maps a bare io.EOF to io.ErrUnexpectedEOF: inside a record (or
// before the end marker) running out of bytes is a truncation, and a
// bare io.EOF would masquerade as a clean end of stream. Either way the
// result carries the ErrTruncated kind.
func noEOF(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return markIOTruncation(err)
}

// payloadReader streams one record's chunked payload. It implements
// io.Reader; bytes flow straight from the underlying stream into the
// caller's buffer while a running CRC is folded per chunk — the reader
// itself buffers nothing beyond the stream's bufio window.
type payloadReader struct {
	sr        *StreamReader
	remaining int    // payload bytes not yet delivered
	chunkLeft int    // bytes left in the current chunk
	crc       uint32 // running CRC of the current chunk
	wantCRC   uint32
	chunkOff  int64 // stream offset of the current chunk's first byte
}

// len reports the payload bytes not yet delivered.
func (r *payloadReader) len() int { return r.remaining }

func (r *payloadReader) Read(p []byte) (int, error) {
	if r.sr.err != nil {
		return 0, r.sr.err
	}
	if r.remaining == 0 {
		return 0, io.EOF
	}
	if len(p) == 0 {
		return 0, nil
	}
	if r.chunkLeft == 0 {
		var ch [8]byte
		if err := r.sr.readFull(ch[:]); err != nil {
			return 0, r.sr.posw("reading chunk header", noEOF(err))
		}
		clen := binary.LittleEndian.Uint32(ch[0:])
		if clen == 0 || clen > maxStreamChunk || uint64(clen) > uint64(r.remaining) {
			return 0, r.sr.posf("chunk length %d outside [1,%d] with %d payload bytes left", clen, maxStreamChunk, r.remaining)
		}
		r.chunkLeft = int(clen)
		r.wantCRC = binary.LittleEndian.Uint32(ch[4:])
		r.crc = 0
		r.chunkOff = r.sr.off
		r.sr.nChunks.Add(1)
		streamM.rChunks.Inc()
	}
	n := len(p)
	if n > r.chunkLeft {
		n = r.chunkLeft
	}
	if err := r.sr.readFull(p[:n]); err != nil {
		return 0, r.sr.posw("reading chunk", noEOF(err))
	}
	r.crc = crc32.Update(r.crc, crc32.IEEETable, p[:n])
	r.chunkLeft -= n
	r.remaining -= n
	r.sr.nPayloadBytes.Add(int64(n))
	streamM.rBytes.Add(uint64(n))
	if r.chunkLeft == 0 && r.crc != r.wantCRC {
		r.sr.nCRCFail.Add(1)
		streamM.rCRCFail.Inc()
		return 0, r.sr.poskf(ErrCRC, "chunk at offset %d CRC mismatch (stored %#x, computed %#x)", r.chunkOff, r.wantCRC, r.crc)
	}
	return n, nil
}

// ReadByte reads one payload byte.
func (r *payloadReader) ReadByte() (byte, error) {
	var b [1]byte
	if err := r.readFull(b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

// readFull fills p from the payload, treating a short payload as an
// error.
func (r *payloadReader) readFull(p []byte) error {
	off := 0
	for off < len(p) {
		n, err := r.Read(p[off:])
		if err != nil {
			if err == io.EOF {
				return r.sr.poskf(ErrTruncated, "payload truncated: want %d more bytes", len(p)-off)
			}
			return err
		}
		off += n
	}
	return nil
}

// decodePlaneStream incrementally decodes a plane-framed payload from r
// into out's h×w planes: the plane length table is read and validated
// first (checkLen, when non-nil, vets each entry before any plane data
// arrives), then planes are read and decoded one plane-group at a time
// — the group buffer is the decoder's only transient allocation.
func decodePlaneStream(ctx context.Context, r *payloadReader, out *tensor.Tensor, h, w int, checkLen func(p, n int) error, dec func(p int, data []byte, plane *tensor.Tensor) error) error {
	want := out.Len() / (h * w)
	var head [4]byte
	if err := r.readFull(head[:]); err != nil {
		return fmt.Errorf("codec: reading plane count: %w", err)
	}
	if got := binary.LittleEndian.Uint32(head[:]); got != uint32(want) {
		return fmt.Errorf("codec: payload holds %d planes, shape implies %d", got, want)
	}
	table := getByteScratch(4 * want)
	defer putByteScratch(table)
	if err := r.readFull(table); err != nil {
		return fmt.Errorf("codec: reading plane length table: %w", err)
	}
	lens := make([]int, want)
	var total uint64
	for p := range lens {
		n32 := binary.LittleEndian.Uint32(table[4*p:])
		total += uint64(n32)
		if total > uint64(r.len()) {
			return fmt.Errorf("codec: plane %d payload (%d bytes) overruns record", p, n32)
		}
		lens[p] = int(n32)
		if checkLen != nil {
			if err := checkLen(p, lens[p]); err != nil {
				return err
			}
		}
	}
	if total != uint64(r.len()) {
		return fmt.Errorf("codec: %d trailing bytes after plane payloads", uint64(r.len())-total)
	}
	for p0 := 0; p0 < want; {
		gBytes := lens[p0]
		p1 := p0 + 1
		for p1 < want && gBytes+lens[p1] <= planeGroupBytes {
			gBytes += lens[p1]
			p1++
		}
		buf := getByteScratch(gBytes)
		if err := r.readFull(buf); err != nil {
			putByteScratch(buf)
			return fmt.Errorf("codec: reading plane group [%d,%d): %w", p0, p1, err)
		}
		parts := make([][]byte, p1-p0)
		off := 0
		for i := range parts {
			parts[i] = buf[off : off+lens[p0+i]]
			off += lens[p0+i]
		}
		err := decompressPlaneRange(ctx, out, h, w, p0, parts, dec)
		putByteScratch(buf)
		if err != nil {
			return err
		}
		p0 = p1
	}
	return nil
}
