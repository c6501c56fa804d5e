package codec

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/tensor"
)

// This file is the shared batch pipeline: every adapter whose codec is
// plane-independent (all four families — DCT+Chop, ZFP, SZ and JPEG all
// process trailing 2-D planes independently) fans a tensor's planes
// across the shared executor (tensor.ParallelPlanes), with sync.Pool-reused
// float32 scratch buffers for the packing/staging copies.
//
// Plane-framed payload layout (little-endian):
//
//	u32 plane count
//	u32 × count  per-plane payload lengths
//	concatenated per-plane payloads

// SetMaxWorkers sets the process-wide cap on the goroutines that run
// one parallel loop (see tensor.SetMaxWorkers) and returns the previous
// setting; n < 1 restores the default, GOMAXPROCS, which reads as 0.
// Tests pin the cap to 1 to make plane execution order deterministic.
// Safe to call while compressions run: a loop reads the cap as it starts.
func SetMaxWorkers(n int) int { return tensor.SetMaxWorkers(n) }

// planeLoop is forEachPlane's pooled job on the shared executor.
type planeLoop struct {
	ctx context.Context // nil when the context can never be cancelled
	fn  func(p int) error

	mu    sync.Mutex
	err   error // the failure with the lowest rank
	errAt int64 // its rank: the plane index, +1<<32 if cancellation-kinded
}

// planeLoops is the free list of planeLoop jobs; a channel rather than
// a sync.Pool, which pays an allocation after every GC. It holds one
// job per loop that can be open at once — nesting depth times external
// callers — with room to spare; past that, a loop allocates its job.
var planeLoops = make(chan *planeLoop, 64)

// RunPlane runs fn(p) unless the loop's context is done, keeping the
// lowest-ranked failure.
func (l *planeLoop) RunPlane(p int) {
	if l.ctx != nil && l.ctx.Err() != nil {
		return
	}
	err := l.fn(p)
	if err == nil {
		return
	}
	at := int64(p)
	if ErrorKind(err) == "canceled" {
		at += 1 << 32
	}
	l.mu.Lock()
	if l.err == nil || at < l.errAt {
		l.err, l.errAt = err, at
	}
	l.mu.Unlock()
}

// forEachPlane runs fn(p) for p in [0, planes) on the shared executor
// (tensor.ParallelPlanes), with at most workers goroutines (workers < 1:
// the SetMaxWorkers cap). Every started plane runs to completion and
// the lowest-indexed failure is returned whatever the scheduling, so the
// same bad input always reports the same plane. A cancellation-kinded
// plane error is fallout from a cancel elsewhere and never masks another
// failure. Cancelling ctx, before or during the loop, is the one early
// exit: no further plane starts, and the context error is returned
// (wrapped, satisfying errors.Is) unless a plane failed.
func forEachPlane(ctx context.Context, planes, workers int, fn func(p int) error) error {
	if planes <= 0 {
		return nil
	}
	var l *planeLoop
	select {
	case l = <-planeLoops:
	default:
		l = new(planeLoop)
	}
	// context.Background and friends have a nil Done channel; skip the
	// per-plane cancellation checks entirely for them.
	if ctx.Done() != nil {
		l.ctx = ctx
	}
	l.fn = fn
	tensor.ParallelPlanes(planes, workers, l)
	err := l.err
	if err == nil && l.ctx != nil && ctx.Err() != nil {
		err = markErr(ErrCanceled, fmt.Errorf("codec: plane pipeline of %d planes cancelled: %w", planes, ctx.Err()))
	}
	l.ctx, l.fn, l.err = nil, nil, nil
	select {
	case planeLoops <- l:
	default:
	}
	return err
}

// scratchPool recycles float32 staging buffers across planes and calls.
var scratchPool = sync.Pool{New: func() any { return new([]float32) }}

// getScratchNoZero returns a scratch buffer of length n with arbitrary
// contents — for callers that overwrite every element before reading
// any (the flat decode paths decode into every plane, padded tail
// included, before copying out).
func getScratchNoZero(n int) []float32 {
	bp := scratchPool.Get().(*[]float32)
	if cap(*bp) < n {
		*bp = make([]float32, n)
	}
	return (*bp)[:n]
}

// getScratch returns a zeroed scratch buffer of length n — for callers
// that read elements they never wrote, like the flat encode paths whose
// zero-padded tail is compressed along with the data.
func getScratch(n int) []float32 {
	buf := getScratchNoZero(n)
	clear(buf)
	return buf
}

// putScratch returns a buffer to the pool.
func putScratch(buf []float32) {
	scratchPool.Put(&buf)
}

// byteScratchPool recycles byte staging buffers (plane-group reads,
// length tables) across streaming decodes.
var byteScratchPool = sync.Pool{New: func() any { return new([]byte) }}

// getByteScratch returns a byte buffer of length n with arbitrary
// contents.
func getByteScratch(n int) []byte {
	bp := byteScratchPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	return (*bp)[:n]
}

// putByteScratch returns a buffer to the pool.
func putByteScratch(buf []byte) {
	byteScratchPool.Put(&buf)
}

// compressPlanes encodes every h×w plane of x concurrently with enc and
// assembles the plane-framed payload. Plane p is the zero-copy view of
// x.Data()[p·h·w : (p+1)·h·w] shaped [h, w]. A tensor whose length is
// not a whole number of planes is an error — silently truncating the
// tail would decode to a different tensor.
func compressPlanes(ctx context.Context, x *tensor.Tensor, h, w int, enc func(p int, plane *tensor.Tensor) ([]byte, error)) ([]byte, error) {
	if h < 1 || w < 1 {
		return nil, fmt.Errorf("codec: invalid plane size %d×%d", h, w)
	}
	if x.Len()%(h*w) != 0 {
		return nil, fmt.Errorf("codec: tensor length %d is not a whole number of %d×%d planes (%d trailing values)", x.Len(), h, w, x.Len()%(h*w))
	}
	planes := x.Len() / (h * w)
	parts := make([][]byte, planes)
	err := forEachPlane(ctx, planes, 0, func(p int) error {
		plane := tensor.FromSlice(x.Data()[p*h*w:(p+1)*h*w], h, w)
		out, err := enc(p, plane)
		if err != nil {
			return fmt.Errorf("codec: plane %d: %w", p, err)
		}
		parts[p] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := 4 + 4*planes
	for _, part := range parts {
		total += len(part)
	}
	payload := make([]byte, 0, total)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(planes))
	for _, part := range parts {
		payload = binary.LittleEndian.AppendUint32(payload, uint32(len(part)))
	}
	for _, part := range parts {
		payload = append(payload, part...)
	}
	return payload, nil
}

// splitPlanePayloads validates a plane-framed payload against the
// expected plane count and returns the per-plane slices (views into
// payload). Called before any output allocation, so implausible frames
// fail cheaply. Lengths are validated as uint32 before conversion — on
// 32-bit platforms a length ≥ 2³¹ must not wrap negative.
func splitPlanePayloads(payload []byte, wantPlanes int) ([][]byte, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("codec: plane-framed payload truncated (%d bytes)", len(payload))
	}
	planeCount := binary.LittleEndian.Uint32(payload)
	if wantPlanes < 0 || planeCount != uint32(wantPlanes) {
		return nil, fmt.Errorf("codec: payload holds %d planes, shape implies %d", planeCount, wantPlanes)
	}
	planes := wantPlanes
	if len(payload) < 4+4*planes {
		return nil, fmt.Errorf("codec: plane length table truncated")
	}
	parts := make([][]byte, planes)
	off := 4 + 4*planes
	for p := 0; p < planes; p++ {
		plen32 := binary.LittleEndian.Uint32(payload[4+4*p:])
		if uint64(plen32) > uint64(len(payload)-off) {
			return nil, fmt.Errorf("codec: plane %d payload (%d bytes at offset %d) overruns frame", p, plen32, off)
		}
		plen := int(plen32)
		parts[p] = payload[off : off+plen]
		off += plen
	}
	if off != len(payload) {
		return nil, fmt.Errorf("codec: %d trailing bytes after plane payloads", len(payload)-off)
	}
	return parts, nil
}

// decompressPlanes decodes pre-split plane payloads concurrently into
// out's h×w planes. dec receives a zero-copy view of plane p; planes
// are disjoint, so concurrent writes are race-free.
func decompressPlanes(ctx context.Context, out *tensor.Tensor, h, w int, parts [][]byte, dec func(p int, data []byte, plane *tensor.Tensor) error) error {
	if want := out.Len() / (h * w); want != len(parts) {
		return fmt.Errorf("codec: %d plane payloads for %d planes", len(parts), want)
	}
	return decompressPlaneRange(ctx, out, h, w, 0, parts, dec)
}

// decompressPlaneRange decodes parts into out's planes
// [first, first+len(parts)) — the streaming decoder hands groups of
// planes through here as their bytes arrive, so out fills incrementally
// without the whole payload ever being resident.
func decompressPlaneRange(ctx context.Context, out *tensor.Tensor, h, w, first int, parts [][]byte, dec func(p int, data []byte, plane *tensor.Tensor) error) error {
	if last := first + len(parts); first < 0 || last > out.Len()/(h*w) {
		return fmt.Errorf("codec: plane range [%d,%d) outside tensor's %d planes", first, last, out.Len()/(h*w))
	}
	return forEachPlane(ctx, len(parts), 0, func(i int) error {
		p := first + i
		plane := tensor.FromSlice(out.Data()[p*h*w:(p+1)*h*w], h, w)
		if err := dec(p, parts[i], plane); err != nil {
			return fmt.Errorf("codec: plane %d: %w", p, err)
		}
		return nil
	})
}
