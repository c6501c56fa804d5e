package codec

import (
	"context"
	"fmt"

	"repro/internal/jpegq"
	"repro/internal/tensor"
)

// jpegqBackend adapts the JPEG-style quantization pipeline. Spec:
// "jpegq:q=50" (quality factor 1–100).
//
// The codec is image-specific: it requires [BD, C, n, n] batches with
// values nominally in [0,1] and block-aligned resolutions. Channel 0
// of every sample quantizes with the luminance table and the remaining
// channels with chrominance, exactly as the whole-batch jpegq.Codec
// does; each plane is a standalone RLE+Huffman stream on the shared
// pipeline.
type jpegqBackend struct {
	codec *jpegq.Codec
}

// maxJPEGQExpansion bounds the output elements a jpegq payload byte may
// claim. The entropy coder spends a few bits per 8×8 block even on
// all-zero planes, so genuine streams stay far below 512 values/byte;
// a corrupted header claiming a huge shape over a tiny payload fails
// here before the output allocation.
const maxJPEGQExpansion = 512

func init() {
	register("jpegq", func(o *Options) (backend, error) {
		q := o.Int("q", 50)
		c, err := jpegq.NewCodec(q)
		if err != nil {
			return nil, fmt.Errorf("codec: jpegq: invalid value %d for key %q: %w", q, "q", err)
		}
		return &jpegqBackend{codec: c}, nil
	})
}

func (b *jpegqBackend) name() string   { return "jpegq" }
func (b *jpegqBackend) ratio() float64 { return 0 } // data-dependent (VLE stage)

func (b *jpegqBackend) canonical() string {
	return fmt.Sprintf("q=%d", b.codec.Quality)
}

// checkShape validates the image-batch constraint, returning (C, h, w).
func (b *jpegqBackend) checkShape(shape []int) (int, int, int, error) {
	if len(shape) != 4 {
		return 0, 0, 0, fmt.Errorf("jpegq: needs [BD,C,n,n] image batches, got shape %v", shape)
	}
	h, w := shape[2], shape[3]
	if h%jpegq.BlockSize != 0 || w%jpegq.BlockSize != 0 {
		return 0, 0, 0, fmt.Errorf("jpegq: resolution %dx%d not a multiple of %d", h, w, jpegq.BlockSize)
	}
	return shape[1], h, w, nil
}

func (b *jpegqBackend) encode(ctx context.Context, x *tensor.Tensor) ([]byte, error) {
	ch, h, w, err := b.checkShape(x.Shape())
	if err != nil {
		return nil, err
	}
	return compressPlanes(ctx, x, h, w, func(p int, plane *tensor.Tensor) ([]byte, error) {
		return b.codec.EncodePlane(plane, p%ch)
	})
}

func (b *jpegqBackend) decode(ctx context.Context, payload []byte, shape []int) (*tensor.Tensor, error) {
	ch, h, w, err := b.checkShape(shape)
	if err != nil {
		return nil, err
	}
	if elems := shape[0] * ch * h * w; elems > maxJPEGQExpansion*len(payload) {
		return nil, fmt.Errorf("jpegq: %d-byte payload implausibly small for %d elements", len(payload), elems)
	}
	parts, err := splitPlanePayloads(payload, shape[0]*ch)
	if err != nil {
		return nil, err
	}
	out := tensor.New(shape...)
	if err := decompressPlanes(ctx, out, h, w, parts, b.planeDec(ch)); err != nil {
		return nil, err
	}
	return out, nil
}

// planeDec returns the per-plane decode closure; the channel index
// picks the quantization table, exactly as in encode.
func (b *jpegqBackend) planeDec(ch int) func(p int, data []byte, plane *tensor.Tensor) error {
	return func(p int, data []byte, plane *tensor.Tensor) error {
		return b.codec.DecodePlane(data, plane, p%ch)
	}
}

// fastRoundTripInto round-trips every plane through the codec's pooled
// quantize→entropy→reconstruct path; the compressed bytes never leave
// the entropy coder's pooled buffers. The reported size matches the
// serialize path's payload: the plane frame plus each plane's stream.
func (b *jpegqBackend) fastRoundTripInto(dst, x *tensor.Tensor) (int, error) {
	// Dim/Dims instead of Shape(): Shape clones its slice, and this
	// path must stay allocation-free. Shape() is only reached on the
	// error path, where the clone is harmless.
	if x.Dims() != 4 {
		_, _, _, err := b.checkShape(x.Shape())
		return 0, err
	}
	h, w := x.Dim(2), x.Dim(3)
	if h%jpegq.BlockSize != 0 || w%jpegq.BlockSize != 0 {
		_, _, _, err := b.checkShape(x.Shape())
		return 0, err
	}
	ch := x.Dim(1)
	planes := x.Dim(0) * ch
	total := 4 + 4*planes // plane-frame header
	xd, dd := x.Data(), dst.Data()
	for p := 0; p < planes; p++ {
		n, err := b.codec.RoundTripPlane(dd[p*h*w:(p+1)*h*w], xd[p*h*w:(p+1)*h*w], h, w, p%ch)
		if err != nil {
			return 0, fmt.Errorf("jpegq: plane %d: %w", p, err)
		}
		total += n
	}
	return total, nil
}

// decodeStream decodes a jpegq record incrementally, one plane-group at
// a time (jpegq payloads have no mode byte — the plane framing starts
// immediately).
func (b *jpegqBackend) decodeStream(ctx context.Context, r *payloadReader, shape []int) (*tensor.Tensor, error) {
	ch, h, w, err := b.checkShape(shape)
	if err != nil {
		return nil, err
	}
	if elems := shape[0] * ch * h * w; elems > maxJPEGQExpansion*r.len() {
		return nil, fmt.Errorf("jpegq: %d-byte payload implausibly small for %d elements", r.len(), elems)
	}
	out := tensor.New(shape...)
	if err := decodePlaneStream(ctx, r, out, h, w, nil, b.planeDec(ch)); err != nil {
		return nil, err
	}
	return out, nil
}
