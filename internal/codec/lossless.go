package codec

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/tensor"
)

// losslessBackend is the exact (bit-preserving) codec family for
// tensors that cannot tolerate loss — checkpoints, optimizer state,
// weights shipped for resumption. Spec: "lossless:bg=4" with byte
// groups bg ∈ {1, 2, 4}.
//
// It performs no quantization at all: the payload is the float32
// stream's little-endian bytes, transposed into bg byte-group lanes
// (bg=4: lane k holds byte k of every value). Grouping same-significance
// bytes — in the spirit of ZipNN's exponent/mantissa split — turns the
// highly skewed sign+exponent byte and the near-uniform mantissa bytes
// into separate runs, which is exactly the layout the "+fse" entropy
// stage compresses well; "lossless:bg=4+fse" is the intended full spec.
// Alone, the family is a ratio-1 identity with exact round-trip.
type losslessBackend struct {
	bg int
}

func init() {
	register("lossless", func(o *Options) (backend, error) {
		bg := o.Int("bg", 4)
		if bg != 1 && bg != 2 && bg != 4 {
			return nil, fmt.Errorf("codec: lossless: invalid value %d for key %q (want 1, 2, or 4)", bg, "bg")
		}
		return &losslessBackend{bg: bg}, nil
	})
}

func (b *losslessBackend) name() string   { return "lossless" }
func (b *losslessBackend) ratio() float64 { return 1 }

func (b *losslessBackend) canonical() string {
	return fmt.Sprintf("bg=%d", b.bg)
}

// payloadSegments marks the byte-group lane boundaries that
// encodePayload passes to the first stage: lane k occupies
// [k·n/bg, (k+1)·n/bg), so under "+huf" each lane's run of
// same-significance bytes gets its own block statistics instead of
// blocks straddling an exponent/mantissa boundary.
func (b *losslessBackend) payloadSegments(payloadLen int) []int {
	bounds := make([]int, b.bg)
	for i := range bounds {
		bounds[i] = (i + 1) * payloadLen / b.bg
	}
	return bounds
}

func (b *losslessBackend) encode(ctx context.Context, x *tensor.Tensor) ([]byte, error) {
	if x.Len() == 0 {
		return nil, fmt.Errorf("lossless: empty tensor")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	elems := x.Len()
	data := x.Data()
	out := make([]byte, 4*elems)
	// One flat loop per bg: the lane slices are hoisted and every
	// element is split with shifts only, so the transpose runs at
	// memory speed instead of re-slicing per element.
	switch b.bg {
	case 4:
		l0, l1 := out[:elems], out[elems:2*elems]
		l2, l3 := out[2*elems:3*elems], out[3*elems:4*elems]
		for i, v := range data {
			bits := math.Float32bits(v)
			l0[i] = byte(bits)
			l1[i] = byte(bits >> 8)
			l2[i] = byte(bits >> 16)
			l3[i] = byte(bits >> 24)
		}
	case 2:
		l0, l1 := out[:2*elems], out[2*elems:4*elems]
		for i, v := range data {
			bits := math.Float32bits(v)
			l0[2*i] = byte(bits)
			l0[2*i+1] = byte(bits >> 8)
			l1[2*i] = byte(bits >> 16)
			l1[2*i+1] = byte(bits >> 24)
		}
	default: // bg=1: the little-endian byte stream unchanged
		for i, v := range data {
			binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
		}
	}
	return out, nil
}

func (b *losslessBackend) decode(ctx context.Context, payload []byte, shape []int) (*tensor.Tensor, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	elems := 1
	for _, d := range shape {
		elems *= d
	}
	if len(payload) != 4*elems {
		return nil, fmt.Errorf("lossless: payload is %d bytes, shape %v needs exactly %d", len(payload), shape, 4*elems)
	}
	out := tensor.New(shape...)
	data := out.Data()
	// Element-outer assembly, one flat loop per bg: every value is
	// reconstructed as a uint32 and stored exactly once, so arbitrary
	// bit patterns (NaN payloads included) survive bit-for-bit.
	switch b.bg {
	case 4:
		l0, l1 := payload[:elems], payload[elems:2*elems]
		l2, l3 := payload[2*elems:3*elems], payload[3*elems:4*elems]
		for i := range data {
			bits := uint32(l0[i]) | uint32(l1[i])<<8 | uint32(l2[i])<<16 | uint32(l3[i])<<24
			data[i] = math.Float32frombits(bits)
		}
	case 2:
		l0, l1 := payload[:2*elems], payload[2*elems:4*elems]
		for i := range data {
			bits := uint32(l0[2*i]) | uint32(l0[2*i+1])<<8 |
				uint32(l1[2*i])<<16 | uint32(l1[2*i+1])<<24
			data[i] = math.Float32frombits(bits)
		}
	default: // bg=1
		for i := range data {
			data[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
		}
	}
	return out, nil
}
