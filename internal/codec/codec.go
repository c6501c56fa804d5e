// Package codec unifies the repository's four codec families — the
// paper's DCT+Chop compressor (core), the fixed-rate ZFP-style baseline
// (zfp), the error-bounded SZ-style baseline (sz), and the JPEG-style
// quantization pipeline (jpegq) — behind one interface, one spec-string
// registry, and one self-describing container format.
//
// A codec is named by a spec string, "family:key=val,key=val,flag":
//
//	dctc:cf=4,s=2,sg          DCT+Chop, chop factor 4, serialization 2,
//	                          scatter/gather triangle retention
//	dctc:cf=3,transform=zfp4  DCT+Chop over the ZFP 4×4 block transform
//	zfp:rate=8                fixed-rate ZFP-style at 8 bits/value
//	sz:eb=1e-3                error-bounded SZ-style, |err| ≤ 1e-3
//	jpegq:q=50                JPEG-style pipeline at quality factor 50
//
// Compress output is a framed container (see container.go) carrying the
// spec and the tensor shape, so Decode reconstructs the tensor from the
// bytes alone — no out-of-band configuration. Multi-tensor streams use
// the ACCF v2 record format (see stream.go).
package codec

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Codec is one configured compressor. Implementations are safe for
// concurrent use.
type Codec interface {
	// Name is the codec family ("dctc", "zfp", "sz", "jpegq").
	Name() string
	// Spec is the canonical spec string that rebuilds this codec.
	Spec() string
	// Ratio is the nominal compression ratio; 0 means data-dependent
	// (unknown until measured).
	Ratio() float64
	// Compress encodes x into a self-describing container.
	Compress(x *tensor.Tensor) ([]byte, error)
	// CompressCtx is Compress under a context: cancelling ctx aborts the
	// plane pipeline between planes, returning an error that wraps
	// ctx.Err().
	CompressCtx(ctx context.Context, x *tensor.Tensor) ([]byte, error)
	// Decompress reconstructs a tensor from a container produced by any
	// codec of the same family; shape and options come from the header.
	Decompress(data []byte) (*tensor.Tensor, error)
	// DecompressCtx is Decompress under a context (see CompressCtx).
	DecompressCtx(ctx context.Context, data []byte) (*tensor.Tensor, error)
	// RoundTrip compresses then decompresses x, returning the
	// reconstruction and the compressed payload size in bytes.
	RoundTrip(x *tensor.Tensor) (*tensor.Tensor, int, error)
}

// backend is the family-specific half of a codec: raw payload encode /
// decode, with framing handled by the shared wrapper. Both halves honor
// the context for mid-batch cancellation.
type backend interface {
	name() string
	ratio() float64
	encode(ctx context.Context, x *tensor.Tensor) ([]byte, error)
	decode(ctx context.Context, payload []byte, shape []int) (*tensor.Tensor, error)
}

// streamDecoder is implemented by backends that can decode their
// payload incrementally from a v2 record's chunked payload reader,
// materializing at most one plane-group of compressed bytes at a time.
// Backends without it fall back to buffering the record payload.
type streamDecoder interface {
	decodeStream(ctx context.Context, r *payloadReader, shape []int) (*tensor.Tensor, error)
}

// fastRoundTripper is implemented by backends whose round trip skips
// payload serialization and allocates its own output (dctc: the
// training experiments round-trip every batch through the paper's
// batched two-matmul path).
type fastRoundTripper interface {
	fastRoundTrip(x *tensor.Tensor) (*tensor.Tensor, int, error)
}

// fastRoundTripperInto is implemented by backends that can round-trip
// into a caller-provided tensor with pooled scratch only (zero
// allocations per call on a single-worker pipeline).
type fastRoundTripperInto interface {
	fastRoundTripInto(dst, x *tensor.Tensor) (int, error)
}

// slowRoundTripInto is the fallback for shapes a fused path does not
// cover: serialize, decode, copy. Backends call it from their fused
// paths, which only run on an empty stage chain.
func slowRoundTripInto(b backend, dst, x *tensor.Tensor) (int, error) {
	ctx := context.Background()
	payload, err := b.encode(ctx, x)
	if err != nil {
		return 0, err
	}
	out, err := b.decode(ctx, payload, x.Shape())
	if err != nil {
		return 0, err
	}
	copy(dst.Data(), out.Data())
	return len(payload), nil
}

// RoundTripInto compresses and decompresses x into dst, which must
// have x's element count, returning the compressed payload size. For
// codecs with a pooled in-place path (zfp, jpegq) the steady state
// allocates nothing; others fall back to serialize-decode-copy.
func RoundTripInto(c Codec, dst, x *tensor.Tensor) (int, error) {
	if dst.Len() != x.Len() {
		return 0, fmt.Errorf("codec: RoundTripInto dst holds %d values, x holds %d", dst.Len(), x.Len())
	}
	impl, ok := c.(*codecImpl)
	if !ok {
		return 0, fmt.Errorf("codec: %T is not a registry codec", c)
	}
	_, n, err := impl.roundTrip(dst, x)
	return n, err
}

// roundTrip is the one round-trip path behind RoundTrip and
// RoundTripInto; a nil dst allocates the reconstruction. An unstaged
// backend with a fused path skips payload serialization, which a stage
// chain requires; everything else goes through encodePayload and
// decodePayload, and the reported size is the staged (post-chain)
// payload size.
func (c *codecImpl) roundTrip(dst, x *tensor.Tensor) (*tensor.Tensor, int, error) {
	start := telemetry.NowNanos()
	into, hasInto := c.b.(fastRoundTripperInto)
	fast, hasFast := c.b.(fastRoundTripper)
	unstaged := len(c.chain) == 0
	var (
		n   int
		err error
	)
	switch {
	case unstaged && hasInto:
		if dst == nil {
			dst = tensor.New(x.Shape()...)
		}
		n, err = into.fastRoundTripInto(dst, x)
	case unstaged && hasFast && dst == nil:
		dst, n, err = fast.fastRoundTrip(x)
	default:
		// encodePayload and decodePayload count their own metrics.
		ctx := context.Background()
		payload, err := c.encodePayload(ctx, x)
		if err != nil {
			return nil, 0, err
		}
		out, err := c.decodePayload(ctx, payload, x.Shape())
		if err != nil {
			return nil, 0, err
		}
		if dst == nil {
			dst = out
		} else {
			copy(dst.Data(), out.Data())
		}
		c.m.roundTripCalls.Inc()
		c.m.roundTripNs.ObserveSince(start)
		return dst, len(payload), nil
	}
	// The fused paths bypass encodePayload/decodePayload, so they are
	// counted here.
	if err != nil {
		c.m.countErr(err)
		return nil, n, err
	}
	c.m.inputBytes.Add(uint64(x.SizeBytes()))
	c.m.payloadBytes.Add(uint64(n))
	c.m.roundTripCalls.Inc()
	c.m.roundTripNs.ObserveSince(start)
	return dst, n, nil
}

// codecImpl frames a backend plus its stage chain behind the Codec
// interface. The chain is applied to the backend's payload in order on
// encode and in reverse on decode (see stage.go); an empty chain keeps
// every path — and every wire byte — identical to the pre-stage codec.
type codecImpl struct {
	spec  string
	b     backend
	chain []*entropyStage

	// Metric handles, resolved once at construction (see metrics.go).
	// Nil on hand-constructed impls in tests: every recording call is
	// nil-safe, so unwired codecs simply record nothing.
	m *codecMetrics
}

func (c *codecImpl) Name() string   { return c.b.name() }
func (c *codecImpl) Spec() string   { return c.spec }
func (c *codecImpl) Ratio() float64 { return c.b.ratio() }

func (c *codecImpl) Compress(x *tensor.Tensor) ([]byte, error) {
	return c.CompressCtx(context.Background(), x)
}

func (c *codecImpl) CompressCtx(ctx context.Context, x *tensor.Tensor) ([]byte, error) {
	payload, err := c.encodePayload(ctx, x)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := WriteContainer(&buf, c.spec, x.Shape(), payload); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (c *codecImpl) Decompress(data []byte) (*tensor.Tensor, error) {
	return c.DecompressCtx(context.Background(), data)
}

func (c *codecImpl) DecompressCtx(ctx context.Context, data []byte) (*tensor.Tensor, error) {
	out, _, err := decodeContainer(ctx, bytes.NewReader(data), len(data), c)
	return out, err
}

func (c *codecImpl) RoundTrip(x *tensor.Tensor) (*tensor.Tensor, int, error) {
	return c.roundTrip(nil, x)
}

// builder constructs a family's backend from parsed options.
type builder func(o *Options) (backend, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]builder{}
)

// register installs a family builder; families self-register in init.
func register(family string, build builder) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[family]; dup {
		panic(fmt.Sprintf("codec: duplicate family %q", family))
	}
	registry[family] = build
}

// Families lists the registered codec families, sorted.
func Families() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for f := range registry {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// New builds a codec from a spec string via the registry. Option errors
// name the offending key; every failure carries the ErrBadSpec kind.
func New(spec string) (Codec, error) {
	c, err := newCodec(spec)
	if err != nil {
		return nil, markErr(ErrBadSpec, err)
	}
	return c, nil
}

func newCodec(spec string) (Codec, error) {
	parsed, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	registryMu.RLock()
	build, ok := registry[parsed.Family]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("codec: unknown family %q (registered: %v)", parsed.Family, Families())
	}
	opts := parsed.options()
	b, err := build(opts)
	if err != nil {
		return nil, err
	}
	if err := opts.finish(); err != nil {
		return nil, err
	}
	chain := make([]*entropyStage, 0, len(parsed.Stages))
	for _, name := range parsed.Stages {
		st, err := lookupStage(name)
		if err != nil {
			return nil, err
		}
		chain = append(chain, st)
	}
	impl := &codecImpl{spec: canonicalSpec(parsed.Family, b, chain), b: b, chain: chain}
	impl.m = metricsFor(impl.spec)
	return impl, nil
}

// ValidKeys reports the option keys a family's builder consults — the
// key list CLI error messages print next to a rejected spec. It runs
// the builder over an empty option set and collects what it read.
func ValidKeys(family string) ([]string, error) {
	registryMu.RLock()
	build, ok := registry[family]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("codec: unknown family %q (registered: %v)", family, Families())
	}
	opts := Spec{Family: family, kv: map[string]string{}}.options()
	if _, err := build(opts); err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(opts.used))
	for k := range opts.used {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, nil
}

// canonicalizer lets a backend print its canonical option string.
type canonicalizer interface{ canonical() string }

// canonicalSpec renders the spec that exactly rebuilds b and its stage
// chain.
func canonicalSpec(family string, b backend, chain []*entropyStage) string {
	s := family
	if c, ok := b.(canonicalizer); ok {
		if opts := c.canonical(); opts != "" {
			s = family + ":" + opts
		}
	}
	for _, st := range chain {
		s += "+" + st.name
	}
	return s
}

// Decode reads one container from r and reconstructs its tensor, with
// the codec resolved entirely from the header — the fully
// self-describing path the CLI decompress mode uses. It returns the
// tensor and the codec that decoded it.
func Decode(r io.Reader) (*tensor.Tensor, Codec, error) {
	return DecodeCtx(context.Background(), r)
}

// DecodeCtx is Decode under a context: cancelling ctx aborts the plane
// pipeline between planes.
func DecodeCtx(ctx context.Context, r io.Reader) (*tensor.Tensor, Codec, error) {
	return decodeContainer(ctx, r, -1, nil)
}

// DecodeBytes is Decode over an in-memory container. Unlike Decode on a
// stream, it requires the container to span data exactly — trailing
// bytes after a single container are rejected.
func DecodeBytes(data []byte) (*tensor.Tensor, Codec, error) {
	return DecodeBytesCtx(context.Background(), data)
}

// DecodeBytesCtx is DecodeBytes under a context.
func DecodeBytesCtx(ctx context.Context, data []byte) (*tensor.Tensor, Codec, error) {
	return decodeContainer(ctx, bytes.NewReader(data), len(data), nil)
}

// decodeContainer is the one container-decode path: header, then
// codec, then decodePayload. A non-negative size is the byte length the
// container must span exactly. With self nil the codec comes from the
// header alone; otherwise the container must hold self's family, and
// its own spec wins over self's options (self-describing wins over the
// instance).
func decodeContainer(ctx context.Context, r io.Reader, size int, self *codecImpl) (*tensor.Tensor, Codec, error) {
	hdr, payload, err := ReadContainer(r)
	if err != nil {
		return nil, nil, err
	}
	if size >= 0 && hdr.wireSize != size {
		return nil, nil, fmt.Errorf("codec: %d trailing bytes after container", size-hdr.wireSize)
	}
	c := self
	if self == nil {
		built, err := New(hdr.Spec)
		if err != nil {
			return nil, nil, fmt.Errorf("codec: container spec %q: %w", hdr.Spec, err)
		}
		c = built.(*codecImpl)
	} else {
		spec, err := ParseSpec(hdr.Spec)
		if err != nil {
			return nil, nil, fmt.Errorf("codec: container spec: %w", err)
		}
		if spec.Family != self.Name() {
			return nil, nil, fmt.Errorf("codec: container holds %q data, this codec is %q (use Decode for spec-directed decoding)", spec.Family, self.Name())
		}
		if hdr.Spec != self.spec {
			other, err := New(hdr.Spec)
			if err != nil {
				return nil, nil, fmt.Errorf("codec: rebuilding from container spec %q: %w", hdr.Spec, err)
			}
			c = other.(*codecImpl)
		}
	}
	out, err := c.decodePayload(ctx, payload, hdr.Shape)
	if err != nil {
		return nil, nil, err
	}
	return out, c, nil
}

// DecodeFile is Decode over a container file on disk. The file must
// hold exactly one container: trailing bytes are rejected (multi-tensor
// files are ACCF v2 streams — use NewStreamReader). A v1 container's
// payload is fully resident during decode anyway, so reading the file
// whole costs no extra peak memory.
func DecodeFile(path string) (*tensor.Tensor, Codec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return DecodeBytes(data)
}
