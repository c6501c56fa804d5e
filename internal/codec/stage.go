package codec

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/entropy"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// This file is the stage layer of the codec pipeline: composable
// payload transforms that ride behind any codec family. A spec string
// names a family plus zero or more stage suffixes —
//
//	dctc:cf=4+fse      DCT+Chop, then the shared entropy backend
//	lossless:bg=4+fse  byte-group transpose, then entropy
//
// — and the framing layer applies the stages in order on encode
// (payload → stage 1 → … → stage N) and in reverse on decode. Stages
// see opaque byte payloads, plus the lossless family's lane cuts on the
// first stage: they compose with every family without knowing which
// family produced the bytes.
//
// On the wire, a staged spec rides in the same header field as before
// (the spec string IS the stage chain), and staged frames are marked so
// pre-stage readers fail cleanly instead of feeding an entropy-coded
// payload to a family decoder: v1 containers become version 3, and v2
// stream records use the 'S' marker in place of 'T'. Unstaged output is
// byte-identical to pre-stage writers.

// entropyStage is one "+name" stage suffix: the shared entropy coder
// behind a fixed encoder. The stages are stateless (all scratch is
// pooled inside the entropy package), so one value serves every codec,
// and they carry their own timing histograms.
type entropyStage struct {
	name string
	// compress appends src's entropy-coded blocks to dst.
	compress func(dst, src []byte) []byte
	// perLane restarts block statistics at each lane boundary the
	// backend reports. It is a format constant: "lossless:bg=4+huf" is
	// one block sequence per byte-group lane, "lossless:bg=4+fse" one
	// sequence over the whole payload.
	perLane bool

	forwardNs, inverseNs *telemetry.Histogram
}

// entropyStages is the fixed stage table. Both encoders emit the same
// self-delimiting block format, so entropy.DecompressCap inverts either
// stage: "+fse" codes every block with the cheapest of raw/rle/fse,
// "+huf" adds the multi-symbol huf mode to that choice.
var entropyStages = [...]*entropyStage{
	newEntropyStage("fse", entropy.Compress, false),
	newEntropyStage("huf", entropy.CompressHuf, true),
}

func newEntropyStage(name string, compress func(dst, src []byte) []byte, perLane bool) *entropyStage {
	return &entropyStage{
		name:      name,
		compress:  compress,
		perLane:   perLane,
		forwardNs: telemetry.NewHistogram("stage." + name + ".forward_ns"),
		inverseNs: telemetry.NewHistogram("stage." + name + ".inverse_ns"),
	}
}

// forward appends src's entropy coding to dst. lanes, when non-nil, are
// the cumulative lane end offsets of src (the last equal to len(src));
// a perLane stage codes each lane as its own block sequence. The
// concatenation needs no extra framing: blocks are self-delimiting, so
// the decoder never sees the cuts.
func (s *entropyStage) forward(dst, src []byte, lanes []int) []byte {
	if !s.perLane || lanes == nil {
		return s.compress(dst, src)
	}
	prev := 0
	for _, end := range lanes {
		dst = s.compress(dst, src[prev:end])
		prev = end
	}
	return dst
}

// StageNames lists the stage names, sorted (the table is in name
// order).
func StageNames() []string {
	out := make([]string, len(entropyStages))
	for i, st := range entropyStages {
		out[i] = st.name
	}
	return out
}

// lookupStage resolves one stage token from a spec's "+" chain.
func lookupStage(token string) (*entropyStage, error) {
	if strings.ContainsAny(token, ":=,") {
		return nil, fmt.Errorf("codec: stage %q: stages take no options", token)
	}
	for _, st := range entropyStages {
		if st.name == token {
			return st, nil
		}
	}
	return nil, fmt.Errorf("codec: unknown stage %q (registered: %v)", token, StageNames())
}

// isStageSep reports whether the '+' at s[i] separates a stage suffix.
// Only a '+' followed by a letter splits, so '+' inside numeric option
// values ("sz:eb=1e+3", "…=1e+06") stays part of the value.
func isStageSep(s string, i int) bool {
	if s[i] != '+' || i+1 >= len(s) {
		return false
	}
	c := s[i+1]
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// splitSpecStages splits a spec string into its family half and stage
// tokens: "dctc:cf=4+fse" → ("dctc:cf=4", ["fse"]).
func splitSpecStages(s string) (string, []string) {
	cut := -1
	for i := 0; i < len(s); i++ {
		if isStageSep(s, i) {
			cut = i
			break
		}
	}
	if cut < 0 {
		return s, nil
	}
	base, rest := s[:cut], s[cut+1:]
	var stages []string
	start := 0
	for i := 0; i < len(rest); i++ {
		if isStageSep(rest, i) {
			stages = append(stages, rest[start:i])
			start = i + 1
		}
	}
	return base, append(stages, rest[start:])
}

// specHasStages reports whether a spec string carries a stage chain —
// the predicate that picks the staged container version and record
// marker. It must agree with ParseSpec's grammar, so it shares
// splitSpecStages rather than searching for '+' directly.
func specHasStages(spec string) bool {
	_, stages := splitSpecStages(spec)
	return len(stages) > 0
}

// stagedSizeHint bounds the plausible pre-stage payload size for a
// tensor shape: no family's serialized payload comes near 8 bytes per
// float32 element, and small tensors get a fixed floor for framing.
// Stage inverses use it to reject decompression bombs. The sum is taken
// in uint64: at maxElems it is 2 GiB, which wraps a 32-bit int.
func stagedSizeHint(shape []int) int {
	elems := uint64(1)
	for _, d := range shape {
		elems *= uint64(d)
	}
	if hint := 8*elems + 64<<10; hint < maxPayload {
		return int(hint)
	}
	return maxPayload
}

// encodePayload runs the family encoder, then each stage forward. It is
// the compress-side metric choke point: every Compress, stream record
// encode, and staged round trip passes through here.
func (c *codecImpl) encodePayload(ctx context.Context, x *tensor.Tensor) ([]byte, error) {
	start := telemetry.NowNanos()
	payload, err := c.b.encode(ctx, x)
	if err != nil {
		c.m.countErr(err)
		return nil, err
	}
	for i, st := range c.chain {
		if err := ctx.Err(); err != nil {
			c.m.countErr(err)
			return nil, fmt.Errorf("codec: stage %s forward: %w", st.name, err)
		}
		ts := telemetry.NowNanos()
		// Only the first stage sees the backend's lanes: later stages
		// see entropy-coded bytes whose lane structure is gone.
		var lanes []int
		if lb, ok := c.b.(*losslessBackend); ok && i == 0 {
			lanes = lb.payloadSegments(len(payload))
		}
		// The coder never expands a block by more than its framing
		// overhead (≤ 4 bytes per 64 KiB block or lane, plus slack for
		// the last short block), so one allocation covers the output.
		dst := make([]byte, 0, len(payload)+4*(len(payload)>>16)+4*len(lanes)+16)
		payload = st.forward(dst, payload, lanes)
		st.forwardNs.ObserveSince(ts)
	}
	c.m.compressCalls.Inc()
	c.m.compressNs.ObserveSince(start)
	c.m.inputBytes.Add(uint64(x.SizeBytes()))
	c.m.payloadBytes.Add(uint64(len(payload)))
	return payload, nil
}

// decodePayload runs the stages inverse in reverse order, then the
// family decoder — the decompress-side metric choke point. Each inverse
// appends into a byteScratchPool buffer, which goes back to the pool
// once the next step has read it: no family decode keeps a view into
// its payload, so nothing returned aliases a pooled buffer. The
// inverse output is capped at stagedSizeHint, so corrupted frames die
// before the allocation, not after.
func (c *codecImpl) decodePayload(ctx context.Context, payload []byte, shape []int) (*tensor.Tensor, error) {
	start := telemetry.NowNanos()
	inBytes := len(payload)
	var pooled []byte // the pool buffer payload points into, if any
	if len(c.chain) > 0 {
		hint := stagedSizeHint(shape)
		for i := len(c.chain) - 1; i >= 0; i-- {
			st := c.chain[i]
			if err := ctx.Err(); err != nil {
				c.m.countErr(err)
				return nil, fmt.Errorf("codec: stage %s inverse: %w", st.name, err)
			}
			ts := telemetry.NowNanos()
			out, err := entropy.DecompressCap(getByteScratch(0), payload, hint)
			if pooled != nil {
				putByteScratch(pooled)
			}
			if err != nil {
				c.m.countErr(err)
				return nil, fmt.Errorf("codec: stage %s inverse: %w", st.name, err)
			}
			pooled, payload = out, out
			st.inverseNs.ObserveSince(ts)
		}
	}
	out, err := c.b.decode(ctx, payload, shape)
	if pooled != nil {
		putByteScratch(pooled)
	}
	if err != nil {
		c.m.countErr(err)
		return nil, err
	}
	c.m.decompressCalls.Inc()
	c.m.decompressNs.ObserveSince(start)
	c.m.decodeBytes.Add(uint64(inBytes))
	c.m.outputBytes.Add(uint64(out.SizeBytes()))
	return out, nil
}
