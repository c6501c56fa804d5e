package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/entropy"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Layer attribution by replay. The benchmark cannot time inside the
// program, so after each traced operation it feeds that operation's
// inputs through each layer's public entry point, outside the
// operation's span, and times those calls instead:
//
//	core     core.Compressor CompressInto / DecompressInto on the tensor
//	backend  the stage-less codec's Compress / Decompress
//	entropy  entropy.CompressHuf over the lanes of the backend payload,
//	         entropy.DecompressCap over the staged payload
//	framing  codec.WriteContainer / ReadContainer on the staged payload
//
// The backend replay frames its own stage-less payload, so that framing
// is timed too (lBackendFraming) and subtracted from the backend's self
// time. Every replay is checked against the operation's own bytes or
// tensors; a replay that does different work is a failed operation.

// Replayed layers, in report order.
const (
	lCore = iota
	lBackend
	lBackendFraming
	lEntropy
	lFraming
	nLayers
)

var layerNames = [nLayers]string{"core", "backend", "backend.framing", "entropy", "framing"}

// dirAcc accumulates one direction's (compress or decompress) replays:
// per layer the time and the bytes in and out, plus the time of the
// operations replayed and the uncompressed bytes they carried. An
// allocOnly accumulator instead records each layer's heap allocation
// and no time: runtime.ReadMemStats stops the world, which would
// distort the timings it brackets.
type dirAcc struct {
	allocOnly bool
	ns        [nLayers]int64
	in        [nLayers]int64
	out       [nLayers]int64
	alloc     [nLayers]uint64
	opNs      int64
	raw       int64
}

// selfNs is the time the replayed layers account for: core and the
// backend's serialization are inside the backend replay, the backend's
// own framing is not part of the operation, and entropy and framing
// add to it.
func (d *dirAcc) selfNs() int64 {
	return d.ns[lBackend] - d.ns[lBackendFraming] + d.ns[lEntropy] + d.ns[lFraming]
}

// selfShare returns layer l's self time as a share of the replayed
// operations' time; the backend's excludes core and its own framing.
func (d *dirAcc) selfShare(l int) float64 {
	self := d.ns[l]
	if l == lBackend {
		self -= d.ns[lCore] + d.ns[lBackendFraming]
	}
	return ratio(float64(self), float64(d.opNs))
}

// layerAcc is a traced run's attribution state.
type layerAcc struct {
	enc, dec           dirAcc
	allocEnc, allocDec dirAcc // allocOnly; see measureAllocs
	// Inclusive allocations of the stream and index operations, and the
	// uncompressed bytes they moved.
	streamAlloc, streamRaw uint64
	indexAlloc, indexRaw   uint64
}

// layerKit replays tensors of one workload spec through the layers.
type layerKit struct {
	staged codec.Codec
	bare   codec.Codec
	stages bool
	lanes  int              // entropy lanes of the backend payload
	comp   *core.Compressor // nil for families without the DCT core
}

// bareSpec strips the stage chain from spec.
func bareSpec(spec string) string {
	if i := strings.IndexByte(spec, '+'); i >= 0 {
		return spec[:i]
	}
	return spec
}

// newLayerKit builds the replay codecs for spec; n > 0 compiles the DCT
// core at resolution n.
func newLayerKit(spec string, lanes, n int) (*layerKit, error) {
	staged, err := codec.New(spec)
	if err != nil {
		return nil, err
	}
	bare, err := codec.New(bareSpec(spec))
	if err != nil {
		return nil, err
	}
	k := &layerKit{staged: staged, bare: bare, stages: bareSpec(spec) != spec, lanes: lanes}
	if n > 0 {
		if k.comp, err = codec.Compiler(bare, n); err != nil {
			return nil, err
		}
	}
	return k, nil
}

// replayInput is the untimed preparation of one tensor's replays.
type replayInput struct {
	x       *tensor.Tensor
	bareC   []byte // stage-less container and its payload
	bareP   []byte
	stagedC []byte // the workload spec's container and its payload
	stagedP []byte
	y       *core.Compressed // core replay buffers (nil without core)
	dst     *tensor.Tensor
}

func (k *layerKit) prepare(x *tensor.Tensor) (*replayInput, error) {
	ri := &replayInput{x: x}
	var err error
	if ri.bareC, ri.bareP, err = containerOf(k.bare, x); err != nil {
		return nil, err
	}
	ri.stagedC, ri.stagedP = ri.bareC, ri.bareP
	if k.stages {
		if ri.stagedC, ri.stagedP, err = containerOf(k.staged, x); err != nil {
			return nil, err
		}
	}
	if k.comp != nil {
		// Filled here so a decode replay needs no encode replay first.
		ri.y = k.comp.NewCompressed(x.Dim(0), x.Dim(1))
		if err := k.comp.CompressInto(ri.y, x); err != nil {
			return nil, err
		}
		ri.dst = tensor.New(x.Shape()...)
	}
	return ri, nil
}

// containerOf compresses x and splits out the container's payload.
func containerOf(c codec.Codec, x *tensor.Tensor) ([]byte, []byte, error) {
	data, err := c.Compress(x)
	if err != nil {
		return nil, nil, err
	}
	_, payload, err := codec.ReadContainer(bytes.NewReader(data))
	return data, payload, err
}

// timed runs one replay call as a span under parent and charges its
// time and bytes to layer l of acc, or only its heap allocation when
// acc is allocOnly.
func timed(tr *tracer, acc *dirAcc, l int, name string, parent, op, in, out int64, fn func() error) error {
	if acc.allocOnly {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := fn()
		runtime.ReadMemStats(&m1)
		acc.alloc[l] += m1.TotalAlloc - m0.TotalAlloc
		return err
	}
	start := time.Now()
	err := fn()
	end := time.Now()
	tr.record(name, parent, op, start, end)
	acc.ns[l] += int64(end.Sub(start))
	acc.in[l] += in
	acc.out[l] += out
	return err
}

// measureAllocs replays each input once more in both directions into
// the allocation-only accumulators.
func (k *layerKit) measureAllocs(acc *layerAcc, inputs []*replayInput) error {
	acc.allocEnc.allocOnly, acc.allocDec.allocOnly = true, true
	for _, ri := range inputs {
		want, err := k.bare.Decompress(ri.bareC)
		if err != nil {
			return err
		}
		if err := k.replayEncode(nil, &acc.allocEnc, 0, 0, ri); err != nil {
			return err
		}
		if err := k.replayDecode(nil, &acc.allocDec, 0, 0, ri, want); err != nil {
			return err
		}
	}
	return nil
}

// replayEncode replays the compress side of one operation on ri.
func (k *layerKit) replayEncode(tr *tracer, acc *dirAcc, parent, op int64, ri *replayInput) error {
	x := ri.x
	raw := int64(x.SizeBytes())
	if k.comp != nil {
		err := timed(tr, acc, lCore, "core.compress", parent, op, raw, int64(ri.y.CompressedBytes()), func() error {
			return k.comp.CompressInto(ri.y, x)
		})
		if err != nil {
			return fmt.Errorf("core replay: %w", err)
		}
	}
	var got []byte
	err := timed(tr, acc, lBackend, "backend.compress", parent, op, raw, int64(len(ri.bareC)), func() error {
		var err error
		got, err = k.bare.Compress(x)
		return err
	})
	if err != nil {
		return fmt.Errorf("backend replay: %w", err)
	}
	if !bytes.Equal(got, ri.bareC) {
		return fmt.Errorf("backend replay: container differs from the prepared one")
	}
	err = timed(tr, acc, lBackendFraming, "backend.framing.write", parent, op, int64(len(ri.bareP)), int64(len(ri.bareC)), func() error {
		_, err := codec.WriteContainer(io.Discard, k.bare.Spec(), x.Shape(), ri.bareP)
		return err
	})
	if err != nil {
		return fmt.Errorf("backend framing replay: %w", err)
	}
	if k.stages {
		var enc []byte
		timed(tr, acc, lEntropy, "entropy.encode", parent, op, int64(len(ri.bareP)), int64(len(ri.stagedP)), func() error {
			enc = make([]byte, 0, len(ri.bareP)+4*(len(ri.bareP)>>16)+16+4*k.lanes)
			for _, lane := range splitLanes(ri.bareP, k.lanes) {
				enc = entropy.CompressHuf(enc, lane)
			}
			return nil
		})
		if !bytes.Equal(enc, ri.stagedP) {
			return fmt.Errorf("entropy replay: CompressHuf over %d lanes gave %d bytes, the staged payload is %d bytes", k.lanes, len(enc), len(ri.stagedP))
		}
	}
	err = timed(tr, acc, lFraming, "framing.write", parent, op, int64(len(ri.stagedP)), int64(len(ri.stagedC)), func() error {
		_, err := codec.WriteContainer(io.Discard, k.staged.Spec(), x.Shape(), ri.stagedP)
		return err
	})
	if err != nil {
		return fmt.Errorf("framing replay: %w", err)
	}
	acc.raw += raw
	return nil
}

// replayDecode replays the decompress side of one operation on ri;
// want is the operation's decoded tensor, which every decoding replay
// must reproduce bit for bit.
func (k *layerKit) replayDecode(tr *tracer, acc *dirAcc, parent, op int64, ri *replayInput, want *tensor.Tensor) error {
	raw := int64(ri.x.SizeBytes())
	if k.comp != nil {
		err := timed(tr, acc, lCore, "core.decompress", parent, op, int64(ri.y.CompressedBytes()), raw, func() error {
			return k.comp.DecompressInto(ri.dst, ri.y)
		})
		if err != nil {
			return fmt.Errorf("core replay: %w", err)
		}
		if !sameBits(ri.dst, want) {
			return fmt.Errorf("core replay: reconstruction differs from the operation's")
		}
	}
	var got *tensor.Tensor
	err := timed(tr, acc, lBackend, "backend.decompress", parent, op, int64(len(ri.bareC)), raw, func() error {
		var err error
		got, err = k.bare.Decompress(ri.bareC)
		return err
	})
	if err != nil {
		return fmt.Errorf("backend replay: %w", err)
	}
	if !sameBits(got, want) {
		return fmt.Errorf("backend replay: tensor differs from the operation's")
	}
	err = timed(tr, acc, lBackendFraming, "backend.framing.read", parent, op, int64(len(ri.bareC)), int64(len(ri.bareP)), func() error {
		_, _, err := codec.ReadContainer(bytes.NewReader(ri.bareC))
		return err
	})
	if err != nil {
		return fmt.Errorf("backend framing replay: %w", err)
	}
	if k.stages {
		var dec []byte
		err := timed(tr, acc, lEntropy, "entropy.decode", parent, op, int64(len(ri.stagedP)), int64(len(ri.bareP)), func() error {
			var err error
			dec, err = entropy.DecompressCap(nil, ri.stagedP, len(ri.bareP))
			return err
		})
		if err != nil {
			return fmt.Errorf("entropy replay: %w", err)
		}
		if !bytes.Equal(dec, ri.bareP) {
			return fmt.Errorf("entropy replay: decoded lanes differ from the backend payload")
		}
	}
	err = timed(tr, acc, lFraming, "framing.read", parent, op, int64(len(ri.stagedC)), int64(len(ri.stagedP)), func() error {
		_, _, err := codec.ReadContainer(bytes.NewReader(ri.stagedC))
		return err
	})
	if err != nil {
		return fmt.Errorf("framing replay: %w", err)
	}
	acc.raw += raw
	return nil
}

// splitLanes cuts a backend payload into its entropy lanes the way the
// lossless family does: lane i ends at (i+1)·len/n.
func splitLanes(p []byte, n int) [][]byte {
	out := make([][]byte, n)
	prev := 0
	for i := range out {
		end := (i + 1) * len(p) / n
		out[i] = p[prev:end]
		prev = end
	}
	return out
}

// pipelineSpeedup times the stage-less backend's Compress+Decompress of
// ts with the plane executor capped at one worker and at nproc workers,
// alternating reps times, and returns the ratio of the median times.
func (k *layerKit) pipelineSpeedup(ts []*tensor.Tensor, nproc, reps int) (float64, error) {
	defer codec.SetMaxWorkers(nproc)
	samples := map[int][]float64{}
	for r := 0; r < reps; r++ {
		for _, w := range []int{1, nproc} {
			codec.SetMaxWorkers(w)
			start := time.Now()
			for _, x := range ts {
				data, err := k.bare.Compress(x)
				if err != nil {
					return 0, err
				}
				if _, err := k.bare.Decompress(data); err != nil {
					return 0, err
				}
			}
			samples[w] = append(samples[w], float64(time.Since(start)))
		}
	}
	return ratio(Summarize(samples[1]).P50, Summarize(samples[nproc]).P50), nil
}

// blockCounts reads the entropy block-selection counters from a
// telemetry snapshot (all zero when telemetry is switched off).
func blockCounts() [4]uint64 {
	snap := telemetry.Default().Snapshot()
	var out [4]uint64
	for i, mode := range blockModes {
		out[i] = snap.Counters["entropy.backend."+mode]
	}
	return out
}

var blockModes = [4]string{"raw", "rle", "fse", "huf"}

// addBlockDelta reports entropy.blocks.<mode> as after − before.
func addBlockDelta(r *Report, before, after [4]uint64, scope string) {
	for i, mode := range blockModes {
		r.Add("entropy.blocks."+mode, "count", float64(after[i]-before[i]), 1, scope)
	}
}

// addLayerMetrics reports the per-layer metrics derived from acc.
// passes is how many corpus passes were replayed, for per-pass counts.
func addLayerMetrics(r *Report, acc *layerAcc, coreBytesPerPass int64) {
	e, d := &acc.enc, &acc.dec
	r.Add("core.compress_mbps", "MB/s", mbps(e.in[lCore], e.ns[lCore]), 0, "core.Compressor.CompressInto")
	r.Add("core.decompress_mbps", "MB/s", mbps(d.out[lCore], d.ns[lCore]), 0, "core.Compressor.DecompressInto")
	coreNs := float64(e.ns[lCore] + d.ns[lCore])
	backendNs := float64(e.ns[lBackend] + d.ns[lBackend])
	r.Add("core.share", "fraction", ratio(coreNs, backendNs), 0, "core time / backend time")
	r.Add("core.bytes_moved", "B", float64(coreBytesPerPass), 0, "computed: plane bytes + coefficient bytes, both directions, per pass")
	r.Add("backend.compress_mbps", "MB/s", mbps(e.in[lBackend], e.ns[lBackend]), 0, "stage-less codec Compress")
	r.Add("backend.decompress_mbps", "MB/s", mbps(d.out[lBackend], d.ns[lBackend]), 0, "stage-less codec Decompress")
	serialize := 0.0
	if backendNs > 0 {
		serialize = (backendNs - coreNs) / backendNs
	}
	r.Add("backend.serialize_share", "fraction", serialize, 0, "(backend - core) / backend")
	r.Add("entropy.encode_mbps", "MB/s", mbps(e.in[lEntropy], e.ns[lEntropy]), 0, "CompressHuf, MB of lane bytes")
	r.Add("entropy.decode_mbps", "MB/s", mbps(d.out[lEntropy], d.ns[lEntropy]), 0, "DecompressCap, MB of lane bytes")
	r.Add("entropy.ratio", "x", ratio(float64(e.in[lEntropy]), float64(e.out[lEntropy])), 0, "lane bytes / entropy-coded bytes")
	r.Add("entropy.encode_share", "fraction", ratio(float64(e.ns[lEntropy]), float64(e.opNs)), 0, "of the write operations")
	r.Add("entropy.decode_share", "fraction", ratio(float64(d.ns[lEntropy]), float64(d.opNs)), 0, "of the read operations")
	r.Add("framing.container_write_mbps", "MB/s", mbps(e.out[lFraming], e.ns[lFraming]), 0, "WriteContainer, MB of container")
	r.Add("framing.container_read_mbps", "MB/s", mbps(d.in[lFraming], d.ns[lFraming]), 0, "ReadContainer, MB of container")
	ae, ad := &acc.allocEnc, &acc.allocDec
	raw := float64(ae.raw + ad.raw)
	for _, l := range []int{lCore, lBackend, lEntropy, lFraming} {
		r.Add("runtime.alloc_bytes."+layerNames[l], "B/B", ratio(float64(ae.alloc[l]+ad.alloc[l]), raw), 0, "heap bytes per uncompressed byte replayed, both directions")
	}
	r.Add("runtime.alloc_bytes.stream", "B/B", ratio(float64(acc.streamAlloc), float64(acc.streamRaw)), 0, "inclusive, per uncompressed byte")
	r.Add("runtime.alloc_bytes.index", "B/B", ratio(float64(acc.indexAlloc), float64(acc.indexRaw)), 0, "inclusive, per uncompressed byte")
	opNs := float64(e.opNs + d.opNs)
	r.Add("unattributed_share", "fraction", 1-ratio(float64(e.selfNs()+d.selfNs()), opNs), 0, "1 - replayed layer self time / operation time")
}

// selfTable renders each replayed layer's self time as a share of the
// replayed operations' time, one line per direction.
func selfTable(acc *layerAcc) []string {
	var lines []string
	for _, dir := range []struct {
		name string
		d    *dirAcc
	}{{"write", &acc.enc}, {"read", &acc.dec}} {
		if dir.d.opNs == 0 {
			continue
		}
		line := fmt.Sprintf("self-time %-5s ops %.3f ms:", dir.name, float64(dir.d.opNs)/1e6)
		for _, l := range []int{lCore, lBackend, lEntropy, lFraming} {
			line += fmt.Sprintf(" %s %.3f", layerNames[l], dir.d.selfShare(l))
		}
		lines = append(lines, fmt.Sprintf("%s unattributed %.3f", line, 1-ratio(float64(dir.d.selfNs()), float64(dir.d.opNs))))
	}
	return lines
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mbps converts bytes over nanoseconds to MB/s (10⁶ bytes per second).
func mbps(bytes, ns int64) float64 {
	return ratio(float64(bytes)*1e3, float64(ns))
}

// sameBits reports whether a and b hold bit-identical values and shape.
func sameBits(a, b *tensor.Tensor) bool {
	if a == nil || b == nil || !a.SameShape(b) {
		return false
	}
	bd := b.Data()
	for i, v := range a.Data() {
		if math.Float32bits(v) != math.Float32bits(bd[i]) {
			return false
		}
	}
	return true
}
