package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/codec"
	"repro/internal/tensor"
)

const (
	// archiveSpec codes each small record with DCT+Chop and the huf
	// entropy stage.
	archiveSpec = "dctc:cf=4+huf"
	// archivePSNRFloor is the fidelity every record must reach.
	archivePSNRFloor = 20.0
	// Per round of the read mix: random single-record seeks, ranges of
	// rangeLen consecutive records, and one sharded sequential pass that
	// decodes every shardStride-th record and skips the rest.
	seeksPerRound  = 64
	rangesPerRound = 4
	rangeLen       = 16
	shardStride    = 8
	// roundsPerWrite sets the mix: one serial archive rewrite per 15
	// read rounds gives the two paths about equal time.
	roundsPerWrite = 16
)

// archiveBench is the archive-seek workload: a training-data archive of
// small records, written once while the inputs are generated, then read
// by a mix of random DecodeAt, DecodeRange and sharded sequential reads.
// Every decoded record must equal the sequential decode of the archive.
type archiveBench struct {
	images  []*tensor.Tensor
	raw     int64
	nproc   int
	archive []byte
	hashes  []uint64 // hash of each record's sequential decode
	psnr    float64  // minimum record PSNR of the sequential decode
	rng     *rand.Rand
	c       codec.Codec
	ix      *codec.IndexedStream
	buf     bytes.Buffer
}

func newArchiveBench(seed uint64, nproc int) (*archiveBench, error) {
	return buildArchiveBench(archiveCorpus(seed, archiveRecords), subSeed(seed, 30), nproc)
}

// buildArchiveBench writes images as the archive and indexes it; rngSeed
// drives the read mix's record choices.
func buildArchiveBench(images []*tensor.Tensor, rngSeed uint64, nproc int) (*archiveBench, error) {
	b := &archiveBench{
		images: images,
		raw:    totalBytes(images),
		nproc:  nproc,
		rng:    rand.New(rand.NewSource(int64(rngSeed))),
	}
	c, err := codec.New(archiveSpec)
	if err != nil {
		return nil, err
	}
	data, _, err := writeStream(&b.buf, c, b.images, nproc)
	if err != nil {
		return nil, err
	}
	b.archive = append([]byte(nil), data...)
	return b, b.index()
}

// index decodes the archive sequentially and records each record's
// hash, checking its fidelity against the source image.
func (b *archiveBench) index() error {
	out, _, err := readStream(b.archive, 0)
	if err != nil {
		return err
	}
	if len(out) != len(b.images) {
		return fmt.Errorf("archive holds %d records, wrote %d", len(out), len(b.images))
	}
	b.hashes = make([]uint64, len(out))
	b.psnr = math.Inf(1)
	for i, t := range out {
		p, err := checkPSNR(b.images[i], t, archivePSNRFloor)
		if err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
		b.psnr = math.Min(b.psnr, p)
		b.hashes[i] = hashTensor(t)
	}
	return nil
}

func (b *archiveBench) inputs() string {
	return fmt.Sprintf("%d records %v, archive %d bytes", len(b.images), b.images[0].Shape(), len(b.archive))
}

// setup builds the codec and the indexed reader and warms the seek and
// range paths once each.
func (b *archiveBench) setup() error {
	c, err := codec.New(archiveSpec)
	if err != nil {
		return err
	}
	if _, err := codec.Compiler(c, b.images[0].Dim(2)); err != nil {
		return err
	}
	ix, err := codec.OpenIndexedStream(bytes.NewReader(b.archive), int64(len(b.archive)))
	if err != nil {
		return err
	}
	if err := ix.SetConcurrency(b.nproc); err != nil {
		return err
	}
	b.c, b.ix = c, ix
	if _, err := b.seek(0); err != nil {
		return err
	}
	_, err = b.decodeRange(0)
	return err
}

// hashTensor is FNV-1a over the float32 bit patterns.
func hashTensor(t *tensor.Tensor) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range t.Data() {
		h ^= uint64(math.Float32bits(v))
		h *= 1099511628211
	}
	return h
}

// checkRecord requires t to equal the sequential decode of record i.
func (b *archiveBench) checkRecord(i int, t *tensor.Tensor) error {
	if t == nil || hashTensor(t) != b.hashes[i] {
		return fmt.Errorf("record %d differs from the sequential decode", i)
	}
	return nil
}

// seek decodes record i with DecodeAt and checks it.
func (b *archiveBench) seek(i int) (*tensor.Tensor, error) {
	t, err := b.ix.DecodeAt(context.Background(), i)
	if err != nil {
		return nil, err
	}
	return t, b.checkRecord(i, t)
}

// decodeRange decodes records [lo, lo+rangeLen) and checks them.
func (b *archiveBench) decodeRange(lo int) ([]*tensor.Tensor, error) {
	ts, err := b.ix.DecodeRange(context.Background(), lo, lo+rangeLen)
	if err != nil {
		return nil, err
	}
	for k, t := range ts {
		if err := b.checkRecord(lo+k, t); err != nil {
			return nil, err
		}
	}
	return ts, nil
}

// shardPass reads the archive sequentially from src, decoding records
// whose index is offset mod shardStride and skipping the others, the way
// one worker of a sharded data loader does. It returns the records it
// decoded, checked.
func (b *archiveBench) shardPass(src io.Reader, offset int) (int, codec.StreamReaderStats, error) {
	sr, err := codec.NewStreamReader(src)
	if err != nil {
		return 0, codec.StreamReaderStats{}, err
	}
	decoded := 0
	for i := 0; ; i++ {
		if _, err := sr.Next(); err == io.EOF {
			break
		} else if err != nil {
			return decoded, sr.Stats(), err
		}
		if i%shardStride != offset {
			if err := sr.Skip(); err != nil {
				return decoded, sr.Stats(), err
			}
			continue
		}
		t, err := sr.Decode(context.Background())
		if err != nil {
			return decoded, sr.Stats(), err
		}
		if err := b.checkRecord(i, t); err != nil {
			return decoded, sr.Stats(), err
		}
		decoded++
	}
	return decoded, sr.Stats(), nil
}

// archiveSamples are the per-operation samples of the read mix.
type archiveSamples struct {
	seekNs, rangeNs, shardNs []float64
	roundNs                  []float64 // rounds in which every operation passed
	shardBytes               int64     // decoded bytes per shard pass
	moved                    int64
}

// readRound runs one round of the read mix. Seek and range results are
// checked after their timed calls; a shard pass checks each record as
// it goes, as a loader consuming it would. hook, when set, is called
// after every successful seek with the record index, its span id,
// duration and tensor (the traced run replays layers there).
func (b *archiveBench) readRound(r *Report, tr *tracer, s *archiveSamples, hook func(i int, id int64, d time.Duration, t *tensor.Tensor)) {
	rec := int64(b.images[0].SizeBytes())
	var roundNs, roundBytes int64
	failed := r.Failed
	for k := 0; k < seeksPerRound; k++ {
		i := b.rng.Intn(len(b.images))
		var t *tensor.Tensor
		id, d, err := tr.timeOp("archive.seek", func() error {
			var err error
			t, err = b.ix.DecodeAt(context.Background(), i)
			return err
		})
		if err == nil {
			err = b.checkRecord(i, t)
		}
		if !r.Op("archive seek", err) {
			continue
		}
		s.seekNs = append(s.seekNs, float64(d))
		roundNs += int64(d)
		roundBytes += rec
		if hook != nil {
			hook(i, id, d, t)
		}
	}
	for k := 0; k < rangesPerRound; k++ {
		lo := b.rng.Intn(len(b.images) - rangeLen + 1)
		var ts []*tensor.Tensor
		_, d, err := tr.timeOp("archive.range", func() error {
			var err error
			ts, err = b.ix.DecodeRange(context.Background(), lo, lo+rangeLen)
			return err
		})
		for j := 0; err == nil && j < len(ts); j++ {
			err = b.checkRecord(lo+j, ts[j])
		}
		if !r.Op("archive range", err) {
			continue
		}
		s.rangeNs = append(s.rangeNs, float64(d))
		roundNs += int64(d)
		roundBytes += rangeLen * rec
	}
	offset := b.rng.Intn(shardStride)
	var n int
	_, d, err := tr.timeOp("archive.shard", func() error {
		var err error
		n, _, err = b.shardPass(bytes.NewReader(b.archive), offset)
		return err
	})
	if r.Op("archive shard pass", err) {
		s.shardNs = append(s.shardNs, float64(d))
		s.shardBytes = int64(n) * rec
		roundNs += int64(d)
		roundBytes += int64(n) * rec
	}
	s.moved += roundBytes
	if r.Failed == failed {
		s.roundNs = append(s.roundNs, float64(roundNs))
	}
}

// roundBytes is the decoded bytes of one read round.
func (b *archiveBench) roundBytes() int64 {
	records := seeksPerRound + rangesPerRound*rangeLen + len(b.images)/shardStride
	return int64(records * b.images[0].SizeBytes())
}

// writeArchive rewrites the archive at concurrency conc as one
// operation and checks it is byte-identical to the generated one. It
// returns the span id and the duration (0 on failure).
func (b *archiveBench) writeArchive(r *Report, tr *tracer, name string, conc int) (int64, time.Duration, codec.StreamWriterStats) {
	var data []byte
	var ws codec.StreamWriterStats
	id, d, err := tr.timeOp(name, func() error {
		var err error
		data, ws, err = writeStream(&b.buf, b.c, b.images, conc)
		return err
	})
	if err == nil && !bytes.Equal(data, b.archive) {
		err = fmt.Errorf("rewritten archive differs from the first write")
	}
	if !r.Op("archive write", err) {
		return id, 0, ws
	}
	return id, d, ws
}

// loop runs for d, rewriting the archive once per roundsPerWrite
// iterations and running a read round in the others. Interleaving
// spreads both paths' samples over the whole run, so a slow stretch of
// the machine does not land on one of them only. The rewrite is serial:
// on the 2-vCPU reference host the pipelined writer's speed-up swung
// between 1x and 2x from run to run with the host's load, which made the
// write rate bimodal; ckpt-lossless measures the pipelined writer, and
// the traced run reports stream.write_speedup here.
func (b *archiveBench) loop(r *Report, d time.Duration) (writes []float64, s archiveSamples) {
	deadline := time.Now().Add(d)
	for k := 0; len(writes) < minSamples || len(s.seekNs) < 1000 || time.Now().Before(deadline); k++ {
		if k%roundsPerWrite == 0 {
			if _, wd, _ := b.writeArchive(r, nil, "archive.write_serial", 1); wd > 0 {
				writes = append(writes, float64(wd))
				s.moved += b.raw
			}
		} else {
			b.readRound(r, nil, &s, nil)
		}
		if r.Failed > maxFailures {
			break
		}
	}
	return writes, s
}

func (b *archiveBench) measure(r *Report, d time.Duration) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	writes, s := b.loop(r, d)
	runtime.ReadMemStats(&m1)
	r.AddDist("compress_mbps", "MB/s", throughput(b.raw, writes))
	r.AddDist("decompress_mbps", "MB/s", throughput(b.roundBytes(), s.roundNs))
	r.Add("ratio", "x", ratio(float64(b.raw), float64(len(b.archive))), 1, "input bytes / archive bytes incl. records, chunks and index")
	r.Add("alloc_bytes_per_byte", "B/B", ratio(float64(m1.TotalAlloc-m0.TotalAlloc), float64(s.moved)), len(writes)+len(s.roundNs), "Go heap bytes per uncompressed byte written or decoded")
	r.Add("psnr_db", "dB", b.psnr, len(b.images), "minimum over records; every read is checked equal to this decode")
	seek := Summarize(scaled(s.seekNs, 1e-3))
	r.AddDist("seek_p50_us", "us", seek)
	p99, err := Percentile(scaled(s.seekNs, 1e-3), 99)
	if err != nil {
		r.Note("seek_p99_us not reported: " + err.Error())
	} else {
		r.Add("seek_p99_us", "us", p99, seek.N, "")
	}
	r.AddDist("range_mbps", "MB/s", throughput(rangeLen*int64(b.images[0].SizeBytes()), s.rangeNs))
	r.AddDist("shard_read_mbps", "MB/s", throughput(s.shardBytes, s.shardNs))
}

func (b *archiveBench) trace(r *Report, d time.Duration, tr *tracer) {
	_, untraced := b.loop(r, d*2/5)

	kit, err := newLayerKit(archiveSpec, 1, b.images[0].Dim(2))
	if !r.Op("layer kit", err) {
		return
	}
	var acc layerAcc

	// Write side: one traced archive write at each concurrency, then an
	// encode replay of every record against the serial write.
	before := blockCounts()
	_, conc, ws := b.writeArchive(r, tr, "archive.write", b.nproc)
	addBlockDelta(r, before, blockCounts(), "blocks per archive write (telemetry delta)")
	serialID, serial, _ := b.writeArchive(r, tr, "archive.write_serial", 1)
	if conc == 0 || serial == 0 {
		return
	}
	acc.enc.opNs += int64(serial)
	var coreMoved int64
	overhead := int64(len(b.archive))
	for _, x := range b.images {
		ri, err := kit.prepare(x)
		if !r.Op("replay prep", err) || !r.Op("replay encode", kit.replayEncode(tr, &acc.enc, serialID, serialID, ri)) {
			return
		}
		coreMoved += 2 * int64(x.SizeBytes()+ri.y.CompressedBytes())
		overhead -= int64(len(ri.stagedP))
	}
	r.Add("framing.overhead_bytes", "B", float64(overhead), 1, "archive bytes - staged payload bytes")
	r.Add("stream.write_speedup", "x", ratio(float64(serial), float64(conc)), 1, fmt.Sprintf("archive write at concurrency 1 / at %d", b.nproc))
	r.Add("stream.writer.max_inflight_bytes", "B", float64(ws.MaxInFlightBytes), 1, "")
	r.Add("stream.reader.readahead_hit_ratio", "fraction", 0, 0, "no read-ahead in this workload")

	// Read side: traced rounds; every seek is replayed through the
	// layers and through a cached-codec Decompress of the same record.
	var s archiveSamples
	var cached []float64
	hook := func(i int, id int64, d time.Duration, t *tensor.Tensor) {
		ri, err := kit.prepare(b.images[i])
		if !r.Op("replay prep", err) {
			return
		}
		acc.dec.opNs += int64(d)
		r.Op("replay decode", kit.replayDecode(tr, &acc.dec, id, id, ri, t))
		start := time.Now()
		_, err = b.c.Decompress(ri.stagedC)
		end := time.Now()
		if r.Op("cached decompress", err) {
			tr.record("index.cached_decompress", id, id, start, end)
			cached = append(cached, float64(end.Sub(start)))
		}
	}
	deadline := time.Now().Add(d * 3 / 5)
	for first := true; first || time.Now().Before(deadline); first = false {
		b.readRound(r, tr, &s, hook)
		if r.Failed > maxFailures {
			break
		}
	}
	b.indexAlloc(r, &acc)
	var sample []*replayInput
	for _, x := range b.images[:64] {
		ri, err := kit.prepare(x)
		if !r.Op("replay prep", err) {
			return
		}
		sample = append(sample, ri)
	}
	r.Op("replay allocations", kit.measureAllocs(&acc, sample))
	addLayerMetrics(r, &acc, coreMoved)

	seekNs := tr.spansOf("archive.seek")
	r.Add("index.decode_at_overhead_us", "us", (Summarize(seekNs).P50-Summarize(cached).P50)/1e3, len(cached), "DecodeAt p50 - cached-codec Decompress p50")
	b.indexMetrics(r, tr)
	sp, err := kit.pipelineSpeedup(b.images[:64], b.nproc, 5)
	if r.Op("pipeline speedup", err) {
		r.Add("pipeline.speedup", "x", sp, 5, fmt.Sprintf("backend round trip of 64 records at SetMaxWorkers(1) / SetMaxWorkers(%d)", b.nproc))
	}
	addOverhead(r, map[string][2][]float64{
		"seek":  {untraced.seekNs, seekNs},
		"range": {untraced.rangeNs, tr.spansOf("archive.range")},
		"shard": {untraced.shardNs, tr.spansOf("archive.shard")},
	})
	r.Note(selfTable(&acc)...)
}

// indexAlloc measures the heap bytes a DecodeAt and a shard pass
// allocate per decoded byte, outside the traced rounds whose replays
// would be counted too.
func (b *archiveBench) indexAlloc(r *Report, acc *layerAcc) {
	rec := uint64(b.images[0].SizeBytes())
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for k := 0; k < seeksPerRound; k++ {
		_, err := b.seek(b.rng.Intn(len(b.images)))
		r.Op("archive seek", err)
	}
	runtime.ReadMemStats(&m1)
	acc.indexAlloc, acc.indexRaw = m1.TotalAlloc-m0.TotalAlloc, seeksPerRound*rec
	runtime.ReadMemStats(&m0)
	n, _, err := b.shardPass(bytes.NewReader(b.archive), 0)
	runtime.ReadMemStats(&m1)
	if r.Op("archive shard pass", err) {
		acc.streamAlloc, acc.streamRaw = m1.TotalAlloc-m0.TotalAlloc, uint64(n)*rec
	}
}

// indexMetrics measures the index layer's own costs: opening, range
// parallelism, and reaching the last record sequentially over a
// seekable source (which takes the footer-skip path) and over a plain
// stream (which drains every payload).
func (b *archiveBench) indexMetrics(r *Report, tr *tracer) {
	const reps = 9
	var open, serial, ranged, scanSeek, scanStream []float64
	var footerSkips int64
	for k := 0; k < reps; k++ {
		_, d, err := tr.timeOp("index.open", func() error {
			_, err := codec.OpenIndexedStream(bytes.NewReader(b.archive), int64(len(b.archive)))
			return err
		})
		if r.Op("index open", err) {
			open = append(open, float64(d))
		}
		lo := b.rng.Intn(len(b.images) - rangeLen + 1)
		_, d, err = tr.timeOp("index.serial_range", func() error {
			for i := lo; i < lo+rangeLen; i++ {
				if _, err := b.ix.DecodeAt(context.Background(), i); err != nil {
					return err
				}
			}
			return nil
		})
		if r.Op("serial range", err) {
			serial = append(serial, float64(d))
		}
		_, d, err = tr.timeOp("index.range", func() error {
			_, err := b.ix.DecodeRange(context.Background(), lo, lo+rangeLen)
			return err
		})
		if r.Op("range", err) {
			ranged = append(ranged, float64(d))
		}
		var st codec.StreamReaderStats
		_, d, err = tr.timeOp("index.scan_last.seekable", func() error {
			var err error
			st, err = b.scanLast(bytes.NewReader(b.archive))
			return err
		})
		if r.Op("scan last (seekable)", err) {
			scanSeek = append(scanSeek, float64(d))
			footerSkips = st.FooterSkips
		}
		_, d, err = tr.timeOp("index.scan_last.stream", func() error {
			_, err := b.scanLast(struct{ io.Reader }{bytes.NewReader(b.archive)})
			return err
		})
		if r.Op("scan last (stream)", err) {
			scanStream = append(scanStream, float64(d))
		}
	}
	r.Add("index.open_us", "us", Summarize(open).P50/1e3, len(open), "OpenIndexedStream with footer")
	r.Add("index.range_speedup", "x", ratio(Summarize(serial).P50, Summarize(ranged).P50), len(ranged), fmt.Sprintf("%d serial DecodeAt / DecodeRange at concurrency %d", rangeLen, b.nproc))
	r.Add("index.scan_last_ms.seekable", "ms", Summarize(scanSeek).P50/1e6, len(scanSeek), "Next+Skip to the last record over an io.ReadSeeker (footer-skip path)")
	r.Add("index.scan_last_ms.stream", "ms", Summarize(scanStream).P50/1e6, len(scanStream), "Next+Skip to the last record over a plain io.Reader (drain path)")
	r.Add("stream.reader.footer_skips", "count", float64(footerSkips), 1, "Skips served by the index footer in one seekable scan")
}

// scanLast advances a sequential reader to the archive's last record
// with Next and Skip, and decodes nothing.
func (b *archiveBench) scanLast(src io.Reader) (codec.StreamReaderStats, error) {
	sr, err := codec.NewStreamReader(src)
	if err != nil {
		return codec.StreamReaderStats{}, err
	}
	for i := 0; i < len(b.images); i++ {
		if _, err := sr.Next(); err != nil {
			return sr.Stats(), err
		}
		if i < len(b.images)-1 {
			if err := sr.Skip(); err != nil {
				return sr.Stats(), err
			}
		}
	}
	return sr.Stats(), nil
}
