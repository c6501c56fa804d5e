// Command acc-compress compresses raw float32 tensor files with any
// registered codec, producing self-describing container files that
// decompress with no out-of-band configuration, and round-trips
// batches on the host or on any of the simulated accelerators.
//
// The codec is picked by a spec string ("family:key=val,flag" with an
// optional "+stage" chain appended — "+fse" runs the shared entropy
// backend over the payload):
//
//	dctc:cf=4,s=2,sg   zfp:rate=8   sz:eb=1e-3   jpegq:q=50
//	dctc:cf=4+fse      lossless:bg=4+fse
//
// Input format for compress/roundtrip: raw little-endian float32
// values of a [BD, C, n, n] batch (dimensions given by flags).
// Decompress needs no shape or codec flags — the container header
// carries both.
//
// Usage:
//
//	acc-compress -mode compress   -in batch.f32 -out batch.accf -bd 10 -c 3 -n 64 -codec zfp:rate=8
//	acc-compress -mode decompress -in batch.accf -out restored.f32
//	acc-compress -mode roundtrip  -in batch.f32 -bd 10 -c 3 -n 64 -codec dctc:cf=4 -device CS-2
//
// With -stream the container format is ACCF v2, a multi-tensor stream
// of independently CRC-protected records:
//
//	acc-compress -mode compress   -stream -in a.f32,b.f32 -out batch.accs -bd 10 -c 3 -n 64 -codec zfp:rate=8 c.f32 d.f32
//	acc-compress -mode decompress -stream -in batch.accs -out restored
//
// Stream compression packs every input (comma-separated -in plus any
// positional arguments after the flags, all sharing the shape flags)
// into one stream;
// stream decompression writes each record to <out>.NNN.f32, decoding
// record by record with bounded memory.
//
// Streams carry a seek-index footer by default (-index=false omits
// it), and -record N extracts a single record without scanning:
//
//	acc-compress -mode decompress -stream -record 2 -in batch.accs -out c.f32
//
// The legacy DCT+Chop flags (-cf, -s, -sg, -transform) still work and
// map onto a dctc spec when -codec is not given.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/accel/platforms"
	"repro/internal/codec"
	"repro/internal/codec/tensorio"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

func main() {
	var (
		mode   = flag.String("mode", "roundtrip", "compress | decompress | roundtrip")
		in     = flag.String("in", "", "input file")
		out    = flag.String("out", "", "output file (optional for roundtrip)")
		bd     = flag.Int("bd", 1, "batch size")
		ch     = flag.Int("c", 1, "channels")
		n      = flag.Int("n", 0, "resolution (images are n x n)")
		spec   = flag.String("codec", "", `codec spec, e.g. "dctc:cf=4,s=2,sg" or "zfp:rate=8"`)
		cf     = flag.Int("cf", 4, "legacy: chop factor (1-8)")
		sg     = flag.Bool("sg", false, "legacy: scatter/gather triangle variant")
		serial = flag.Int("s", 1, "legacy: partial-serialization factor")
		trans  = flag.String("transform", "dct8", "legacy: block transform: dct8 | zfp4")
		device = flag.String("device", "", "simulate on a device (CS-2, SN30, GroqChip, IPU, A100)")
		stream = flag.Bool("stream", false, "ACCF v2 stream mode: compress many inputs into one multi-tensor stream, decompress record by record")
		index  = flag.Bool("index", true, "stream compress: append the seek-index footer (readers that predate it skip it; -index=false reproduces the footer-less format)")
		record = flag.Int("record", -1, "stream decompress: extract only record N via the seek index, without scanning the stream")
		stats  = flag.Bool("stats", false, "print a telemetry summary (counters, latency histograms) to stderr after the run")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	// Compress and decompress write -out; refuse before doing any work.
	if *out == "" && (*mode == "compress" || *mode == "decompress") {
		check(errors.New("missing -out"))
	}

	switch *mode {
	case "compress":
		if *stream {
			ins := append(strings.FieldsFunc(*in, func(r rune) bool { return r == ',' }), flag.Args()...)
			check(compressStream(ins, *out, newCodec(*spec, *cf, *sg, *serial, *trans), *bd, *ch, *n, *index))
			break
		}
		x := readTensor(*in, *bd, *ch, *n)
		c := newCodec(*spec, *cf, *sg, *serial, *trans)
		data, err := c.Compress(x)
		check(err)
		check(os.WriteFile(*out, data, 0o644))
		fmt.Printf("%s: compressed %d bytes -> %d bytes (ratio %.2f)\n",
			c.Spec(), x.SizeBytes(), len(data), float64(x.SizeBytes())/float64(len(data)))

	case "decompress":
		if *stream {
			if *record >= 0 {
				extractRecord(*in, *out, *record)
				break
			}
			decompressStream(*in, *out)
			break
		}
		// Fully self-describing: codec and shape come from the container
		// header, so no -codec or shape flags are needed (or consulted).
		x, c, err := codec.DecodeFile(*in)
		check(err)
		check(tensorio.WriteTensor(*out, x))
		fmt.Printf("%s: decompressed to %v (%d bytes)\n", c.Spec(), x.Shape(), x.SizeBytes())

	case "roundtrip":
		x := readTensor(*in, *bd, *ch, *n)
		c := newCodec(*spec, *cf, *sg, *serial, *trans)
		if *device != "" {
			dev := platforms.ByName(*device)
			if dev == nil {
				check(fmt.Errorf("unknown device %q", *device))
			}
			comp, err := codec.Compiler(c, *n)
			check(err)
			cg, err := comp.BuildCompressGraph(*bd, *ch)
			check(err)
			prog, err := dev.Compile(cg)
			check(err)
			_, stats, err := prog.Run(map[string]*tensor.Tensor{"A": x})
			check(err)
			fmt.Printf("%s: simulated compression %v (%.2f GB/s)\n",
				dev.Name(), stats.SimTime, stats.ThroughputGBs(x.SizeBytes()))
		}
		back, bytes, err := c.RoundTrip(x)
		check(err)
		fmt.Printf("codec: %s (%d payload bytes)\n", c.Spec(), bytes)
		fmt.Printf("PSNR: %.2f dB  MSE: %.6g  max error: %.6g\n",
			metrics.PSNR(x, back), metrics.MSE(x, back), metrics.MaxError(x, back))
		if *out != "" {
			check(tensorio.WriteTensor(*out, back))
		}

	default:
		check(fmt.Errorf("unknown mode %q", *mode))
	}

	if *stats {
		fmt.Fprintln(os.Stderr, "--- telemetry ---")
		check(telemetry.Default().Snapshot().WriteHuman(os.Stderr))
	}
}

// compressStream packs the input files, all sharing the shape flags,
// into one ACCF v2 stream at out. On failure it removes out rather than
// leave a stream without its end-of-stream marker behind.
func compressStream(ins []string, out string, c codec.Codec, bd, ch, n int, index bool) (err error) {
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(out)
		}
	}()
	sw := codec.NewStreamWriter(f)
	if err := sw.SetIndex(index); err != nil {
		return err
	}
	var raw int64
	for _, p := range ins {
		x, err := tensorio.ReadTensor(p, bd, ch, n, n)
		if err != nil {
			return err
		}
		if err := sw.WriteTensor(context.Background(), c, x); err != nil {
			return err
		}
		raw += int64(x.SizeBytes())
	}
	if err := sw.Close(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fi, err := os.Stat(out)
	if err != nil {
		return err
	}
	fmt.Printf("%s: streamed %d tensors, %d bytes -> %d bytes (ratio %.2f)\n",
		c.Spec(), sw.Records(), raw, fi.Size(), float64(raw)/float64(fi.Size()))
	return nil
}

// decompressStream unpacks an ACCF v2 stream record by record, writing
// tensor i to <out>.NNN.f32. Records decode with bounded memory: the
// reader streams each payload through one plane-group of scratch.
func decompressStream(in, out string) {
	f, err := os.Open(in)
	check(err)
	defer f.Close()
	sr, err := codec.NewStreamReader(f)
	check(err)
	for i := 0; ; i++ {
		hdr, err := sr.Next()
		if err == io.EOF {
			fmt.Printf("decoded %d records from %s\n", i, in)
			return
		}
		check(err)
		x, err := sr.Decode(context.Background())
		check(err)
		path := fmt.Sprintf("%s.%03d.f32", strings.TrimSuffix(out, ".f32"), i)
		check(tensorio.WriteTensor(path, x))
		fmt.Printf("%s: record %d %v -> %s (%d bytes)\n", hdr.Spec, i, hdr.Shape, path, x.SizeBytes())
	}
}

// extractRecord seeks straight to record `rec` of an ACCF v2 stream via
// the index footer (falling back to a one-time header walk when the
// stream has none) and writes just that tensor to `out`. Reads are
// proportional to the footer plus the one record, not the stream.
func extractRecord(in, out string, rec int) {
	f, err := os.Open(in)
	check(err)
	defer f.Close()
	fi, err := f.Stat()
	check(err)
	ix, err := codec.OpenIndexedStream(f, fi.Size())
	check(err)
	if rec >= ix.Len() {
		check(fmt.Errorf("record %d out of range: stream has %d records", rec, ix.Len()))
	}
	hdr, err := ix.Header(rec)
	check(err)
	x, err := ix.DecodeAt(context.Background(), rec)
	check(err)
	check(tensorio.WriteTensor(out, x))
	how := "seek index"
	if ix.Rebuilt() {
		how = "rebuilt index (no footer)"
	}
	fmt.Printf("%s: record %d/%d %v -> %s (%d bytes, via %s)\n",
		hdr.Spec, rec, ix.Len(), hdr.Shape, out, x.SizeBytes(), how)
}

// newCodec resolves the codec: an explicit -codec spec wins; otherwise
// the legacy DCT+Chop flags are mapped onto an equivalent dctc spec.
// A bad spec dies with the library's diagnosis (which names the
// offending token and the valid alternatives) plus the full grammar.
func newCodec(spec string, cf int, sg bool, serial int, transform string) codec.Codec {
	if spec == "" {
		spec = fmt.Sprintf("dctc:cf=%d", cf)
		if serial > 1 {
			spec += fmt.Sprintf(",s=%d", serial)
		}
		if sg {
			spec += ",sg"
		}
		if transform != "" && transform != "dct8" {
			spec += ",transform=" + transform
		}
	}
	c, err := codec.New(spec)
	if err != nil {
		check(fmt.Errorf("%w\n%s", err, specHelp(spec)))
	}
	return c
}

// specHelp renders the spec grammar with the live registry contents:
// every family with its valid option keys, and the registered stages.
func specHelp(spec string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  spec grammar: family[:key=val|flag,...][+stage...], e.g. %q or %q\n", "dctc:cf=4,s=2+fse", "lossless:bg=4+fse")
	b.WriteString("  families:\n")
	for _, fam := range codec.Families() {
		keys, err := codec.ValidKeys(fam)
		if err != nil {
			continue
		}
		fmt.Fprintf(&b, "    %-10s keys %v\n", fam, keys)
	}
	fmt.Fprintf(&b, "  stages: %v (appended with '+', no options)", codec.StageNames())
	if family, _, ok := strings.Cut(spec, ":"); ok {
		if keys, err := codec.ValidKeys(family); err == nil {
			fmt.Fprintf(&b, "\n  %s accepts: %v", family, keys)
		}
	}
	return b.String()
}

func readTensor(path string, bd, ch, n int) *tensor.Tensor {
	x, err := tensorio.ReadTensor(path, bd, ch, n, n)
	check(err)
	return x
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "acc-compress:", err)
		os.Exit(1)
	}
}
