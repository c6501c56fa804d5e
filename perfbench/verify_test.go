package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// TestCorruptRecordCountsAsFailedOp corrupts one record's payload in a
// throwaway archive and runs read rounds over it: every operation that
// touches the record must count as failed, the others must pass, and
// the run must go on.
func TestCorruptRecordCountsAsFailedOp(t *testing.T) {
	const bad = 20
	images := archiveCorpus(5, 32)
	b, err := buildArchiveBench(images, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	kit, err := newLayerKit(archiveSpec, 1, images[0].Dim(2))
	if err != nil {
		t.Fatal(err)
	}
	ri, err := kit.prepare(images[bad])
	if err != nil {
		t.Fatal(err)
	}
	// The record's payload fits one chunk, so its first bytes follow the
	// chunk header verbatim; flip a byte in the middle of it.
	at := bytes.Index(b.archive, ri.stagedP[:64])
	if at < 0 || bytes.Index(b.archive[at+1:], ri.stagedP[:64]) >= 0 {
		t.Fatalf("record %d payload not found exactly once in the archive", bad)
	}
	b.archive[at+len(ri.stagedP)/2] ^= 0x40
	if err := b.setup(); err != nil {
		t.Fatalf("setup touches only records 0-15: %v", err)
	}

	r := newReport()
	var s archiveSamples
	const rounds = 6
	for k := 0; k < rounds; k++ {
		b.readRound(r, nil, &s, nil)
	}
	if want := rounds * (seeksPerRound + rangesPerRound + 1); r.Attempted != want {
		t.Errorf("attempted %d operations, want %d: a failure stopped the run", r.Attempted, want)
	}
	if r.Failed == 0 || r.Failed == r.Attempted {
		t.Fatalf("failed %d of %d operations", r.Failed, r.Attempted)
	}
	// Only seeks of the bad record, ranges covering it, and shard
	// passes that decode it may fail.
	if ok := len(s.seekNs) + len(s.rangeNs) + len(s.shardNs); ok+r.Failed != r.Attempted {
		t.Errorf("%d passed + %d failed != %d attempted", ok, r.Failed, r.Attempted)
	}
	for _, f := range r.failures {
		if !strings.Contains(f, "CRC") && !strings.Contains(f, "crc") {
			t.Errorf("failure is not the corruption: %s", f)
		}
	}
	if _, err := b.seek(bad); err == nil {
		t.Error("seek of the corrupted record passed")
	}
	if _, err := b.seek(bad - 1); err != nil {
		t.Errorf("seek of an intact record: %v", err)
	}
}

// TestReplaysAreFaithful checks that the layer replays reproduce the
// operation's bytes, and that a replay whose bytes differ is reported.
func TestReplaysAreFaithful(t *testing.T) {
	// A lane length off the 64 KiB block grid, so coding the lanes
	// apart and coding them as one payload give different bytes.
	w := tensorsOf(ckptCorpus(1))[2].Data()
	x := tensor.FromSlice(append([]float32(nil), w[:100000]...), 100000)
	kit, err := newLayerKit(ckptSpec, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := kit.prepare(x)
	if err != nil {
		t.Fatal(err)
	}
	var acc layerAcc
	if err := kit.replayEncode(nil, &acc.enc, 0, 0, ri); err != nil {
		t.Fatal(err)
	}
	if err := kit.replayDecode(nil, &acc.dec, 0, 0, ri, x); err != nil {
		t.Fatal(err)
	}
	if acc.enc.ns[lEntropy] == 0 || acc.dec.ns[lEntropy] == 0 {
		t.Error("entropy replay not timed")
	}
	// One lane coded as a whole payload is not what the stage wrote.
	kit.lanes = 1
	if err := kit.replayEncode(nil, &acc.enc, 0, 0, ri); err == nil || !strings.Contains(err.Error(), "entropy replay") {
		t.Errorf("single-lane entropy replay of a 4-lane payload: %v", err)
	}
}
