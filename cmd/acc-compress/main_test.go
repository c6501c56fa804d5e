package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/codec"
)

// TestCompressStreamRemovesPartialOutput: a wrong-size input after a
// good one fails the stream, and the half-written stream (one record,
// no end-of-stream marker) must not be left at -out.
func TestCompressStreamRemovesPartialOutput(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "a.f32")
	bad := filepath.Join(dir, "bad.f32")
	out := filepath.Join(dir, "out.accs")
	const n = 8
	if err := os.WriteFile(good, make([]byte, 4*n*n), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, make([]byte, 4*n*n-4), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := codec.New("zfp:rate=8")
	if err != nil {
		t.Fatal(err)
	}
	if err := compressStream([]string{good, good}, out, c, 1, 1, n, true); err != nil {
		t.Fatalf("good inputs: %v", err)
	}
	if err := compressStream([]string{good, bad}, out, c, 1, 1, n, true); err == nil {
		t.Fatal("wrong-size input accepted")
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("partial stream left at -out (stat: %v)", err)
	}
}
