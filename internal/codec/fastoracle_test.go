package codec

import (
	"context"
	"strings"
	"testing"
)

// TestSetMaxWorkersSequential pins the deterministic-tests contract:
// with the cap at 1 the pipeline must run planes in order on the
// caller's goroutine, and the previous cap must round-trip through the
// setter, the default reading as 0.
func TestSetMaxWorkersSequential(t *testing.T) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)

	var order []int
	if err := forEachPlane(context.Background(), 32, 0, func(p int) error {
		order = append(order, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for p, got := range order {
		if got != p {
			t.Fatalf("plane order %v is not sequential", order)
		}
	}

	if got := SetMaxWorkers(8); got != 1 {
		t.Fatalf("SetMaxWorkers returned previous cap %d, want 1", got)
	}
	if got := SetMaxWorkers(0); got != 8 {
		t.Fatalf("SetMaxWorkers returned previous cap %d, want 8", got)
	}
	if got := SetMaxWorkers(-3); got != 0 {
		t.Fatalf("reset cap reads %d, want 0 (GOMAXPROCS at each call)", got)
	}
}

// TestDCTCRegistryMatchesDenseOracle closes the loop between the
// registry's fast-kernel execution path and the dense-matmul reference:
// for every dctc conformance spec, the container round trip must agree
// with the compiled compressor's dense oracle to ≤1e-5.
func TestDCTCRegistryMatchesDenseOracle(t *testing.T) {
	x := conformanceBatch()
	n := x.Dim(-1)
	for _, tc := range conformanceSpecs {
		if !strings.HasPrefix(tc.spec, "dctc:") {
			continue
		}
		tc := tc
		t.Run(tc.spec, func(t *testing.T) {
			c, err := New(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			data, err := c.Compress(x)
			if err != nil {
				t.Fatal(err)
			}
			back, err := c.Decompress(data)
			if err != nil {
				t.Fatal(err)
			}
			comp, err := Compiler(c, n)
			if err != nil {
				t.Fatal(err)
			}
			want, err := comp.RoundTripDense(x)
			if err != nil {
				t.Fatal(err)
			}
			if d := back.MaxAbsDiff(want); d > 1e-5 {
				t.Fatalf("registry round trip diverges from dense oracle: max abs diff %g", d)
			}
		})
	}
}
