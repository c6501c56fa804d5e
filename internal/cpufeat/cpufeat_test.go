package cpufeat

import (
	"runtime"
	"testing"
)

// envMap builds a Getenv-shaped lookup from a literal map.
func envMap(m map[string]string) func(string) string {
	return func(k string) string { return m[k] }
}

func TestDetectImplications(t *testing.T) {
	f := Detected()
	if f.AVX2 && !f.AVX {
		t.Fatalf("AVX2 reported without AVX: %+v", f)
	}
	if f.SSE42 && !f.SSE41 {
		// Every SSE4.2 CPU implements SSE4.1; a violation means the
		// CPUID decoding is wrong.
		t.Fatalf("SSE4.2 reported without SSE4.1: %+v", f)
	}
	if runtime.GOARCH == "arm64" && !f.NEON {
		t.Fatalf("NEON must be detected on arm64: %+v", f)
	}
}

func TestOverrideDisableAll(t *testing.T) {
	full := Features{SSE41: true, SSE42: true, AVX: true, AVX2: true, FMA: true, NEON: true}
	for _, v := range []string{"1", "true", "TRUE", "yes"} {
		got := applyOverrides(full, envMap(map[string]string{"ACC_DISABLE_SIMD": v}))
		if got != (Features{}) {
			t.Fatalf("ACC_DISABLE_SIMD=%q left features enabled: %+v", v, got)
		}
	}
	for _, v := range []string{"", "0", "false", "FALSE"} {
		got := applyOverrides(full, envMap(map[string]string{"ACC_DISABLE_SIMD": v}))
		if got != full {
			t.Fatalf("ACC_DISABLE_SIMD=%q should be a no-op, got %+v", v, got)
		}
	}
}

func TestOverridePerFeature(t *testing.T) {
	full := Features{SSE41: true, SSE42: true, AVX: true, AVX2: true, FMA: true, NEON: true}

	got := applyOverrides(full, envMap(map[string]string{"ACC_DISABLE_AVX2": "1"}))
	want := full
	want.AVX2 = false
	want.FMA = false
	if got != want {
		t.Fatalf("ACC_DISABLE_AVX2: got %+v, want %+v", got, want)
	}

	got = applyOverrides(full, envMap(map[string]string{"ACC_DISABLE_SSE4": "1"}))
	want = full
	want.SSE41 = false
	want.SSE42 = false
	if got != want {
		t.Fatalf("ACC_DISABLE_SSE4: got %+v, want %+v", got, want)
	}

	got = applyOverrides(full, envMap(map[string]string{"ACC_DISABLE_NEON": "1"}))
	want = full
	want.NEON = false
	if got != want {
		t.Fatalf("ACC_DISABLE_NEON: got %+v, want %+v", got, want)
	}
}
