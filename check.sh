#!/bin/sh
# Repository gate: formatting, vet, build, and the race-enabled internal
# test suite. Run from the repo root; exits nonzero on the first failure.
set -eu
cd "$(dirname "$0")"

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: needs formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...
go build ./...
# 32-bit smoke: the framing code validates u32 lengths (and the index
# footer's u64 offsets) before converting to int, and element products
# accumulate in uint64 — build plus vet of the codec packages catches
# any reintroduced wrap-around or truncating conversion.
GOOS=linux GOARCH=386 go build ./...
GOOS=linux GOARCH=386 go vet ./...
# 32-bit test run of the framing packages: the build above cannot catch
# an int product that wraps at runtime (e.g. the staged size hint at
# maxElems). The host runs 386 binaries natively.
GOOS=linux GOARCH=386 go test -count=1 ./internal/bitstream ./internal/entropy ./internal/codec
# Cross-arch smoke builds for the dispatched kernels: arm64 exercises
# the non-amd64 stubs (constant-false dispatch), and GOAMD64=v1 checks
# the amd64 build makes no baseline-ISA assumptions outside the
# runtime-gated kernels.
GOOS=linux GOARCH=arm64 go build ./...
GOOS=linux GOARCH=amd64 GOAMD64=v1 go build ./...
go test -race ./internal/...
# Kernel-dispatch suite with SIMD force-disabled: the portable
# fallbacks must pass the same equivalence/golden tests the vector
# paths do (on non-AVX2 hosts this is a harmless re-run).
ACC_DISABLE_SIMD=1 go test -count=1 \
	./internal/cpufeat/ ./internal/dct/ ./internal/jpegq/ \
	./internal/zfp/ ./internal/vecops/ ./internal/vle/ ./internal/entropy/

# Most allocation gates skip themselves under -race (the race runtime
# allocates), so run them all again without it: the entropy backend's
# steady-state pool discipline must report 0 allocs/op, the core
# CompressInto/DecompressInto/RoundTripInto paths 0 allocs/op, and
# every spec of the registry round-trip table must stay at or under its
# pinned ceiling at one worker and at two.
go test ./internal/entropy/ -run 'TestZeroAllocSteadyState|TestHufZeroAllocSteadyState' -count=1
go test ./internal/core/ -run TestIntoPathZeroAllocs -count=1
go test ./internal/codec/ -run TestRoundTripIntoAllocs -count=1
# Differential fuzzing, time-boxed: FuzzDecode feeds mutated entropy
# streams to the fast decoder and the bit-serial oracle and fails on
# any disagreement in verdict or output. A crasher lands under
# internal/entropy/testdata/fuzz/ and belongs in the commit as a seed.
# Minimizing a new input runs the oracle thousands of times; at the
# default 60 s bound the first new input ate the whole run (~6k execs),
# at 2 s the run reaches ~50k.
go test ./internal/entropy/ -run '^$' -fuzz '^FuzzDecode$' -fuzztime 20s -fuzzminimizetime 2s
# The container decoder takes untrusted bytes: FuzzContainerDecode
# feeds it mutated containers of every family and fails on a panic,
# runaway allocation, or a tensor inconsistent with its header. A
# crasher lands under internal/codec/testdata/fuzz/ and belongs in the
# commit as a seed.
go test ./internal/codec/ -run '^$' -fuzz '^FuzzContainerDecode$' -fuzztime 20s -fuzzminimizetime 2s

# Telemetry alloc gates: the instrumented fused round trip must stay
# 0 allocs/op with telemetry enabled, and the pipelined stream engine
# must allocate no more with it on than off.
go test ./internal/codec/ -run 'TestInstrumentedRoundTripIntoAllocs|TestStreamEngineTelemetryAllocNeutral' -count=1

# Telemetry neutrality: the golden byte streams and conformance suite
# must pass identically with instrumentation on and off (the in-process
# on-vs-off byte diff is TestTelemetryByteNeutral), and the whole tree
# must build and pass with the layer compiled out entirely.
ACC_TELEMETRY=1 go test ./internal/codec/ -run 'TestGolden|TestConformanceRoundTrip|TestTelemetryByteNeutral' -count=1
ACC_TELEMETRY=0 go test ./internal/codec/ -run 'TestGolden|TestConformanceRoundTrip' -count=1
go build -tags acc_notelemetry ./...
go test -tags acc_notelemetry ./internal/telemetry/ ./internal/codec/ -count=1

# Stage-pipeline conformance: every registered family must round-trip
# both bare and through the "+fse" entropy stage, with the staged
# decode bit-identical to the unstaged one (and exact for lossless).
go test ./internal/codec/ -run 'TestStagedFamilies|TestLosslessExact|TestConformanceRoundTrip' -count=1

# Index conformance: seeking through the footer (DecodeAt and parallel
# DecodeRange) must decode tensor-identically to the sequential reader,
# seeks must read O(record) not O(stream), footer-less streams must
# still open (rebuilt index) and — via the pinned golden v2 fixture —
# stay byte-identical to the pre-index format.
go test ./internal/codec/ -run 'TestIndexedMatchesSequential|TestIndexedSeekIsO1|TestIndexRebuildFallback|TestGoldenStream' -count=1

# Benchmark smoke: one iteration of each host-kernel row (fast vs
# dense at 512, the Into paths including SG and s=2) and each registry
# round-trip spec, so the rows keep running, not just compiling.
# Performance claims come from perfbench/run.py, not from these.
go test -run '^$' -bench 'HostRoundTrip512|HostCompressInto|HostDecompressInto' -benchtime 1x .
go test -run '^$' -bench '^BenchmarkRoundTripInto$' -benchtime 1x ./internal/codec/

# The benchmark module builds against this tree; its tests include the
# replay check that per-lane CompressHuf output, concatenated, equals
# the staged lossless:bg=4+huf payload.
(cd perfbench && go test -count=1 .)

echo "check.sh: all green"
