# Developer entry points for the DeepN-JPEG reproduction.
#
#   make check        # gofmt gate + vet + build + race suite + sampling matrix + fuzz smoke + perfbench self-test
#   make test         # plain test run (what tier-1 verification executes)
#   make test-amd64v3 # build+test under GOAMD64=v3 (AVX2-era codegen)
#   make bench        # DCT/codec/pipeline benchmarks with allocation reporting
#   make bench-txt    # repeated-count text snapshot → $(NEW) (benchstat input)
#   make bench-compare# benchstat $(OLD) $(NEW) — old-vs-new regression diff
#   make bench-json   # full benchmark sweep → BENCH_$(PR).json (perf trajectory)
#   make serve-bench  # requests/sec through the HTTP batch endpoint
#   make fuzz-smoke   # short native-fuzz run of the decode/requantize/profile fuzzers

GO ?= go
GOFMT ?= gofmt
FUZZTIME ?= 5s
# PR tags the benchmark snapshot file (BENCH_$(PR).json); set it to the
# PR number when recording a data point, e.g. `make bench-json PR=4`.
PR ?= dev

.PHONY: check fmt vet build build-386 test test-amd64v3 race sampling progressive hub perfbench-selftest bench bench-txt bench-compare bench-json serve-bench fuzz-smoke

check: fmt vet build build-386 race sampling progressive hub perfbench-selftest fuzz-smoke

fmt:
	@out="$$($(GOFMT) -l .)" || exit 1; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# 32-bit cross-compile gate: int is 32 bits under GOARCH=386, so this
# catches the width*height-overflow class of bug (hostile image headers
# can declare ~2^31 per dimension) at compile/vet time on every check.
build-386:
	GOARCH=386 $(GO) build ./...
	GOARCH=386 $(GO) vet ./...

test:
	$(GO) test ./...

# GOAMD64=v3 leg: the batch DCT/quantize kernels are flat float64 loops
# whose lowering changes with the microarchitecture level (v3 unlocks
# AVX/AVX2-era instruction selection). Building AND running the suite at
# v3 pins the bit-identity contract — batch vs per-block, fused vs
# unfused — under the alternate codegen, not just under the default v1.
# Requires an AVX2-capable host (any x86-64-v3 machine; CI runners are).
test-amd64v3:
	GOAMD64=v3 $(GO) build ./...
	GOAMD64=v3 $(GO) test ./...

race:
	$(GO) test -race ./...

# Chroma-sampling matrix gate: runs the table-driven layout suite
# (4:4:4/4:2:0/4:2:2/4:4:0/4:1:1) — stdlib-agreeing decodes, byte-stable
# sharded requantization, metadata passthrough — as its own named leg so
# a sampling regression is attributable at a glance.
sampling:
	$(GO) test -run 'TestSamplingMatrix|TestRGBIntoMatchesStdlibOn422Family|TestSingleComponentFactorsNormalized|TestSOFBaselineBlocksPerMCULimit|Metadata' ./internal/jpegcodec
	$(GO) test -run 'TestSubsamplingMatrixInterop|TestRequantizeMetadataPassthroughPublic' .

# Progressive-JPEG gate: the multi-scan decode path as its own named
# leg — scan-script matrix vs baseline coefficients, stdlib interop
# pins, progressive→baseline requantization, checked-in fixtures, the
# marker-structure inspector, and the server's 415 unsupported_format
# classification — so a progressive regression is attributable at a
# glance.
progressive:
	$(GO) test -run 'TestProgressive|TestInspect|TestRequantizeProgressive' ./internal/jpegcodec
	$(GO) test -run 'TestUnsupportedFormatMatrix' ./internal/server

# Profile-hub gate: the whole distribution loop as its own named leg —
# origin wire protocol, client fault injection (truncation, corruption,
# retries, origin-down fallback, trust-key rejection), registry lazy
# fetch/sync, and the two-server fleet scenario — so a hub regression is
# attributable at a glance. The packages also run inside `race`; this
# leg exists for fast, named feedback.
hub:
	$(GO) test ./internal/profilehub
	$(GO) test -run 'TestRegistryLazyFetch|TestSyncSource|TestWatchSyncs|TestLazyFetchSingleFlight|TestSignature|TestReadSignature|TestGC|TestCompare|TestWriteFileAtomic|TestReadChecksum' ./internal/profile
	$(GO) test -run 'TestFleet|TestServerHub' ./internal/server

# Benchmark self-test leg: perfbench/ is a module of its own (it uses
# this one through a replace directive), so `go vet ./...` and
# `go test ./...` at the root never compile it. Vetting and testing it
# here keeps the benchmark building against the codec's current API.
# Offline, a few seconds.
perfbench-selftest:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Native-fuzz smoke leg: a few seconds per target over the checked-in
# corpus plus fresh mutations — catches decoder panics before CI does a
# long run. go test only allows one -fuzz pattern per invocation.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/jpegcodec
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSharded$$' -fuzztime $(FUZZTIME) ./internal/jpegcodec
	$(GO) test -run '^$$' -fuzz '^FuzzRequantize$$' -fuzztime $(FUZZTIME) ./internal/jpegcodec
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeProgressive$$' -fuzztime $(FUZZTIME) ./internal/jpegcodec
	$(GO) test -run '^$$' -fuzz '^FuzzProfileDecode$$' -fuzztime $(FUZZTIME) ./internal/profile
	$(GO) test -run '^$$' -fuzz '^FuzzParseIndex$$' -fuzztime $(FUZZTIME) ./internal/profilehub

bench:
	$(GO) test -run XXX -bench 'Transform|ForwardAAN|InverseAAN|Batch|PerBlockLoop' -benchmem ./internal/dct
	$(GO) test -run XXX -bench 'Default|DecodeEncodeLoop|DecodePooled|EncodeRGB420|DecodeRGB420|Decode422|Requantize422|DecodeProgressive|RequantizeProgressive' -benchmem ./internal/jpegcodec
	$(GO) test -run XXX -bench 'EncodeBatch|DecodeBatch|CalibrateParallel|DeepNEncodeThroughput' -benchmem ./
	$(GO) test -run XXX -bench 'Index|BlobVerify|PullCacheHit' -benchmem ./internal/profilehub

# bench-txt records a repeated-count text snapshot of the hot-path
# benchmarks — the input format benchstat wants. Record one before a
# change (NEW=bench-old.txt) and one after (the default), then run
# bench-compare. BENCHCOUNT=10 gives benchstat enough samples to report
# a confidence interval instead of a point estimate.
NEW ?= bench-new.txt
OLD ?= bench-old.txt
BENCHCOUNT ?= 10
bench-txt:
	$(GO) test -run XXX -bench 'Transform|Batch|PerBlockLoop|Default|DecodeEncodeLoop' -benchmem -count $(BENCHCOUNT) ./internal/dct ./internal/jpegcodec > $(NEW)
	@echo "wrote $(NEW)"

# bench-compare diffs two bench-txt snapshots with benchstat
# (golang.org/x/perf/cmd/benchstat). The tool is NOT auto-installed —
# this repo adds no dependencies from the build — so the target checks
# for it on PATH and explains itself when absent.
bench-compare:
	@command -v benchstat >/dev/null 2>&1 || { \
		echo "bench-compare: benchstat not on PATH."; \
		echo "  install it once with: go install golang.org/x/perf/cmd/benchstat@latest"; \
		echo "  then: make bench-txt NEW=bench-old.txt   (on the old commit)"; \
		echo "        make bench-txt                     (on the new commit)"; \
		echo "        make bench-compare"; \
		exit 1; }
	benchstat $(OLD) $(NEW)

# bench-json records the full benchmark sweep as a machine-readable
# snapshot (BENCH_$(PR).json) so per-PR performance is diffable across
# the repository's history. The sweep and the conversion run as separate
# commands (no pipe) so a failing benchmark fails the target instead of
# silently producing a truncated snapshot. The second leg re-runs the
# single-image restart-sharding benchmarks under a -cpu 1,4,8 sweep so
# the snapshot captures how sharded encode/decode scales with cores.
bench-json:
	$(GO) test -run XXX -bench . -benchmem ./... > BENCH_$(PR).txt
	$(GO) test -run XXX -bench Sharded -benchmem -cpu 1,4,8 ./internal/jpegcodec >> BENCH_$(PR).txt
	$(GO) run ./scripts/bench2json < BENCH_$(PR).txt > BENCH_$(PR).json
	@rm -f BENCH_$(PR).txt
	@echo "wrote BENCH_$(PR).json"

serve-bench:
	$(GO) test -run XXX -bench 'ServeBatchEncode|ServeEncodeSingle' -benchmem ./internal/server
