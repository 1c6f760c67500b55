# Common workflows for the FESIA reproduction.

GO ?= go

.PHONY: all build test tiers race cover check lint loc bench benchcheck batchbench servebench tracebench kwaybench pairbench probebench mergebench poolbench swapbench ablation fuzz kernels experiments examples clean

all: build test

# Full hygiene gate: static checks, formatting drift, and the race suite.
check:
	$(GO) vet ./...
	@fmtout="$$(gofmt -l .)"; \
	if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; \
	fi
	$(GO) test -race ./...

# Static analysis: formatting drift, go vet, and staticcheck — required, not
# optional. The binary is resolved from PATH first, then GOPATH/bin, so the
# CI lint job's plain `go install` works without PATH surgery; a missing
# binary fails the target with the install command instead of silently
# skipping the strictest linter.
STATICCHECK := $(shell command -v staticcheck 2>/dev/null || echo "$$(go env GOPATH)/bin/staticcheck")

lint:
	@fmtout="$$(gofmt -l .)"; \
	if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; \
	fi
	$(GO) vet ./...
	@if [ ! -x "$(STATICCHECK)" ]; then \
		echo "error: staticcheck not found; install it with:"; \
		echo "  go install honnef.co/go/tools/cmd/staticcheck@latest"; \
		exit 1; \
	fi
	$(STATICCHECK) ./...

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

# The module's tests on every rung of the ISA ladder, never from the test
# cache: the host's top rung, the AVX2 rung through the FESIA_DISABLE_AVX512
# hatch (a no-op on hosts without AVX-512), and the pure-Go build. The hatch
# is read in internal/cpuid's package init, before go test starts recording
# the environment a test reads, so a cached run of one rung would otherwise
# be replayed for another.
tiers:
	$(GO) test -count=1 ./...
	FESIA_DISABLE_AVX512=1 $(GO) test -count=1 ./...
	$(GO) test -count=1 -tags=noasm ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# Hand-written non-test Go lines of each package directory of the root module
# (bench/ is a module of its own), then their total. Skips _test.go files and
# generated files (Go's "// Code generated ... DO NOT EDIT." marker).
loc:
	@for d in $$($(GO) list -f '{{.Dir}}' ./...); do \
		n=$$(ls "$$d"/*.go | grep -v '_test\.go$$' | \
			xargs grep -L '^// Code generated .* DO NOT EDIT\.$$' | xargs cat | wc -l); \
		echo "$$n $$(realpath --relative-to=. "$$d")"; \
	done | awk '{ print; total += $$1 } END { print total, "total" }'

# One testing.B benchmark per paper table/figure, plus micro and ablation
# benches (the deliverable artifact: bench_output.txt).
bench:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# Benchmark regression gate, six parts:
#   1. strategy micro-benchmarks vs the committed baseline (>15% ns/op fails);
#   2. SIMD backend pairing — every asm routine vs its pure-Go reference,
#      with built-in structural gates (fused filter >= 1.5x, end-to-end merge
#      must win) and BENCH_simd.json regenerated;
#   3. the batch cutover scenario — batch-parallel must not be meaningfully
#      slower than serial batch on any scenario (built-in gate in -batchjson);
#   4. hybrid representations vs all-segmented — >= 3x bytes/element on the
#      sparse-heavy corpus and >= 1.2x CountMany throughput on the
#      dense-heavy corpus (built-in gates in -hybridjson, BENCH_hybrid.json
#      regenerated);
#   5. the serving-tier saturation ramp — essentially no overload outcomes
#      below saturation, push-back engaged with bounded admitted p99 (not
#      collapse) under 4x-concurrency overload, and hot swaps under that
#      storm with zero failed in-flight queries (built-in gates in
#      -servejson, BENCH_serve.json regenerated);
#   6. the trace-overhead pairing — a tier with tracing at the default
#      1-in-64 sampling vs an identical untraced tier on the same query
#      stream, interleaved rounds; the on/off ratio of median serve latency
#      must stay within 1.05x (built-in gate in -tracejson, BENCH_trace.json
#      regenerated).
# Regenerate the micro baseline after intentional performance changes with:
#   $(GO) run ./cmd/fesiabench -json -quick && cp BENCH_intersect.json BENCH_baseline.json
benchcheck:
	$(GO) run ./cmd/fesiabench -json -quick -baseline BENCH_baseline.json
	$(GO) run ./cmd/fesiabench -simdjson -quick
	$(GO) run ./cmd/fesiabench -batchjson -quick
	$(GO) run ./cmd/fesiabench -hybridjson -quick
	$(GO) run ./cmd/fesiabench -servejson -quick
	$(GO) run ./cmd/fesiabench -tracejson -quick

# One-vs-many batch engine vs pairwise loop (writes BENCH_batch.json).
batchbench:
	$(GO) run ./cmd/fesiabench -batchjson

# SIMD backend vs pure-Go pairing (writes BENCH_simd.json).
simdbench:
	$(GO) run ./cmd/fesiabench -simdjson

# Serving-tier saturation ramp at full scale (writes BENCH_serve.json).
servebench:
	$(GO) run ./cmd/fesiabench -servejson

# Trace-overhead pairing at full scale (writes BENCH_trace.json).
tracebench:
	$(GO) run ./cmd/fesiabench -tracejson

# k-way arms (bitmap chain, probe chain, CountK's choice, and the probe-rule
# sweep) on Fig. 10's equal-size groups, a skew sweep and Zipf search
# queries: the source of EXPERIMENTS.md's k-way table (medians of 5).
kwaybench:
	$(GO) test -run '^$$' -bench BenchmarkKWayArms -benchtime 0.5s -count 5 ./internal/core | tee kwaybench.txt

# The two seg×seg arms, forced merge against forced hash, over the larger
# side (16 to 4Mi elements), the size ratio (1/64 to 1), selectivity (0.1,
# 0.5, 0.9) and a cache-resident and a memory-bound pool, on each available
# rung, alternating which arm runs first: the source of core.HashSegSeg's
# HashFloor and SkewThreshold and of EXPERIMENTS.md's "Fig 11 on the shipped
# path" (medians of 3). Takes ~22 min and ~1.1 GB.
pairbench:
	$(GO) test -run '^$$' -bench BenchmarkPairArms -benchtime 0.05s -count 3 -timeout 60m ./internal/core | tee pairbench.txt

# The segmented membership probe's two bodies, the direct loop and the staged
# body, over list lengths 4-8,192 in a memory-bound and two cache-resident
# regimes on each available rung, alternating which body runs first: the
# source of probeStagedMin and of EXPERIMENTS.md's probe table (medians of 5).
probebench:
	$(GO) test -run '^$$' -bench BenchmarkProbeArms -benchtime 0.3s -count 5 ./internal/core | tee probebench.txt

# The merge body's two walks, the mask walk and the word loop, called
# directly over larger-side bitmaps of 8-1,024 words, size ratios 1:1 and
# 1:4, selectivities 0.1 and 0.9 and a cache-resident (at most 1 MiB) and a
# past-L3 pool on each available rung, alternating which walk runs first:
# the source of maskWalkWords and of EXPERIMENTS.md's "One merge body"
# table (medians of 3).
mergebench:
	$(GO) test -run '^$$' -bench BenchmarkMergeBodies -benchtime 0.2s -count 3 -timeout 60m ./internal/core | tee mergebench.txt

# Pool.Do over two parts vs the same parts inline, from ~0.1 to ~200 us of
# work per part: the source of EXPERIMENTS.md's pool hand-off break-even
# table (medians of 5).
poolbench:
	$(GO) test -run '^$$' -bench BenchmarkPoolHandoff -benchtime 0.5s -count 5 ./internal/core | tee poolbench.txt

# The three ways a corpus of search-swap's size (25,000 docs, 62,500 items,
# mean length 40) reaches a query server: BuildSets from its lists,
# ReadCorpus of its snapshot, and a serving tier's SwapFromReader of it: the
# source of EXPERIMENTS.md's swap table (5 runs each).
swapbench:
	$(GO) test -run '^$$' -bench 'BenchmarkBuildSets|BenchmarkReadCorpus|BenchmarkSwapFromReader' -benchmem -count 5 ./internal/serve | tee swapbench.txt

ablation:
	$(GO) test -bench=Ablation -benchmem .

# Differential fuzzing, 30s per target (the CI fuzz-smoke job runs this): the
# intersection strategies (both segmented-only and the cross-representation
# dispatch matrix, k-way arms included), the batch one-vs-many engine, the
# streaming visitors, the snapshot deserializers, the segmented-set validator
# behind valid checksums against its sort-based oracle, and the ISA-ladder
# parity targets (every tier vs pure Go, including forced-AVX2 on AVX-512
# hardware).
fuzz:
	$(GO) test ./internal/core -fuzz=FuzzIntersect -fuzztime=30s
	$(GO) test ./internal/core -fuzz=FuzzHybridIntersect -fuzztime=30s
	$(GO) test ./internal/core -fuzz=FuzzCountMany -fuzztime=30s
	$(GO) test ./internal/core -fuzz=FuzzVisitParity -fuzztime=30s
	$(GO) test ./internal/core -fuzz=FuzzReadSet -fuzztime=30s
	$(GO) test ./internal/core -fuzz=FuzzReadCorpus -fuzztime=30s
	$(GO) test ./internal/core -fuzz=FuzzValidateShell -fuzztime=30s
	$(GO) test ./internal/kernels -fuzz=FuzzTableCount -fuzztime=30s
	$(GO) test ./internal/simd -fuzz=FuzzAndSegMasksParity -fuzztime=30s
	$(GO) test ./internal/simd -fuzz=FuzzCountSmallParity -fuzztime=30s
	$(GO) test ./internal/simd -fuzz=FuzzIntersectSmallParity -fuzztime=30s
	$(GO) test ./internal/simd -fuzz=FuzzProbeStageParity -fuzztime=30s

# Regenerate the specialized kernel library after editing internal/kernels/kernelgen.
kernels:
	$(GO) run ./cmd/genkernels
	$(GO) test ./internal/kernels/...

# Regenerate every table and figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/fesiabench -all | tee experiments_full.txt

experiments-quick:
	$(GO) run ./cmd/fesiabench -all -quick

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/skewadaptive
	$(GO) run ./examples/keywordsearch
	$(GO) run ./examples/trianglecounting
	$(GO) run ./examples/offlinebuild

clean:
	rm -f cover.out
