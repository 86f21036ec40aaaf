# Single source of truth for the build-and-verify loop: CI runs
# exactly these targets, so "works in CI" and "works locally" mean
# the same commands.

GO ?= go

.PHONY: all build test test-race loc bench bench-paper bench-smoke bench-scale bench-check bench-kernels fmt fmt-check vet lint layers-build fuzz-smoke chaos metrics-smoke docs-check ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Non-test Go lines per package, plus the internal/engine +
# internal/stats total that ROADMAP item gates cite, the total outside
# bench/ and the count of Int/Float-named functions in internal/
# (scripts/loc.sh).
loc:
	sh scripts/loc.sh

# The advise benchmark (bench/README.md): the one source of
# performance numbers. Four workloads, every end-to-end metric by name
# and unit; pass flags through `go run ./bench` directly (-workload,
# -trace 1, -compare old.json new.json).
bench:
	$(GO) run ./bench

# Full paper-experiment sweep (slow; times every E1–E21 benchmark).
bench-paper:
	$(GO) test -run=NONE -bench=. -benchmem ./...

# One iteration per benchmark: proves they still run, in CI time.
# -bench=. sweeps everything, including the E14 bitmap-intersect /
# E15 parallel-cells pair guarding the pairwise cell loop, the E16
# chunked-scan benchmark guarding the chunked storage path and the
# E21 warm/cold delta pair. (E17 self-skips without CHARLES_SCALE.)
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# The advise benchmark's output check (bench/README.md) on 100k-row
# tables: every workload runs its op list, and every distinct context's
# cached answer is held to a fresh advisor's deep check. It fails only
# on a check violation or a failed op; timings are printed, never
# judged.
bench-check:
	$(GO) run ./bench -check -rows 100000

# The 10M-row scale comparison (E17) plus the 1M-row chunked scan
# (E16), locally: generates ~10M rows of VOC (several hundred MB),
# so it is not part of CI. Expect minutes on first run.
bench-scale:
	CHARLES_SCALE=1 $(GO) test -run=NONE -bench='E16ChunkedScan|E17ScaleAdvise' -benchtime=1x -timeout=30m .

# The partition and gather kernels alone, ten runs each for benchstat:
# a binary int cut with and without the cover promise, and an exact
# int cut by gather and radix select and by narrow count, over parents
# at four densities (the narrow count at three in four too), and by
# rank codes (rank/: all rows, 1/2 and 1/64), on one scan worker; and
# over the same parents the plane
# kernels beside the value kernels they replace (planes/: a wide range
# with boundary tests, an exactly coded range, a string set, string
# value counts). Up to 20 minutes, past go test's default 10-minute
# timeout.
bench-kernels:
	$(GO) test ./internal/engine -run '^$$' -bench 'PartitionSource|GatherSource' -count=10 -timeout=40m

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Invariant lint: the repo's own analyzers (internal/lint, run via
# cmd/charles-lint) machine-check the engine's load-bearing
# guarantees — see docs/ARCHITECTURE.md for the analyzer ↔ invariant
# table. staticcheck and govulncheck join the gate when installed;
# they are optional so the target works in offline sandboxes where
# only the toolchain itself is available.
lint:
	$(GO) run ./cmd/charles-lint
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else echo "staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		echo "govulncheck ./..."; govulncheck ./...; \
	else echo "govulncheck not installed; skipping"; fi

# The per-layer probes build only under the layers tag, so a plain
# build never compiles them; building them here makes a refactor that
# breaks a probe fail in CI rather than in a traced benchmark run.
layers-build:
	$(GO) build -tags layers -o /dev/null ./bench/layers

# Short native-fuzz pass over the .chc parsers, the .chc cluster
# permutation (every column gathered through the radix order against
# a sort.SliceStable reference, over NaNs, ±0, ±Inf and int
# extremes), the chunked order statistics (radix select and
# narrow-span value counts against a slices.Sort reference), the
# filter kernels (both drivers, with
# and without zone maps, against a row-at-a-time Contains /
# membership reference) and the partition kernels (every child of a
# one-pass cut against its one-piece filter, with and without the
# cover promise under which a piece is derived, at 1 and 4 scan
# workers, with the same parent cut as row ids and as words — full,
# dense, sparse and empty words, a partial last word, NaN and ±0
# floats — and on a warmed, appended table through the code planes),
# and the SDL parser (parse ∘ print a fixed point, over the rendered
# NaN and ±Inf cut pieces): enough
# budget to exercise the mutators on every seed class, small enough
# for CI. The exec-denominated minimize budget keeps a newly found
# interesting input from eating the wall-clock budget.
fuzz-smoke:
	$(GO) test ./internal/colfile -run=NONE -fuzz=FuzzReadPage -fuzztime=20s -fuzzminimizetime=30x
	$(GO) test ./internal/colfile -run=NONE -fuzz=FuzzOpenColumnFile -fuzztime=20s -fuzzminimizetime=30x
	$(GO) test ./internal/colfile -run=NONE -fuzz=FuzzClusterPermutation -fuzztime=20s -fuzzminimizetime=30x
	$(GO) test ./internal/stats -run=NONE -fuzz=FuzzEquiDepthChunks -fuzztime=20s -fuzzminimizetime=30x
	$(GO) test ./internal/engine -run=NONE -fuzz=FuzzFilterKernels -fuzztime=20s -fuzzminimizetime=30x
	$(GO) test ./internal/engine -run=NONE -fuzz=FuzzPartitionKernels -fuzztime=20s -fuzzminimizetime=30x
	$(GO) test ./internal/sdl -run=NONE -fuzz=FuzzParse -fuzztime=20s -fuzzminimizetime=30x

# Chaos gate: the failpoint suite under the race detector. Every
# TestChaos* test arms an internal/fault failpoint (catalogue in
# docs/ROBUSTNESS.md) and requires a descriptive error or a contained
# panic — never a crash — plus byte-identical advise output once the
# fault is disarmed.
chaos:
	$(GO) test -race -run 'TestChaos' ./...

# Observability gate: boot a real charles-server, run one advise, and
# require /healthz + /metrics to answer 200 with every layer's metric
# families present (scripts/metrics_smoke.sh).
metrics-smoke:
	sh scripts/metrics_smoke.sh

# Documentation gate: relative markdown links in README + docs/ must
# resolve, every §N the colfile code cites must be a heading in
# docs/FORMAT.md (the spec's numbering is load-bearing), and every
# evaluator counter family must have a row in docs/OBSERVABILITY.md.
docs-check:
	$(GO) test -run='TestDocs' .

ci: fmt-check vet lint build layers-build test-race chaos fuzz-smoke metrics-smoke docs-check bench-smoke bench-check
