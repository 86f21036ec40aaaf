# Single source of truth for the build-and-verify loop: CI runs
# exactly these targets, so "works in CI" and "works locally" mean
# the same commands.

GO ?= go

# Perf-trajectory artifact name; tracks the PR sequence so successive
# baselines never overwrite each other in the artifact history.
BENCH_OUT ?= BENCH_10.json

.PHONY: all build test test-race bench bench-smoke bench-json bench-scale bench-delta fmt fmt-check vet lint layers-build fuzz-smoke chaos metrics-smoke docs-check ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Full benchmark sweep (slow; regenerates every paper experiment).
bench:
	$(GO) test -run=NONE -bench=. -benchmem ./...

# One iteration per benchmark: proves they still run, in CI time.
# -bench=. sweeps everything, including the E14 bitmap-intersect /
# E15 parallel-cells pair guarding the selection-representation work
# and the E16 chunked-scan benchmark guarding the chunked storage
# path. (E17 self-skips without CHARLES_SCALE.)
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Perf trajectory: the bench-smoke set with -benchmem, recorded as
# op → ns/op + B/op + allocs/op JSON. CI uploads $(BENCH_OUT) as an
# artifact so future PRs have a baseline to diff against. Two steps,
# not a pipe: a pipe would report the converter's exit status and let
# a failing benchmark slip through the CI gate.
bench-json:
	$(GO) test -run=NONE -bench=. -benchtime=1x -benchmem ./... > bench-smoke.out
	$(GO) run ./cmd/charles-benchjson < bench-smoke.out > $(BENCH_OUT)
	@rm -f bench-smoke.out

# Incremental-advise smoke: one E21 delta benchmark iteration proves
# the cold/warm pair still runs, and the env-gated E21 test enforces
# the conservative CI-safe floor (warm re-advise after a 1% append at
# least 5x faster than cold). CHARLES_DELTA_GATE=10 checks the
# paper-facing 10x claim on a quiet machine.
bench-delta:
	$(GO) test -run=NONE -bench=BenchmarkE21DeltaAdvise -benchtime=1x .
	CHARLES_DELTA_GATE=1 $(GO) test -run='TestE21DeltaAdviseGate' -v -timeout=15m .

# The 10M-row scale comparison (E17) plus the 1M-row chunked scan
# (E16), locally: generates ~10M rows of VOC (several hundred MB),
# so it is not part of CI. Expect minutes on first run.
bench-scale:
	CHARLES_SCALE=1 $(GO) test -run=NONE -bench='E16ChunkedScan|E17ScaleAdvise' -benchtime=1x -timeout=30m .

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

# Short native-fuzz pass over the .chc parsers, the chunked order
# statistics (radix select and narrow-span value counts against a
# slices.Sort reference) and the filter kernels (both drivers, with
# and without zone maps, against a row-at-a-time Contains /
# membership reference): enough budget to exercise the mutators on
# every seed class, small enough for CI. The exec-denominated
# minimize budget keeps a newly found interesting input from eating
# the wall-clock budget.
fuzz-smoke:
	$(GO) test ./internal/colfile -run=NONE -fuzz=FuzzReadPage -fuzztime=20s -fuzzminimizetime=30x
	$(GO) test ./internal/colfile -run=NONE -fuzz=FuzzOpenColumnFile -fuzztime=20s -fuzzminimizetime=30x
	$(GO) test ./internal/stats -run=NONE -fuzz=FuzzEquiDepthChunks -fuzztime=20s -fuzzminimizetime=30x
	$(GO) test ./internal/engine -run=NONE -fuzz=FuzzFilterKernels -fuzztime=20s -fuzzminimizetime=30x

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
# resolve, and every §N the colfile code cites must be a heading in
# docs/FORMAT.md (the spec's numbering is load-bearing).
docs-check:
	$(GO) test -run='TestDocs' .

ci: fmt-check vet lint build layers-build test-race chaos fuzz-smoke metrics-smoke docs-check bench-json bench-delta
