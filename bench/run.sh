#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json's command). It keeps every
# byte the toolchain writes inside the checkout — build cache and temp
# files under .bench_build/ — builds the bench binary from source, and
# hands it the driver's arguments:
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Humans can run `go run ./bench` directly; see bench/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
