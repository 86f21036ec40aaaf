#!/bin/sh
# loc.sh — count non-test Go lines (wc -l) per package directory, then
# the internal/engine + internal/stats total that ROADMAP item gates
# cite and the total outside bench/. Dot-directories (.git, the
# benchmark's .bench_build) are skipped. Run from the repository root:
# `make loc`.
set -eu

find . -name '*.go' ! -name '*_test.go' ! -path './.*' -exec wc -l {} + | awk '
$2 != "total" {
	d = $2
	sub(/\/[^\/]*$/, "", d)
	sub(/^\.\/?/, "", d)
	if (d == "") d = "."
	n[d] += $1
	if (d != "bench" && d !~ /^bench\//) outside += $1
	if (d == "internal/engine" || d == "internal/stats") core += $1
}
END {
	for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"
	close("sort -k2")
	printf "%7d  internal/engine + internal/stats\n", core
	printf "%7d  non-test Go outside bench/\n", outside
}'
