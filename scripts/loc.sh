#!/bin/sh
# loc.sh — count non-test Go lines (wc -l) per package directory, then
# the internal/engine + internal/stats total that ROADMAP item gates
# cite, the total outside bench/, the count of non-test functions in
# internal/ named for Int or Float, and the counts of exported non-test
# identifiers in internal/ and in the root package. Dot-directories (.git, the
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

# Non-test functions and methods in internal/ whose names contain Int
# or Float (an unexported name may start int or float): the numeric
# twins ROADMAP item 19 gates on halving.
find ./internal -name '*.go' ! -name '*_test.go' -exec cat {} + | awk '
/^func / {
	s = $0
	sub(/^func (\([^)]*\) )?/, "", s)
	sub(/[\[(].*/, "", s)
	if (s ~ /Int|Float|^int|^float/) n++
	if (s ~ /Float|^float/) f++
}
END { printf "%7d  Int/Float-named non-test funcs in internal/ (%d Float)\n", n, f }'

# Exported package-level identifiers declared in non-test files: funcs,
# methods, types, consts and vars, one per declared name (a grouped
# const/var/type block counts each line that starts with an exported
# name). Struct fields and interface methods are not counted, nor are
# the analyzer fixtures under testdata/. Counted for internal/, which
# ROADMAP item 10 gates on going down, and for the root charles
# package, the facade.
exports() {
	awk -v label="$1" '
/^(const|var|type) \($/ { blk = 1; next }
blk && /^\)/ { blk = 0; next }
blk {
	if ($0 ~ /^\t[A-Z]/) n++
	next
}
/^func (\([^)]*\) )?[A-Z]/ { n++ }
/^(const|var|type) [A-Z]/ { n++ }
END { printf "%7d  exported non-test identifiers in %s\n", n, label }'
}
find ./internal -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec cat {} + | exports internal/
find . -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | exports 'the root charles package'
