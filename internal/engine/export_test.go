package engine

// Hooks for the external test package, whose tests build tables over
// .chc files: internal/colfile imports this package, so only a test of
// package engine_test can import it.
var CheckSummaryCodes = checkSummaryCodes

// intBoundsSummary is a zone map holding per-chunk int bounds lo and
// hi alone, as no table builds one: a stale or mis-sized window for
// the guards of the kernels that read one.
func intBoundsSummary(lo, hi []int64) *ChunkSummary {
	return &ChunkSummary{intMin: lo, intMax: hi}
}
