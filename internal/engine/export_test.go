package engine

// Hooks for the external test package, whose tests build tables over
// .chc files: internal/colfile imports this package, so only a test of
// package engine_test can import it.
var (
	CheckSummaryCodes = checkSummaryCodes
	CheckCodedCopy    = checkCodedCopy
)
