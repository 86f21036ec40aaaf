package seg

import "charles/internal/pool"

// Pooled scratch for the pairwise hot path. Every INDEP and
// chi-squared evaluation fills an n1×n2 contingency table, reduces
// it to marginals and entropies, and drops it; HB-cuts runs O(n²)
// of those per advise. Recycling the flat cell buffer and the
// marginal scratch makes the warm pairwise loop allocation-free up
// to the slice headers — the budget TestWarmPairwiseAllocBudget
// pins. Only operators that consume the table internally draw from
// the pools; CellCountsOpt returns caller-owned memory and must
// keep allocating.
var (
	cellScratch     pool.Slice[int]
	marginalScratch pool.Slice[float64]
)
