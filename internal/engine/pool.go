package engine

import "charles/internal/pool"

// Pooled scratch buffers for the chunked hot paths. The order
// statistics behind every cut point (medians, equi-depth quantiles)
// gather the extent per chunk into transient buffers of
// order-preserving keys, from which the ranks are radix-selected or
// the values counted (the select's own scratch is pooled in
// internal/stats), and drop them: on a warm advisor that is the
// single largest source of steady-state garbage, so the gather targets
// recycle through internal/pool. The filter kernels compact each
// scanned chunk's matching row ids into int32 scratch the same way;
// the chunk setter then copies them out at exact length or packs them
// into words. Anything that escapes to a caller (filter results,
// cached selections, the cut cache's count vectors) is never
// pooled.
var (
	int32Scratch  pool.Slice[int32]
	uint64Scratch pool.Slice[uint64]
)
