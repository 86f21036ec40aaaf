package engine

import "charles/internal/pool"

// Pooled scratch buffers for the chunked hot paths. The order
// statistics behind every cut point (medians, equi-depth quantiles)
// gather the extent per chunk into transient buffers — int values,
// which are radix-sorted in place, or float keys, from which the ranks
// are radix-selected (the sort's and the select's own scratch is
// pooled in internal/stats) — read the ranks, and drop them: on a warm
// advisor that is the single largest source of steady-state garbage,
// so the gather targets recycle through internal/pool. The filter
// kernels compact each scanned chunk's matching row ids into int32
// scratch the same way; the driver then copies them out at exact
// length or packs them into bitmap words. Anything that escapes to a
// caller (filter results, bitmaps, cached selections, the cut cache's
// sorted runs) is never pooled.
var (
	int32Scratch  pool.Slice[int32]
	int64Scratch  pool.Slice[int64]
	uint64Scratch pool.Slice[uint64]
)
