package engine

// Filter→bitmap scans: the same Preds (verdicts and row kernels) as
// the chunked row-id filters, packing the word-bitmap directly
// instead of returning a row-id Selection to be converted later: a
// scanned chunk's kernel writes its matches into pooled scratch and
// setSegBits packs them. Verdicts behave exactly as in the row-id
// driver: skipped chunks stay nil (never allocated), taken chunks set
// every parent bit without running the predicate, and a scanned chunk
// that matches nothing allocates no words. No advise runs these
// scans; they stay only for the per-layer probes.

// FilterChunkedBitmap is FilterChunked producing a bitmap: the
// per-chunk bitsets assemble into one chunk-segmented Bitmap, and a
// chunk with no match stays nil, preserving the
// empty-chunks-never-allocated invariant.
// Kept only for the per-layer probes until ROADMAP item 4 drops them.
func FilterChunkedBitmap(cs *ChunkedSelection, p Pred) *Bitmap {
	nc := cs.NumChunks()
	b := newBitmapShell(cs.NumRows(), cs.ChunkRows(), nc)
	if p.none {
		return b
	}
	m := metricsHook.Load()
	m.FusedKernels.Inc()
	ones := make([]int, nc)
	forEachSeg(cs, func(c int) {
		seg := cs.Seg(c)
		if len(seg) == 0 {
			return
		}
		v := p.verdict(c)
		m.countVerdict(v)
		switch v {
		case chunkSkip:
		case chunkTake:
			ones[c] = b.packChunk(c, seg)
		default:
			buf := int32Scratch.Get(len(seg))
			if n := p.scan(seg, *buf); n > 0 {
				ones[c] = b.packChunk(c, (*buf)[:n])
			}
			int32Scratch.Put(buf)
		}
	})
	for _, n := range ones {
		b.ones += n
	}
	return b
}

// FilterIntRangeChunkedBitmap is FilterIntRangeChunked producing a
// bitmap.
// Kept only for the per-layer probes until ROADMAP item 4 drops them.
func FilterIntRangeChunkedBitmap(col IntValued, cs *ChunkedSelection, r IntRange, sum *ChunkSummary) *Bitmap {
	return FilterChunkedBitmap(cs, IntRangePred(col, r, sum))
}

// FilterStringSetChunkedBitmap is FilterStringSetChunked producing a
// bitmap.
// Kept only for the per-layer probes until ROADMAP item 4 drops them.
func FilterStringSetChunkedBitmap(col *StringColumn, cs *ChunkedSelection, values []string, sum *ChunkSummary) *Bitmap {
	return FilterChunkedBitmap(cs, StringSetPred(col, values, sum))
}
