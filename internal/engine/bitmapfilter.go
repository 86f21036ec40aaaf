package engine

// Filter→bitmap scans: the same Preds (verdicts and row kernels) as
// the chunked row-id filters, packing the word-bitmap directly
// instead of returning a row-id Selection to be converted later. When
// the evaluator must build a selection that will live as a bitmap and
// holds no form of it yet (a SelectBitmap cache miss), this skips the
// row-id result entirely: a scanned chunk's kernel writes its matches
// into pooled scratch and setSegBits packs them, so a row costs the
// kernel's load-and-compare plus, when it matches, one OR into a word
// held in a register. Verdicts behave exactly as in the row-id
// driver: skipped chunks stay nil (never allocated), taken chunks set
// every parent bit without running the predicate, and a scanned chunk
// that matches nothing allocates no words.

// FilterChunkedBitmap is FilterChunked producing a bitmap: the
// per-chunk bitsets assemble into one chunk-segmented Bitmap, and a
// chunk with no match stays nil, preserving the
// empty-chunks-never-allocated invariant.
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
func FilterIntRangeChunkedBitmap(col IntValued, cs *ChunkedSelection, r IntRange, sum *ChunkSummary) *Bitmap {
	return FilterChunkedBitmap(cs, IntRangePred(col, r, sum))
}

// FilterFloatRangeChunkedBitmap is FilterFloatRangeChunked producing
// a bitmap.
func FilterFloatRangeChunkedBitmap(col FloatValued, cs *ChunkedSelection, r FloatRange, sum *ChunkSummary) *Bitmap {
	return FilterChunkedBitmap(cs, FloatRangePred(col, r, sum))
}

// FilterIntSetChunkedBitmap is FilterIntSetChunked producing a
// bitmap.
func FilterIntSetChunkedBitmap(col IntValued, cs *ChunkedSelection, values []int64, sum *ChunkSummary) *Bitmap {
	return FilterChunkedBitmap(cs, IntSetPred(col, values, sum))
}

// FilterFloatSetChunkedBitmap is FilterFloatSetChunked producing a
// bitmap.
func FilterFloatSetChunkedBitmap(col FloatValued, cs *ChunkedSelection, values []float64, sum *ChunkSummary) *Bitmap {
	return FilterChunkedBitmap(cs, FloatSetPred(col, values, sum))
}

// FilterStringSetChunkedBitmap is FilterStringSetChunked producing a
// bitmap.
func FilterStringSetChunkedBitmap(col *StringColumn, cs *ChunkedSelection, values []string, sum *ChunkSummary) *Bitmap {
	return FilterChunkedBitmap(cs, StringSetPred(col, values, sum))
}

// FilterStringRangeChunkedBitmap is FilterStringRangeChunked
// producing a bitmap, with the same summary-gated choice between the
// code-set resolution and the direct string-comparison scan.
func FilterStringRangeChunkedBitmap(col *StringColumn, cs *ChunkedSelection, lo, hi string, loIncl, hiIncl bool, sum *ChunkSummary) *Bitmap {
	return FilterChunkedBitmap(cs, StringRangePred(col, lo, hi, loIncl, hiIncl, sum))
}

// FilterBoolSetChunkedBitmap is FilterBoolSetChunked producing a
// bitmap.
func FilterBoolSetChunkedBitmap(col *BoolColumn, cs *ChunkedSelection, values []bool, sum *ChunkSummary) *Bitmap {
	return FilterChunkedBitmap(cs, BoolSetPred(col, values, sum))
}
