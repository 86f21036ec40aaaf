package engine

import (
	"math"

	"charles/internal/par"
	"charles/internal/stats"
)

// GatherIntChunked materializes col's int64 values per chunk: one
// output slice per chunk, aligned with cs's chunks, gathered
// across the scan worker pool. Unlike GatherInt there is no global
// copy — downstream chunked order statistics consume the shards
// directly.
func GatherIntChunked(col IntValued, cs *ChunkedSelection) [][]int64 {
	src := col.Int64s()
	out := make([][]int64, cs.NumChunks())
	forEachSeg(cs, func(c int) {
		if n := cs.chunkCount(c); n > 0 {
			vals := make([]int64, 0, n)
			eachRows(cs, c, func(rows Selection) {
				for _, row := range rows {
					vals = append(vals, src[row])
				}
			})
			out[c] = vals
		}
	})
	return out
}

// GatherFloatChunked is GatherIntChunked for float columns.
func GatherFloatChunked(col FloatValued, cs *ChunkedSelection) [][]float64 {
	src := col.Float64s()
	out := make([][]float64, cs.NumChunks())
	forEachSeg(cs, func(c int) {
		if n := cs.chunkCount(c); n > 0 {
			vals := make([]float64, 0, n)
			eachRows(cs, c, func(rows Selection) {
				for _, row := range rows {
					vals = append(vals, src[row])
				}
			})
			out[c] = vals
		}
	})
	return out
}

// IntMinMaxChunked returns the minimum and maximum of col over src by
// reducing per-chunk partials. ok is false when the selection is
// empty.
func IntMinMaxChunked(col IntValued, src *ChunkedSelection) (lo, hi int64, ok bool) {
	if src.Len() == 0 {
		return 0, 0, false
	}
	vals := col.Int64s()
	nc := src.NumChunks()
	los := make([]int64, nc)
	his := make([]int64, nc)
	forEachSeg(src, func(c int) {
		los[c], his[c] = math.MaxInt64, math.MinInt64
		eachRows(src, c, func(rows Selection) {
			lo, hi := intBounds(vals, rows)
			los[c], his[c] = min(los[c], lo), max(his[c], hi)
		})
	})
	lo, hi = reduceIntBounds(los, his)
	return lo, hi, true
}

// intBounds reduces src over rows to its minimum and maximum,
// branch-free; an empty set yields (MaxInt64, MinInt64), which no
// reduction picks.
func intBounds(src []int64, rows Selection) (lo, hi int64) {
	lo, hi = math.MaxInt64, math.MinInt64
	for _, row := range rows {
		v := src[row]
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi
}

// reduceIntBounds folds per-part intBounds results.
func reduceIntBounds(los, his []int64) (lo, hi int64) {
	lo, hi = math.MaxInt64, math.MinInt64
	for i := range los {
		lo, hi = min(lo, los[i]), max(hi, his[i])
	}
	return lo, hi
}

// FloatMinMaxChunked is IntMinMaxChunked over floats, ignoring NaN
// exactly like FloatMinMax: NaN rows never seed or move a bound, and
// an all-NaN selection yields NaN bounds. A zero bound is +0.0
// whichever zero the scan met first.
func FloatMinMaxChunked(col FloatValued, src *ChunkedSelection) (lo, hi float64, ok bool) {
	if src.Len() == 0 {
		return 0, 0, false
	}
	vals := col.Float64s()
	nc := src.NumChunks()
	los := make([]uint64, nc)
	his := make([]uint64, nc)
	forEachSeg(src, func(c int) {
		los[c] = math.MaxUint64
		eachRows(src, c, func(rows Selection) {
			lo, hi := floatKeyBounds(vals, rows)
			los[c], his[c] = min(los[c], lo), max(his[c], hi)
		})
	})
	klo, khi := reduceKeyBounds(los, his)
	return stats.Float64FromKey(klo), stats.Float64FromKey(khi), true
}

// floatKeyBounds reduces src over rows to its smallest stats.Float64Key
// minus one and its largest key, branch-free. A NaN's key is 0, so the
// minus one wraps it to MaxUint64 where the minimum never picks it, and
// the maximum never picks it either; an all-NaN (or empty) set yields
// (MaxUint64, 0).
func floatKeyBounds(src []float64, rows Selection) (loMinus1, hi uint64) {
	loMinus1 = math.MaxUint64
	for _, row := range rows {
		k := stats.Float64Key(src[row])
		loMinus1, hi = min(loMinus1, k-1), max(hi, k)
	}
	return loMinus1, hi
}

// gatherKeys is floatKeyBounds that also writes the keys of src's
// numbers at rows to keys, dropping NaN without a branch: every key is
// stored, and the cursor advances past a number's only. It returns how
// many it kept. len(keys) must be at least len(rows).
func gatherKeys(keys []uint64, src []float64, rows Selection) (m int, loMinus1, hi uint64) {
	loMinus1 = math.MaxUint64
	for _, row := range rows {
		k := stats.Float64Key(src[row])
		keys[m] = k
		m += b2i(k != 0) // only a NaN's key is 0
		loMinus1, hi = min(loMinus1, k-1), max(hi, k)
	}
	return m, loMinus1, hi
}

// reduceKeyBounds folds per-part floatKeyBounds results into the
// smallest and largest key: NaN's key 0 for both when no part held a
// number, which stats.Float64FromKey decodes to NaN.
func reduceKeyBounds(los, his []uint64) (lo, hi uint64) {
	lo = math.MaxUint64
	for i := range los {
		lo, hi = min(lo, los[i]), max(hi, his[i])
	}
	return lo + 1, hi
}

// statWorkers reserves scan-pool slots for a chunked order-statistic
// computation (the radix select, per-chunk value counts, or the
// banded string counts), returning the worker count to hand to
// internal/stats and the paired release. With no slot free the count
// is 1 and the same path runs on the calling goroutine. Routing the
// work through the same slot budget (reserveSegSlots) as the scans keeps nested
// parallelism — many advise workers each computing cut points — from
// oversubscribing the scheduler, exactly like the chunked scans
// themselves. Reserve only after the gather phase: the gather takes
// slots of its own, and holding them across it would starve it to
// sequential.
func statWorkers(src *ChunkedSelection) (workers int, release func()) {
	extra, release := reserveSegSlots(src)
	return extra + 1, release
}

// gatherIntKeys is gatherFloatKeys for int and date columns: col over
// src as stats.Int64Key keys in pooled scratch, one shard per chunk,
// nothing dropped. lo and hi are the smallest and largest key,
// reduced as the keys are written (MaxUint64 and 0 when src is empty).
// Callers must not retain any shard past release.
func gatherIntKeys(col IntValued, src *ChunkedSelection) (chunks [][]uint64, lo, hi uint64, release func()) {
	vals := col.Int64s()
	nc := src.NumChunks()
	chunks = make([][]uint64, nc)
	ptrs := make([]*[]uint64, nc)
	los := make([]uint64, nc)
	his := make([]uint64, nc)
	forEachSeg(src, func(c int) {
		los[c] = math.MaxUint64
		n := src.chunkCount(c)
		if n == 0 {
			return
		}
		p := uint64Scratch.Get(n)
		ks, m, klo, khi := *p, 0, uint64(math.MaxUint64), uint64(0)
		eachRows(src, c, func(rows Selection) {
			blo, bhi := intKeys(ks[m:], vals, rows)
			m += len(rows)
			klo, khi = min(klo, blo), max(khi, bhi)
		})
		ptrs[c], chunks[c], los[c], his[c] = p, ks, klo, khi
	})
	lo = math.MaxUint64
	for c := range los {
		lo, hi = min(lo, los[c]), max(hi, his[c])
	}
	return chunks, lo, hi, func() {
		for _, p := range ptrs {
			if p != nil {
				uint64Scratch.Put(p)
			}
		}
	}
}

// intKeys writes the stats.Int64Key keys of vals at rows to keys and
// returns the smallest and largest (MaxUint64 and 0 for no row).
// len(keys) must be at least len(rows).
func intKeys(keys []uint64, vals []int64, rows Selection) (lo, hi uint64) {
	lo = math.MaxUint64
	keys = keys[:len(rows)]
	for i, row := range rows {
		k := stats.Int64Key(vals[row])
		keys[i] = k
		lo, hi = min(lo, k), max(hi, k)
	}
	return lo, hi
}

// gatherFloatKeys gathers col over src as stats.Float64Key keys into
// pooled scratch, one shard per chunk, dropping NaN values: the order
// statistics need a totally ordered multiset and NaN has no rank.
// Dropping it here — always, in every branch — keeps the cut points
// deterministic: they depend only on the finite values, never on
// which worker count a particular call happened to get. (This mirrors
// the NaN convention of FloatMinMax.) lo and hi are the smallest and
// largest key gathered, reduced as the keys are written; both are 0
// when there is none. Callers must not retain any shard past release.
func gatherFloatKeys(col FloatValued, src *ChunkedSelection) (chunks [][]uint64, lo, hi uint64, release func()) {
	vals := col.Float64s()
	nc := src.NumChunks()
	chunks = make([][]uint64, nc)
	ptrs := make([]*[]uint64, nc)
	los := make([]uint64, nc)
	his := make([]uint64, nc)
	forEachSeg(src, func(c int) {
		los[c] = math.MaxUint64
		n := src.chunkCount(c)
		if n == 0 {
			return
		}
		p := uint64Scratch.Get(n)
		ks, m, klo, khi := *p, 0, uint64(math.MaxUint64), uint64(0)
		eachRows(src, c, func(rows Selection) {
			k, blo, bhi := gatherKeys(ks[m:], vals, rows)
			m += k
			klo, khi = min(klo, blo), max(khi, bhi)
		})
		ptrs[c], chunks[c], los[c], his[c] = p, ks[:m], klo, khi
	})
	lo, hi = reduceKeyBounds(los, his)
	return chunks, lo, hi, func() {
		for _, p := range ptrs {
			if p != nil {
				uint64Scratch.Put(p)
			}
		}
	}
}

// IntMedianChunked returns the upper median of col over src — the
// Definition 5 cut point — radix-selected from keys gathered per
// chunk into pooled scratch: nothing is sorted and no flat vector is
// built. ok is false when the selection is empty.
func IntMedianChunked(col IntValued, src *ChunkedSelection) (int64, bool) {
	if src.Len() == 0 {
		return 0, false
	}
	keys, lo, hi, put := gatherIntKeys(col, src)
	defer put()
	workers, release := statWorkers(src)
	defer release()
	return stats.KthInt64Keys(keys, lo, hi, src.Len()/2, workers), true
}

// NumCut is one exact numeric cut-point computation over a selection:
// the extent's bounds and its equi-depth points, strictly increasing
// and none equal to Min. An empty extent has no points.
type NumCut[T int64 | float64] struct {
	Min, Max T
	Points   []T
}

// IntCounts is the refreshable form of an int or date extent that a
// mutable table's cut cache retains in place of its values: per chunk,
// the count of each value in the window [Lo, Lo+Cells), nil for a
// chunk with no selected row. Counts add across chunks, so a splice
// recounts the dirty chunks only. The vectors are immutable once
// returned: a splice shares the clean chunks' vectors between entries.
type IntCounts struct {
	Lo     int64
	Cells  int
	Chunks [][]int
}

// IntCutPointsChunked returns the same strictly increasing
// equi-depth points as IntCutPoints, computed shard-at-a-time.
func IntCutPointsChunked(col IntValued, src *ChunkedSelection, arity int) []int64 {
	cut, _ := IntCutChunked(col, src, arity, false)
	return cut.Points
}

// IntCutChunked computes col's exact cut over src with one pass over
// the rows: keys are gathered per chunk into pooled scratch, the
// bounds reduced as they are written, and the points radix-selected
// from the keys. With retain set, a span narrow enough to count
// (stats.CountCells) whose per-chunk vectors take no more cells than
// src has rows is counted per chunk instead, and the counts come back
// for the cut cache to splice; otherwise counts is nil.
func IntCutChunked(col IntValued, src *ChunkedSelection, arity int, retain bool) (cut NumCut[int64], counts *IntCounts) {
	if src.Len() == 0 {
		return cut, nil
	}
	keys, lo, hi, put := gatherIntKeys(col, src)
	defer put()
	workers, release := statWorkers(src)
	defer release()
	if cells, ok := stats.CountCells(lo, hi); ok && retain && countsFit(src, cells) {
		counts = &IntCounts{Lo: stats.Int64FromKey(lo), Cells: cells, Chunks: make([][]int, len(keys))}
		_ = par.ForEach(workers, len(keys), func(c int) error {
			if len(keys[c]) > 0 {
				counts.Chunks[c] = stats.CountInt64Keys(keys[c], lo, cells)
			}
			return nil
		})
		return counts.cut(arity), counts
	}
	cut = NumCut[int64]{Min: stats.Int64FromKey(lo), Max: stats.Int64FromKey(hi)}
	cut.Points = stats.EquiDepthPointsInt64Keys(keys, lo, hi, arity, workers)
	return cut, nil
}

// IntCutSplice brings retained counts up to date after a mutation and
// reads the cut off them: dirty chunks are recounted from the current
// selection, clean chunks keep their vectors. Sound for the same
// reason selection splicing is — a selection restricted to a clean
// chunk, and hence its value multiset, is a pure function of that
// chunk's unchanged rows. counts is nil when the spliced vectors no
// longer fit the extent (countsFit); the cut is exact either way. ok
// is false, and the caller must recompute in full, on a structural
// mismatch or when a dirty chunk holds a value outside the window.
func IntCutSplice(col IntValued, src *ChunkedSelection, old *IntCounts, dirty []bool, arity int) (cut NumCut[int64], counts *IntCounts, ok bool) {
	chunks, ok := spliceCounts(src, old.Chunks, dirty)
	if !ok {
		return cut, nil, false
	}
	keys, lo, hi, put := gatherIntKeys(col, Restrict(src, dirty))
	defer put()
	wlo := stats.Int64Key(old.Lo)
	if lo <= hi && (lo < wlo || hi-wlo >= uint64(old.Cells)) {
		return cut, nil, false
	}
	for c, ks := range keys {
		if len(ks) > 0 {
			chunks[c] = stats.CountInt64Keys(ks, wlo, old.Cells)
		}
	}
	counts = &IntCounts{Lo: old.Lo, Cells: old.Cells, Chunks: chunks}
	cut = counts.cut(arity)
	if !countsFit(src, counts.Cells) {
		counts = nil
	}
	return cut, counts, true
}

// cut sums the per-chunk vectors and reads the bounds and the
// equi-depth points off the total.
func (ic *IntCounts) cut(arity int) NumCut[int64] {
	total := make([]int, ic.Cells)
	for _, v := range ic.Chunks {
		for i, k := range v {
			total[i] += k
		}
	}
	first, last := -1, -1
	for i, k := range total {
		if k > 0 {
			last = i
			if first < 0 {
				first = i
			}
		}
	}
	if first < 0 {
		return NumCut[int64]{}
	}
	return NumCut[int64]{
		Min:    ic.Lo + int64(first),
		Max:    ic.Lo + int64(last),
		Points: stats.EquiDepthPointsCounts(total, ic.Lo, arity),
	}
}

// countsFit reports whether per-chunk vectors of cells counts, one per
// chunk holding a selected row, take no more cells than src has rows:
// retained counts are then never larger than the values they stand
// for.
func countsFit(src *ChunkedSelection, cells int) bool {
	nonEmpty := 0
	for c := 0; c < src.NumChunks(); c++ {
		nonEmpty += b2i(src.chunkCount(c) > 0)
	}
	return nonEmpty*cells <= src.Len()
}

// spliceCounts is the clean half of a count-vector splice: a vector
// per chunk of src, old's for every clean chunk and nil for the dirty
// ones the caller recounts. ok is false on a structural mismatch — a
// stamp and selection of a different chunk count, or a clean chunk
// whose vector no longer counts its selected rows.
func spliceCounts(src *ChunkedSelection, old [][]int, dirty []bool) (counts [][]int, ok bool) {
	nc := src.NumChunks()
	if len(dirty) != nc {
		return nil, false
	}
	counts = make([][]int, nc)
	for c := 0; c < nc; c++ {
		if dirty[c] {
			continue
		}
		if c >= len(old) {
			return nil, false
		}
		n := 0
		for _, k := range old[c] {
			n += k
		}
		if n != src.chunkCount(c) {
			return nil, false
		}
		counts[c] = old[c]
	}
	return counts, true
}

// FloatCutPointsChunked is IntCutPointsChunked for float columns.
func FloatCutPointsChunked(col FloatValued, src *ChunkedSelection, arity int) []float64 {
	return FloatCutChunked(col, src, arity).Points
}

// FloatCutChunked is IntCutChunked for float columns, never retaining:
// keys and bounds from one gather with NaN values excluded
// (gatherFloatKeys), the points radix-selected from the keys. An
// all-NaN extent has NaN bounds and no points.
func FloatCutChunked(col FloatValued, src *ChunkedSelection, arity int) NumCut[float64] {
	if src.Len() == 0 {
		return NumCut[float64]{}
	}
	keys, lo, hi, put := gatherFloatKeys(col, src)
	defer put()
	workers, release := statWorkers(src)
	defer release()
	return NumCut[float64]{
		Min:    stats.Float64FromKey(lo),
		Max:    stats.Float64FromKey(hi),
		Points: stats.EquiDepthPointsFloat64Keys(keys, lo, hi, arity, workers),
	}
}

// StringValueCountsChunked returns the per-value frequencies of col
// over src. Chunks are grouped into contiguous bands, one histogram
// per band, so the transient memory is worker-count × cardinality —
// not chunk-count × cardinality, which on a 10M-row table with a
// high-cardinality column would dwarf the data scanned. Counts are
// additive, so the band merge is order-independent and the result
// (ordered by dictionary code) matches StringValueCounts exactly.
func StringValueCountsChunked(col *StringColumn, src *ChunkedSelection) []stats.ValueCount {
	codes := col.Codes()
	nc := src.NumChunks()
	workers, release := statWorkers(src)
	defer release()
	if workers > nc {
		workers = nc
	}
	if workers < 1 {
		workers = 1
	}
	bandSize := (nc + workers - 1) / workers
	numBands := 0
	if nc > 0 {
		numBands = (nc + bandSize - 1) / bandSize
	}
	partials := make([][]int, numBands)
	_ = par.ForEach(workers, numBands, func(b int) error {
		counts := make([]int, col.Cardinality())
		hi := (b + 1) * bandSize
		if hi > nc {
			hi = nc
		}
		for c := b * bandSize; c < hi; c++ {
			eachRows(src, c, func(rows Selection) { countCodes(counts, codes, rows) })
		}
		partials[b] = counts
		return nil
	})
	counts := make([]int, col.Cardinality())
	for _, p := range partials {
		for code, n := range p {
			counts[code] += n
		}
	}
	out := make([]stats.ValueCount, 0, len(counts))
	for code, n := range counts {
		if n > 0 {
			out = append(out, stats.ValueCount{Value: col.DictValue(uint32(code)), Count: n})
		}
	}
	return out
}

// countCodes adds one to counts[code] for the code of every row of
// rows.
func countCodes(counts []int, codes []uint32, rows Selection) {
	for _, row := range rows {
		counts[codes[row]]++
	}
}

// BoolValueCountsChunked is StringValueCountsChunked for bool
// columns.
func BoolValueCountsChunked(col *BoolColumn, src *ChunkedSelection) []stats.ValueCount {
	vals := col.Bools()
	nc := src.NumChunks()
	trues := make([]int, nc)
	falses := make([]int, nc)
	forEachSeg(src, func(c int) {
		eachRows(src, c, func(rows Selection) {
			n := 0
			for _, row := range rows {
				n += b2i(vals[row])
			}
			trues[c] += n
			falses[c] += len(rows) - n
		})
	})
	var nTrue, nFalse int
	for c := 0; c < nc; c++ {
		nTrue += trues[c]
		nFalse += falses[c]
	}
	out := make([]stats.ValueCount, 0, 2)
	if nFalse > 0 {
		out = append(out, stats.ValueCount{Value: "false", Count: nFalse})
	}
	if nTrue > 0 {
		out = append(out, stats.ValueCount{Value: "true", Count: nTrue})
	}
	return out
}

// IntSortedRuns gathers col over cs into one freshly allocated sorted
// slice per chunk. Kept for bench/layers probes.
func IntSortedRuns(col IntValued, cs *ChunkedSelection) [][]int64 {
	runs := GatherIntChunked(col, cs)
	workers, release := statWorkers(cs)
	defer release()
	stats.SortInt64Chunks(runs, workers)
	return runs
}

// IntSortedRunsSplice refreshes sorted runs after a mutation: dirty
// chunks are re-gathered and re-sorted, clean chunks reuse the old
// runs. ok is false on a structural mismatch. Kept for bench/layers
// probes.
func IntSortedRunsSplice(col IntValued, cs *ChunkedSelection, old [][]int64, dirty []bool) (runs [][]int64, ok bool) {
	nc := cs.NumChunks()
	if len(dirty) != nc {
		return nil, false
	}
	runs = make([][]int64, nc)
	for c := 0; c < nc; c++ {
		if dirty[c] {
			continue
		}
		if c >= len(old) || len(old[c]) != cs.chunkCount(c) {
			return nil, false
		}
		runs[c] = old[c]
	}
	fresh := IntSortedRuns(col, Restrict(cs, dirty))
	for c := 0; c < nc; c++ {
		if dirty[c] {
			runs[c] = fresh[c]
		}
	}
	return runs, true
}

// StringChunkCounts returns per-chunk value frequencies of col over
// src, indexed by dictionary code: counts[c][code]. This is the
// splice-friendly decomposition of StringValueCountsChunked — counts
// are additive over chunks, so a mutation only invalidates the dirty
// chunks' vectors. The vectors are owned by the caller and must be
// treated as immutable once returned.
func StringChunkCounts(col *StringColumn, src *ChunkedSelection) [][]int {
	codes := col.Codes()
	card := col.Cardinality()
	nc := src.NumChunks()
	counts := make([][]int, nc)
	forEachSeg(src, func(c int) {
		if src.chunkCount(c) == 0 {
			return
		}
		v := make([]int, card)
		eachRows(src, c, func(rows Selection) { countCodes(v, codes, rows) })
		counts[c] = v
	})
	return counts
}

// StringChunkCountsSplice refreshes cached per-chunk counts after a
// mutation: dirty chunks are recounted (at the current, possibly
// grown cardinality), clean chunks keep their vectors. A clean
// chunk's vector may be shorter than the current cardinality — codes
// minted after it was counted cannot occur in an unchanged chunk, so
// the missing tail is implicitly zero. ok is false on a structural
// mismatch.
func StringChunkCountsSplice(col *StringColumn, src *ChunkedSelection, old [][]int, dirty []bool) (counts [][]int, ok bool) {
	counts, ok = spliceCounts(src, old, dirty)
	if !ok {
		return nil, false
	}
	fresh := StringChunkCounts(col, Restrict(src, dirty))
	for c := range counts {
		if dirty[c] {
			counts[c] = fresh[c]
		}
	}
	return counts, true
}

// StringCountsFromChunks reduces per-chunk count vectors to the exact
// []ValueCount StringValueCountsChunked returns: summed per code, in
// dictionary-code order, zero-count values dropped.
func StringCountsFromChunks(col *StringColumn, counts [][]int) []stats.ValueCount {
	totals := make([]int, col.Cardinality())
	for _, v := range counts {
		for code, n := range v {
			totals[code] += n
		}
	}
	out := make([]stats.ValueCount, 0, len(totals))
	for code, n := range totals {
		if n > 0 {
			out = append(out, stats.ValueCount{Value: col.DictValue(uint32(code)), Count: n})
		}
	}
	return out
}
