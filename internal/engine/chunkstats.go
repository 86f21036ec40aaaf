package engine

import (
	"math"

	"charles/internal/par"
	"charles/internal/stats"
)

// GatherIntChunked materializes col's int64 values per chunk: one
// output slice per chunk, aligned with cs's segments, gathered
// across the scan worker pool. Unlike GatherInt there is no global
// copy — downstream chunked order statistics consume the shards
// directly.
func GatherIntChunked(col IntValued, cs *ChunkedSelection) [][]int64 {
	src := col.Int64s()
	out := make([][]int64, cs.NumChunks())
	forEachSeg(cs, func(c int) {
		seg := cs.Seg(c)
		if len(seg) == 0 {
			return
		}
		vals := make([]int64, len(seg))
		for i, row := range seg {
			vals[i] = src[row]
		}
		out[c] = vals
	})
	return out
}

// GatherFloatChunked is GatherIntChunked for float columns.
func GatherFloatChunked(col FloatValued, cs *ChunkedSelection) [][]float64 {
	src := col.Float64s()
	out := make([][]float64, cs.NumChunks())
	forEachSeg(cs, func(c int) {
		seg := cs.Seg(c)
		if len(seg) == 0 {
			return
		}
		vals := make([]float64, len(seg))
		for i, row := range seg {
			vals[i] = src[row]
		}
		out[c] = vals
	})
	return out
}

// IntMinMaxChunked returns the minimum and maximum of col over cs by
// reducing per-chunk partials in chunk order. ok is false when the
// selection is empty.
func IntMinMaxChunked(col IntValued, cs *ChunkedSelection) (min, max int64, ok bool) {
	if cs.Len() == 0 {
		return 0, 0, false
	}
	src := col.Int64s()
	nc := cs.NumChunks()
	mins := make([]int64, nc)
	maxs := make([]int64, nc)
	seen := make([]bool, nc)
	forEachSeg(cs, func(c int) {
		seg := cs.Seg(c)
		if len(seg) == 0 {
			return
		}
		lo := src[seg[0]]
		hi := lo
		for _, row := range seg[1:] {
			v := src[row]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		mins[c], maxs[c], seen[c] = lo, hi, true
	})
	first := true
	for c := 0; c < nc; c++ {
		if !seen[c] {
			continue
		}
		if first {
			min, max, first = mins[c], maxs[c], false
			continue
		}
		if mins[c] < min {
			min = mins[c]
		}
		if maxs[c] > max {
			max = maxs[c]
		}
	}
	return min, max, true
}

// FloatMinMaxChunked is IntMinMaxChunked over floats, ignoring NaN
// exactly like FloatMinMax: NaN rows never seed or move a bound, and
// an all-NaN selection yields NaN bounds. A zero bound is +0.0
// whichever zero the scan met first.
func FloatMinMaxChunked(col FloatValued, cs *ChunkedSelection) (min, max float64, ok bool) {
	if cs.Len() == 0 {
		return 0, 0, false
	}
	src := col.Float64s()
	nc := cs.NumChunks()
	los := make([]uint64, nc)
	his := make([]uint64, nc)
	forEachSeg(cs, func(c int) {
		los[c], his[c] = floatKeyBounds(src, cs.Seg(c))
	})
	lo, hi := reduceKeyBounds(los, his)
	return stats.Float64FromKey(lo), stats.Float64FromKey(hi), true
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
// computation (per-chunk radix sorts, the float radix select, or the
// banded string counts), returning the worker count to hand to
// internal/stats and the paired release. With no slot free the count
// is 1 and the same path runs on the calling goroutine. Routing the
// work through the same slot budget (reserveSegSlots) as the scans keeps nested
// parallelism — many advise workers each computing cut points — from
// oversubscribing the scheduler, exactly like the chunked scans
// themselves. Reserve only after the gather phase: the gather takes
// slots of its own, and holding them across it would starve it to
// sequential.
func statWorkers(cs *ChunkedSelection) (workers int, release func()) {
	extra, release := reserveSegSlots(cs)
	return extra + 1, release
}

// gatherIntScratch is GatherIntChunked into pooled scratch buffers:
// the shards feed one order-statistic computation and go straight
// back to the pool via release, so a warm advisor's cut-point math
// stops allocating gather targets. Callers must not retain any shard
// past release.
func gatherIntScratch(col IntValued, cs *ChunkedSelection) (chunks [][]int64, release func()) {
	src := col.Int64s()
	nc := cs.NumChunks()
	chunks = make([][]int64, nc)
	ptrs := make([]*[]int64, nc)
	forEachSeg(cs, func(c int) {
		seg := cs.Seg(c)
		if len(seg) == 0 {
			return
		}
		p := int64Scratch.Get(len(seg))
		vals := *p
		for i, row := range seg {
			vals[i] = src[row]
		}
		ptrs[c], chunks[c] = p, vals
	})
	return chunks, func() {
		for _, p := range ptrs {
			if p != nil {
				int64Scratch.Put(p)
			}
		}
	}
}

// gatherFloatKeys gathers col over cs as stats.Float64Key keys into
// pooled scratch, one shard per chunk, dropping NaN values: the order
// statistics need a totally ordered multiset and NaN has no rank.
// Dropping it here — always, in every branch — keeps the cut points
// deterministic: they depend only on the finite values, never on
// which worker count a particular call happened to get. (This mirrors
// the NaN convention of FloatMinMax.) lo and hi are the smallest and
// largest key gathered, reduced as the keys are written; both are 0
// when there is none. Callers must not retain any shard past release.
func gatherFloatKeys(col FloatValued, cs *ChunkedSelection) (chunks [][]uint64, lo, hi uint64, release func()) {
	src := col.Float64s()
	nc := cs.NumChunks()
	chunks = make([][]uint64, nc)
	ptrs := make([]*[]uint64, nc)
	los := make([]uint64, nc)
	his := make([]uint64, nc)
	forEachSeg(cs, func(c int) {
		seg := cs.Seg(c)
		los[c] = math.MaxUint64
		if len(seg) == 0 {
			return
		}
		p := uint64Scratch.Get(len(seg))
		m, klo, khi := gatherKeys(*p, src, seg)
		ptrs[c], chunks[c], los[c], his[c] = p, (*p)[:m], klo, khi
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

// IntMedianChunked returns the upper median of col over cs — the
// Definition 5 cut point. It never materializes a flat vector:
// per-chunk gather into pooled scratch, per-chunk O(n) radix sort on
// as many workers as the scan pool grants (one included), then one
// rank selection across the sorted shards. ok is false when the
// selection is empty.
func IntMedianChunked(col IntValued, cs *ChunkedSelection) (int64, bool) {
	if cs.Len() == 0 {
		return 0, false
	}
	chunks, put := gatherIntScratch(col, cs)
	defer put()
	workers, release := statWorkers(cs)
	defer release()
	return stats.MedianInt64Chunks(chunks, workers), true
}

// IntCutPointsChunked returns the same strictly increasing
// equi-depth points as IntCutPoints, computed shard-at-a-time.
func IntCutPointsChunked(col IntValued, cs *ChunkedSelection, arity int) []int64 {
	if cs.Len() == 0 {
		return nil
	}
	chunks, put := gatherIntScratch(col, cs)
	defer put()
	workers, release := statWorkers(cs)
	defer release()
	return stats.EquiDepthPointsChunks(chunks, arity, workers)
}

// FloatCutPointsChunked is IntCutPointsChunked for float columns,
// with NaN values excluded (gatherFloatKeys). The points are
// radix-selected from the gathered keys; nothing is sorted.
func FloatCutPointsChunked(col FloatValued, cs *ChunkedSelection, arity int) []float64 {
	if cs.Len() == 0 {
		return nil
	}
	keys, lo, hi, put := gatherFloatKeys(col, cs)
	defer put()
	workers, release := statWorkers(cs)
	defer release()
	return stats.EquiDepthPointsFloat64Keys(keys, lo, hi, arity, workers)
}

// StringValueCountsChunked returns the per-value frequencies of col
// over cs. Chunks are grouped into contiguous bands, one histogram
// per band, so the transient memory is worker-count × cardinality —
// not chunk-count × cardinality, which on a 10M-row table with a
// high-cardinality column would dwarf the data scanned. Counts are
// additive, so the band merge is order-independent and the result
// (ordered by dictionary code) matches StringValueCounts exactly.
func StringValueCountsChunked(col *StringColumn, cs *ChunkedSelection) []stats.ValueCount {
	codes := col.Codes()
	nc := cs.NumChunks()
	workers, release := statWorkers(cs)
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
			for _, row := range cs.Seg(c) {
				counts[codes[row]]++
			}
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

// BoolValueCountsChunked is StringValueCountsChunked for bool
// columns.
func BoolValueCountsChunked(col *BoolColumn, cs *ChunkedSelection) []stats.ValueCount {
	nc := cs.NumChunks()
	trues := make([]int, nc)
	falses := make([]int, nc)
	forEachSeg(cs, func(c int) {
		for _, row := range cs.Seg(c) {
			if col.Bool(int(row)) {
				trues[c]++
			} else {
				falses[c]++
			}
		}
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
// slice per chunk — the retainable form of the cut-point math that
// the incremental-advise cut cache keeps across advises. Unlike
// gatherIntScratch the shards are owned by the caller and must be
// treated as immutable once returned (they may be shared between an
// old and a spliced cache entry).
func IntSortedRuns(col IntValued, cs *ChunkedSelection) [][]int64 {
	runs := GatherIntChunked(col, cs)
	workers, release := statWorkers(cs)
	defer release()
	stats.SortInt64Chunks(runs, workers)
	return runs
}

// IntSortedRunsSplice refreshes cached sorted runs after a mutation:
// dirty chunks are re-gathered from the current selection and
// re-sorted, clean chunks reuse the old runs unchanged. Sound for the
// same reason selection splicing is — a selection restricted to a
// clean chunk is a pure function of that chunk's unchanged rows, so
// its sorted value multiset cannot have moved. ok is false when a
// clean chunk's cached run does not match the current selection's
// segment length (a structural mismatch; the caller must recompute in
// full).
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
		if c >= len(old) || len(old[c]) != len(cs.Seg(c)) {
			return nil, false
		}
		runs[c] = old[c]
	}
	fresh := IntSortedRuns(col, RestrictChunked(cs, dirty))
	for c := 0; c < nc; c++ {
		if dirty[c] {
			runs[c] = fresh[c]
		}
	}
	return runs, true
}

// IntRunsBounds returns the minimum and maximum over sorted runs —
// the run endpoints, no scan. ok is false when every run is empty.
func IntRunsBounds(runs [][]int64) (min, max int64, ok bool) {
	for _, r := range runs {
		if len(r) == 0 {
			continue
		}
		if !ok {
			min, max, ok = r[0], r[len(r)-1], true
			continue
		}
		if r[0] < min {
			min = r[0]
		}
		if r[len(r)-1] > max {
			max = r[len(r)-1]
		}
	}
	return min, max, ok
}

// IntCutPointsSorted is IntCutPointsChunked over already-sorted runs:
// pure rank selection, no gather and no sort. The equi-depth points
// of a multiset do not depend on its sharding or on who sorted it, so
// the result is byte-identical to the scratch-based computation.
func IntCutPointsSorted(runs [][]int64, arity int) []int64 {
	return stats.EquiDepthPointsSorted(runs, arity)
}

// StringChunkCounts returns per-chunk value frequencies of col over
// cs, indexed by dictionary code: counts[c][code]. This is the
// splice-friendly decomposition of StringValueCountsChunked — counts
// are additive over chunks, so a mutation only invalidates the dirty
// chunks' vectors. The vectors are owned by the caller and must be
// treated as immutable once returned.
func StringChunkCounts(col *StringColumn, cs *ChunkedSelection) [][]int {
	codes := col.Codes()
	card := col.Cardinality()
	nc := cs.NumChunks()
	counts := make([][]int, nc)
	forEachSeg(cs, func(c int) {
		seg := cs.Seg(c)
		if len(seg) == 0 {
			return
		}
		v := make([]int, card)
		for _, row := range seg {
			v[codes[row]]++
		}
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
func StringChunkCountsSplice(col *StringColumn, cs *ChunkedSelection, old [][]int, dirty []bool) (counts [][]int, ok bool) {
	nc := cs.NumChunks()
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
		if n != len(cs.Seg(c)) {
			return nil, false
		}
		counts[c] = old[c]
	}
	fresh := StringChunkCounts(col, RestrictChunked(cs, dirty))
	for c := 0; c < nc; c++ {
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
