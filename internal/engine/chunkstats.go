package engine

import (
	"math"
	"math/bits"
	"sync/atomic"

	"charles/internal/par"
	"charles/internal/stats"
)

// The gathers and counts read each chunk of a selection word by word
// and never decode words into row ids — a full word as a run of 64
// rows, any other by set-bit iteration — straight into the key buffer
// or the counter. (Reading a half-full word as a masked run of 64
// rows, every key stored and the cursor advanced past selected rows
// only, measured slower than its set-bit iteration at every density
// below full.)

// GatherIntChunked materializes col's ordinals per chunk: one output
// slice per chunk, aligned with cs's chunks, gathered across the scan
// worker pool. There is no global copy — downstream chunked order
// statistics consume the shards directly.
func GatherIntChunked(col Numeric, cs *ChunkedSelection) [][]int64 {
	src := col.Int64s()
	out := make([][]int64, cs.NumChunks())
	forEachSeg(cs, func(c int) {
		ct := &cs.chunks[c]
		if ct.n == 0 {
			return
		}
		vals := make([]int64, ct.n)
		m, at := 0, cs.chunkRows*c
		for wi, w := range ct.words {
			if w == ^uint64(0) {
				m += copy(vals[m:], src[at+wi<<6:at+wi<<6+64])
				continue
			}
			for ; w != 0; w &= w - 1 {
				vals[m] = src[at+wi<<6+bits.TrailingZeros64(w)]
				m++
			}
		}
		out[c] = vals
	})
	return out
}

// GatherFloatChunked is GatherIntChunked decoded to floats. Kept for
// bench/layers until ROADMAP item 4.
func GatherFloatChunked(col FloatValued, cs *ChunkedSelection) [][]float64 {
	out := make([][]float64, cs.NumChunks())
	for c, ords := range GatherIntChunked(col, cs) {
		out[c] = floats(ords)
	}
	return out
}

// floats decodes float ordinals, nil to nil.
func floats(ords []int64) []float64 {
	if ords == nil {
		return nil
	}
	out := make([]float64, len(ords))
	for i, o := range ords {
		out[i] = ordinalFloat(o)
	}
	return out
}

// EachRow hands fn every row cs selects, ascending, chunk by chunk on
// the calling goroutine, reading each chunk's words (never decoded
// into row ids): one call per row, for loops that do more per row than
// the call costs.
func EachRow(cs *ChunkedSelection, fn func(row int)) {
	for c := range cs.chunks {
		eachRow(cs, c, fn)
	}
}

// eachRow is EachRow over chunk c.
func eachRow(cs *ChunkedSelection, c int, fn func(row int)) {
	for wi, w := range cs.chunks[c].words {
		at := cs.chunkRows*c + wi<<6
		for ; w != 0; w &= w - 1 {
			fn(at + bits.TrailingZeros64(w))
		}
	}
}

// IntMinMaxChunked returns the minimum and maximum ordinal of col over
// src, reduced as its keys are gathered, NaN left out: an all-NaN
// selection yields nanOrdinal for both. ok is false when the selection
// is empty.
func IntMinMaxChunked(col Numeric, src *ChunkedSelection) (lo, hi int64, ok bool) {
	if src.Len() == 0 {
		return 0, 0, false
	}
	_, klo, khi, put := gatherIntKeys(col, src)
	put()
	if klo > khi {
		return nanOrdinal, nanOrdinal, true
	}
	return stats.Int64FromKey(klo), stats.Int64FromKey(khi), true
}

// statWorkers reserves scan-pool slots for a chunked order-statistic
// computation (the radix select and sort, or the banded string counts),
// returning the worker count to hand to internal/stats and the paired
// release. With no slot free the count is 1 and the same path runs on
// the calling goroutine. Routing the work through the same slot budget
// (reserveChunkSlots) as the scans
// keeps nested parallelism — many advise workers each computing cut
// points — from oversubscribing the scheduler, exactly like the
// chunked scans themselves. Reserve only after the gather phase: the
// gather takes slots of its own, and holding them across it would
// starve it to sequential.
func statWorkers(src *ChunkedSelection) (workers int, release func()) {
	extra, release := reserveChunkSlots(src.NumChunks(), src.Len())
	return extra + 1, release
}

// gatherIntKeys gathers col over src as stats.Int64Key keys of its
// ordinals into pooled scratch, one shard per chunk. A float column's
// NaN rows are dropped: the order statistics need a totally ordered
// multiset and NaN has no rank. Dropping them here — always, in every
// branch — keeps the cut points deterministic: they depend only on the
// numbers, never on which worker count a particular call happened to
// get. NaN's key is 0, below every number's, so a shard holds one
// exactly when its smallest key is 0; only such a shard pays a second
// pass (dropNaN). lo and hi are the smallest and largest key kept,
// reduced as the keys are written: MaxUint64 and 0 when none is — an
// empty selection, or a float one holding only NaN. Callers must not
// retain any shard past release.
func gatherIntKeys(col Numeric, src *ChunkedSelection) (chunks [][]uint64, lo, hi uint64, release func()) {
	vals, nan := col.Int64s(), col.Kind() == KindFloat
	return gatherKeyShards(src, func(ks []uint64, c int) (int, uint64, uint64) {
		ct, base := &src.chunks[c], src.chunkRows*c
		m, lo, hi := 0, uint64(math.MaxUint64), uint64(0)
		for wi, w := range ct.words {
			at := base + wi<<6
			if w == ^uint64(0) {
				for _, v := range vals[at : at+64 : at+64] {
					m, lo, hi = putIntKey(ks, m, v, lo, hi)
				}
				continue
			}
			for ; w != 0; w &= w - 1 {
				m, lo, hi = putIntKey(ks, m, vals[at+bits.TrailingZeros64(w)], lo, hi)
			}
		}
		if nan && lo == 0 {
			m, lo = dropNaN(ks[:m])
		}
		return m, lo, hi
	})
}

// putIntKey stores v's stats.Int64Key at ks[m] and folds it into the
// bounds lo and hi.
func putIntKey(ks []uint64, m int, v int64, lo, hi uint64) (int, uint64, uint64) {
	k := stats.Int64Key(v)
	ks[m] = k
	return m + 1, min(lo, k), max(hi, k)
}

// dropNaN moves the keys of ks other than NaN's key 0 to its front, in
// order, and returns how many there are and the smallest of them
// (MaxUint64 when there is none).
func dropNaN(ks []uint64) (m int, lo uint64) {
	lo = math.MaxUint64
	for _, k := range ks {
		if k != 0 {
			ks[m] = k
			m++
			lo = min(lo, k)
		}
	}
	return m, lo
}

// gatherKeyShards runs gather on every non-empty chunk c of src, each
// into a pooled shard of the chunk's row count, keeping the keys it
// reports writing; the per-shard bounds it reports are folded into lo
// (the smallest) and hi (the largest). Empty chunks fold (MaxUint64,
// 0). Callers must not retain any shard past release.
func gatherKeyShards(src *ChunkedSelection, gather func(ks []uint64, c int) (int, uint64, uint64)) (chunks [][]uint64, lo, hi uint64, release func()) {
	nc := src.NumChunks()
	chunks = make([][]uint64, nc)
	ptrs := make([]*[]uint64, nc)
	los := make([]uint64, nc)
	his := make([]uint64, nc)
	forEachSeg(src, func(c int) {
		los[c] = math.MaxUint64
		ct := &src.chunks[c]
		if ct.n == 0 {
			return
		}
		p := uint64Scratch.Get(ct.n)
		m, klo, khi := gather(*p, c)
		ptrs[c], chunks[c], los[c], his[c] = p, (*p)[:m], klo, khi
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

// NumCut is one exact numeric cut-point computation over a selection,
// in ordinals: the extent's bounds and its equi-depth points, strictly
// increasing and none equal to Min, both over its numbers, and whether
// it holds a NaN row, which no range holds. An empty extent has no
// points.
type NumCut struct {
	Min, Max int64
	Points   []int64
	NaN      bool
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

// IntCutPointsChunked returns up to arity−1 strictly increasing
// equi-depth cut points of col over src (Section 5.2's quantile
// generalization; arity 2 is the paper's median cut): IntCutChunked's
// points without a zone map.
func IntCutPointsChunked(col Numeric, src *ChunkedSelection, arity int) []int64 {
	cut, _ := IntCutChunked(col, src, nil, arity, false)
	return cut.Points
}

// IntCutChunked computes col's exact cut over src. sum is col's zone
// map (nil without one). When the union of the zone map's bounds over
// the chunks src selects rows in spans no more cells than the select
// has buckets (stats.CountCells), the chunks' selected rows are counted
// into that window (countCut) — from the zone map's stored value counts
// for a chunk src selects whole, straight from the column otherwise —
// no key is gathered and nothing is selected, and the bounds and points
// are read off the summed counts. Otherwise, or when
// a value falls outside the window (a zone map that does not describe
// src's chunks), keys are gathered per chunk into pooled scratch, the
// bounds reduced as they are written, and the points radix-selected
// from the keys: only the keys of the rank codes holding the wanted
// ranks (and the extremes', unless the zone map bounds the extent) when
// sum carries rank codes (rankKeys: every summary of a numeric column)
// and those codes hold at most rankShareMax of the extent, every key
// otherwise. With retain set, an extent whose exact span is narrow
// enough to count comes back with its per-chunk counts over that span,
// for the cut cache to splice, when they take no more cells than src
// has rows (countsFit); otherwise counts is nil.
func IntCutChunked(col Numeric, src *ChunkedSelection, sum *ChunkSummary, arity int, retain bool) (cut NumCut, counts *IntCounts) {
	if src.Len() == 0 {
		return cut, nil
	}
	if lo, cells, ok := zoneWindow(sum, src); ok {
		if cut, counts, ok := countCut(col, src, sum, lo, cells, arity, retain); ok {
			return cut, counts
		}
	}
	keys, lo, hi, ranks, nan, put, ranked := rankKeys(col, src, sum, arity)
	if !ranked {
		keys, lo, hi, put = gatherIntKeys(col, src)
		n := 0
		for _, ks := range keys {
			n += len(ks)
		}
		nan = n < src.Len()
	}
	defer put()
	if lo > hi {
		// Only NaN: no number to bound or rank.
		return NumCut{Min: nanOrdinal, Max: nanOrdinal, NaN: true}, nil
	}
	if cells, ok := stats.CountCells(lo, hi); ok && retain && !nan && countsFit(src, cells) {
		// Counted over the extent's exact bounds, no value is outside.
		if cut, counts, ok := countCut(col, src, sum, stats.Int64FromKey(lo), cells, arity, true); ok {
			return cut, counts
		}
	}
	workers, release := statWorkers(src)
	defer release()
	cut = NumCut{Min: stats.Int64FromKey(lo), Max: stats.Int64FromKey(hi), NaN: nan}
	switch {
	case !ranked:
		cut.Points = stats.EquiDepthPointsInt64Keys(keys, lo, hi, arity, workers)
	case ranks != nil:
		cut.Points = stats.PointsAtRanks(keys, lo, hi, ranks, workers)
	}
	return cut, nil
}

// zoneWindow returns the union of sum's bounds over the chunks src
// selects rows in as a count window [lo, lo+cells), and whether it is
// narrow enough to count: never without a zone map, or with one of
// another chunk count than src's. The bounds leave NaN out, so a NaN
// row stops the count and the cut gathers, which drops it. Chunks all
// NaN, whose bounds are NaN's, are not counted either: their cut, like
// the gather's, has no number, and no counts to retain.
func zoneWindow(sum *ChunkSummary, src *ChunkedSelection) (lo int64, cells int, ok bool) {
	if sum == nil || len(sum.intMin) != src.NumChunks() {
		return 0, 0, false
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for c, ct := range src.chunks {
		if ct.n > 0 {
			lo, hi = min(lo, sum.intMin[c]), max(hi, sum.intMax[c])
		}
	}
	if lo > hi || sum.nan != nil && hi == nanOrdinal {
		return 0, 0, false
	}
	cells, ok = stats.CountCells(stats.Int64Key(lo), stats.Int64Key(hi))
	return lo, cells, ok
}

// countCut counts col over src into the window [lo, lo+cells) and
// reads the cut off the summed counts. The chunks are counted in bands
// (ForEachTask), each into its own vector of one pooled buffer: one
// band per worker the scan may get (taskWorkers), or with retain one
// per chunk, whose vectors come back trimmed to the counted [Min, Max]
// when they fit (countsFit). Each chunk is counted
// by countChunk, from sum's stored value counts where they describe
// src (countsDescribe) and serve the chunk. ok is false when a value
// lies outside the window.
func countCut(col Numeric, src *ChunkedSelection, sum *ChunkSummary, lo int64, cells, arity int, retain bool) (cut NumCut, counts *IntCounts, ok bool) {
	vals := col.Int64s()
	nc := src.NumChunks()
	if !sum.countsDescribe(src) {
		sum = nil
	}
	bandSize := 1
	if workers := taskWorkers(nc, src.Len()); !retain {
		bandSize = (nc + workers - 1) / workers
	}
	numBands := (nc + bandSize - 1) / bandSize
	// The band vectors are cut from one buffer of the key gathers'
	// scratch, which those keep stocked with chunk-sized buffers.
	bp := uint64Scratch.Get((numBands + 1) * cells)
	defer uint64Scratch.Put(bp)
	buf := *bp
	clear(buf)
	var outside atomic.Bool
	ForEachTask(numBands, src.Len(), func(b int) {
		v := buf[b*cells : (b+1)*cells]
		for c := b * bandSize; c < min((b+1)*bandSize, nc) && !outside.Load(); c++ {
			if !countChunk(v, vals, lo, src, c, sum) {
				outside.Store(true)
			}
		}
	})
	if outside.Load() {
		return cut, nil, false
	}
	total := buf[numBands*cells:]
	for b := range numBands {
		for i, k := range buf[b*cells : (b+1)*cells] {
			total[i] += k
		}
	}
	first, last := countedSpan(total)
	cut = NumCut{
		Min:    lo + int64(first),
		Max:    lo + int64(last),
		Points: stats.EquiDepthPointsCounts(total[first:last+1], lo+int64(first), arity),
	}
	if exact := last - first + 1; retain && countsFit(src, exact) {
		counts = &IntCounts{Lo: cut.Min, Cells: exact, Chunks: make([][]int, nc)}
		for c := range nc {
			if src.chunkCount(c) > 0 {
				v := make([]int, exact)
				for i, k := range buf[c*cells+first : c*cells+last+1] {
					v[i] = int(k)
				}
				counts.Chunks[c] = v
			}
		}
	}
	return cut, counts, true
}

// countsDescribe reports whether s's per-chunk value counts describe
// src's chunks: s summarizes as many rows at the same chunk width,
// which fixes every chunk's rows. A nil s describes nothing.
func (s *ChunkSummary) countsDescribe(src *ChunkedSelection) bool {
	return s != nil && len(s.vcounts) == src.NumChunks() && s.chunkRows == src.chunkRows && s.stamp != nil && s.stamp.NumRows() == src.NumRows()
}

// countChunk adds chunk c of src to counts, the window from lo, and
// reports false, having stopped, at a value outside it. sum, when not
// nil, holds the chunk's stored value counts over [intMin[c],
// intMax[c]] (nil for a chunk too wide). A chunk src selects whole adds
// them. Any other chunk, and one whose stored counts do not lie inside
// the window, is counted row by row (countInts): the sums are the same.
func countChunk[C int | uint64](counts []C, vals []int64, lo int64, src *ChunkedSelection, c int, sum *ChunkSummary) bool {
	ct := &src.chunks[c]
	if sum != nil && sum.vcounts[c] != nil && ct.n == src.chunkLen(c) && sum.intMin[c] >= lo {
		vc := sum.vcounts[c]
		if d := uint64(sum.intMin[c] - lo); d < uint64(len(counts)) && uint64(len(vc)) <= uint64(len(counts))-d {
			win := counts[d : d+uint64(len(vc))]
			for i, k := range vc {
				win[i] += C(k)
			}
			return true
		}
	}
	return countInts(counts, vals, lo, ct, src.chunkRows*c)
}

// countInts adds one to counts[v−lo] for the value v of every row ct
// selects (its first table row base), and reports false, having
// stopped, at a value outside [lo, lo+len(counts)).
func countInts[C int | uint64](counts []C, vals []int64, lo int64, ct *container, base int) bool {
	for wi, w := range ct.words {
		at := base + wi<<6
		if w == ^uint64(0) {
			for _, v := range vals[at : at+64 : at+64] {
				if !countInt(counts, v-lo) {
					return false
				}
			}
			continue
		}
		for ; w != 0; w &= w - 1 {
			if !countInt(counts, vals[at+bits.TrailingZeros64(w)]-lo) {
				return false
			}
		}
	}
	return true
}

// countInt adds one to counts[d], or reports false when d is outside
// counts. d is a value less the window's lo: wrapped around when the
// value is below it, so one unsigned compare checks both ends.
func countInt[C int | uint64](counts []C, d int64) bool {
	if uint64(d) >= uint64(len(counts)) {
		return false
	}
	counts[d]++
	return true
}

// countedSpan returns the first and last cell of counts holding a
// count, (-1, -1) when none does.
func countedSpan[C int | uint64](counts []C) (first, last int) {
	first, last = -1, -1
	for i, k := range counts {
		if k > 0 {
			last = i
			if first < 0 {
				first = i
			}
		}
	}
	return first, last
}

// IntCutSplice brings retained counts up to date after a mutation and
// reads the cut off them: dirty chunks are recounted from the current
// selection straight from the column into the old window, clean chunks
// keep their vectors. Sound for the same reason selection splicing is
// — a selection restricted to a clean chunk, and hence its value
// multiset, is a pure function of that chunk's unchanged rows. counts
// is nil when the spliced vectors no longer fit the extent
// (countsFit); the cut is exact either way. ok is false, and the
// caller must recompute in full, on a structural mismatch or when a
// dirty chunk holds a value outside the window.
func IntCutSplice(col Numeric, src *ChunkedSelection, old *IntCounts, dirty []bool, arity int) (cut NumCut, counts *IntCounts, ok bool) {
	chunks, ok := spliceCounts(src, old.Chunks, dirty)
	if !ok {
		return cut, nil, false
	}
	vals := col.Int64s()
	for c, d := range dirty {
		if d && src.chunkCount(c) > 0 {
			chunks[c] = make([]int, old.Cells)
			if !countInts(chunks[c], vals, old.Lo, &src.chunks[c], src.chunkRows*c) {
				return cut, nil, false
			}
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
func (ic *IntCounts) cut(arity int) NumCut {
	total := make([]int, ic.Cells)
	for _, v := range ic.Chunks {
		for i, k := range v {
			total[i] += k
		}
	}
	first, last := countedSpan(total)
	if first < 0 {
		return NumCut{}
	}
	return NumCut{
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

// FloatCutPointsChunked is IntCutPointsChunked decoded to floats. Kept
// for bench/layers until ROADMAP item 4.
func FloatCutPointsChunked(col FloatValued, src *ChunkedSelection, arity int) []float64 {
	return floats(IntCutPointsChunked(col, src, arity))
}

// StringValueCountsChunked is StringValueCounts without a zone map.
func StringValueCountsChunked(col *StringColumn, src *ChunkedSelection) []stats.ValueCount {
	return StringValueCounts(col, src, nil)
}

// StringValueCounts returns the per-value frequencies of col over src,
// sum being col's zone map (nil without one). Chunks are grouped into
// contiguous bands, one histogram per band, so the transient memory is
// worker-count × cardinality — not chunk-count × cardinality, which on
// a 10M-row table with a high-cardinality column would dwarf the data
// scanned. Each chunk is counted by countChunkCodes. Counts are
// additive, so the band merge is order-independent and the result is
// ordered by dictionary code whatever the band layout. The seg layer orders the counts by
// frequency or alphabetically per the paper's nominal-median rule.
func StringValueCounts(col *StringColumn, src *ChunkedSelection, sum *ChunkSummary) []stats.ValueCount {
	planes := sumPlanes(sum, col)
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
			countChunkCodes(counts, col, planes, src, c)
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

// countChunkCodes adds one to counts[code] for the dictionary code of
// every row chunk c of src selects: per code by popcount (countPlanes)
// where planes, col's code planes or nil, hold the chunk, per row
// otherwise (countCodes).
func countChunkCodes(counts []int, col *StringColumn, planes *bitPlanes, src *ChunkedSelection, c int) {
	ct := &src.chunks[c]
	if pl := planes.chunk(c, len(ct.words)); pl != nil {
		countPlanes(counts, pl, planes.p, ct.words)
	} else {
		countCodes(counts, col.Codes(), ct, src.chunkRows*c)
	}
}

// countCodes adds one to counts[code] for the code of every row ct
// selects, its first table row base.
func countCodes(counts []int, codes []uint32, ct *container, base int) {
	for wi, w := range ct.words {
		at := base + wi<<6
		if w == ^uint64(0) {
			for _, code := range codes[at : at+64 : at+64] {
				counts[code]++
			}
			continue
		}
		for ; w != 0; w &= w - 1 {
			counts[codes[at+bits.TrailingZeros64(w)]]++
		}
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
		eachRow(src, c, func(row int) { trues[c] += b2i(vals[row]) })
		falses[c] = src.chunkCount(c) - trues[c]
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
// src, indexed by dictionary code: counts[c][code], each chunk counted
// as StringValueCounts counts it, sum being col's zone map (nil
// without one). This is the splice-friendly decomposition of
// StringValueCounts — counts are additive over chunks, so a mutation
// only invalidates the dirty chunks' vectors. The vectors are owned by
// the caller and must be treated as immutable once returned.
func StringChunkCounts(col *StringColumn, src *ChunkedSelection, sum *ChunkSummary) [][]int {
	planes := sumPlanes(sum, col)
	card := col.Cardinality()
	nc := src.NumChunks()
	counts := make([][]int, nc)
	forEachSeg(src, func(c int) {
		if src.chunkCount(c) == 0 {
			return
		}
		v := make([]int, card)
		countChunkCodes(v, col, planes, src, c)
		counts[c] = v
	})
	return counts
}

// StringChunkCountsSplice refreshes cached per-chunk counts after a
// mutation: dirty chunks are recounted (at the current, possibly
// grown cardinality), clean chunks keep their vectors. A clean
// chunk's vector may be shorter than the current cardinality — codes
// minted after it was counted cannot occur in an unchanged chunk, so
// the missing tail is implicitly zero. sum is col's current zone map
// (nil without one). ok is false on a structural mismatch.
func StringChunkCountsSplice(col *StringColumn, src *ChunkedSelection, sum *ChunkSummary, old [][]int, dirty []bool) (counts [][]int, ok bool) {
	counts, ok = spliceCounts(src, old, dirty)
	if !ok {
		return nil, false
	}
	fresh := StringChunkCounts(col, Restrict(src, dirty), sum)
	for c := range counts {
		if dirty[c] {
			counts[c] = fresh[c]
		}
	}
	return counts, true
}

// StringCountsFromChunks reduces per-chunk count vectors to the exact
// []ValueCount StringValueCounts returns: summed per code, in
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
