// The cut-point cache: the incremental-advise counterpart of the
// selection cache for the CUT primitive's order statistics. Section
// 5.1 calls the median/quantile math the vertical-scalability
// bottleneck, and unlike selections it cannot be spliced — the k-th
// smallest of a multiset is a global property. What can be reused is
// a per-chunk summary the ranks resolve over: per-chunk VALUE COUNTS,
// for string columns by dictionary code and for a narrow int or date
// column over the window [min, max] of its extent
// (engine.IntCounts). Counts add across chunks, so a mutation
// invalidates only the dirty chunks' vectors: a warm re-advise
// recounts ~1% of the data and reads the ranks off the summed
// vectors, byte-identical to a cold computation by the
// order-statistic argument.
//
// Entries are keyed by (query, attribute, cut options) and stamped
// with the table epoch exactly like cachedSel: equal versions serve
// the cached pieces outright, comparable stamps refresh dirty chunks
// only, anything else recomputes in full. Count vectors are retained
// only where a refresh can happen: on a table that accepts mutation
// (engine.Table.Mutable), for extents of at least cutStateMinRows
// rows — and, for an int or date column, only when its span is narrow
// enough to count (below the select's 2 048 buckets) and the vectors
// take no more cells than the extent has rows. A read-only .chc
// table's stamp never moves, so its entries keep the pieces alone. A
// refresh whose dirty chunk holds an int outside the entry's window
// recomputes in full. Sampled cut points, wide int and date spans,
// float and bool columns, and the numeric-nominal fallback cache
// their pieces for version-equal reuse but always recompute when
// stale: their points are radix-selected and nothing is left to
// splice.
package seg

import (
	"strconv"

	"charles/internal/engine"
	"charles/internal/sdl"
	"charles/internal/stats"
)

// cutStateMinRows is the selection size below which count vectors
// are not retained, even on a mutable table: tiny extents recompute
// in microseconds, and the long tail of small segments would otherwise
// dominate entry count. Pieces are still cached for version-equal
// reuse.
const cutStateMinRows = 1 << 12

// cachedCut is one cut-point cache entry: the computed pieces plus
// the epoch stamp they were computed under, and — for exact cuts over
// narrow int-valued and string columns — the per-chunk counts a stale
// entry refreshes from. Count vectors are immutable once stored: a
// splice shares the clean chunks' vectors between the old and new
// entry.
type cachedCut struct {
	pieces []sdl.Constraint
	stamp  *engine.EpochStamp
	// intCounts holds per-chunk value counts (IntColumn, DateColumn).
	intCounts *engine.IntCounts
	// strCounts holds per-chunk value frequencies by dictionary code.
	strCounts [][]int
}

// cutKey names a cut computation: the query's canonical key, the cut
// attribute, and the (normalized) options that parameterize the
// points. \x00 cannot occur in canonical query strings or column
// names, so the key is unambiguous.
func cutKey(q sdl.Query, attr string, opt CutOptions) string {
	return q.Key() + "\x00" + attr + "\x00" +
		strconv.Itoa(opt.Arity) + "," + strconv.Itoa(opt.NominalOrderThreshold) + "," + strconv.Itoa(opt.SampleSize)
}

func (e *Evaluator) cachedCutEntry(key string) (cachedCut, bool) {
	e.cutMu.RLock()
	ent, ok := e.cuts[key]
	e.cutMu.RUnlock()
	return ent, ok
}

// storeCut records a cut entry: concurrent computations of the same
// key produce identical pieces, so last write wins.
func (e *Evaluator) storeCut(key string, ent cachedCut) {
	e.cutMu.Lock()
	boundedPut(e.cuts, key, ent, int(e.limit.Load()))
	e.cutMu.Unlock()
}

// cutPieces computes (or reuses) the piece constraints CUT splits q
// into along attr — the single entry point CutQuery dispatches
// through, so cached and uncached runs produce identical pieces by
// construction. ext is q's extent (Evaluator.extent), read chunk by
// chunk in the form each is held in — a words chunk by set-bit
// iteration — and only when the pieces are not served from a
// version-equal cache entry. With opt.SampleSize set, the points are
// estimated from a systematic sample of the rows (Section 5.2), the
// one cut that builds row ids from words; sampled points are cached
// but never refreshed incrementally.
func (e *Evaluator) cutPieces(q sdl.Query, attr string, col engine.Column, ext cachedSel, opt CutOptions) ([]sdl.Constraint, error) {
	caching := e.caching.Load()
	var key string
	var cur *engine.EpochStamp
	var stale *cachedCut
	if caching {
		key, cur = cutKey(q, attr, opt), e.tab.Stamp()
		if ent, ok := e.cachedCutEntry(key); ok {
			if ent.stamp.Version() == cur.Version() {
				e.countCutCacheHit()
				return ent.pieces, nil
			}
			stale = &ent
		}
	}
	src := ext.sel
	// Sampled cut points draw a systematic sample from the flat view;
	// exact ones run shard-at-a-time on the extent and never flatten
	// it. (Nominal cuts always see the full extent regardless: a
	// sampled dictionary could miss rare values, and rows holding them
	// would fall outside every piece, breaking Definition 3. Counting
	// is a single O(n) pass, so there is nothing to save anyway —
	// sampling targets the numeric medians and quantiles.)
	var pointSel engine.Selection
	if opt.SampleSize > 0 && src.Len() > opt.SampleSize {
		pointSel = stats.StridedInt32(e.flat(src), opt.SampleSize)
	}
	if !caching {
		pieces, _, err := e.computeCut(attr, col, src, pointSel, opt, false)
		if err == nil && len(pieces) >= 2 {
			e.countCutPointCalc()
		}
		return pieces, err
	}
	if stale != nil {
		if pieces, ok := e.refreshCut(key, *stale, attr, col, src, pointSel, opt, cur); ok {
			return pieces, nil
		}
	}
	retain := e.tab.Mutable() && src.Len() >= cutStateMinRows
	pieces, state, err := e.computeCut(attr, col, src, pointSel, opt, retain)
	if err != nil {
		return nil, err
	}
	if len(pieces) >= 2 {
		e.countCutPointCalc()
	}
	e.storeCut(key, cachedCut{pieces: pieces, stamp: cur, intCounts: state.intCounts, strCounts: state.strCounts})
	return pieces, nil
}

// cutState carries the refreshable per-chunk state a computation
// chose to retain.
type cutState struct {
	intCounts *engine.IntCounts
	strCounts [][]int
}

// computeCut runs the full cut-point computation for one column kind.
// With retain set, the exact string path and a narrow exact int path
// count per chunk so the entry can be refreshed chunk-at-a-time
// later; the results are pinned byte-identical to the uncached forms.
// Everything else — sampled points, wide int spans, floats, bools,
// the degenerate fallback — takes exactly the code path the uncached
// evaluator takes.
func (e *Evaluator) computeCut(attr string, col engine.Column, src *engine.ChunkedSelection, pointSel engine.Selection, opt CutOptions, retain bool) ([]sdl.Constraint, cutState, error) {
	var state cutState
	var pieces []sdl.Constraint
	var err error
	switch col := col.(type) {
	case *engine.StringColumn:
		if retain && pointSel == nil {
			state.strCounts = engine.StringChunkCounts(col, src)
			pieces, err = nominalPieces(attr, engine.StringCountsFromChunks(col, state.strCounts), stringSetValue, opt)
		} else {
			pieces, err = nominalPieces(attr, engine.StringValueCountsChunked(col, src), stringSetValue, opt)
		}
	case *engine.BoolColumn:
		pieces, err = nominalPieces(attr, engine.BoolValueCountsChunked(col, src), boolSetValue, opt)
	case *engine.FloatColumn:
		pieces = floatPieces(attr, col, src, pointSel, opt)
		if len(pieces) < 2 {
			pieces = numericNominalFallback(attr, col, src, opt)
		}
	case engine.IntValued:
		pieces, state.intCounts = intPieces(attr, col, src, pointSel, opt, retain)
		if len(pieces) < 2 {
			pieces = numericNominalFallback(attr, col, src, opt)
		}
	default:
		return nil, state, errCutKind(attr, col)
	}
	return pieces, state, err
}

// refreshCut brings a stale cut entry up to stamp cur by splicing:
// dirty chunks are recounted from the query's current selection,
// clean chunks reuse the cached count vectors. Sound for the same
// reason selection splicing is — a selection restricted to a clean
// chunk, and hence its value multiset, is a pure function of that
// chunk's unchanged rows. Entries with no retained state, structural
// mismatches, int values outside the entry's window, and sampled
// points all return false and recompute in full.
func (e *Evaluator) refreshCut(key string, ent cachedCut, attr string, col engine.Column, src *engine.ChunkedSelection, pointSel engine.Selection, opt CutOptions, cur *engine.EpochStamp) ([]sdl.Constraint, bool) {
	if pointSel != nil {
		return nil, false
	}
	if src.NumRows() != cur.NumRows() || src.ChunkRows() != cur.ChunkRows() {
		return nil, false
	}
	dirty, ok := cur.DirtyVs(ent.stamp)
	if !ok {
		return nil, false
	}
	var pieces []sdl.Constraint
	var state cutState
	switch col := col.(type) {
	case *engine.StringColumn:
		if ent.strCounts == nil {
			return nil, false
		}
		counts, ok := engine.StringChunkCountsSplice(col, src, ent.strCounts, dirty)
		if !ok {
			return nil, false
		}
		var err error
		pieces, err = nominalPieces(attr, engine.StringCountsFromChunks(col, counts), stringSetValue, opt)
		if err != nil {
			return nil, false
		}
		state.strCounts = counts
	case engine.IntValued:
		if ent.intCounts == nil {
			return nil, false
		}
		cut, counts, ok := engine.IntCutSplice(col, src, ent.intCounts, dirty, opt.Arity)
		if !ok {
			return nil, false
		}
		pieces = intCutPieces(attr, col, cut)
		if len(pieces) < 2 {
			pieces = numericNominalFallback(attr, col, src, opt)
		}
		state.intCounts = counts
	default:
		return nil, false
	}
	e.countCutRefresh()
	if len(pieces) >= 2 {
		e.countCutPointCalc()
	}
	e.storeCut(key, cachedCut{pieces: pieces, stamp: cur, intCounts: state.intCounts, strCounts: state.strCounts})
	return pieces, true
}
