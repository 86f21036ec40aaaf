// The cut-point cache: the incremental-advise counterpart of the
// selection cache for the CUT primitive's order statistics. Section
// 5.1 calls the median/quantile math the vertical-scalability
// bottleneck, and unlike selections it cannot be spliced — the k-th
// smallest of a multiset is a global property. What can be reused is
// the per-chunk SORTED RUNS the int rank selection works over (each
// chunk radix-sorted on its own, stats/chunked.go): a mutation
// invalidates only the dirty chunks' runs, so a warm re-advise
// re-sorts ~1% of the data and resolves the ranks over the spliced
// runs, byte-identical to a cold computation by the order-statistic
// argument. Nominal cuts cache per-chunk count vectors the same way;
// counts are additive over chunks.
//
// Entries are keyed by (query, attribute, cut options) and stamped
// with the table epoch exactly like cachedSel: equal versions serve
// the cached pieces outright, comparable stamps refresh dirty chunks
// only, anything else recomputes in full. Refreshable state (runs,
// count vectors) is retained only where a refresh can happen: on a
// table that accepts mutation (engine.Table.Mutable), for extents of
// at least cutStateMinRows rows. A read-only .chc table's stamp never
// moves, so its entries keep the pieces alone. Sampled cut points,
// float and bool columns, and the numeric-nominal fallback cache
// their pieces for version-equal reuse but always recompute when
// stale. Float points are radix-selected, never sorted, so no float
// run exists to retain; if a workload ever mutated float columns, a
// float splice would retain per-chunk key histograms (additive over
// chunks, like the count vectors), not runs.
package seg

import (
	"strconv"

	"charles/internal/engine"
	"charles/internal/sdl"
)

// cutStateMinRows is the selection size below which refreshable state
// (sorted runs, count vectors) is not retained, even on a mutable
// table: tiny extents re-sort in microseconds, and the long tail of
// small segments would otherwise dominate entry count. Pieces are
// still cached for version-equal reuse.
const cutStateMinRows = 1 << 12

// cachedCut is one cut-point cache entry: the computed pieces plus
// the epoch stamp they were computed under, and — for exact cuts over
// int-valued and string columns — the per-chunk state a stale entry
// refreshes from. Runs and count vectors are immutable once stored:
// a splice shares the clean chunks' slices between the old and new
// entry.
type cachedCut struct {
	pieces []sdl.Constraint
	stamp  *engine.EpochStamp
	// intRuns holds per-chunk sorted values (IntColumn, DateColumn).
	intRuns [][]int64
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

// storeCut records a cut entry under the same bounded
// random-replacement policy as the selection stores: concurrent
// computations of the same key produce identical pieces, so last
// write wins.
func (e *Evaluator) storeCut(key string, ent cachedCut) {
	limit := int(e.limit.Load())
	e.cutMu.Lock()
	if limit > 0 && len(e.cuts) >= limit {
		if _, exists := e.cuts[key]; !exists {
			//lint:deterministic random-replacement eviction is deliberately arbitrary: cache contents affect reuse, never results
			for k := range e.cuts {
				delete(e.cuts, k)
				break
			}
		}
	}
	e.cuts[key] = ent
	e.cutMu.Unlock()
}

// cutPieces computes (or reuses) the piece constraints CUT splits q
// into along attr — the single entry point CutQuery dispatches
// through, so cached and uncached runs produce identical pieces by
// construction. pointSel, when non-nil, is the systematic sample the
// points are estimated from (Section 5.2); sampled points are cached
// but never refreshed incrementally.
func (e *Evaluator) cutPieces(q sdl.Query, attr string, col engine.Column, cs *engine.ChunkedSelection, pointSel engine.Selection, opt CutOptions) ([]sdl.Constraint, error) {
	if !e.caching.Load() {
		pieces, _, err := e.computeCut(attr, col, cs, pointSel, opt, false)
		if err == nil && len(pieces) >= 2 {
			e.countCutPointCalc()
		}
		return pieces, err
	}
	key := cutKey(q, attr, opt)
	cur := e.tab.Stamp()
	if ent, ok := e.cachedCutEntry(key); ok {
		if ent.stamp.Version() == cur.Version() {
			e.countCutCacheHit()
			return ent.pieces, nil
		}
		if pieces, ok := e.refreshCut(key, ent, attr, col, cs, pointSel, opt, cur); ok {
			return pieces, nil
		}
	}
	retain := e.tab.Mutable() && cs.Len() >= cutStateMinRows
	pieces, state, err := e.computeCut(attr, col, cs, pointSel, opt, retain)
	if err != nil {
		return nil, err
	}
	if len(pieces) >= 2 {
		e.countCutPointCalc()
	}
	e.storeCut(key, cachedCut{pieces: pieces, stamp: cur, intRuns: state.intRuns, strCounts: state.strCounts})
	return pieces, nil
}

// cutState carries the refreshable per-chunk state a computation
// chose to retain.
type cutState struct {
	intRuns   [][]int64
	strCounts [][]int
}

// computeCut runs the full cut-point computation for one column kind.
// With retain set, the exact int and string paths go through the
// retainable per-chunk forms (sorted runs, count vectors) so the
// entry can be refreshed chunk-at-a-time later; the results are
// pinned byte-identical to the scratch-based forms. Everything else —
// sampled points, floats, bools, the degenerate fallback — takes
// exactly the code path the uncached evaluator takes.
func (e *Evaluator) computeCut(attr string, col engine.Column, cs *engine.ChunkedSelection, pointSel engine.Selection, opt CutOptions, retain bool) ([]sdl.Constraint, cutState, error) {
	var state cutState
	var pieces []sdl.Constraint
	var err error
	switch col := col.(type) {
	case *engine.StringColumn:
		if retain && pointSel == nil {
			state.strCounts = engine.StringChunkCounts(col, cs)
			pieces, err = nominalPieces(attr, engine.StringCountsFromChunks(col, state.strCounts), stringSetValue, opt)
		} else {
			pieces, err = nominalPieces(attr, engine.StringValueCountsChunked(col, cs), stringSetValue, opt)
		}
	case *engine.BoolColumn:
		pieces, err = nominalPieces(attr, engine.BoolValueCountsChunked(col, cs), boolSetValue, opt)
	case *engine.FloatColumn:
		pieces, err = floatPieces(attr, col, cs, pointSel, opt)
		if err == nil && len(pieces) < 2 {
			pieces = numericNominalFallback(attr, col, cs, opt)
		}
	case engine.IntValued:
		if retain && pointSel == nil {
			state.intRuns = engine.IntSortedRuns(col, cs)
			pieces = intPiecesFromRuns(attr, col, state.intRuns, opt)
		} else {
			pieces, err = intPieces(attr, col, cs, pointSel, opt)
		}
		if err == nil && len(pieces) < 2 {
			pieces = numericNominalFallback(attr, col, cs, opt)
		}
	default:
		return nil, state, errCutKind(attr, col)
	}
	return pieces, state, err
}

// refreshCut brings a stale cut entry up to stamp cur by splicing:
// dirty chunks are re-gathered and re-sorted (or recounted) from the
// query's current selection, clean chunks reuse the cached runs.
// Sound for the same reason selection splicing is — a selection
// restricted to a clean chunk, and hence its value multiset, is a
// pure function of that chunk's unchanged rows. Entries with no
// retained state, structural mismatches, and sampled points all
// return false and recompute in full.
func (e *Evaluator) refreshCut(key string, ent cachedCut, attr string, col engine.Column, cs *engine.ChunkedSelection, pointSel engine.Selection, opt CutOptions, cur *engine.EpochStamp) ([]sdl.Constraint, bool) {
	if pointSel != nil {
		return nil, false
	}
	if cs.NumRows() != cur.NumRows() || cs.ChunkRows() != cur.ChunkRows() {
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
		counts, ok := engine.StringChunkCountsSplice(col, cs, ent.strCounts, dirty)
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
		if ent.intRuns == nil {
			return nil, false
		}
		runs, ok := engine.IntSortedRunsSplice(col, cs, ent.intRuns, dirty)
		if !ok {
			return nil, false
		}
		pieces = intPiecesFromRuns(attr, col, runs, opt)
		if len(pieces) < 2 {
			pieces = numericNominalFallback(attr, col, cs, opt)
		}
		state.intRuns = runs
	default:
		return nil, false
	}
	e.countCutRefresh()
	if len(pieces) >= 2 {
		e.countCutPointCalc()
	}
	e.storeCut(key, cachedCut{pieces: pieces, stamp: cur, intRuns: state.intRuns, strCounts: state.strCounts})
	return pieces, true
}

// intPiecesFromRuns is intPieces over cached sorted runs: bounds from
// the run endpoints, points by rank selection — no gather, no sort,
// no scan. Identical output to intPieces by the order-statistic
// argument.
func intPiecesFromRuns(attr string, col engine.IntValued, runs [][]int64, opt CutOptions) []sdl.Constraint {
	min, max, ok := engine.IntRunsBounds(runs)
	if !ok || min == max {
		return nil
	}
	points := clampIntPoints(engine.IntCutPointsSorted(runs, opt.Arity), min, max)
	if len(points) == 0 {
		return nil
	}
	return intRangePieces(attr, col, min, max, points)
}
