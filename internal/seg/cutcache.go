// The cut-point cache: the incremental-advise counterpart of the
// selection cache for the CUT primitive's order statistics. Section
// 5.1 calls the median/quantile math the vertical-scalability
// bottleneck, and unlike selections it cannot be spliced — the k-th
// smallest of a multiset is a global property. What can be reused is
// a per-chunk summary the ranks resolve over: per-chunk VALUE COUNTS,
// for string columns by dictionary code and for a narrow numeric
// column over the window [min, max] of its extent's ordinals
// (engine.IntCounts): the counts the engine takes anyway when it cuts
// an extent whose zone-map window is narrow, straight from the column,
// trimmed to the extent's exact span. Counts add across chunks, so a
// mutation invalidates only the dirty chunks' vectors: a warm re-advise
// recounts ~1% of the data and reads the ranks off the summed
// vectors, byte-identical to a cold computation by the
// order-statistic argument.
//
// Entries are keyed by (query, attribute, cut options) and stamped
// with the table epoch exactly like cachedSel. An entry holds the
// children CutQuery built from the pieces and, once Cut has counted
// them, the child counts, so an equal version serves the whole cut:
// no extent read, no child query rebuilt, no child selection looked
// up. Comparable stamps refresh dirty chunks only, anything else
// recomputes in full; either way the new entry starts with fresh
// children and no child counts.
//
// Count vectors are retained only where a refresh can happen: on a
// table that accepts mutation (engine.Table.Mutable) and has taken one
// already (its stamp past version 0: a fresh advisor over a table
// never appended to builds none), for extents of at least
// cutStateMinRows rows — and, for a numeric column, only when its span
// is narrow enough to count (at most the select's 2 048 buckets) and
// the vectors take no more cells than the extent has rows. A read-only
// .chc table's stamp never moves, so its entries keep children and
// child counts alone. A refresh whose dirty chunk holds a value outside
// the entry's window, or a NaN, recomputes in full. Sampled cut
// points, wide numeric spans (every float column but a near-constant
// one), bool columns and the numeric-nominal fallback are served on
// version equality but always recompute when stale: their points are
// selected from gathered keys (a warmed table's wide column gathers
// only its rank codes' candidates) and nothing is left to splice.
package seg

import (
	"strconv"

	"charles/internal/engine"
	"charles/internal/sdl"
)

// cutStateMinRows is the selection size below which count vectors
// are not retained, even on a mutable table: tiny extents recompute
// in microseconds, and the long tail of small segments would otherwise
// dominate entry count. The cut itself is still cached for
// version-equal reuse.
const cutStateMinRows = 1 << 12

// cachedCut is one cut-point cache entry: the children CutQuery
// built from the computed pieces, their counts once Cut has taken
// them (nil until then), the epoch stamp they were computed under,
// and — for exact cuts over narrow numeric and string columns —
// the per-chunk counts a stale entry refreshes from. Children and
// counts hold at stamp only: a refresh rebuilds the children and
// drops the counts. Count vectors are immutable once stored: a splice
// shares the clean chunks' vectors between the old and new entry.
type cachedCut struct {
	children []sdl.Query
	counts   []int
	stamp    *engine.EpochStamp
	// intCounts holds per-chunk ordinal counts (numeric columns).
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
	return e.cuts.get(key)
}

// storeCut records a cut entry: concurrent computations of the same
// key produce identical children, so last write wins.
func (e *Evaluator) storeCut(key string, ent cachedCut) {
	e.cuts.put(&e.clock, key, ent, cutBytes(key, ent))
	e.shrink()
}

// storeCutCounts records counts, taken by Cut while the table stood
// at version v, in key's entry — only when both the table and the
// entry are still at v, since the counts belong to v's children — and
// charges them to the entry.
func (e *Evaluator) storeCutCounts(key string, v uint64, counts []int) {
	if e.tab.Version() != v {
		return
	}
	s := &e.cuts
	s.mu.Lock()
	if en, ok := s.m[key]; ok && en.val.counts == nil && en.val.stamp.Version() == v {
		en.val.counts = counts
		s.charge(&e.clock, &en.link, 8*int64(len(counts)))
	}
	s.mu.Unlock()
	e.shrink()
}

// cutPieces computes the piece constraints CUT splits src, q's
// extent, into along attr. src is
// read chunk by chunk in the form each is held in — a words chunk by
// set-bit iteration. stale is q's cut entry at an older version, if
// the cache holds one; it is refreshed from its retained counts where
// it can be, and everything else is computed in full. cur is the
// stamp the result will be cached under. With
// opt.SampleSize set, the points are estimated from a systematic
// sample of the rows (Section 5.2); sampled points are cached but
// never refreshed incrementally.
func (e *Evaluator) cutPieces(attr string, col engine.Column, src *engine.ChunkedSelection, opt CutOptions, stale *cachedCut, cur *engine.EpochStamp) ([]sdl.Constraint, cutState, error) {
	// Sampled cut points are selected from a systematic sample of the
	// extent, strided chunk by chunk and re-sharded by the same chunks;
	// exact ones run shard-at-a-time on the extent. Neither flattens
	// it. (Nominal cuts always see the full extent regardless: a
	// sampled dictionary could miss rare values, and rows holding them
	// would fall outside every piece, breaking Definition 3. Counting
	// is a single O(n) pass, so there is nothing to save anyway —
	// sampling targets the numeric medians and quantiles.)
	var pointSel *engine.ChunkedSelection
	if opt.SampleSize > 0 && src.Len() > opt.SampleSize {
		pointSel = engine.ChunkSelection(stridedRows(src, opt.SampleSize), src.NumRows(), src.ChunkRows())
	}
	if stale != nil {
		if pieces, state, ok := e.refreshCut(*stale, attr, col, src, pointSel, opt, cur); ok {
			return pieces, state, nil
		}
	}
	retain := cur.Version() > 0 && e.tab.Mutable() && src.Len() >= cutStateMinRows
	pieces, state, err := e.computeCut(attr, col, src, pointSel, opt, retain)
	if err != nil {
		return nil, state, err
	}
	if len(pieces) >= 2 {
		e.count(CutPointCalcs)
	}
	return pieces, state, nil
}

// stridedRows returns every ⌈n/k⌉-th row of src by rank, starting at
// rank 0, n = src.Len() > k: a systematic sample of at most k rows,
// read chunk by chunk in the form each is held in, so no flat view is
// built or attached to src.
func stridedRows(src *engine.ChunkedSelection, k int) engine.Selection {
	stride := (src.Len() + k - 1) / k
	out := make(engine.Selection, 0, k)
	rank, next := 0, 0
	engine.EachRow(src, func(row int) {
		if rank == next {
			out = append(out, int32(row))
			next += stride
		}
		rank++
	})
	return out
}

// cutState carries the refreshable per-chunk state a computation
// chose to retain.
type cutState struct {
	intCounts *engine.IntCounts
	strCounts [][]int
}

// computeCut runs the full cut-point computation for one column kind.
// With retain set, the exact string path and a narrow exact numeric
// path count per chunk so the entry can be refreshed chunk-at-a-time
// later; the results are pinned byte-identical to the forms that
// retain nothing, which everything else — sampled points, wide
// numeric spans, bools, the degenerate fallback — always takes.
func (e *Evaluator) computeCut(attr string, col engine.Column, src *engine.ChunkedSelection, pointSel *engine.ChunkedSelection, opt CutOptions, retain bool) ([]sdl.Constraint, cutState, error) {
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
	case engine.Numeric:
		pieces, state.intCounts = numPieces(attr, col, src, e.zoneMap(attr), pointSel, opt, retain)
		if len(pieces) < 2 {
			pieces = numericNominalFallback(attr, col, src, opt)
		}
	default:
		return nil, state, errCutKind(attr, col)
	}
	return pieces, state, err
}

// refreshCut recomputes a stale cut entry's pieces at stamp cur by
// splicing, and returns them with the count vectors the refreshed
// entry keeps: dirty chunks are recounted from the query's current
// selection, clean chunks reuse the cached count vectors. Sound for
// the same reason selection splicing is — a selection restricted to a
// clean chunk, and hence its value multiset, is a pure function of
// that chunk's unchanged rows. Entries with no retained state, structural
// mismatches, int values outside the entry's window, and sampled
// points all return false and recompute in full.
func (e *Evaluator) refreshCut(ent cachedCut, attr string, col engine.Column, src *engine.ChunkedSelection, pointSel *engine.ChunkedSelection, opt CutOptions, cur *engine.EpochStamp) ([]sdl.Constraint, cutState, bool) {
	var state cutState
	if pointSel != nil {
		return nil, state, false
	}
	if src.NumRows() != cur.NumRows() {
		return nil, state, false
	}
	dirty, ok := cur.DirtyVs(ent.stamp)
	if !ok {
		return nil, state, false
	}
	var pieces []sdl.Constraint
	switch col := col.(type) {
	case *engine.StringColumn:
		if ent.strCounts == nil {
			return nil, state, false
		}
		counts, ok := engine.StringChunkCountsSplice(col, src, ent.strCounts, dirty)
		if !ok {
			return nil, state, false
		}
		var err error
		pieces, err = nominalPieces(attr, engine.StringCountsFromChunks(col, counts), stringSetValue, opt)
		if err != nil {
			return nil, state, false
		}
		state.strCounts = counts
	case engine.Numeric:
		if ent.intCounts == nil {
			return nil, state, false
		}
		cut, counts, ok := engine.IntCutSplice(col, src, ent.intCounts, dirty, opt.Arity)
		if !ok {
			return nil, state, false
		}
		pieces = rangePieces(attr, col, cut)
		if len(pieces) < 2 {
			pieces = numericNominalFallback(attr, col, src, opt)
		}
		state.intCounts = counts
	default:
		return nil, state, false
	}
	e.count(CutRefreshes)
	if len(pieces) >= 2 {
		e.count(CutPointCalcs)
	}
	return pieces, state, true
}
