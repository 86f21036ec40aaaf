package seg

import (
	"fmt"
	"slices"

	"charles/internal/engine"
	"charles/internal/sdl"
	"charles/internal/stats"
)

// CutOptions parameterizes the CUT primitive.
type CutOptions struct {
	// Arity is the number of pieces per cut. 2 is the paper's median
	// cut; higher arities implement the Section 5.2 quantile
	// extension ("we have to develop support for other quantiles").
	Arity int
	// NominalOrderThreshold is the distinct-value count at or below
	// which nominal values are ordered by descending frequency; above
	// it they are ordered alphabetically (Section 4.1's rule for
	// "low cardinality" columns). Zero means the default of 12.
	NominalOrderThreshold int
	// SampleSize, when positive, computes cut points (medians,
	// quantiles, nominal frequencies) on a deterministic systematic
	// sample of at most this many rows instead of the full extent —
	// the Section 5.2 sampling strategy. Segment extents and counts
	// stay exact; only the cut point estimation is approximate.
	SampleSize int
}

// DefaultCutOptions returns the paper's configuration: binary median
// cuts, frequency ordering up to 12 distinct values, exact medians.
func DefaultCutOptions() CutOptions {
	return CutOptions{Arity: 2, NominalOrderThreshold: 12}
}

func (o CutOptions) normalize() CutOptions {
	if o.Arity < 2 {
		o.Arity = 2
	}
	if o.NominalOrderThreshold <= 0 {
		o.NominalOrderThreshold = 12
	}
	return o
}

// CutQuery splits one query into up to Arity pieces along attr
// (Definition 5). The pieces partition R(q): numeric attributes are
// split at equi-depth points into ranges [min,p0), [p0,p1), ...,
// [p_last,max]; nominal attributes are split on the ordered value
// list at the accumulated-frequency points. A query whose attribute
// is constant within its extent cannot be split and is returned
// unchanged as a single piece (documented deviation: the paper is
// silent on degenerate cuts).
func CutQuery(ev *Evaluator, q sdl.Query, attr string, opt CutOptions) ([]sdl.Query, error) {
	children, _, _, _, err := ev.cutQuery(q, attr, opt)
	// The cut cache keeps children; the caller gets its own slice.
	return slices.Clone(children), err
}

// cutQuery is CutQuery through the evaluator's cut cache, keyed by
// key (cutKey). An entry at the table's current version is served
// whole — its children, and their counts once Cut has stored them
// (nil before) — without reading q's extent or building a child. A stale exact entry refreshes only the
// mutation-dirtied chunks; anything else is computed from the extent.
// The fresh entry holds the children and no counts. v is the table
// version the children were cut at: they partition q's extent at v.
func (e *Evaluator) cutQuery(q sdl.Query, attr string, opt CutOptions) (children []sdl.Query, counts []int, key string, v uint64, err error) {
	opt = opt.normalize()
	col, ok := e.tab.ColumnByName(attr)
	if !ok {
		return nil, nil, "", 0, fmt.Errorf("seg: cut on unknown column %q", attr)
	}
	// Read before the extent: a mutation in between only makes v older
	// than the extent, which no caller then trusts to cover it.
	key, cur := cutKey(q, attr, opt), e.tab.Stamp()
	v = cur.Version()
	var stale *cachedCut
	if ent, ok := e.cachedCutEntry(key); ok {
		if ent.stamp.Version() == v {
			e.count(CutCacheHits)
			return ent.children, ent.counts, key, v, nil
		}
		stale = &ent
	}
	ext, err := e.extent(q)
	if err != nil {
		return nil, nil, "", 0, err
	}
	if ext.sel.Len() < 2 {
		return []sdl.Query{q}, nil, key, v, nil // nothing to split
	}
	pieces, state, err := e.cutPieces(attr, col, ext.sel, opt, stale, cur)
	if err != nil {
		return nil, nil, "", 0, err
	}
	if children, err = childQueries(q, pieces); err != nil {
		return nil, nil, "", 0, err
	}
	e.storeCut(key, cachedCut{children: children, stamp: cur, intCounts: state.intCounts, strCounts: state.strCounts})
	return children, nil, key, v, nil
}

// childQueries builds q's children from its cut pieces, dropping
// pieces that intersect q's own constraint to nothing. Fewer than two
// pieces or children mean the cut degenerates: q is its only child.
func childQueries(q sdl.Query, pieces []sdl.Constraint) ([]sdl.Query, error) {
	if len(pieces) < 2 {
		return []sdl.Query{q}, nil // degenerate: constant within extent
	}
	out := make([]sdl.Query, 0, len(pieces))
	for _, piece := range pieces {
		child, nonEmpty, err := childQuery(q, piece)
		if err != nil {
			return nil, err
		}
		if nonEmpty {
			out = append(out, child)
		}
	}
	if len(out) < 2 {
		return []sdl.Query{q}, nil
	}
	return out, nil
}

// childQuery conjoins the piece constraint with the query's existing
// predicate on the same attribute, so a cut on an attribute that is
// already constrained narrows rather than replaces (e.g. a second
// cut on tonnage inside a tonnage range, or a range cut over a set
// constraint).
func childQuery(q sdl.Query, piece sdl.Constraint) (sdl.Query, bool, error) {
	existing, ok := q.Constraint(piece.Attr)
	if !ok || existing.IsAny() {
		return q.WithConstraint(piece), true, nil
	}
	merged, nonEmpty, err := sdl.IntersectConstraints(existing, piece)
	if err != nil {
		return sdl.Query{}, false, err
	}
	if !nonEmpty {
		return sdl.Query{}, false, nil
	}
	return q.WithConstraint(merged), true, nil
}

// numPieces computes an int, date or float cut's pieces. Exact points
// and the bounds come from one pass over the column's ordinals
// (engine.IntCutChunked) — a count straight from the column when sum,
// the column's zone map (nil with zone pruning off), bounds src's
// values to a narrow window — which with retain set may also return
// the per-chunk counts the cut cache keeps; sampled points are
// estimated from pointSel and the bounds still taken over the full
// extent.
func numPieces(attr string, col engine.Numeric, src *engine.ChunkedSelection, sum *engine.ChunkSummary, pointSel *engine.ChunkedSelection, opt CutOptions, retain bool) ([]sdl.Constraint, *engine.IntCounts) {
	var cut engine.NumCut
	var counts *engine.IntCounts
	if pointSel != nil {
		cut.Min, cut.Max, _ = engine.IntMinMaxChunked(col, src)
		cut.Points = engine.IntCutPointsChunked(col, pointSel, opt.Arity)
	} else {
		cut, counts = engine.IntCutChunked(col, src, sum, opt.Arity, retain)
	}
	return rangePieces(attr, col, cut), counts
}

// rangePieces assembles the half-open range constraints for the
// bounds [min, p0), [p0, p1), ..., [p_last, max], decoded by col, or
// nil when no point falls in the exact (min, max] interior. Only
// sampled points can fall outside it, when the sample missed the
// extremes; they are dropped.
func rangePieces(attr string, col engine.Numeric, cut engine.NumCut) []sdl.Constraint {
	bounds := []int64{cut.Min}
	for _, p := range cut.Points {
		if p > cut.Min && p <= cut.Max {
			bounds = append(bounds, p)
		}
	}
	if len(bounds) == 1 {
		return nil
	}
	mk := col.OrdinalValue
	out := make([]sdl.Constraint, 0, len(bounds))
	for i, lo := range bounds {
		if i == len(bounds)-1 {
			out = append(out, sdl.RangeC(attr, mk(lo), mk(cut.Max), true, true))
		} else {
			out = append(out, sdl.RangeC(attr, mk(lo), mk(bounds[i+1]), true, false))
		}
	}
	return out
}

// errCutKind is the uncuttable-column error.
func errCutKind(attr string, col engine.Column) error {
	return fmt.Errorf("seg: cannot cut column %q of kind %v", attr, col.Kind())
}

// numericNominalFallback rescues numeric columns the median cut
// degenerates on: when one value holds the majority, the upper
// median equals the minimum and every equi-depth point collapses
// (e.g. an HTTP status column that is 92% the value 200). If the
// column still has at least two distinct values, it is cut
// nominally — frequency-ordered set constraints — exactly like a
// categorical column. Documented deviation: the paper's Definition 5
// simply cannot split such a column.
//
// Counting walks src chunk by chunk over the column's ordinals — a
// words chunk by set-bit iteration, never decoded, and no flat copy of
// the selection is built or cached — and keys the map on the ordinal:
// one integer map op per row, no Value boxing and no string formatting
// in the loop. Every NaN has the one ordinal, so NaN counts as one
// value, as its one rendering "NaN" does; −0 is stored as +0. Values
// are decoded and formatted once per distinct value at the end, where
// nominalPieces needs the canonical strings for ordering; the ordering
// itself is deterministic (ties broken on the value string) regardless
// of map iteration order, which TestNumericNominalFallbackDeterministic
// pins.
func numericNominalFallback(attr string, col engine.Numeric, src *engine.ChunkedSelection, opt CutOptions) []sdl.Constraint {
	// The fallback only fires on near-constant extents, so the
	// distinct count is small; a modest size hint avoids both rehash
	// churn and a |sel|-sized over-allocation.
	counts := make(map[int64]int, 16)
	vals := col.Int64s()
	engine.EachRow(src, func(row int) { counts[vals[row]]++ })
	if len(counts) < 2 {
		return nil
	}
	byKey := make(map[string]engine.Value, len(counts))
	vcs := make([]stats.ValueCount, 0, len(counts))
	//lint:deterministic vcs and byKey are value-keyed accumulators; nominalPieces fully re-orders vcs before anything ranked sees it
	for o, n := range counts {
		v := col.OrdinalValue(o)
		key := v.String()
		byKey[key] = v
		vcs = append(vcs, stats.ValueCount{Value: key, Count: n})
	}
	pieces, err := nominalPieces(attr, vcs, func(key string) engine.Value {
		return byKey[key]
	}, opt)
	if err != nil {
		return nil
	}
	return pieces
}

func stringSetValue(s string) engine.Value { return engine.String_(s) }

func boolSetValue(s string) engine.Value { return engine.Bool(s == "true") }

// nominalPieces implements the Section 4.1 nominal median: order the
// values (by occurrence for low-cardinality columns, alphabetically
// otherwise), then split where the accumulated frequency is closest
// to the quantile targets.
func nominalPieces(attr string, vcs []stats.ValueCount, mk func(string) engine.Value, opt CutOptions) ([]sdl.Constraint, error) {
	if len(vcs) < 2 {
		return nil, nil
	}
	if len(vcs) <= opt.NominalOrderThreshold {
		stats.OrderByFrequency(vcs)
	} else {
		stats.OrderAlphabetically(vcs)
	}
	points := stats.NominalSplitPoints(vcs, opt.Arity)
	if len(points) == 0 {
		return nil, nil
	}
	bounds := append([]int{0}, points...)
	bounds = append(bounds, len(vcs))
	out := make([]sdl.Constraint, 0, len(bounds)-1)
	for i := 0; i+1 < len(bounds); i++ {
		part := vcs[bounds[i]:bounds[i+1]]
		vals := make([]engine.Value, len(part))
		for j, vc := range part {
			vals[j] = mk(vc.Value)
		}
		out = append(out, sdl.SetC(attr, vals...))
	}
	return out, nil
}

// Cut applies CUT to a whole segmentation (Definition 6): every
// query is cut on attr with its own cut points. Queries that cannot
// be split are kept whole, so the result is always a valid partition
// of the same context. A query's cut points and children are computed
// from its selection chunk by chunk, each chunk in the form it is
// held in, and no row ids are built from words. A query whose cut the
// cache serves with counts (cutQuery) reads no selection at all; the
// counts a fresh cut takes are stored in its entry.
//
// The result keeps s's partition proof when that proof names the
// current fingerprint and every split query's children sum to the
// query's count. The sum fails in exactly the two NaN cases: a float
// range cut puts a NaN row in every child, the numeric nominal
// fallback puts it in none.
func Cut(ev *Evaluator, s *Segmentation, attr string, opt CutOptions) (*Segmentation, error) {
	fp := ev.Table().Fingerprint()
	proven := s.provenAt(fp)
	type queryCut struct {
		children []sdl.Query
		counts   []int
		key      string
		v        uint64
	}
	cuts := make([]queryCut, len(s.Queries))
	for i, q := range s.Queries {
		c := &cuts[i]
		var err error
		if c.children, c.counts, c.key, c.v, err = ev.cutQuery(q, attr, opt); err != nil {
			return nil, err
		}
	}
	out := &Segmentation{CutAttrs: addAttr(s.CutAttrs, attr)}
	anySplit := false
	for i, q := range s.Queries {
		children, counts := cuts[i].children, cuts[i].counts
		if len(children) == 1 {
			// Degenerate cut: the query survives whole and its count
			// is already known, so the parent selection is never
			// needed — fetching it anyway would be a wasted lookup,
			// and a full evaluation once the cache has evicted it.
			if s.Counts[i] > 0 {
				out.Queries = append(out.Queries, children[0])
				out.Counts = append(out.Counts, s.Counts[i])
			}
			continue
		}
		anySplit = true
		if counts == nil {
			v := ev.tab.Version()
			var err error
			if counts, err = ev.cutChildren(q, children, attr, cuts[i].v); err != nil {
				return nil, err
			}
			ev.storeCutCounts(cuts[i].key, v, counts)
		}
		sum := 0
		for j, child := range children {
			if n := counts[j]; n > 0 {
				out.Queries = append(out.Queries, child)
				out.Counts = append(out.Counts, n)
				sum += n
			}
		}
		proven = proven && sum == s.Counts[i]
	}
	if !anySplit {
		// Nothing split: the attribute is constant in every piece.
		// Keep the original attribute set so callers can detect the
		// no-op.
		out = &Segmentation{Queries: s.Queries, CutAttrs: s.CutAttrs, Counts: s.Counts}
	}
	if proven {
		out.proof = s.proof
	}
	return out, nil
}

// InitialCut builds the binary segmentation CUT_attr(context), the
// seed candidates of HB-cuts (Figure 4, lines 3-5). The boolean is
// false when the attribute cannot be split (constant within the
// context).
func InitialCut(ev *Evaluator, context sdl.Query, attr string, opt CutOptions) (*Segmentation, bool, error) {
	fp := ev.Table().Fingerprint()
	count, err := ev.Count(context)
	if err != nil {
		return nil, false, err
	}
	if count == 0 {
		return nil, false, fmt.Errorf("seg: context %s selects no rows", context)
	}
	s, err := Cut(ev, singleton(context, count, fp), attr, opt)
	if err != nil {
		return nil, false, err
	}
	if s.Depth() < 2 {
		return nil, false, nil
	}
	return s, true, nil
}

// Compose implements COMPOSE(S1, S2) (Definition 7): S1 is cut
// successively on each attribute S2 is based on, innermost last
// (CUT_att1(CUT_att2(...CUT_attN(S1)))).
func Compose(ev *Evaluator, s1, s2 *Segmentation, opt CutOptions) (*Segmentation, error) {
	out := s1
	attrs := s2.CutAttrs
	for i := len(attrs) - 1; i >= 0; i-- {
		var err error
		out, err = Cut(ev, out, attrs[i], opt)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
