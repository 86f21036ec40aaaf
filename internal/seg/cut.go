package seg

import (
	"fmt"
	"math"

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
	opt = opt.normalize()
	col, ok := ev.Table().ColumnByName(attr)
	if !ok {
		return nil, fmt.Errorf("seg: cut on unknown column %q", attr)
	}
	ent, err := ev.extent(q)
	if err != nil {
		return nil, err
	}
	if ent.count() < 2 {
		return []sdl.Query{q}, nil // nothing to split
	}
	// All piece computation routes through the evaluator's cut-point
	// cache: version-equal entries are served outright without reading
	// q's rows, stale exact entries refresh only the mutation-dirtied
	// chunks.
	pieces, err := ev.cutPieces(q, attr, col, ent, opt)
	if err != nil {
		return nil, err
	}
	if len(pieces) < 2 {
		return []sdl.Query{q}, nil // degenerate: constant within extent
	}
	out := make([]sdl.Query, 0, len(pieces))
	for _, piece := range pieces {
		child, nonEmpty, err := childQuery(q, piece)
		if err != nil {
			return nil, err
		}
		if !nonEmpty {
			continue
		}
		out = append(out, child)
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

// intPieces computes an int or date cut's pieces. Exact points and
// the bounds come from one pass (engine.IntCutChunked), which with
// retain set may also return the per-chunk counts the cut cache keeps;
// sampled points are estimated from pointSel and the bounds still
// taken over the full extent.
func intPieces(attr string, col engine.IntValued, src engine.Source, pointSel engine.Selection, opt CutOptions, retain bool) ([]sdl.Constraint, *engine.IntCounts) {
	var cut engine.NumCut[int64]
	var counts *engine.IntCounts
	if pointSel != nil {
		cut.Min, cut.Max, _ = engine.IntMinMaxChunked(col, src)
		cut.Points = engine.IntCutPoints(col, pointSel, opt.Arity)
	} else {
		cut, counts = engine.IntCutChunked(col, src, opt.Arity, retain)
	}
	return intCutPieces(attr, col, cut), counts
}

// intCutPieces is rangePieces with int or date bound values.
func intCutPieces(attr string, col engine.IntValued, cut engine.NumCut[int64]) []sdl.Constraint {
	mk := engine.Int
	if col.Kind() == engine.KindDate {
		mk = engine.Date
	}
	return rangePieces(attr, cut, mk)
}

func floatPieces(attr string, col engine.FloatValued, src engine.Source, pointSel engine.Selection, opt CutOptions) []sdl.Constraint {
	var cut engine.NumCut[float64]
	if pointSel != nil {
		cut.Min, cut.Max, _ = engine.FloatMinMaxChunked(col, src)
		cut.Points = engine.FloatCutPoints(col, pointSel, opt.Arity)
	} else {
		cut = engine.FloatCutChunked(col, src, opt.Arity)
	}
	return rangePieces(attr, cut, engine.Float)
}

// rangePieces assembles the half-open range constraints for the
// bounds [min, p0), [p0, p1), ..., [p_last, max], or nil when no
// point falls in the exact (min, max] interior. Only sampled points
// can fall outside it, when the sample missed the extremes; they are
// dropped.
func rangePieces[T int64 | float64](attr string, cut engine.NumCut[T], mk func(T) engine.Value) []sdl.Constraint {
	bounds := []T{cut.Min}
	for _, p := range cut.Points {
		if p > cut.Min && p <= cut.Max {
			bounds = append(bounds, p)
		}
	}
	if len(bounds) == 1 {
		return nil
	}
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

// errCutKind is the uncuttable-column error both the cached and
// uncached dispatch return.
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
// Counting walks src chunk by chunk over the column's backing slice —
// a packed extent by set-bit iteration, and no flat copy of the
// selection is built or cached — and keys the map
// on the raw 64-bit payload: one integer map op per row, no Value
// boxing and no string formatting in the loop. Values are formatted
// once per distinct value at the end, where nominalPieces needs the
// canonical strings for ordering; the ordering itself is
// deterministic (ties broken on the value string) regardless of map
// iteration order, which TestNumericNominalFallbackDeterministic
// pins.
func numericNominalFallback(attr string, col engine.Column, src engine.Source, opt CutOptions) []sdl.Constraint {
	// The fallback only fires on near-constant extents, so the
	// distinct count is small; a modest size hint avoids both rehash
	// churn and a |sel|-sized over-allocation.
	counts := make(map[uint64]int, 16)
	var toValue func(bits uint64) engine.Value
	switch col := col.(type) {
	case engine.IntValued:
		vals := col.Int64s()
		engine.RowBatches(src, func(rows engine.Selection) {
			for _, row := range rows {
				counts[uint64(vals[row])]++
			}
		})
		if col.Kind() == engine.KindDate {
			toValue = func(bits uint64) engine.Value { return engine.Date(int64(bits)) }
		} else {
			toValue = func(bits uint64) engine.Value { return engine.Int(int64(bits)) }
		}
	case engine.FloatValued:
		vals := col.Float64s()
		engine.RowBatches(src, func(rows engine.Selection) {
			for _, row := range rows {
				v := vals[row]
				if v != v {
					// Canonicalize NaN: every payload renders as the
					// one string "NaN", so distinct NaN bit patterns
					// must count as one value exactly like the
					// string-keyed counting always did.
					v = math.NaN()
				}
				counts[math.Float64bits(v)]++
			}
		})
		toValue = func(bits uint64) engine.Value { return engine.Float(math.Float64frombits(bits)) }
	default:
		return nil
	}
	if len(counts) < 2 {
		return nil
	}
	byKey := make(map[string]engine.Value, len(counts))
	vcs := make([]stats.ValueCount, 0, len(counts))
	//lint:deterministic vcs and byKey are value-keyed accumulators; nominalPieces fully re-orders vcs before anything ranked sees it
	for bits, n := range counts {
		v := toValue(bits)
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
// of the same context.
func Cut(ev *Evaluator, s *Segmentation, attr string, opt CutOptions) (*Segmentation, error) {
	return cutSeg(ev, s, attr, opt, 0)
}

// cutSeg is Cut for a result INDEP may pair: packBelow > 0 marks one
// that becomes an HB-cuts candidate as long as it has fewer than
// packBelow queries. When its queries cut into fewer pieces than
// that, the partition passes pack the children of every dense parent
// and cache them packed-only (Evaluator.cutChildren), the last piece
// included; a cut with more pieces may leave packBelow queries, which
// HB-cuts discards unpaired, so it packs nothing. Either way a query
// cached packed-only is cut — its cut points and its children — from
// its words, and its row ids are never built.
//
// The result keeps s's partition proof when that proof names the
// current fingerprint and every split query's children sum to the
// query's count. The sum fails in exactly the two NaN cases: a float
// range cut puts a NaN row in every child, the numeric nominal
// fallback puts it in none.
func cutSeg(ev *Evaluator, s *Segmentation, attr string, opt CutOptions, packBelow int) (*Segmentation, error) {
	fp := ev.Table().Fingerprint()
	proven := s.provenAt(fp)
	kids := make([][]sdl.Query, len(s.Queries))
	pieces := 0
	for i, q := range s.Queries {
		children, err := CutQuery(ev, q, attr, opt)
		if err != nil {
			return nil, err
		}
		kids[i] = children
		pieces += len(children)
	}
	pairSides := pieces < packBelow
	out := &Segmentation{CutAttrs: addAttr(s.CutAttrs, attr)}
	anySplit := false
	for i, q := range s.Queries {
		children := kids[i]
		if len(children) == 1 {
			// Degenerate cut: the query survives whole and its count
			// is already known, so the parent selection is never
			// needed — fetching it anyway would be a wasted full
			// evaluation with caching off and would skew the E6/E7
			// FullEvals counters.
			if s.Counts[i] > 0 {
				out.Queries = append(out.Queries, children[0])
				out.Counts = append(out.Counts, s.Counts[i])
			}
			continue
		}
		anySplit = true
		counts, err := ev.cutChildren(q, children, attr, pairSides)
		if err != nil {
			return nil, err
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
	return initialCut(ev, context, attr, opt, 0)
}

// InitialCandidate is InitialCut for HB-cuts, which pairs every seed
// candidate with INDEP: the cut's children are born packed-only when
// the context is dense, so building the INDEP sides re-packs none of
// them and builds no row ids.
func InitialCandidate(ev *Evaluator, context sdl.Query, attr string, opt CutOptions) (*Segmentation, bool, error) {
	return initialCut(ev, context, attr, opt, math.MaxInt)
}

func initialCut(ev *Evaluator, context sdl.Query, attr string, opt CutOptions, pack int) (*Segmentation, bool, error) {
	fp := ev.Table().Fingerprint()
	count, err := ev.Count(context)
	if err != nil {
		return nil, false, err
	}
	if count == 0 {
		return nil, false, fmt.Errorf("seg: context %s selects no rows", context)
	}
	s, err := cutSeg(ev, singleton(context, count, fp), attr, opt, pack)
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
	return compose(ev, s1, s2, opt, 0)
}

// ComposeCandidate is Compose for HB-cuts, which pairs the result
// with INDEP unless it reaches maxDepth queries (a deeper composition
// stops the search unpaired). Only the outermost cut's result is that
// candidate, so only its children may be born packed-only, and only
// when it cannot reach maxDepth pieces.
func ComposeCandidate(ev *Evaluator, s1, s2 *Segmentation, opt CutOptions, maxDepth int) (*Segmentation, error) {
	return compose(ev, s1, s2, opt, maxDepth)
}

func compose(ev *Evaluator, s1, s2 *Segmentation, opt CutOptions, pack int) (*Segmentation, error) {
	out := s1
	attrs := s2.CutAttrs
	for i := len(attrs) - 1; i >= 0; i-- {
		outer := 0
		if i == 0 {
			outer = pack
		}
		var err error
		out, err = cutSeg(ev, out, attrs[i], opt, outer)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
