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
	cs, err := ev.SelectChunked(q)
	if err != nil {
		return nil, err
	}
	if cs.Len() < 2 {
		return []sdl.Query{q}, nil // nothing to split
	}
	// Sampled cut points draw a systematic sample from the flat view;
	// exact ones run shard-at-a-time on the chunked selection and
	// never materialize it. (Nominal cuts always see the full extent
	// regardless: a sampled dictionary could miss rare values, and
	// rows holding them would fall outside every piece, breaking
	// Definition 3. Counting is a single O(n) pass, so there is
	// nothing to save anyway — sampling targets the sort-based
	// medians.)
	var pointSel engine.Selection
	if opt.SampleSize > 0 && cs.Len() > opt.SampleSize {
		pointSel = stats.StridedInt32(cs.Flat(), opt.SampleSize)
	}
	// All piece computation routes through the evaluator's cut-point
	// cache: version-equal entries are served outright, stale exact
	// entries refresh only the mutation-dirtied chunks.
	pieces, err := ev.cutPieces(q, attr, col, cs, pointSel, opt)
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

func intPieces(attr string, col engine.IntValued, cs *engine.ChunkedSelection, pointSel engine.Selection, opt CutOptions) ([]sdl.Constraint, error) {
	min, max, _ := engine.IntMinMaxChunked(col, cs)
	if min == max {
		return nil, nil
	}
	var points []int64
	if pointSel != nil {
		points = engine.IntCutPoints(col, pointSel, opt.Arity)
	} else {
		points = engine.IntCutPointsChunked(col, cs, opt.Arity)
	}
	points = clampIntPoints(points, min, max)
	if len(points) == 0 {
		return nil, nil
	}
	return intRangePieces(attr, col, min, max, points), nil
}

// intRangePieces assembles the half-open range constraints for the
// bounds [min, p0), [p0, p1), ..., [p_last, max] — the shared tail of
// the scratch-based and cached-run int cut paths.
func intRangePieces(attr string, col engine.IntValued, min, max int64, points []int64) []sdl.Constraint {
	mk := func(days int64) engine.Value {
		if col.Kind() == engine.KindDate {
			return engine.Date(days)
		}
		return engine.Int(days)
	}
	bounds := append([]int64{min}, points...)
	out := make([]sdl.Constraint, 0, len(bounds))
	for i := range bounds {
		lo := bounds[i]
		var c sdl.Constraint
		if i == len(bounds)-1 {
			c = sdl.RangeC(attr, mk(lo), mk(max), true, true)
		} else {
			c = sdl.RangeC(attr, mk(lo), mk(bounds[i+1]), true, false)
		}
		out = append(out, c)
	}
	return out
}

// errCutKind is the uncuttable-column error both the cached and
// uncached dispatch return.
func errCutKind(attr string, col engine.Column) error {
	return fmt.Errorf("seg: cannot cut column %q of kind %v", attr, col.Kind())
}

// clampIntPoints drops sampled cut points that fall outside the
// exact (min, max] interior — possible when the sample missed the
// extremes.
func clampIntPoints(points []int64, min, max int64) []int64 {
	out := points[:0]
	for _, p := range points {
		if p > min && p <= max {
			out = append(out, p)
		}
	}
	return out
}

func floatPieces(attr string, col engine.FloatValued, cs *engine.ChunkedSelection, pointSel engine.Selection, opt CutOptions) ([]sdl.Constraint, error) {
	min, max, _ := engine.FloatMinMaxChunked(col, cs)
	if min == max {
		return nil, nil
	}
	var points []float64
	if pointSel != nil {
		points = engine.FloatCutPoints(col, pointSel, opt.Arity)
	} else {
		points = engine.FloatCutPointsChunked(col, cs, opt.Arity)
	}
	clamped := points[:0]
	for _, p := range points {
		if p > min && p <= max {
			clamped = append(clamped, p)
		}
	}
	if len(clamped) == 0 {
		return nil, nil
	}
	bounds := append([]float64{min}, clamped...)
	out := make([]sdl.Constraint, 0, len(bounds))
	for i := range bounds {
		lo := bounds[i]
		var c sdl.Constraint
		if i == len(bounds)-1 {
			c = sdl.RangeC(attr, engine.Float(lo), engine.Float(max), true, true)
		} else {
			c = sdl.RangeC(attr, engine.Float(lo), engine.Float(bounds[i+1]), true, false)
		}
		out = append(out, c)
	}
	return out, nil
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
// Counting walks cs chunk by chunk over the column's backing slice —
// no flat copy of the selection is built or cached — and keys the map
// on the raw 64-bit payload: one integer map op per row, no Value
// boxing and no string formatting in the loop. Values are formatted
// once per distinct value at the end, where nominalPieces needs the
// canonical strings for ordering; the ordering itself is
// deterministic (ties broken on the value string) regardless of map
// iteration order, which TestNumericNominalFallbackDeterministic
// pins.
func numericNominalFallback(attr string, col engine.Column, cs *engine.ChunkedSelection, opt CutOptions) []sdl.Constraint {
	// The fallback only fires on near-constant extents, so the
	// distinct count is small; a modest size hint avoids both rehash
	// churn and a |sel|-sized over-allocation.
	counts := make(map[uint64]int, 16)
	var toValue func(bits uint64) engine.Value
	switch col := col.(type) {
	case engine.IntValued:
		vals := col.Int64s()
		for c := 0; c < cs.NumChunks(); c++ {
			for _, row := range cs.Seg(c) {
				counts[uint64(vals[row])]++
			}
		}
		if col.Kind() == engine.KindDate {
			toValue = func(bits uint64) engine.Value { return engine.Date(int64(bits)) }
		} else {
			toValue = func(bits uint64) engine.Value { return engine.Int(int64(bits)) }
		}
	case engine.FloatValued:
		vals := col.Float64s()
		for c := 0; c < cs.NumChunks(); c++ {
			for _, row := range cs.Seg(c) {
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
		}
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
	out := &Segmentation{CutAttrs: addAttr(s.CutAttrs, attr)}
	anySplit := false
	for i, q := range s.Queries {
		children, err := CutQuery(ev, q, attr, opt)
		if err != nil {
			return nil, err
		}
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
		parentCS, err := ev.SelectChunked(q)
		if err != nil {
			return nil, err
		}
		for _, child := range children {
			c, ok := child.Constraint(attr)
			if !ok {
				return nil, fmt.Errorf("seg: cut child lost its %q constraint", attr)
			}
			childCS, err := ev.NarrowChunked(parentCS, child, c)
			if err != nil {
				return nil, err
			}
			count := childCS.Len()
			if count == 0 {
				continue
			}
			out.Queries = append(out.Queries, child)
			out.Counts = append(out.Counts, count)
		}
	}
	if !anySplit {
		// Nothing split: the attribute is constant in every piece.
		// Keep the original attribute set so callers can detect the
		// no-op.
		return &Segmentation{Queries: s.Queries, CutAttrs: s.CutAttrs, Counts: s.Counts}, nil
	}
	return out, nil
}

// InitialCut builds the binary segmentation CUT_attr(context), the
// seed candidates of HB-cuts (Figure 4, lines 3-5). The boolean is
// false when the attribute cannot be split (constant within the
// context).
func InitialCut(ev *Evaluator, context sdl.Query, attr string, opt CutOptions) (*Segmentation, bool, error) {
	count, err := ev.Count(context)
	if err != nil {
		return nil, false, err
	}
	if count == 0 {
		return nil, false, fmt.Errorf("seg: context %s selects no rows", context)
	}
	s, err := Cut(ev, singleton(context, count), attr, opt)
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
