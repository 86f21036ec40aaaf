// Package baseline implements the comparators Section 6 positions
// Charles against: single-attribute faceted counts (faceted search,
// §6.2), a miniature CLIQUE grid-density subspace clusterer (§6.4),
// and k-means as the homogeneity reference the paper's Section 3
// declines to optimize directly. The random-composition ablation
// lives in internal/core (PairRandom) and the decision-tree-shaped
// comparator is core.AdaptiveCuts.
package baseline

import (
	"fmt"

	"charles/internal/engine"
	"charles/internal/sdl"
	"charles/internal/seg"
	"charles/internal/stats"
)

// Facets produces one segmentation per context attribute the way a
// faceted-search interface would: nominal attributes get one segment
// per value (the most frequent maxGroups−1 values, with the tail
// pooled into an "other" set), numeric attributes get maxGroups
// equal-width bins. Unlike Charles, every facet is based on a single
// attribute — exactly the limitation Section 6.2 calls out — so the
// breadth metric of any facet is 1.
func Facets(ev *seg.Evaluator, context sdl.Query, maxGroups int) ([]*seg.Segmentation, error) {
	if maxGroups < 2 {
		maxGroups = 2
	}
	var out []*seg.Segmentation
	for _, attr := range context.Attrs() {
		s, err := facetOn(ev, context, attr, maxGroups)
		if err != nil {
			return nil, err
		}
		if s != nil {
			out = append(out, s)
		}
	}
	return out, nil
}

func facetOn(ev *seg.Evaluator, context sdl.Query, attr string, maxGroups int) (*seg.Segmentation, error) {
	col, ok := ev.Table().ColumnByName(attr)
	if !ok {
		return nil, fmt.Errorf("baseline: no column %q", attr)
	}
	sel, err := ev.SelectChunked(context)
	if err != nil {
		return nil, err
	}
	if sel.Len() == 0 {
		return nil, fmt.Errorf("baseline: context %s selects no rows", context)
	}
	var pieces []sdl.Constraint
	switch col := col.(type) {
	case *engine.StringColumn:
		pieces = nominalFacets(attr, engine.StringValueCountsChunked(col, sel), maxGroups, func(s string) engine.Value {
			return engine.String_(s)
		})
	case *engine.BoolColumn:
		pieces = nominalFacets(attr, engine.BoolValueCountsChunked(col, sel), maxGroups, func(s string) engine.Value {
			return engine.Bool(s == "true")
		})
	case *engine.FloatColumn:
		lo, hi, _ := engine.IntMinMaxChunked(col, sel)
		min, max := col.OrdinalValue(lo).AsFloat(), col.OrdinalValue(hi).AsFloat()
		if min == max {
			return nil, nil
		}
		w := (max - min) / float64(maxGroups)
		for i := 0; i < maxGroups; i++ {
			lo := min + float64(i)*w
			if i == maxGroups-1 {
				pieces = append(pieces, sdl.RangeC(attr, engine.Float(lo), engine.Float(max), true, true))
			} else {
				pieces = append(pieces, sdl.RangeC(attr, engine.Float(lo), engine.Float(lo+w), true, false))
			}
		}
	case engine.IntValued:
		min, max, _ := engine.IntMinMaxChunked(col, sel)
		if min == max {
			return nil, nil
		}
		mk := func(v int64) engine.Value {
			if col.Kind() == engine.KindDate {
				return engine.Date(v)
			}
			return engine.Int(v)
		}
		span := max - min + 1
		groups := maxGroups
		if int64(groups) > span {
			groups = int(span)
		}
		w := span / int64(groups)
		rem := span % int64(groups)
		lo := min
		for i := 0; i < groups; i++ {
			width := w
			if int64(i) < rem {
				width++
			}
			hi := lo + width
			if i == groups-1 {
				pieces = append(pieces, sdl.RangeC(attr, mk(lo), mk(max), true, true))
			} else {
				pieces = append(pieces, sdl.RangeC(attr, mk(lo), mk(hi), true, false))
			}
			lo = hi
		}
	default:
		return nil, fmt.Errorf("baseline: cannot facet column %q of kind %v", attr, col.Kind())
	}
	if len(pieces) < 2 {
		return nil, nil
	}
	out := &seg.Segmentation{CutAttrs: []string{attr}}
	for _, piece := range pieces {
		q := context.WithConstraint(piece)
		n, err := ev.Count(q)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			continue
		}
		out.Queries = append(out.Queries, q)
		out.Counts = append(out.Counts, n)
	}
	if out.Depth() < 2 {
		return nil, nil
	}
	return out, nil
}

func nominalFacets(attr string, vcs []stats.ValueCount, maxGroups int, mk func(string) engine.Value) []sdl.Constraint {
	if len(vcs) < 2 {
		return nil
	}
	stats.OrderByFrequency(vcs)
	var pieces []sdl.Constraint
	if len(vcs) <= maxGroups {
		for _, vc := range vcs {
			pieces = append(pieces, sdl.SetC(attr, mk(vc.Value)))
		}
		return pieces
	}
	for _, vc := range vcs[:maxGroups-1] {
		pieces = append(pieces, sdl.SetC(attr, mk(vc.Value)))
	}
	tail := make([]engine.Value, 0, len(vcs)-maxGroups+1)
	for _, vc := range vcs[maxGroups-1:] {
		tail = append(tail, mk(vc.Value))
	}
	pieces = append(pieces, sdl.SetC(attr, tail...))
	return pieces
}
