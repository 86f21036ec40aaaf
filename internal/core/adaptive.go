package core

import (
	"context"
	"fmt"

	"charles/internal/obs"
	"charles/internal/par"
	"charles/internal/sdl"
	"charles/internal/seg"
)

// AdaptiveCuts implements the Section 5.2 extension that lifts the
// paper's "heavy restriction: all queries in a segmentation are
// based on the same attributes". It grows one segmentation greedily:
// at each step the largest segment is split, preferring an attribute
// that does not yet constrain that segment (each split should reveal
// a new aspect, maximizing per-piece breadth) and breaking ties by
// the balance of the resulting binary cut. Different pieces may
// therefore be cut on different attributes — a decision-tree-shaped
// exploration, cf. DynaCet in Section 6.2. The full search space is
// exponential; this greedy policy is the tractable rendering the
// paper hints at.
//
// The returned slice holds the segmentation after every split
// (depths 2..MaxDepth), ranked like HBCuts output. A cancelled ctx
// (nil: never cancelled) stops the greedy loop at the next trial
// boundary, and progress (nil: none) receives one PhaseTrials report
// per finished attribute trial-cut. Like HBCuts', neither changes the
// returned ranking.
func AdaptiveCuts(ctx context.Context, ev *seg.Evaluator, q sdl.Query, cfg Config, progress ProgressFunc) ([]Scored, error) {
	context := q // the exploration context; shadows the context package below, which is only needed in the signature
	cfg = cfg.normalize()
	prog := newProgressSink(progress)
	attrs := context.Attrs()
	if len(attrs) == 0 {
		return nil, fmt.Errorf("core: context mentions no attributes")
	}
	count, err := ev.Count(context)
	if err != nil {
		return nil, err
	}
	if count == 0 {
		return nil, fmt.Errorf("core: context %s selects no rows", context)
	}
	cur := &seg.Segmentation{Queries: []sdl.Query{context}, Counts: []int{count}}
	var out []Scored
	for cur.Depth() < cfg.MaxDepth {
		if ctx != nil && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// Pick the largest segment — the user is "primarily
		// interested in the most significant parts of the data".
		target := 0
		for i, c := range cur.Counts {
			if c > cur.Counts[target] {
				target = i
			}
		}
		targetQuery := cur.Queries[target]
		// Trial-cut the target on every attribute across the worker
		// pool; the pick below scans the trials in attribute order,
		// so the greedy choice matches the sequential one exactly.
		// The span accumulates across loop iterations into one
		// "trials" stage; purely observational, like the HB-cuts
		// stages.
		spTrials := obs.TraceFrom(ctx).Start("trials")
		trials := make([]splitTrial, len(attrs))
		err := par.ForEachCtx(ctx, cfg.Workers, len(attrs), func(k int) error {
			defer prog.report(PhaseTrials, 0)
			children, err := seg.CutQuery(ev, targetQuery, attrs[k], cfg.Cut)
			if err != nil {
				return err
			}
			if len(children) < 2 {
				return nil
			}
			counts := make([]int, len(children))
			for i, q := range children {
				n, err := ev.Count(q)
				if err != nil {
					return err
				}
				counts[i] = n
			}
			trials[k] = splitTrial{children: children, counts: counts}
			return nil
		})
		spTrials.End()
		if err != nil {
			return nil, err
		}
		bestAttr, bestChildren := "", []sdl.Query(nil)
		bestCounts := []int(nil)
		bestFresh, bestBalance := false, -1.0
		for k, attr := range attrs {
			if trials[k].children == nil {
				continue
			}
			bal := (&seg.Segmentation{Queries: trials[k].children, Counts: trials[k].counts}).Balance()
			c, constrained := targetQuery.Constraint(attr)
			fresh := !constrained || c.IsAny()
			better := false
			switch {
			case fresh && !bestFresh:
				better = true
			case fresh == bestFresh && bal > bestBalance:
				better = true
			}
			if better {
				bestAttr, bestChildren, bestCounts = attr, trials[k].children, trials[k].counts
				bestFresh, bestBalance = fresh, bal
			}
		}
		if bestAttr == "" {
			break // no segment can be split further
		}
		next := &seg.Segmentation{CutAttrs: cur.CutAttrs}
		next.CutAttrs = mergeAttrList(cur.CutAttrs, bestAttr)
		for i, q := range cur.Queries {
			if i != target {
				next.Queries = append(next.Queries, q)
				next.Counts = append(next.Counts, cur.Counts[i])
				continue
			}
			for j, child := range bestChildren {
				if bestCounts[j] == 0 {
					continue
				}
				next.Queries = append(next.Queries, child)
				next.Counts = append(next.Counts, bestCounts[j])
			}
		}
		cur = next
		out = append(out, newScored(cur, cfg.Score))
	}
	sortScored(out)
	return out, nil
}

// splitTrial holds one attribute's trial cut of the target segment.
type splitTrial struct {
	children []sdl.Query
	counts   []int
}

func mergeAttrList(attrs []string, attr string) []string {
	for _, a := range attrs {
		if a == attr {
			return attrs
		}
	}
	out := make([]string, 0, len(attrs)+1)
	out = append(out, attrs...)
	out = append(out, attr)
	// Keep canonical order.
	for i := len(out) - 1; i > 0 && out[i] < out[i-1]; i-- {
		out[i], out[i-1] = out[i-1], out[i]
	}
	return out
}
