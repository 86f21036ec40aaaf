package harness

import (
	"bytes"
	"encoding/json"

	"charles"
)

// The output check. Cheap invariants run on every op's result;
// the expensive ones — a fresh advisor recounting every segment and
// re-advising the context — run once per distinct context, on all of
// them under -check and on a seed-rotated few otherwise (a run has a
// time cap). Violations land in failed_share and make the run
// incorrect.

// checkSums verifies that every segmentation's counts sum to the
// context's extent: segmentations partition the context.
func checkSums(out *Outcome, label string, total int, res *charles.Result) {
	for i, sc := range res.Segmentations {
		sum := 0
		for _, c := range sc.Seg.Counts {
			sum += c
		}
		if sum != total {
			out.violate("%s: segmentation %d counts sum to %d, context holds %d", label, i, sum, total)
		}
	}
}

// deepCheck holds one result against a fresh advisor over the same
// table: the context's count, each segment's count, and the whole
// rendered ranking must agree.
func deepCheck(out *Outcome, label string, tab *charles.Table, q charles.Query, res *charles.Result) {
	fresh := charles.NewAdvisor(tab, charles.DefaultConfig())
	total, err := fresh.Count(q)
	if err != nil {
		out.violate("%s: fresh count of the context: %v", label, err)
		return
	}
	checkSums(out, label, total, res)
	for i, sc := range res.Segmentations {
		for j, sq := range sc.Seg.Queries {
			n, err := fresh.Count(sq)
			if err != nil || n != sc.Seg.Counts[j] {
				out.violate("%s: segmentation %d segment %d reports %d rows, a fresh advisor counts %d (%v)", label, i, j, sc.Seg.Counts[j], n, err)
			}
		}
	}
	again, err := charles.NewAdvisor(tab, charles.DefaultConfig()).Advise(q)
	if err != nil {
		out.violate("%s: fresh advise: %v", label, err)
		return
	}
	if charles.RenderRanked(again, 0) != charles.RenderRanked(res, 0) {
		out.violate("%s: ranking differs from a fresh advisor's on the same table", label)
	}
}

// RenderJSON renders a result the way the server's API does.
func RenderJSON(res *charles.Result, table string) *JSONResult {
	out := &JSONResult{
		Context:      res.Context.String(),
		SkippedAttrs: res.SkippedAttrs,
		Iterations:   res.Iterations,
		IndepEvals:   res.IndepEvals,
		StopReason:   res.StopReason.String(),
	}
	for rank, sc := range res.Segmentations {
		js := JSONSegmentation{
			Rank:       rank + 1,
			Score:      sc.Score,
			Entropy:    sc.Metrics.Entropy,
			Balance:    sc.Metrics.Balance,
			Breadth:    sc.Metrics.Breadth,
			Simplicity: sc.Metrics.Simplicity,
			CutAttrs:   sc.Seg.CutAttrs,
		}
		for i, q := range sc.Seg.Queries {
			js.Segments = append(js.Segments, JSONSegment{SDL: q.String(), SQL: charles.SQLSelect(q, table), Count: sc.Seg.Counts[i]})
		}
		out.Segmentations = append(out.Segmentations, js)
	}
	return out
}

// canonical is a result's canonical JSON bytes, for comparing and
// hashing.
func canonical(r *JSONResult) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		return []byte(err.Error()) // NaN scores: still comparable as text
	}
	return b
}

// checkServed compares what the server returned for a context with
// an in-process advise of the same context over an equal table.
func checkServed(out *Outcome, label string, tab *charles.Table, sdl string, served *JSONResult) {
	adv := charles.NewAdvisor(tab, charles.DefaultConfig())
	res, err := adv.AdviseString(sdl)
	if err != nil {
		out.violate("%s: in-process advise of %s: %v", label, sdl, err)
		return
	}
	if !bytes.Equal(canonical(RenderJSON(res, tab.Name())), canonical(served)) {
		out.violate("%s: server's JSON result for %s differs from the in-process result", label, sdl)
	}
}

// checkServedSums is checkSums for a served result: the context's
// extent is not known client-side, so segmentations must agree with
// each other.
func checkServedSums(out *Outcome, label string, r *JSONResult) {
	total := -1
	for i, sg := range r.Segmentations {
		sum := 0
		for _, s := range sg.Segments {
			sum += s.Count
		}
		if total < 0 {
			total = sum
		} else if sum != total {
			out.violate("%s: segmentation %d counts sum to %d, segmentation 0 to %d", label, i, sum, total)
		}
	}
	if len(r.Segmentations) == 0 {
		out.violate("%s: no segmentations for %s", label, r.Context)
	}
}
