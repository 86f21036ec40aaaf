package harness

import (
	"context"
	"fmt"
	"os"
	"time"

	"charles"
)

// advised is one in-process advise kept for the untimed passes. It
// deliberately holds no Advisor: a retained evaluator pins its
// row-sized selection caches and would swell peak_rss_mb.
type advised struct {
	tab *charles.Table
	q   charles.Query
	res *charles.Result
}

// timedAdvise runs one advise through the facade. The latency covers
// the library call only; hooks and bookkeeping sit outside it. Both
// runs — traced and not — go through AdviseCtx so they execute the
// same code.
func timedAdvise(tr *Tracer, op int, adv *charles.Advisor, q charles.Query) (*charles.Result, time.Duration, error) {
	ctx := context.Background()
	var stages func() []Stage
	if tr != nil && tr.PlantTrace != nil {
		ctx, stages = tr.PlantTrace(ctx)
	}
	start := time.Now()
	res, err := adv.AdviseCtx(ctx, q, nil)
	d := time.Since(start)
	if tr != nil {
		id := tr.Add(op, "charles.advise", start, start.Add(d), -1)
		if stages != nil {
			tr.AddStages(op, id, start, CoreStages(stages()))
		}
		if err == nil && tr.OnResult != nil {
			tr.OnResult(adv, q, res)
		}
	}
	return res, d, err
}

// record books one completed in-process advise.
func (o *Outcome) record(res *charles.Result, d time.Duration) {
	o.AdviseMS = append(o.AdviseMS, float64(d.Nanoseconds())/1e6)
	o.AdviseOps++
	o.AdviseBusy += d
	o.IndepEvals += res.IndepEvals
	o.Iterations += res.Iterations
}

// coldExplore: a fresh Advisor per advise over memory-backed VOC and
// sky-survey tables.
type coldExplore struct {
	opt      Options
	voc, sky *charles.Table
	done     []advised
}

func (w *coldExplore) table(name string) *charles.Table {
	if name == "sky" {
		return w.sky
	}
	return w.voc
}

func (w *coldExplore) setup() error {
	w.voc = charles.GenerateVOC(w.opt.Sizes.Rows, DataSeed)
	w.sky = charles.GenerateSkySurvey(w.opt.Sizes.Rows, DataSeed)
	// Zone maps belong to the table, not the advisor; build them here
	// as the server does at boot so no timed advise pays for them.
	w.voc.WarmSummaries()
	w.sky.WarmSummaries()
	// Warm-up, cut like the op list: every third context, two per
	// table. The first advises of a process run ~10% slow (heap
	// growth, page faults); caches are not the point — every advisor
	// is fresh.
	for i, c := range ColdContexts(w.opt.Seed) {
		if i%3 != 2 {
			continue
		}
		if _, err := charles.NewAdvisor(w.table(c.Table), charles.DefaultConfig()).AdviseString(c.SDL); err != nil {
			return fmt.Errorf("warm-up %s: %w", c.SDL, err)
		}
	}
	return nil
}

func (w *coldExplore) run(out *Outcome) {
	tr := w.opt.Tracer
	for op, c := range ColdOps(w.opt.Seed, w.opt.Sizes.ColdRounds) {
		out.Attempted++
		tab := w.table(c.Table)
		start := time.Now()
		adv := charles.NewAdvisor(tab, charles.DefaultConfig())
		if tr != nil && tr.OnAdvisor != nil {
			tr.OnAdvisor(adv)
		}
		q, err := adv.ParseContext(c.SDL)
		if err != nil {
			out.fail("%s: %v", c.SDL, err)
			continue
		}
		prep := time.Since(start)
		res, d, err := timedAdvise(tr, op, adv, q)
		if err != nil {
			out.fail("%s: %v", c.SDL, err)
			continue
		}
		out.record(res, prep+d)
		w.done = append(w.done, advised{tab, q, res})
	}
}

func (w *coldExplore) check(out *Outcome) {
	// Counts come from one fresh advisor per table; repeats of a
	// context each came from their own fresh advisor.
	counter := map[*charles.Table]*charles.Advisor{}
	for _, tab := range []*charles.Table{w.voc, w.sky} {
		counter[tab] = charles.NewAdvisor(tab, charles.DefaultConfig())
	}
	checkAdvised(out, w.opt, w.done, func(a advised) (int, error) { return counter[a.tab].Count(a.q) },
		"two fresh advisors rank it differently")
}

// checkAdvised is the in-process output check. Every op: counts
// partition the context (count gives the context's extent), and
// repeats of one context render exactly like its first answer. Then
// the expensive check on the distinct contexts pickDeep selects, and
// the digest of everything rendered, in op order.
func checkAdvised(out *Outcome, opt Options, done []advised, count func(advised) (int, error), onRepeat string) {
	rendered := make([]string, len(done))
	first := map[string]int{}
	var order []int
	for i, a := range done {
		rendered[i] = charles.RenderRanked(a.res, 0)
		key := a.tab.Name() + a.q.Key()
		j, seen := first[key]
		if !seen {
			first[key] = i
			order = append(order, i)
			total, err := count(a)
			if err != nil {
				out.violate("count %s: %v", a.q, err)
				continue
			}
			checkSums(out, a.q.String(), total, a.res)
		} else if rendered[i] != rendered[j] {
			out.violate("%s: %s", a.q, onRepeat)
		}
	}
	for _, k := range pickDeep(len(order), opt.Sizes.DeepChecks, opt.Seed, opt.Deep) {
		a := done[order[k]]
		deepCheck(out, a.q.String(), a.tab, a.q, a.res)
	}
	out.OutputDigest = digestOf(rendered)
}

func (w *coldExplore) peakRSSMB() float64 { return peakRSSMB(os.Getpid()) }

func (w *coldExplore) close() { w.voc, w.sky, w.done = nil, nil, nil }

// drillSession: the Figure 1 loop on one long-lived Advisor over a
// date-clustered, mmap'd .chc.
type drillSession struct {
	opt  Options
	tab  *charles.Table
	adv  *charles.Advisor
	done []advised
}

// minZoomRows keeps zooms off slivers no attribute can cut: an op
// list must not contain ops that fail by construction.
const minZoomRows = 256

func (w *drillSession) setup() error {
	tab, err := charles.OpenColumnFile(w.opt.chcPath)
	if err != nil {
		return err
	}
	w.tab = tab
	w.adv = charles.NewAdvisor(tab, charles.DefaultConfig())
	if tr := w.opt.Tracer; tr != nil && tr.OnAdvisor != nil {
		tr.OnAdvisor(w.adv)
	}
	tab.WarmSummaries()
	for _, root := range DrillRoots {
		if _, err := w.adv.AdviseString(root); err != nil {
			return fmt.Errorf("warm-up %s: %w", root, err)
		}
	}
	return nil
}

// zoomTarget reduces a session's raw picks to an answer among the
// top three and one of its segments holding at least minZoomRows.
func zoomTarget(res *charles.Result, pick [2]int) (answer, segment int) {
	top := len(res.Segmentations)
	if top > 3 {
		top = 3
	}
	answer = pick[0] % top
	counts := res.Segmentations[answer].Seg.Counts
	var eligible []int
	largest := 0
	for i, c := range counts {
		if c >= minZoomRows {
			eligible = append(eligible, i)
		}
		if c > counts[largest] {
			largest = i
		}
	}
	if len(eligible) == 0 {
		return answer, largest
	}
	return answer, eligible[pick[1]%len(eligible)]
}

func (w *drillSession) run(out *Outcome) {
	tr := w.opt.Tracer
	op := 0
	for _, s := range DrillPlan(w.opt.Seed, w.opt.Sizes.Sessions) {
		q, err := w.adv.ParseContext(DrillRoots[s.Root])
		if err != nil {
			out.OpErrors = append(out.OpErrors, fmt.Sprintf("%s: %v", DrillRoots[s.Root], err))
			out.abandon(DrillSteps + 1)
			continue
		}
		for step := 0; step <= DrillSteps; step++ {
			out.Attempted++
			res, d, err := timedAdvise(tr, op, w.adv, q)
			op++
			if err != nil {
				out.fail("%s: %v", q, err)
				out.abandon(DrillSteps - step)
				break
			}
			out.record(res, d)
			w.done = append(w.done, advised{w.tab, q, res})
			if step == DrillSteps {
				break
			}
			a, sgm := zoomTarget(res, s.Picks[step])
			if q, err = w.adv.Zoom(res, a, sgm); err != nil {
				out.OpErrors = append(out.OpErrors, fmt.Sprintf("zoom %d/%d: %v", a, sgm, err))
				out.abandon(DrillSteps - step)
				break
			}
		}
	}
}

func (w *drillSession) check(out *Outcome) {
	// The warm advisor counts; deepCheck then holds its answers against
	// fresh advisors over the same mapped table.
	checkAdvised(out, w.opt, w.done, func(a advised) (int, error) { return w.adv.Count(a.q) },
		"the warm advisor ranked it differently on a revisit")
}

func (w *drillSession) peakRSSMB() float64 { return peakRSSMB(os.Getpid()) }

func (w *drillSession) close() {
	if w.tab != nil {
		_ = w.tab.Close() // a read-only mapping: nothing to lose
		w.tab = nil
	}
	w.adv, w.done = nil, nil
}
