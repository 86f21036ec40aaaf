package core

import (
	"context"
	"fmt"
	"math/rand"

	"charles/internal/obs"
	"charles/internal/par"
	"charles/internal/sdl"
	"charles/internal/seg"
)

// Result is the ranked answer list HB-cuts returns for a context —
// the content of the top panel in Figure 1.
type Result struct {
	// Context is the query whose extent was segmented.
	Context sdl.Query
	// Segmentations is the ranked output ("all intermediate results
	// ... returned by order of entropy").
	Segmentations []Scored
	// SkippedAttrs lists context attributes that could not seed an
	// initial cut (constant within the context extent).
	SkippedAttrs []string
	// Iterations counts composition steps performed.
	Iterations int
	// IndepEvals counts INDEP evaluations, including cache hits
	// avoided — the horizontal-scalability cost driver of E6.
	IndepEvals int
	// IndepCacheHits counts INDEP lookups served from the pair
	// cache (the Section 5.1 reuse optimization).
	IndepCacheHits int
	// StopReason records why composition ended.
	StopReason StopReason
	// Trace records one entry per composition step, in order — the
	// execution trace Figure 3 visualizes.
	Trace []TraceStep
}

// TraceStep documents one composition of the HB-cuts loop.
type TraceStep struct {
	// Left and Right are the cut-attribute sets of the composed
	// pair.
	Left, Right []string
	// Indep is the pair's INDEP quotient at composition time.
	Indep float64
	// Depth is the number of queries in the composed segmentation.
	Depth int
}

// StopReason explains HB-cuts termination.
type StopReason uint8

// Termination causes.
const (
	// StopExhausted: fewer than two candidates remained.
	StopExhausted StopReason = iota
	// StopIndependent: the most dependent pair reached MaxIndep (or
	// passed the chi-squared independence test).
	StopIndependent
	// StopDepth: the composed segmentation reached MaxDepth queries.
	StopDepth
)

// String names the stop reason for reports.
func (r StopReason) String() string {
	switch r {
	case StopExhausted:
		return "candidates exhausted"
	case StopIndependent:
		return "pair independent"
	case StopDepth:
		return "depth bound reached"
	default:
		return "unknown"
	}
}

// candidate wraps a segmentation with a stable id for INDEP-cache
// keying.
type candidate struct {
	id  int
	seg *seg.Segmentation
}

// hbState carries the algorithm state shared by the eager run and
// the lazy stream.
type hbState struct {
	ev      *seg.Evaluator
	cfg     Config
	context sdl.Query
	cand    []candidate
	nextID  int
	indep   map[[2]int]float64
	rng     *rand.Rand
	res     *Result
	// memo shares assembled pair sides (gathered selections) across
	// every pairwise operator call of this
	// advise, so a candidate evaluated against O(n) partners is
	// built once, not once per INDEP.
	memo *seg.PairMemo
	// ctx cancels the run: the composition loop, the pair fan-outs
	// and the cell loops underneath all re-check it at task
	// boundaries. Nil means "never cancelled".
	ctx context.Context
	// prog streams per-phase completion tallies; nil means no
	// progress reporting. Reporting never feeds back into the
	// algorithm, so ranked output is identical with and without it.
	prog *progressSink
}

// HBCuts runs the Figure 4 algorithm: seed one binary segmentation
// per context attribute of q, repeatedly compose the most dependent
// pair, stop on independence or depth, and return every segmentation
// encountered, ranked.
//
// A cancelled ctx (nil: never cancelled) stops the run at the next
// task boundary — between initial cuts, between INDEP cell
// evaluations, between composition steps — releases every worker
// goroutine, and returns ctx.Err(). progress (nil: none) receives one
// report per completed initial cut (PhaseCuts, Total = context
// attribute count) and one per INDEP pair evaluation (PhasePairs,
// open-ended). Neither ctx nor progress changes ranked output: an
// uncancelled run returns byte-identical results either way.
func HBCuts(ctx context.Context, ev *seg.Evaluator, q sdl.Query, cfg Config, progress ProgressFunc) (*Result, error) {
	st, err := newHBState(ctx, ev, q, cfg, progress)
	if err != nil {
		return nil, err
	}
	// Every initial candidate is an answer (Figure 3 returns the
	// single-attribute segmentations alongside the composed ones).
	for _, c := range st.cand {
		st.res.Segmentations = append(st.res.Segmentations, newScored(c.seg, st.cfg.Score))
	}
	for {
		composed, _, err := st.step()
		if err != nil {
			return nil, err
		}
		if composed == nil {
			break
		}
		st.res.Segmentations = append(st.res.Segmentations, newScored(composed, st.cfg.Score))
	}
	sortScored(st.res.Segmentations)
	return st.res, nil
}

func newHBState(ctx context.Context, ev *seg.Evaluator, context sdl.Query, cfg Config, progress ProgressFunc) (*hbState, error) {
	cfg = cfg.normalize()
	if len(context.Attrs()) == 0 {
		return nil, fmt.Errorf("core: context mentions no attributes")
	}
	st := &hbState{
		ev:      ev,
		cfg:     cfg,
		context: context,
		indep:   make(map[[2]int]float64),
		res:     &Result{Context: context},
		memo:    seg.NewPairMemo(),
		ctx:     ctx,
		prog:    newProgressSink(progress),
	}
	if cfg.Pairing == PairRandom {
		st.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	// Figure 4 lines 3-5: one binary cut per context attribute. By
	// convention exploration is restricted to the columns the user
	// mentioned (Section 2). The cuts are independent, so they fan
	// out across the worker pool; merging in attribute order keeps
	// candidate ids — and therefore the whole run — deterministic.
	attrs := context.Attrs()
	// The stage trace (obs.TraceFrom; nil and therefore free unless
	// the caller planted one) times the phases only — it observes the
	// run, never steers it, so traced and untraced output is
	// byte-identical.
	spCuts := obs.TraceFrom(ctx).Start("initial_cuts")
	defer spCuts.End()
	// Prime the context selection before fanning out: every initial
	// cut starts from it, and on a cold cache W workers would all
	// miss the same key at once and each pay the full-table scan.
	// Count evaluates and caches the selection and builds no row ids
	// from words.
	if _, err := ev.Count(context); err != nil {
		return nil, err
	}
	type initial struct {
		seg *seg.Segmentation
		ok  bool
	}
	cuts := make([]initial, len(attrs))
	err := par.ForEachCtx(ctx, cfg.Workers, len(attrs), func(i int) error {
		s, ok, err := seg.InitialCut(ev, context, attrs[i], cfg.Cut)
		if err != nil {
			return err
		}
		cuts[i] = initial{seg: s, ok: ok}
		st.prog.report(PhaseCuts, len(attrs))
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, attr := range attrs {
		if !cuts[i].ok {
			st.res.SkippedAttrs = append(st.res.SkippedAttrs, attr)
			continue
		}
		st.cand = append(st.cand, candidate{id: st.nextID, seg: cuts[i].seg})
		st.nextID++
	}
	if len(st.cand) == 0 {
		return nil, fmt.Errorf("core: no context attribute of %s can be cut", context)
	}
	return st, nil
}

// step performs one iteration of the Figure 4 loop. It returns the
// newly composed segmentation, or nil when the algorithm stopped
// (StopReason recorded on the result). The boolean reports whether
// composition may continue.
func (st *hbState) step() (*seg.Segmentation, bool, error) {
	if st.ctx != nil && st.ctx.Err() != nil {
		return nil, false, st.ctx.Err()
	}
	if len(st.cand) < 2 {
		st.res.StopReason = StopExhausted
		return nil, false, nil
	}
	tr := obs.TraceFrom(st.ctx)
	spPairs := tr.Start("indep_pairs")
	i, j, ind, err := st.pickPair()
	spPairs.End()
	if err != nil {
		return nil, false, err
	}
	s1, s2 := st.cand[i], st.cand[j]
	// Check independence before paying for the composition when the
	// fixed threshold already fails (the chi-squared rule needs the
	// same cell counts INDEP used, so it is also checked here).
	stop := false
	if st.cfg.UseChiSquare {
		spChi := tr.Start("indep_pairs")
		indep, err := seg.ChiSquareIndependentOpt(st.ev, s1.seg, s2.seg, st.cfg.ChiAlpha, st.pairOpts(st.cfg.Workers))
		spChi.End()
		if err != nil {
			return nil, false, err
		}
		stop = indep
	} else {
		stop = ind >= st.cfg.MaxIndep
	}
	if stop {
		st.res.StopReason = StopIndependent
		return nil, false, nil
	}
	spCompose := tr.Start("compose")
	composed, err := seg.Compose(st.ev, s1.seg, s2.seg, st.cfg.Cut)
	spCompose.End()
	if err != nil {
		return nil, false, err
	}
	if composed.Depth() >= st.cfg.MaxDepth {
		st.res.StopReason = StopDepth
		return nil, false, nil
	}
	st.res.Iterations++
	st.res.Trace = append(st.res.Trace, TraceStep{
		Left:  s1.seg.CutAttrs,
		Right: s2.seg.CutAttrs,
		Indep: ind,
		Depth: composed.Depth(),
	})
	// Figure 4 lines 18-20: replace the pair with the composition.
	st.removePair(i, j)
	st.cand = append(st.cand, candidate{id: st.nextID, seg: composed})
	st.nextID++
	return composed, true, nil
}

// pickPair returns the candidate index pair to compose along with
// its INDEP value. Under PairMostDependent it is the argmin of
// Figure 4 line 11, with INDEP values cached across iterations
// (Section 5.1: "the calculations of SDL products and entropy can be
// reused from one iteration to the next").
func (st *hbState) pickPair() (int, int, float64, error) {
	if st.cfg.Pairing == PairRandom {
		i := st.rng.Intn(len(st.cand))
		j := st.rng.Intn(len(st.cand) - 1)
		if j >= i {
			j++
		}
		if i > j {
			i, j = j, i
		}
		ind, err := st.pairIndep(st.cand[i], st.cand[j])
		return i, j, ind, err
	}
	// Evaluate the INDEP quotients the pair cache is missing across
	// the worker pool, then merge and argmin-scan sequentially in
	// (i, j) order — the same winner a sequential pass picks, at a
	// fraction of the wall-clock.
	type missing struct {
		i, j int
		key  [2]int
		val  float64
	}
	n := len(st.cand)
	var todo []missing
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			key := pairKey(st.cand[i], st.cand[j])
			if _, ok := st.indep[key]; ok {
				st.res.IndepCacheHits++
				continue
			}
			todo = append(todo, missing{i: i, j: j, key: key})
		}
	}
	// Two parallelism levels are available: across missing pairs and
	// across each pair's contingency cells. Splitting the pool both
	// ways would oversubscribe, so the pool is divided: with a warm
	// pair cache every step leaves n-1 pairs missing (the freshly
	// composed candidate against each survivor), so few missing
	// pairs with many workers hand the surplus to the cell loops.
	inner := 1
	if len(todo) > 0 && st.cfg.Workers/len(todo) > 1 {
		inner = st.cfg.Workers / len(todo)
	}
	err := par.ForEachCtx(st.ctx, st.cfg.Workers, len(todo), func(k int) error {
		v, err := seg.IndepOpt(st.ev, st.cand[todo[k].i].seg, st.cand[todo[k].j].seg, st.pairOpts(inner))
		if err != nil {
			return err
		}
		todo[k].val = v
		st.prog.report(PhasePairs, 0)
		return nil
	})
	if err != nil {
		return 0, 0, 0, err
	}
	for _, m := range todo {
		st.indep[m.key] = m.val
		st.res.IndepEvals++
	}
	bestI, bestJ, bestInd := -1, -1, 0.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ind := st.indep[pairKey(st.cand[i], st.cand[j])]
			if bestI < 0 || ind < bestInd {
				bestI, bestJ, bestInd = i, j, ind
			}
		}
	}
	return bestI, bestJ, bestInd, nil
}

// pairOpts builds the options one pairwise operator call runs
// under: the advise-wide pair-side memo, with the cell loop bounded at
// workers goroutines.
func (st *hbState) pairOpts(workers int) seg.PairOptions {
	return seg.PairOptions{Workers: workers, Memo: st.memo, Ctx: st.ctx}
}

func pairKey(a, b candidate) [2]int {
	key := [2]int{a.id, b.id}
	if key[0] > key[1] {
		key[0], key[1] = key[1], key[0]
	}
	return key
}

func (st *hbState) pairIndep(a, b candidate) (float64, error) {
	key := pairKey(a, b)
	if v, ok := st.indep[key]; ok {
		st.res.IndepCacheHits++
		return v, nil
	}
	v, err := seg.IndepOpt(st.ev, a.seg, b.seg, st.pairOpts(st.cfg.Workers))
	if err != nil {
		return 0, err
	}
	st.res.IndepEvals++
	st.indep[key] = v
	st.prog.report(PhasePairs, 0)
	return v, nil
}

func (st *hbState) removePair(i, j int) {
	if i > j {
		i, j = j, i
	}
	st.cand = append(st.cand[:j], st.cand[j+1:]...)
	st.cand = append(st.cand[:i], st.cand[i+1:]...)
}
