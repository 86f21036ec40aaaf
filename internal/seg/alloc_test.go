package seg

import (
	"strconv"
	"strings"
	"testing"

	"charles/internal/dataset"
	"charles/internal/engine"
	"charles/internal/obs"
	"charles/internal/sdl"
)

// TestWarmPairwiseAllocBudget is the allocation-regression guard for
// the steady-state pairwise path: on a warm server — selections
// cached, bitmaps packed, pair sides memoized, scratch pools primed —
// a CellCounts/INDEP/chi-squared evaluation must cost a handful of
// allocations (slice headers, memo keys, closures), never anything
// proportional to the cell grid or the table. Each operator is
// measured twice: served by the pair-table tier, and on a table miss
// (the tier emptied before every run) where both sides come from the
// PairMemo and only the stored copy of the table is new. The budgets
// are pinned with ~2× headroom over the measured steady state; if this
// test fails, some hot-loop buffer stopped being pooled or a
// conversion started materializing per call.
func TestWarmPairwiseAllocBudget(t *testing.T) {
	tab := dataset.VOC(20000, 7)
	ev := NewEvaluator(tab)
	// The budgets hold with a live recorder attached: instrumentation
	// is one atomic load plus atomic adds, never an allocation. A
	// no-op-recorder-only budget would let the /metrics path regress
	// unwatched.
	engine.SetMetrics(&engine.Metrics{
		ZoneSkip: &obs.Counter{}, ZoneTake: &obs.Counter{}, ZoneScan: &obs.Counter{},
		VectorKernels: &obs.Counter{}, FusedKernels: &obs.Counter{},
	})
	defer engine.SetMetrics(nil)
	em, reg := liveRecorders(ev)
	ctx, err := sdl.ContextOn(tab, "tonnage", "built")
	if err != nil {
		t.Fatal(err)
	}
	cutOpt := DefaultCutOptions()
	cutOpt.Arity = 4
	s1, ok, err := InitialCut(ev, ctx, "tonnage", cutOpt)
	if err != nil || !ok {
		t.Fatalf("InitialCut(tonnage): %v ok=%v", err, ok)
	}
	s2, ok, err := InitialCut(ev, ctx, "built", cutOpt)
	if err != nil || !ok {
		t.Fatalf("InitialCut(built): %v ok=%v", err, ok)
	}
	po := PairOptions{Workers: 1, Memo: NewPairMemo()}

	// Warm everything once: sides into the memo, packed bitmaps into
	// the evaluator cache, scratch buffers into the pools.
	if _, err := CellCountsOpt(ev, s1, s2, po); err != nil {
		t.Fatal(err)
	}
	if _, err := IndepOpt(ev, s1, s2, po); err != nil {
		t.Fatal(err)
	}
	if _, err := ChiSquareIndependentOpt(ev, s1, s2, 0.05, po); err != nil {
		t.Fatal(err)
	}

	type check struct {
		name   string
		budget float64
		run    func() error
	}
	checks := []check{
		// CellCounts hands the table to the caller, so it legitimately
		// allocates the flat vector and the row headers — and nothing
		// else.
		{"CellCounts", 12, func() error {
			_, err := CellCountsOpt(ev, s1, s2, po)
			return err
		}},
		// Indep and ChiSquare consume the table internally and work
		// entirely in pooled scratch.
		{"Indep", 8, func() error {
			_, err := IndepOpt(ev, s1, s2, po)
			return err
		}},
		{"ChiSquare", 8, func() error {
			_, err := ChiSquareIndependentOpt(ev, s1, s2, 0.05, po)
			return err
		}},
	}
	for _, c := range checks[:3] {
		run := c.run
		checks = append(checks, check{c.name + "/TableMiss", c.budget, func() error {
			dropPairTables(ev)
			return run()
		}})
	}
	for _, c := range checks {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var runErr error
			avg := testing.AllocsPerRun(200, func() {
				if err := c.run(); err != nil {
					runErr = err
				}
			})
			if runErr != nil {
				t.Fatal(runErr)
			}
			if avg > c.budget {
				t.Fatalf("warm %s averaged %.1f allocs/op, budget %.0f", c.name, avg, c.budget)
			}
			t.Logf("warm %s: %.1f allocs/op (budget %.0f)", c.name, avg, c.budget)
		})
	}
	if scraped(t, reg, "charles_seg_pair_table_hits_total") == 0 {
		t.Error("live recorder saw no pair-table hits on the warm path: the counters are not wired")
	}
	if em.PairMemoHits.Value() == 0 {
		t.Error("live recorder saw no pair-memo hits on a table miss: the counters are not wired")
	}
}

// TestRevisitedCutAllocBudget is the allocation guard for a revisited
// CUT: once a cut's entry holds its children and their counts, cutting
// the same segmentation again at the same table version allocates only
// the output segmentation and the cut-cache keys: nothing proportional
// to the rows, no child query rebuilt (each rebuild renders the
// child's key), no child extent looked up. Rebuilding and looking up
// cost 170 allocations here; the served cut measures 15, and the
// budget leaves about 2× headroom.
func TestRevisitedCutAllocBudget(t *testing.T) {
	tab := dataset.VOC(20000, 7)
	ev := NewEvaluator(tab)
	em, reg := liveRecorders(ev)
	ctx, err := sdl.ContextOn(tab, "tonnage", "built", "type_of_boat")
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultCutOptions()
	s1, ok, err := InitialCut(ev, ctx, "tonnage", opt)
	if err != nil || !ok {
		t.Fatalf("InitialCut(tonnage): %v ok=%v", err, ok)
	}
	s2, ok, err := InitialCut(ev, ctx, "built", opt)
	if err != nil || !ok {
		t.Fatalf("InitialCut(built): %v ok=%v", err, ok)
	}
	s, err := Compose(ev, s1, s2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if s.Depth() != 4 {
		t.Fatalf("composed segmentation has %d segments, want 4", s.Depth())
	}
	const attr, budget = "type_of_boat", 32
	if _, err := Cut(ev, s, attr, opt); err != nil {
		t.Fatal(err)
	}
	var runErr error
	avg := testing.AllocsPerRun(200, func() {
		if _, err := Cut(ev, s, attr, opt); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if avg > budget {
		t.Fatalf("revisited Cut averaged %.1f allocs/op, budget %d", avg, budget)
	}
	t.Logf("revisited Cut: %.1f allocs/op (budget %d)", avg, budget)
	if em.CutCacheHits.Value() == 0 || scraped(t, reg, "charles_seg_cut_cache_hits_total") == 0 {
		t.Error("live recorder saw no cut-cache hits on the revisit: the counters are not wired")
	}
}

// liveRecorders registers ev's counters in a fresh registry and
// installs the EvalMetrics mirrors, so an alloc budget holds with both
// live readers attached.
func liveRecorders(ev *Evaluator) (*EvalMetrics, *obs.Registry) {
	reg := obs.NewRegistry()
	ev.RegisterCounters(reg)
	em := &EvalMetrics{
		FullEvals: &obs.Counter{}, NarrowEvals: &obs.Counter{}, CacheHits: &obs.Counter{},
		CutPointCalcs: &obs.Counter{}, CutCacheHits: &obs.Counter{},
		DeltaRefreshes: &obs.Counter{}, CutRefreshes: &obs.Counter{},
		PairMemoHits: &obs.Counter{}, PairMemoMisses: &obs.Counter{},
	}
	ev.SetEvalMetrics(em)
	return em, reg
}

// scraped reads family's value from reg's Prometheus exposition.
func scraped(t *testing.T, reg *obs.Registry, family string) int64 {
	t.Helper()
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, family+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("family %s not exposed", family)
	return 0
}
