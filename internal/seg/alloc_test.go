package seg

import (
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
	em := &EvalMetrics{
		FullEvals: &obs.Counter{}, NarrowEvals: &obs.Counter{}, CacheHits: &obs.Counter{},
		CutPointCalcs: &obs.Counter{}, CutCacheHits: &obs.Counter{},
		DeltaRefreshes: &obs.Counter{}, CutRefreshes: &obs.Counter{},
		PairMemoHits: &obs.Counter{}, PairMemoMisses: &obs.Counter{},
		PairTableHits: &obs.Counter{}, RowMaterializations: &obs.Counter{},
	}
	ev.SetEvalMetrics(em)
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
	if em.PairTableHits.Value() == 0 {
		t.Error("live recorder saw no pair-table hits on the warm path: the counters are not wired")
	}
	if em.PairMemoHits.Value() == 0 {
		t.Error("live recorder saw no pair-memo hits on a table miss: the counters are not wired")
	}
}
