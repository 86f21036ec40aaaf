package core

import (
	"strings"
	"testing"

	"charles/internal/dataset"
	"charles/internal/engine"
	"charles/internal/sdl"
	"charles/internal/seg"
)

func figure3Env(t *testing.T, n int) (*seg.Evaluator, sdl.Query) {
	t.Helper()
	tab := dataset.Figure3(n, 1)
	return seg.NewEvaluator(tab), sdl.ContextAll(tab)
}

// TestHBCutsFigure3Shape reproduces the execution example of Figure
// 3: a query with 5 attributes whose planted dependencies make the
// procedure generate and return exactly 8 segmentations — the 5
// initial single-attribute cuts plus (att2,att3), (att4,att5) and
// (att1,att2,att3) — and then stop because the remaining pair is
// independent ("No split" at the top of the figure).
func TestHBCutsFigure3Shape(t *testing.T) {
	ev, ctx := figure3Env(t, 20000)
	res, err := HBCuts(nil, ev, ctx, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segmentations) != 8 {
		t.Fatalf("returned %d segmentations, want 8", len(res.Segmentations))
	}
	if res.Iterations != 3 {
		t.Fatalf("iterations = %d, want 3", res.Iterations)
	}
	if res.StopReason != StopIndependent {
		t.Fatalf("stop reason = %v, want independence", res.StopReason)
	}
	keys := map[string]bool{}
	for _, s := range res.Segmentations {
		keys[strings.Join(s.Seg.CutAttrs, "+")] = true
	}
	for _, want := range []string{
		"att1", "att2", "att3", "att4", "att5",
		"att2+att3", "att4+att5", "att1+att2+att3",
	} {
		if !keys[want] {
			t.Errorf("missing segmentation on %s (have %v)", want, keys)
		}
	}
	// Ranked by entropy: the deepest composition first.
	if got := strings.Join(res.Segmentations[0].Seg.CutAttrs, "+"); got != "att1+att2+att3" {
		t.Fatalf("top-ranked = %s, want att1+att2+att3", got)
	}
	for i := 1; i < len(res.Segmentations); i++ {
		if res.Segmentations[i].Score > res.Segmentations[i-1].Score+1e-12 {
			t.Fatalf("ranking not descending at %d", i)
		}
	}
}

func TestHBCutsOutputsArePartitions(t *testing.T) {
	ev, ctx := figure3Env(t, 5000)
	res, err := HBCuts(nil, ev, ctx, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Segmentations {
		if err := seg.ValidatePartition(ev, ctx, s.Seg); err != nil {
			t.Fatalf("%v: %v", s.Seg.CutAttrs, err)
		}
	}
}

func TestHBCutsMaxDepthStops(t *testing.T) {
	ev, ctx := figure3Env(t, 5000)
	cfg := DefaultConfig()
	cfg.MaxDepth = 4 // compositions reach 4 pieces immediately
	res, err := HBCuts(nil, ev, ctx, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != StopDepth {
		t.Fatalf("stop reason = %v, want depth", res.StopReason)
	}
	for _, s := range res.Segmentations {
		if s.Metrics.Depth >= 4 {
			t.Fatalf("output depth %d violates the bound", s.Metrics.Depth)
		}
	}
	// Only the 5 initial cuts survive.
	if len(res.Segmentations) != 5 {
		t.Fatalf("outputs = %d, want 5", len(res.Segmentations))
	}
}

func TestHBCutsMaxIndepOne(t *testing.T) {
	// With the threshold at 1.0 composition keeps going (every pair
	// has INDEP ≤ 1 but ties at 1 mean "stop" only at ≥): it must
	// then stop on depth or exhaustion instead.
	ev, ctx := figure3Env(t, 3000)
	cfg := DefaultConfig()
	cfg.MaxIndep = 1.000001
	res, err := HBCuts(nil, ev, ctx, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason == StopIndependent {
		t.Fatalf("stop reason = independence despite maxIndep > 1")
	}
}

func TestHBCutsIndependentDataComposesNothing(t *testing.T) {
	tab := dataset.UniformInts(20000, 4, 1000, 7)
	ev := seg.NewEvaluator(tab)
	res, err := HBCuts(nil, ev, sdl.ContextAll(tab), DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// All pairs independent: only the 4 initial cuts come back.
	if res.Iterations != 0 {
		t.Fatalf("iterations = %d on independent data", res.Iterations)
	}
	if len(res.Segmentations) != 4 {
		t.Fatalf("outputs = %d, want 4", len(res.Segmentations))
	}
	if res.StopReason != StopIndependent {
		t.Fatalf("stop reason = %v", res.StopReason)
	}
}

func TestHBCutsSkipsConstantAttrs(t *testing.T) {
	tab := engine.MustNewTable("t",
		engine.NewIntColumn("v", []int64{1, 2, 3, 4, 5, 6, 7, 8}),
		engine.NewIntColumn("c", []int64{7, 7, 7, 7, 7, 7, 7, 7}),
	)
	ev := seg.NewEvaluator(tab)
	res, err := HBCuts(nil, ev, sdl.ContextAll(tab), DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SkippedAttrs) != 1 || res.SkippedAttrs[0] != "c" {
		t.Fatalf("skipped = %v, want [c]", res.SkippedAttrs)
	}
	if len(res.Segmentations) != 1 {
		t.Fatalf("outputs = %d, want 1", len(res.Segmentations))
	}
}

func TestHBCutsAllConstantFails(t *testing.T) {
	tab := engine.MustNewTable("t", engine.NewIntColumn("c", []int64{7, 7}))
	ev := seg.NewEvaluator(tab)
	if _, err := HBCuts(nil, ev, sdl.ContextAll(tab), DefaultConfig(), nil); err == nil {
		t.Fatal("all-constant context accepted")
	}
}

func TestHBCutsEmptyContextAttrsFails(t *testing.T) {
	tab := engine.MustNewTable("t", engine.NewIntColumn("v", []int64{1, 2}))
	ev := seg.NewEvaluator(tab)
	if _, err := HBCuts(nil, ev, sdl.Query{}, DefaultConfig(), nil); err == nil {
		t.Fatal("empty context accepted")
	}
}

func TestHBCutsRestrictsToContextColumns(t *testing.T) {
	// "By convention, we choose to restrict the exploration to the
	// columns mentioned by the user."
	tab := dataset.Figure3(2000, 3)
	ev := seg.NewEvaluator(tab)
	ctx, err := sdl.ContextOn(tab, "att2", "att3")
	if err != nil {
		t.Fatal(err)
	}
	res, err := HBCuts(nil, ev, ctx, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Segmentations {
		for _, a := range s.Seg.CutAttrs {
			if a != "att2" && a != "att3" {
				t.Fatalf("segmentation cut on unmentioned column %q", a)
			}
		}
	}
}

func TestHBCutsConstrainedContext(t *testing.T) {
	// Advising inside a sub-population: the context carries a real
	// predicate and all answers must stay inside it.
	tab := dataset.Figure3(5000, 4)
	ev := seg.NewEvaluator(tab)
	ctx := sdl.MustQuery(
		sdl.RangeC("att1", engine.Int(0), engine.Int(500), true, false),
		sdl.Any("att2"), sdl.Any("att3"),
	)
	res, err := HBCuts(nil, ev, ctx, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Segmentations {
		if err := seg.ValidatePartition(ev, ctx, s.Seg); err != nil {
			t.Fatal(err)
		}
		for _, q := range s.Seg.Queries {
			c, ok := q.Constraint("att1")
			if !ok {
				t.Fatalf("query %s lost the context constraint", q)
			}
			if c.Kind == sdl.KindRange && c.Range.Hi.AsInt() > 500 {
				t.Fatalf("query %s escapes the context", q)
			}
		}
	}
}

func TestHBCutsIndepCacheReuse(t *testing.T) {
	ev, ctx := figure3Env(t, 5000)
	res, err := HBCuts(nil, ev, ctx, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// 5 initial candidates → 10 pairs in iteration 1; subsequent
	// iterations reuse all surviving pairs. Without the cache the
	// run would evaluate sum over iterations of C(k,2) pairs.
	if res.IndepCacheHits == 0 {
		t.Fatal("INDEP cache never hit")
	}
	uncached := 0
	for k := 5; k >= 2; k-- {
		uncached += k * (k - 1) / 2
	}
	if res.IndepEvals >= uncached {
		t.Fatalf("IndepEvals = %d, want fewer than uncached %d", res.IndepEvals, uncached)
	}
}

func TestHBCutsChiSquareStopping(t *testing.T) {
	tab := dataset.UniformInts(10000, 3, 1000, 11)
	ev := seg.NewEvaluator(tab)
	cfg := DefaultConfig()
	cfg.UseChiSquare = true
	cfg.ChiAlpha = 0.01
	res, err := HBCuts(nil, ev, sdl.ContextAll(tab), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 0 || res.StopReason != StopIndependent {
		t.Fatalf("chi-squared rule composed independent data: %d iterations", res.Iterations)
	}
	// And on strongly dependent data it lets composition proceed.
	tab2 := dataset.CorrelatedPair(5000, 0.95, 2)
	ev2 := seg.NewEvaluator(tab2)
	res2, err := HBCuts(nil, ev2, sdl.ContextAll(tab2), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Iterations == 0 {
		t.Fatal("chi-squared rule blocked composition of dependent data")
	}
}

func TestHBCutsRandomPairingAblation(t *testing.T) {
	ev, ctx := figure3Env(t, 5000)
	cfg := DefaultConfig()
	cfg.Pairing = PairRandom
	cfg.Seed = 42
	cfg.MaxIndep = 1.000001 // random pairs stop too early otherwise
	res, err := HBCuts(nil, ev, ctx, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segmentations) < 5 {
		t.Fatalf("outputs = %d", len(res.Segmentations))
	}
	for _, s := range res.Segmentations {
		if err := seg.ValidatePartition(ev, ctx, s.Seg); err != nil {
			t.Fatal(err)
		}
	}
	// Determinism under a fixed seed.
	ev2 := seg.NewEvaluator(dataset.Figure3(5000, 1))
	res2, err := HBCuts(nil, ev2, ctx, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segmentations) != len(res2.Segmentations) {
		t.Fatal("random pairing not reproducible under fixed seed")
	}
}

func TestHBCutsQuantileArity(t *testing.T) {
	ev, ctx := figure3Env(t, 5000)
	cfg := DefaultConfig()
	cfg.Cut.Arity = 3
	res, err := HBCuts(nil, ev, ctx, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Segmentations {
		if len(s.Seg.CutAttrs) == 1 && s.Metrics.Depth != 3 {
			t.Fatalf("ternary initial cut has depth %d", s.Metrics.Depth)
		}
		if err := seg.ValidatePartition(ev, ctx, s.Seg); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHBCutsDeterministic(t *testing.T) {
	run := func() []string {
		tab := dataset.VOC(3000, 9)
		ev := seg.NewEvaluator(tab)
		ctx, err := sdl.ContextOn(tab, "type_of_boat", "tonnage", "departure_harbour", "trip")
		if err != nil {
			t.Fatal(err)
		}
		res, err := HBCuts(nil, ev, ctx, DefaultConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for _, s := range res.Segmentations {
			keys = append(keys, s.Seg.Key())
		}
		return keys
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic output count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic ranking at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestScoreFuncs(t *testing.T) {
	m := seg.Metrics{Entropy: 2, Balance: 0.8, Breadth: 3, Simplicity: 2}
	if EntropyScore(m) != 2 {
		t.Fatal("EntropyScore broken")
	}
	if BalanceScore(m) != 0.8 {
		t.Fatal("BalanceScore broken")
	}
	if got := WeightedScore(1, 1, 1)(m); got != 2+3-2 {
		t.Fatalf("WeightedScore = %v", got)
	}
}

func TestStopReasonString(t *testing.T) {
	for r, want := range map[StopReason]string{
		StopExhausted:   "candidates exhausted",
		StopIndependent: "pair independent",
		StopDepth:       "depth bound reached",
		StopReason(99):  "unknown",
	} {
		if r.String() != want {
			t.Errorf("StopReason(%d) = %q", r, r.String())
		}
	}
}
