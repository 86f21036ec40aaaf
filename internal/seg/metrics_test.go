package seg

import (
	"math"
	"math/rand"
	"testing"

	"charles/internal/engine"
	"charles/internal/sdl"
)

func TestMetricsOnKnownSegmentation(t *testing.T) {
	tab, ev := figure2Table(t)
	ctx := context2(t, tab)
	a := setA(t, ev, ctx)
	m := a.ComputeMetrics()
	if m.Depth != 2 || m.Simplicity != 1 || m.Breadth != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	if math.Abs(m.Entropy-1) > 1e-12 || math.Abs(m.Balance-1) > 1e-12 {
		t.Fatalf("entropy/balance = %v/%v", m.Entropy, m.Balance)
	}
	cut, err := Cut(ev, a, "tonnage", DefaultCutOptions())
	if err != nil {
		t.Fatal(err)
	}
	m = cut.ComputeMetrics()
	if m.Depth != 4 || m.Simplicity != 2 || m.Breadth != 2 {
		t.Fatalf("cut metrics = %+v", m)
	}
	if math.Abs(m.Entropy-2) > 1e-12 {
		t.Fatalf("balanced 4-way entropy = %v, want 2", m.Entropy)
	}
}

func TestCoverSumsToOne(t *testing.T) {
	tab, ev := figure2Table(t)
	ctx := context2(t, tab)
	a := setA(t, ev, ctx)
	sum := 0.0
	for i := range a.Queries {
		sum += a.Cover(i)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("covers sum to %v", sum)
	}
}

func TestSegmentationKeyAndString(t *testing.T) {
	s := &Segmentation{
		Queries:  []sdl.Query{{}, {}},
		CutAttrs: []string{"a", "b"},
		Counts:   []int{1, 2},
	}
	if s.Key() != "a,b#()|()" {
		t.Fatalf("Key = %q", s.Key())
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
	if s.Total() != 3 {
		t.Fatalf("Total = %d", s.Total())
	}
}

// TestSegmentationKeyDistinguishesCutPoints is the regression test
// for the ranking-determinism fix: two segmentations on the same
// attributes at the same depth but with different cut points (or
// contexts) must not share a key, or the final ranking tie-break
// becomes unstable among tied candidates.
func TestSegmentationKeyDistinguishesCutPoints(t *testing.T) {
	mk := func(lo, hi int64) *Segmentation {
		return &Segmentation{
			Queries: []sdl.Query{
				sdl.MustQuery(sdl.ClosedRange("tonnage", engine.Int(0), engine.Int(lo))),
				sdl.MustQuery(sdl.ClosedRange("tonnage", engine.Int(lo+1), engine.Int(hi))),
			},
			CutAttrs: []string{"tonnage"},
			Counts:   []int{1, 1},
		}
	}
	a, b := mk(100, 500), mk(250, 500)
	if a.Key() == b.Key() {
		t.Fatalf("distinct cut points share key %q", a.Key())
	}
	if a.Key() != mk(100, 500).Key() {
		t.Fatal("identical segmentations disagree on key")
	}
}

func TestEmptySegmentationMetrics(t *testing.T) {
	s := &Segmentation{}
	if s.Entropy() != 0 || s.Depth() != 0 || s.Breadth() != 0 || s.Simplicity() != 0 {
		t.Fatal("empty segmentation has non-zero metrics")
	}
	if s.Cover(0) != 0 {
		// Cover on empty total must not divide by zero; index 0 would
		// panic on Counts access, so only check total-zero behavior
		// via a one-element Counts.
		t.Fatal("unreachable")
	}
}

// TestPartitionInvariantRandomized is the central property test of
// the package: random tables, random cut/compose/product pipelines,
// and the Definition 3 invariant must hold at every step.
func TestPartitionInvariantRandomized(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(400)
		ints := make([]int64, n)
		floats := make([]float64, n)
		strs := make([]string, n)
		dates := make([]int64, n)
		words := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
		for i := 0; i < n; i++ {
			ints[i] = rng.Int63n(40)
			floats[i] = float64(rng.Intn(100)) / 3
			strs[i] = words[rng.Intn(len(words))]
			dates[i] = rng.Int63n(3650)
		}
		tab := engine.MustNewTable("rand",
			engine.NewIntColumn("i", ints),
			engine.NewFloatColumn("f", floats),
			engine.NewStringColumn("s", strs),
			engine.NewDateColumn("d", dates),
		)
		ev := NewEvaluator(tab)
		ctx := sdl.ContextAll(tab)
		attrs := []string{"i", "f", "s", "d"}

		// Pipeline: initial cut, then 2 more random operations.
		cur, ok, err := InitialCut(ev, ctx, attrs[rng.Intn(4)], DefaultCutOptions())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !ok {
			continue
		}
		if err := ValidatePartition(ev, ctx, cur); err != nil {
			t.Fatalf("seed %d initial: %v", seed, err)
		}
		for step := 0; step < 2; step++ {
			switch rng.Intn(3) {
			case 0:
				cur, err = Cut(ev, cur, attrs[rng.Intn(4)], DefaultCutOptions())
			case 1:
				other, ok2, err2 := InitialCut(ev, ctx, attrs[rng.Intn(4)], DefaultCutOptions())
				if err2 != nil || !ok2 {
					err = err2
					break
				}
				cur, err = Compose(ev, cur, other, DefaultCutOptions())
			default:
				other, ok2, err2 := InitialCut(ev, ctx, attrs[rng.Intn(4)], DefaultCutOptions())
				if err2 != nil || !ok2 {
					err = err2
					break
				}
				cur, err = ProductOpt(ev, cur, other, PairOptions{})
			}
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if err := ValidatePartition(ev, ctx, cur); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			// Entropy bound: E(S) ≤ log2(depth).
			if e := cur.Entropy(); e > cur.MaxEntropy()+1e-9 {
				t.Fatalf("seed %d: entropy %v exceeds bound %v", seed, e, cur.MaxEntropy())
			}
		}
	}
}

func TestIndepBoundsRandomized(t *testing.T) {
	// INDEP is in (0, 1] and subadditivity makes the numerator at
	// most the denominator.
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed + 100))
		n := 100 + rng.Intn(300)
		a := make([]int64, n)
		b := make([]int64, n)
		for i := 0; i < n; i++ {
			a[i] = rng.Int63n(50)
			if rng.Intn(2) == 0 {
				b[i] = a[i] + rng.Int63n(5) // correlated half the time
			} else {
				b[i] = rng.Int63n(50)
			}
		}
		tab := engine.MustNewTable("rand",
			engine.NewIntColumn("a", a),
			engine.NewIntColumn("b", b),
		)
		ev := NewEvaluator(tab)
		ctx := sdl.ContextAll(tab)
		sa, ok1, err1 := InitialCut(ev, ctx, "a", DefaultCutOptions())
		sb, ok2, err2 := InitialCut(ev, ctx, "b", DefaultCutOptions())
		if err1 != nil || err2 != nil || !ok1 || !ok2 {
			continue
		}
		ind, err := IndepOpt(ev, sa, sb, PairOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if ind <= 0 || ind > 1+1e-9 {
			t.Fatalf("seed %d: INDEP = %v out of (0,1]", seed, ind)
		}
	}
}

func TestIndepDegenerateIsOne(t *testing.T) {
	if got := IndepFromCells(nil); got != 1 {
		t.Fatalf("IndepFromCells(nil) = %v", got)
	}
	// Single-cell table: both marginals degenerate → 1.
	if got := IndepFromCells([][]int{{10}}); got != 1 {
		t.Fatalf("IndepFromCells(single) = %v", got)
	}
}

func TestChiSquareIndependentOnSegmentations(t *testing.T) {
	// Perfectly dependent columns: chi-squared must reject.
	n := 400
	a := make([]int64, n)
	b := make([]int64, n)
	for i := 0; i < n; i++ {
		a[i] = int64(i % 2)
		b[i] = a[i]
	}
	tab := engine.MustNewTable("t",
		engine.NewIntColumn("a", a), engine.NewIntColumn("b", b))
	ev := NewEvaluator(tab)
	ctx := sdl.ContextAll(tab)
	sa, _, _ := InitialCut(ev, ctx, "a", DefaultCutOptions())
	sb, _, _ := InitialCut(ev, ctx, "b", DefaultCutOptions())
	indep, err := ChiSquareIndependentOpt(ev, sa, sb, 0.01, PairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if indep {
		t.Fatal("chi-squared accepted perfect dependence as independent")
	}
}

func TestValidatePartitionCatchesBadCounts(t *testing.T) {
	tab, ev := figure2Table(t)
	ctx := context2(t, tab)
	a := setA(t, ev, ctx)
	broken := &Segmentation{Queries: a.Queries, CutAttrs: a.CutAttrs, Counts: []int{1, 1}}
	if err := ValidatePartition(ev, ctx, broken); err == nil {
		t.Fatal("bad counts accepted")
	}
}

func TestValidatePartitionCatchesOverlap(t *testing.T) {
	tab, ev := figure2Table(t)
	ctx := context2(t, tab)
	all := sdl.MustQuery(sdl.Any("type"))
	sel, _ := ev.Select(all)
	overlap := &Segmentation{
		Queries:  []sdl.Query{all, all},
		CutAttrs: nil,
		Counts:   []int{len(sel), len(sel)},
	}
	if err := ValidatePartition(ev, ctx, overlap); err == nil {
		t.Fatal("overlapping segments accepted")
	}
}

func TestValidatePartitionCatchesGaps(t *testing.T) {
	tab, ev := figure2Table(t)
	ctx := context2(t, tab)
	onlyFluit := sdl.MustQuery(sdl.SetC("type", engine.String_("fluit")))
	sel, _ := ev.Select(onlyFluit)
	gappy := &Segmentation{
		Queries:  []sdl.Query{onlyFluit},
		CutAttrs: []string{"type"},
		Counts:   []int{len(sel)},
	}
	if err := ValidatePartition(ev, ctx, gappy); err == nil {
		t.Fatal("non-exhaustive segmentation accepted")
	}
}
