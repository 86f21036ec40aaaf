package seg

import (
	"math"
	"testing"

	"charles/internal/engine"
	"charles/internal/sdl"
)

// figure2Table realizes the boats example of Figure 2: two boat
// types whose per-type tonnage medians (2000 for fluit, 3000 for
// jacht) and per-type date medians (1744 for fluit, 1760 for jacht)
// match the numbers printed in the figure.
func figure2Table(t *testing.T) (*engine.Table, *Evaluator) {
	t.Helper()
	tab := engine.MustNewTable("boats",
		engine.NewStringColumn("type", []string{
			"fluit", "fluit", "fluit", "fluit",
			"jacht", "jacht", "jacht", "jacht",
		}),
		engine.NewIntColumn("tonnage", []int64{
			1000, 1800, 2000, 5000,
			1000, 2900, 3000, 5000,
		}),
		engine.NewIntColumn("date", []int64{
			1700, 1740, 1744, 1780,
			1700, 1755, 1760, 1780,
		}),
	)
	return tab, NewEvaluator(tab)
}

func context2(t *testing.T, tab *engine.Table) sdl.Query {
	t.Helper()
	q, err := sdl.ContextOn(tab, "type", "tonnage", "date")
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// setA is the figure's segmentation A: {fluit} | {jacht}.
func setA(t *testing.T, ev *Evaluator, ctx sdl.Query) *Segmentation {
	t.Helper()
	a, ok, err := InitialCut(ev, ctx, "type", DefaultCutOptions())
	if err != nil || !ok {
		t.Fatalf("InitialCut(type): %v ok=%v", err, ok)
	}
	return a
}

// setB is the figure's segmentation B: two date intervals.
func setB(t *testing.T, ev *Evaluator, ctx sdl.Query) *Segmentation {
	t.Helper()
	b, ok, err := InitialCut(ev, ctx, "date", DefaultCutOptions())
	if err != nil || !ok {
		t.Fatalf("InitialCut(date): %v ok=%v", err, ok)
	}
	return b
}

func TestFigure2SetA(t *testing.T) {
	tab, ev := figure2Table(t)
	ctx := context2(t, tab)
	a := setA(t, ev, ctx)
	if a.Depth() != 2 {
		t.Fatalf("A has %d segments, want 2", a.Depth())
	}
	if a.Counts[0] != 4 || a.Counts[1] != 4 {
		t.Fatalf("A counts = %v, want [4 4]", a.Counts)
	}
	// Perfectly balanced binary split: entropy = 1 bit.
	if got := a.Entropy(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("E(A) = %v, want 1", got)
	}
	types := map[string]bool{}
	for _, q := range a.Queries {
		c, ok := q.Constraint("type")
		if !ok || c.Kind != sdl.KindSet || len(c.Set) != 1 {
			t.Fatalf("segment constraint = %+v", c)
		}
		types[c.Set[0].AsString()] = true
	}
	if !types["fluit"] || !types["jacht"] {
		t.Fatalf("A types = %v", types)
	}
}

func TestFigure2CutTonnageOfA(t *testing.T) {
	tab, ev := figure2Table(t)
	ctx := context2(t, tab)
	a := setA(t, ev, ctx)
	cut, err := Cut(ev, a, "tonnage", DefaultCutOptions())
	if err != nil {
		t.Fatal(err)
	}
	if cut.Depth() != 4 {
		t.Fatalf("CUT_tonnage(A) has %d segments, want 4", cut.Depth())
	}
	// Collect the per-type tonnage boundaries: the figure shows the
	// fluit pieces splitting at 2000 and the jacht pieces at 3000.
	splits := map[string]int64{}
	for _, q := range cut.Queries {
		ty, _ := q.Constraint("type")
		ton, ok := q.Constraint("tonnage")
		if !ok || ton.Kind != sdl.KindRange {
			t.Fatalf("tonnage constraint missing: %s", q)
		}
		name := ty.Set[0].AsString()
		// Left piece [min, med): record med; right piece [med, max]:
		// record med.
		if !ton.Range.HiIncl {
			splits[name] = ton.Range.Hi.AsInt()
		}
	}
	if splits["fluit"] != 2000 {
		t.Errorf("fluit split at %d, want 2000", splits["fluit"])
	}
	if splits["jacht"] != 3000 {
		t.Errorf("jacht split at %d, want 3000", splits["jacht"])
	}
	// Each piece has 2 rows: the cut is balanced within each type.
	for i, c := range cut.Counts {
		if c != 2 {
			t.Errorf("segment %d count = %d, want 2", i, c)
		}
	}
	if err := ValidatePartition(ev, ctx, cut); err != nil {
		t.Fatal(err)
	}
}

func TestFigure2ComposeAB(t *testing.T) {
	tab, ev := figure2Table(t)
	ctx := context2(t, tab)
	a := setA(t, ev, ctx)
	b := setB(t, ev, ctx)
	composed, err := Compose(ev, a, b, DefaultCutOptions())
	if err != nil {
		t.Fatal(err)
	}
	if composed.Depth() != 4 {
		t.Fatalf("COMPOSE(A,B) has %d segments, want 4", composed.Depth())
	}
	// The figure shows per-type date medians: fluit splits at 1744,
	// jacht at 1760 — each type is cut with its own median, which is
	// exactly what distinguishes COMPOSE from PRODUCT.
	splits := map[string]int64{}
	for _, q := range composed.Queries {
		ty, _ := q.Constraint("type")
		d, ok := q.Constraint("date")
		if !ok {
			t.Fatalf("date constraint missing: %s", q)
		}
		if !d.Range.HiIncl {
			splits[ty.Set[0].AsString()] = d.Range.Hi.AsInt()
		}
	}
	if splits["fluit"] != 1744 {
		t.Errorf("fluit date split at %d, want 1744", splits["fluit"])
	}
	if splits["jacht"] != 1760 {
		t.Errorf("jacht date split at %d, want 1760", splits["jacht"])
	}
	if err := ValidatePartition(ev, ctx, composed); err != nil {
		t.Fatal(err)
	}
}

func TestFigure2ProductAB(t *testing.T) {
	tab, ev := figure2Table(t)
	ctx := context2(t, tab)
	a := setA(t, ev, ctx)
	b := setB(t, ev, ctx)
	prod, err := ProductOpt(ev, a, b, PairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if prod.Depth() != 4 {
		t.Fatalf("A×B has %d segments, want 4", prod.Depth())
	}
	// Unlike COMPOSE, the product uses B's global boundaries, so the
	// cell sizes are skewed: fluits are early, jachts late.
	counts := map[int]int{}
	for _, c := range prod.Counts {
		counts[c]++
	}
	if counts[3] != 2 || counts[1] != 2 {
		t.Fatalf("A×B counts = %v, want two 3s and two 1s", prod.Counts)
	}
	if err := ValidatePartition(ev, ctx, prod); err != nil {
		t.Fatal(err)
	}
}

func TestFigure2IndepDetectsDependence(t *testing.T) {
	tab, ev := figure2Table(t)
	ctx := context2(t, tab)
	a := setA(t, ev, ctx)
	b := setB(t, ev, ctx)
	// "The example of Figure 2 shows a dependence between the type
	// of boat and the departure date": INDEP must be strictly < 1.
	ind, err := IndepOpt(ev, a, b, PairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ind >= 1 || ind <= 0 {
		t.Fatalf("INDEP(A,B) = %v, want in (0,1)", ind)
	}
	// And it must equal E(A×B)/(E(A)+E(B)) by definition.
	prod, err := ProductOpt(ev, a, b, PairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := prod.Entropy() / (a.Entropy() + b.Entropy())
	if math.Abs(ind-want) > 1e-12 {
		t.Fatalf("INDEP = %v, definition gives %v", ind, want)
	}
}
