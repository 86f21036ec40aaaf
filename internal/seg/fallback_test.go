package seg

import (
	"math"
	"testing"

	"charles/internal/engine"
	"charles/internal/sdl"
)

// skewedStatusTable builds the fallback's motivating shape: a
// majority value that collapses every equi-depth point, plus a tail
// of rarer values — as an int column and as a float column (with
// NaN rows, which the fallback must count as one value).
func skewedStatusTable(t *testing.T) *engine.Table {
	t.Helper()
	n := 1000
	ints := make([]int64, n)
	floats := make([]float64, n)
	for i := range ints {
		switch {
		case i%100 == 0:
			ints[i], floats[i] = 500, 5.5
		case i%25 == 0:
			ints[i], floats[i] = 404, 4.25
		case i%200 == 3:
			ints[i], floats[i] = 302, math.NaN()
		default:
			ints[i], floats[i] = 200, 2.0
		}
	}
	return engine.MustNewTable("status",
		engine.NewIntColumn("code", ints),
		engine.NewFloatColumn("latency", floats),
	)
}

// TestNumericNominalFallbackDeterministic pins the fallback's
// ordering: the counting map iterates in random order, so only the
// frequency sort's value tie-break keeps the produced set
// constraints stable. Any run disagreeing with the first is a
// determinism regression.
func TestNumericNominalFallbackDeterministic(t *testing.T) {
	tab := skewedStatusTable(t)
	for _, attr := range []string{"code", "latency"} {
		var baseline []sdl.Query
		for run := 0; run < 25; run++ {
			ev := NewEvaluator(tab)
			children, err := CutQuery(ev, sdl.ContextAll(tab), attr, DefaultCutOptions())
			if err != nil {
				t.Fatal(err)
			}
			if len(children) < 2 {
				t.Fatalf("%s: fallback did not split (%d children)", attr, len(children))
			}
			if baseline == nil {
				baseline = children
				continue
			}
			if len(children) != len(baseline) {
				t.Fatalf("%s run %d: %d children, first run had %d", attr, run, len(children), len(baseline))
			}
			for i := range children {
				if children[i].Key() != baseline[i].Key() {
					t.Fatalf("%s run %d child %d: %s, first run had %s",
						attr, run, i, children[i].Key(), baseline[i].Key())
				}
			}
		}
	}
}

// TestNumericNominalFallbackMatchesStringKeyed pins the bits-keyed
// counting to the observable contract of the old string-keyed
// implementation: the produced pieces partition the extent, the
// majority value leads the frequency order, and all NaN rows land in
// one piece together.
func TestNumericNominalFallbackMatchesStringKeyed(t *testing.T) {
	tab := skewedStatusTable(t)
	ev := NewEvaluator(tab)
	children, err := CutQuery(ev, sdl.ContextAll(tab), "code", DefaultCutOptions())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, q := range children {
		n, err := ev.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatalf("empty piece %s", q)
		}
		total += n
	}
	if total != tab.NumRows() {
		t.Fatalf("pieces cover %d rows, table has %d", total, tab.NumRows())
	}
	// The majority value (200) must sit in the first piece: values
	// order by descending frequency at this cardinality.
	first, ok := children[0].Constraint("code")
	if !ok || first.Kind != sdl.KindSet {
		t.Fatalf("first piece is not a set constraint: %+v", first)
	}
	found := false
	for _, v := range first.Set {
		if v.AsInt() == 200 {
			found = true
		}
	}
	if !found {
		t.Fatalf("majority value 200 not in first piece %s", children[0])
	}

	// Float fallback: NaN matches no set constraint (the float set
	// filter's documented convention, unchanged from the string-keyed
	// implementation), so the pieces partition exactly the non-NaN
	// extent — finding more or fewer rows than that means the
	// bits-keyed counting drifted.
	latChildren, err := CutQuery(ev, sdl.ContextAll(tab), "latency", DefaultCutOptions())
	if err != nil {
		t.Fatal(err)
	}
	latTotal := 0
	for _, q := range latChildren {
		n, err := ev.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		latTotal += n
	}
	nonNaN := 0
	lat := tab.MustColumn("latency").(*engine.FloatColumn)
	for _, v := range lat.Float64s() {
		if v == v {
			nonNaN++
		}
	}
	if latTotal != nonNaN {
		t.Fatalf("float pieces cover %d rows, non-NaN extent is %d", latTotal, nonNaN)
	}
}
