package seg

import (
	"slices"
	"testing"

	"charles/internal/dataset"
	"charles/internal/engine"
	"charles/internal/sdl"
)

// dropPairTables empties the pair-table tier without allocating, so
// the next pairwise call counts its table (and builds its sides).
func dropPairTables(ev *Evaluator) {
	ev.pairs.mu.Lock()
	ev.pairs.dropLocked(&ev.clock)
	ev.pairs.mu.Unlock()
}

// pairTables reports the tier's fingerprint and entry count.
func pairTables(ev *Evaluator) (string, int) {
	ev.pairs.mu.RLock()
	defer ev.pairs.mu.RUnlock()
	return ev.pairFP, len(ev.pairs.m)
}

// freshCells counts the table of s1 × s2 on a new evaluator.
func freshCells(t *testing.T, tab *engine.Table, s1, s2 *Segmentation) [][]int {
	t.Helper()
	cells, err := CellCountsOpt(NewEvaluator(tab), s1, s2, PairOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

func equalCells(a, b [][]int) bool {
	return slices.EqualFunc(a, b, func(x, y []int) bool { return slices.Equal(x, y) })
}

// TestPairTablesMatchFreshEvaluator holds every table the tier serves
// to a fresh evaluator's count, for every ordered pair of HB-cuts
// candidates (initial and composed) of a VOC context and of a sky
// context with NaN in redshift, whose range cuts hold the NaN rows in a
// {NaN} piece. A hand-built copy shares its
// original's key, so it is served the original's table — which must be
// its own as well.
func TestPairTablesMatchFreshEvaluator(t *testing.T) {
	voc := dataset.VOC(3000, 21)
	voc.SetChunkRows(512)
	for _, tc := range []struct {
		tab   *engine.Table
		attrs []string
	}{
		{voc, []string{"type_of_boat", "tonnage", "departure_harbour", "departure_date"}},
		{nanSky(t), []string{"class", "magnitude", "redshift"}},
	} {
		ctx, err := sdl.ContextOn(tc.tab, tc.attrs...)
		if err != nil {
			t.Fatal(err)
		}
		ev := NewEvaluator(tc.tab)
		segs := candidates(t, ev, ctx)
		segs = append(segs, handBuilt(segs[len(segs)-1]))
		opt := PairOptions{Workers: 2, Memo: NewPairMemo()}
		for _, s1 := range segs {
			for _, s2 := range segs {
				if _, err := CellCountsOpt(ev, s1, s2, opt); err != nil {
					t.Fatal(err)
				}
				hits := ev.Counters()[PairTableHits]
				served, err := CellCountsOpt(ev, s1, s2, opt)
				if err != nil {
					t.Fatal(err)
				}
				if ev.Counters()[PairTableHits] != hits+1 {
					t.Fatalf("%s: repeated pair %s × %s not served by the tier", tc.tab.Name(), s1.Key(), s2.Key())
				}
				if want := freshCells(t, tc.tab, s1, s2); !equalCells(served, want) {
					t.Fatalf("%s: tier served %v for %s × %s, fresh evaluator counts %v", tc.tab.Name(), served, s1.Key(), s2.Key(), want)
				}
			}
		}
	}
}

// TestPairTablesOneGeneration is the mutation guard: the tier holds
// the tables of one fingerprint only. After an append the first INDEP
// counts afresh (no hit), the old generation is gone, and the value is
// the full table's at the new version.
func TestPairTablesOneGeneration(t *testing.T) {
	tab := dataset.VOC(3000, 7)
	tab.SetChunkRows(512)
	ctx, err := sdl.ContextOn(tab, "type_of_boat", "tonnage", "departure_harbour")
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(tab)
	segs := candidates(t, ev, ctx)[:3]
	opt := PairOptions{Workers: 1, Memo: NewPairMemo()}
	for _, s := range segs[1:] {
		if _, err := IndepOpt(ev, segs[0], s, opt); err != nil {
			t.Fatal(err)
		}
	}
	if fp, n := pairTables(ev); fp != tab.Fingerprint() || n != 2 {
		t.Fatalf("before the append the tier holds %d tables at %q, want 2 at %q", n, fp, tab.Fingerprint())
	}
	sel, err := ev.Select(segs[0].Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]engine.Value
	for _, r := range sel[:600] {
		rows = append(rows, valueRow(tab, int(r)))
	}
	if err := tab.AppendRows(rows...); err != nil {
		t.Fatal(err)
	}
	hits := ev.Counters()[PairTableHits]
	got, err := IndepOpt(ev, segs[0], segs[1], opt)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Counters()[PairTableHits] != hits {
		t.Fatal("the tier served a table counted before the append")
	}
	if fp, n := pairTables(ev); fp != tab.Fingerprint() || n != 1 {
		t.Fatalf("after the append the tier holds %d tables at %q, want 1 at %q", n, fp, tab.Fingerprint())
	}
	if want := IndepFromCells(bruteCells(t, tab, segs[0], segs[1])); got != want {
		t.Fatalf("INDEP after the append = %v, full table at the new version %v", got, want)
	}
	again, err := IndepOpt(ev, segs[0], segs[1], opt)
	if err != nil || again != got || ev.Counters()[PairTableHits] != hits+1 {
		t.Fatalf("repeat at the new version: %v (err %v), want %v served by the tier", again, err, got)
	}
}

// TestPairTablesObeyBudget: a byte budget (SetCacheBudget) bounds the
// tier, and the most recently stored table survives it.
func TestPairTablesObeyBudget(t *testing.T) {
	tab := dataset.VOC(2000, 9)
	ctx, err := sdl.ContextOn(tab, "type_of_boat", "tonnage", "departure_harbour", "trip")
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(tab)
	segs := candidates(t, ev, ctx)
	opt := PairOptions{Workers: 1}
	pairAll := func() {
		t.Helper()
		for _, s1 := range segs {
			for _, s2 := range segs {
				if _, err := IndepOpt(ev, s1, s2, opt); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	pairAll()
	if _, n := pairTables(ev); n != len(segs)*len(segs) {
		t.Fatalf("unbounded tier holds %d tables, want %d", n, len(segs)*len(segs))
	}

	// Empty the tier, warm the pair sides' selections, then leave room
	// for them and five of the largest tables.
	dropPairTables(ev)
	for _, s := range segs {
		for _, q := range s.Queries {
			if _, err := ev.Count(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	widest := 0
	for _, s := range segs {
		widest = max(widest, len(s.Queries))
	}
	const limit = 5
	budget := ev.CacheBytes() + limit*pairBytes([2]string{segs[0].Key(), segs[0].Key()}, make([]int, widest*widest))
	ev.SetCacheBudget(budget)
	pairAll()
	if _, n := pairTables(ev); n == 0 || n >= len(segs)*len(segs) {
		t.Fatalf("a budget with room for %d tables: the tier holds %d of %d", limit, n, len(segs)*len(segs))
	}
	if got := ev.CacheBytes(); got > budget {
		t.Fatalf("the stores hold %d bytes, budget %d", got, budget)
	}
	if ev.Counters()[Evictions] == 0 {
		t.Fatal("no eviction under the budget")
	}
	hits := ev.Counters()[PairTableHits]
	last := segs[len(segs)-1]
	if _, err := IndepOpt(ev, last, last, opt); err != nil {
		t.Fatal(err)
	}
	if ev.Counters()[PairTableHits] != hits+1 {
		t.Fatal("the most recently stored table was not served under the limit")
	}
}

// TestPairTablesHandOutCopies: a caller mutating the table CellCounts
// returned cannot corrupt the tier, and neither can the pooled scratch
// INDEP recycles.
func TestPairTablesHandOutCopies(t *testing.T) {
	tab := dataset.VOC(2000, 3)
	ctx, err := sdl.ContextOn(tab, "type_of_boat", "tonnage", "built")
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(tab)
	segs := candidates(t, ev, ctx)
	s1, s2 := segs[0], segs[len(segs)-1]
	opt := PairOptions{Workers: 1}
	want := freshCells(t, tab, s1, s2)
	for round := 0; round < 3; round++ {
		cells, err := CellCountsOpt(ev, s1, s2, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !equalCells(cells, want) {
			t.Fatalf("round %d: %v, want %v", round, cells, want)
		}
		for _, row := range cells {
			for j := range row {
				row[j] = -1000
			}
		}
		// INDEP of another pair reuses the pooled flat buffer.
		if _, err := IndepOpt(ev, s2, s1, opt); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := mustIndep(t, ev, s1, s2), IndepFromCells(want); got != want {
		t.Fatalf("INDEP from the tier = %v, want %v", got, want)
	}
}

func mustIndep(t *testing.T, ev *Evaluator, s1, s2 *Segmentation) float64 {
	t.Helper()
	v, err := IndepOpt(ev, s1, s2, PairOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return v
}
