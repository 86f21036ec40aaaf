package seg

import (
	"math"
	"testing"

	"charles/internal/dataset"
	"charles/internal/engine"
	"charles/internal/sdl"
)

// sameChunked reports whether two chunked selections hold the same
// rows in the same chunk layout.
func sameChunked(a, b *engine.ChunkedSelection) bool {
	if a.NumRows() != b.NumRows() || a.NumChunks() != b.NumChunks() || a.Len() != b.Len() {
		return false
	}
	for c := 0; c < a.NumChunks(); c++ {
		sa, sb := a.Seg(c), b.Seg(c)
		if len(sa) != len(sb) {
			return false
		}
		for i := range sa {
			if sa[i] != sb[i] {
				return false
			}
		}
	}
	return true
}

// cutOutcome is what one checked cut did: its result, the children of
// every split parent, and the counter deltas the cut caused.
type cutOutcome struct {
	out      *Segmentation
	children []sdl.Query
	delta    [numCounters]int
}

// checkCut runs Cut and holds what it left in ev's caches to a cold
// evaluator on the same table. Every child of a split
// parent is cached at the current version with exactly a cold
// SelectChunked's rows, every chunk in its smaller form. The result's
// counts are the cold counts.
func checkCut(t *testing.T, ev *Evaluator, in *Segmentation, attr string, opt CutOptions) cutOutcome {
	t.Helper()
	before := ev.Counters()
	out, err := Cut(ev, in, attr, opt)
	if err != nil {
		t.Fatal(err)
	}
	after := ev.Counters()
	res := cutOutcome{out: out}
	for c := range res.delta {
		res.delta[c] = after[c] - before[c]
	}
	tab := ev.Table()
	version := tab.Stamp().Version()
	for _, q := range in.Queries {
		children, err := CutQuery(ev, q, attr, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(children) >= 2 {
			res.children = append(res.children, children...)
		}
	}
	cold := NewEvaluator(tab)
	for _, child := range res.children {
		want, err := cold.SelectChunked(child)
		if err != nil {
			t.Fatal(err)
		}
		ent, ok := ev.cached(child.Key())
		if !ok || ent.stamp.Version() != version {
			t.Fatalf("cut on %s: child %s is not cached at the current version", attr, child)
		}
		if !sameChunked(ent.sel, want) {
			t.Fatalf("cut on %s: cached child %s differs from a cold evaluation", attr, child)
		}
		checkSmallerForm(t, child.String(), ent.sel)
	}
	for i, q := range out.Queries {
		n, err := cold.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		if n != out.Counts[i] {
			t.Fatalf("cut on %s: segment %s counted %d, cold %d", attr, q, out.Counts[i], n)
		}
	}
	return res
}

// checkSmallerForm holds every chunk of cs to the storage rule: words
// exactly when its n of lenC rows take no more memory as words, 4·n ≥
// 8·⌈lenC/64⌉ bytes, row ids otherwise.
func checkSmallerForm(t *testing.T, name string, cs *engine.ChunkedSelection) {
	t.Helper()
	for c := 0; c < cs.NumChunks(); c++ {
		n := len(cs.Seg(c))
		lenC := min(cs.ChunkRows(), cs.NumRows()-c*cs.ChunkRows())
		if words := n > 0 && 4*n >= 8*((lenC+63)/64); (cs.Words(c) != nil) != words {
			t.Fatalf("%s: chunk %d holds %d of %d rows as words %v, want words %v", name, c, n, lenC, cs.Words(c) != nil, words)
		}
	}
}

// wordsCount counts the queries whose cached selection holds words.
func wordsCount(ev *Evaluator, qs []sdl.Query) int {
	n := 0
	for _, q := range qs {
		if ent, ok := ev.cached(q.Key()); ok && holdsWords(ent.sel) {
			n++
		}
	}
	return n
}

// holdsWords reports whether some chunk of cs is held as words.
func holdsWords(cs *engine.ChunkedSelection) bool {
	for c := 0; c < cs.NumChunks(); c++ {
		if cs.Words(c) != nil {
			return true
		}
	}
	return false
}

// TestCutChildrenMatchColdEvaluation holds every child a cut's
// partition pass evaluates to a cold evaluation of the child query on a
// VOC context, every chunk in its smaller form: initial cuts on every
// column kind, then a COMPOSE-shaped pair of arity-3 cuts. It runs at the default layout and at 1 024-row chunks, and
// with zone pruning off. Every child is evaluated
// exactly once: one NarrowEvals per child.
func TestCutChildrenMatchColdEvaluation(t *testing.T) {
	for _, cfg := range []struct {
		name      string
		chunkRows int
		pruning   bool
	}{
		{"default", 0, true},
		{"chunk-rows-1024", 1024, true},
		{"pruning-off", 1024, false},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			tab := dataset.VOC(70000, 3)
			if cfg.chunkRows > 0 {
				tab.SetChunkRows(cfg.chunkRows)
			}
			ev := NewEvaluator(tab)
			ev.SetZonePruning(cfg.pruning)
			ctx, err := sdl.ContextOn(tab, "type_of_boat", "tonnage", "departure_date", "departure_harbour")
			if err != nil {
				t.Fatal(err)
			}
			n, err := ev.Count(ctx)
			if err != nil {
				t.Fatal(err)
			}
			var first *Segmentation
			for _, attr := range ctx.Attrs() {
				r := checkCut(t, ev, singleton(ctx, n, ""), attr, DefaultCutOptions())
				if len(r.children) < 2 || r.delta[NarrowEvals] != len(r.children) {
					t.Fatalf("initial cut on %s: %d narrow evals for %d children", attr, r.delta[NarrowEvals], len(r.children))
				}
				if first == nil {
					first = r.out
				}
			}
			arity3 := CutOptions{Arity: 3}
			inner := checkCut(t, ev, first, "tonnage", arity3)
			outer := checkCut(t, ev, inner.out, "departure_date", arity3)
			for _, r := range []cutOutcome{inner, outer} {
				if r.delta[NarrowEvals] != len(r.children) {
					t.Fatalf("composed cut: %d narrow evals for %d children", r.delta[NarrowEvals], len(r.children))
				}
			}
		})
	}
}

// TestCutPartitionKeepsNaNTraps pins both NaN conventions through the
// partition pass, with zone pruning on and off: a float range cut puts
// a NaN row in every child (FloatRange.Contains(NaN) is true), and the
// float nominal fallback puts it in none (NaN matches no set).
func TestCutPartitionKeepsNaNTraps(t *testing.T) {
	tab := dataset.SkySurvey(30000, 5)
	var rows engine.Selection
	var nans []engine.Value
	for r := 0; r < tab.NumRows(); r += 37 {
		rows = append(rows, int32(r))
		nans = append(nans, engine.Float(math.NaN()))
	}
	if err := tab.UpdateRows(rows, "redshift", nans); err != nil {
		t.Fatal(err)
	}
	tab.SetChunkRows(1024)
	ctx, err := sdl.ContextOn(tab, "redshift", "class")
	if err != nil {
		t.Fatal(err)
	}
	for _, pruning := range []bool{true, false} {
		ev := NewEvaluator(tab)
		ev.SetZonePruning(pruning)
		n, err := ev.Count(ctx)
		if err != nil {
			t.Fatal(err)
		}
		r := checkCut(t, ev, singleton(ctx, n, ""), "redshift", DefaultCutOptions())
		k := r.out.Depth()
		if want := n + len(rows)*(k-1); k < 2 || r.out.Total() != want {
			t.Fatalf("pruning %v: range cut into %d children covers %d rows, want %d (every NaN row in every child)", pruning, k, r.out.Total(), want)
		}
	}

	status := skewedStatusTable(t)
	ev := NewEvaluator(status)
	r := checkCut(t, ev, singleton(sdl.ContextAll(status), status.NumRows(), ""), "latency", DefaultCutOptions())
	nonNaN := 0
	lat := status.MustColumn("latency").(*engine.FloatColumn)
	for r := 0; r < lat.Len(); r++ {
		if v := lat.Float64(r); v == v {
			nonNaN++
		}
	}
	if r.out.Depth() < 2 || r.out.Total() != nonNaN {
		t.Fatalf("fallback cut into %d children covers %d rows, want the %d non-NaN rows", r.out.Depth(), r.out.Total(), nonNaN)
	}
}

// valueRow copies row r of tab as an AppendRows row.
func valueRow(tab *engine.Table, r int) []engine.Value {
	row := make([]engine.Value, tab.NumCols())
	for i := range row {
		row[i] = tab.Column(i).Value(r)
	}
	return row
}

// TestCutChildrenSpliceAfterMutation pins the cached paths of a cut's
// children, dense enough to be born as words. Re-cutting an unmutated parent serves
// every child from the cache with no pass and without reading the
// parent's rows. After an append or an in-place update the children
// are stale with the same dirty chunks, so one pass re-partitions
// only those chunks of the parent and splices each into its chunks —
// one DeltaRefreshes per child — while a child never cached before,
// cut alongside them, takes a whole-parent pass (one NarrowEvals).
// Every child equals a cold evaluation; so does a whole cut afterwards.
func TestCutChildrenSpliceAfterMutation(t *testing.T) {
	for _, mutation := range []string{"append", "update"} {
		t.Run(mutation, func(t *testing.T) {
			tab := dataset.VOC(20000, 9)
			tab.SetChunkRows(1024)
			ev := NewEvaluator(tab)
			ctx, err := sdl.ContextOn(tab, "type_of_boat", "tonnage")
			if err != nil {
				t.Fatal(err)
			}
			v := tab.Version()
			children, err := CutQuery(ev, ctx, "tonnage", DefaultCutOptions())
			if err != nil {
				t.Fatal(err)
			}
			if len(children) < 2 {
				t.Fatalf("tonnage did not split: %v", children)
			}
			cutChildren := func(children []sdl.Query) []int {
				t.Helper()
				got, err := ev.cutChildren(ctx, children, "tonnage", v)
				if err != nil {
					t.Fatal(err)
				}
				return got
			}
			cutChildren(children)
			if got := wordsCount(ev, children); got != len(children) {
				t.Fatalf("%d of %d children were born holding words", got, len(children))
			}
			before := ev.Counters()
			cutChildren(children)
			after := ev.Counters()
			if after[CacheHits]-before[CacheHits] != len(children) || after[NarrowEvals] != before[NarrowEvals] || after[DeltaRefreshes] != before[DeltaRefreshes] || after[RowMaterializations] != before[RowMaterializations] {
				t.Fatalf("re-cut of cached children: counters %+v -> %+v", before, after)
			}

			switch mutation {
			case "append":
				var rows [][]engine.Value
				for r := 0; r < 300; r++ {
					rows = append(rows, valueRow(tab, r*61))
				}
				if err := tab.AppendRows(rows...); err != nil {
					t.Fatal(err)
				}
			case "update":
				sel := engine.Selection{5, 1029, 2048, 9999}
				vals := []engine.Value{engine.Int(123), engine.Int(456), engine.Int(789), engine.Int(1011)}
				if err := tab.UpdateRows(sel, "tonnage", vals); err != nil {
					t.Fatal(err)
				}
			}
			fresh := ctx.WithConstraint(sdl.ClosedRange("tonnage", engine.Int(0), engine.Int(300)))
			mixed := append(append([]sdl.Query(nil), children...), fresh)
			before = ev.Counters()
			got := cutChildren(mixed)
			after = ev.Counters()
			// One refresh for the parent itself, one splice per cached
			// child, one evaluation for the new one; no row ids are
			// built from words.
			if after[DeltaRefreshes]-before[DeltaRefreshes] != 1+len(children) || after[NarrowEvals]-before[NarrowEvals] != 1 || after[RowMaterializations] != before[RowMaterializations] {
				t.Fatalf("re-cut after %s: counters %+v -> %+v", mutation, before, after)
			}
			if got := wordsCount(ev, mixed); got != len(mixed) {
				t.Fatalf("%d of %d children hold words after the splice", got, len(mixed))
			}
			cold := NewEvaluator(tab)
			for i, child := range mixed {
				want, err := cold.SelectChunked(child)
				if err != nil {
					t.Fatal(err)
				}
				cs, err := ev.SelectChunked(child)
				if err != nil {
					t.Fatal(err)
				}
				if got[i] != want.Len() || !sameChunked(cs, want) {
					t.Fatalf("spliced child %s differs from a cold evaluation", child)
				}
				checkSmallerForm(t, child.String(), cs)
			}
			n, err := ev.Count(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for _, attr := range []string{"tonnage", "type_of_boat"} {
				checkCut(t, ev, singleton(ctx, n, ""), attr, DefaultCutOptions())
			}
		})
	}
}
