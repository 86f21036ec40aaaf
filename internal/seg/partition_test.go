package seg

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"charles/internal/dataset"
	"charles/internal/engine"
	"charles/internal/sdl"
)

// sameChunked reports whether two chunked selections hold the same
// rows in the same chunk layout.
func sameChunked(a, b *engine.ChunkedSelection) bool {
	return a.NumRows() == b.NumRows() && a.ChunkRows() == b.ChunkRows() && a.Len() == b.Len() && slices.Equal(rowsOf(a), rowsOf(b))
}

// rowsOf reads cs's rows one by one (EachRow), attaching no flat view.
func rowsOf(cs *engine.ChunkedSelection) engine.Selection {
	var rows engine.Selection
	engine.EachRow(cs, func(row int) { rows = append(rows, int32(row)) })
	return rows
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
// SelectChunked's rows, every chunk in the one form. The result's
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
		checkOneForm(t, child.String(), ent.sel)
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

// checkOneForm holds cs's memory to the one form: the words of every
// chunk holding a row, ⌈lenC/64⌉ of them for a chunk of lenC table
// rows, and nothing for an empty chunk.
func checkOneForm(t *testing.T, name string, cs *engine.ChunkedSelection) {
	t.Helper()
	held := make([]bool, cs.NumChunks())
	for _, row := range rowsOf(cs) {
		held[int(row)/cs.ChunkRows()] = true
	}
	var want int64
	for c, h := range held {
		if h {
			lenC := min(cs.ChunkRows(), cs.NumRows()-c*cs.ChunkRows())
			want += 8 * int64((lenC+63)/64)
		}
	}
	if got := cs.Bytes(); got != want {
		t.Fatalf("%s: selection holds %d bytes, the words of its non-empty chunks %d", name, got, want)
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

// holdsWords reports whether some chunk of cs holds words: whether it
// selects a row, every non-empty chunk being words.
func holdsWords(cs *engine.ChunkedSelection) bool {
	return cs.Len() > 0
}

// TestCutChildrenMatchColdEvaluation holds every child a cut's
// partition pass evaluates to a cold evaluation of the child query on a
// VOC context, every chunk in the one form: initial cuts on every
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

// TestCutPartitionNaNPiece holds every float cut over an extent holding
// NaN to Definition 3: a NaN row matches no range, so a range cut's
// NaN rows are its {NaN} piece's, exact and sampled, at arity 2 and 3,
// with zone pruning on (the plane kernels over the summary's rank
// codes) and off (the value kernels); and the float nominal fallback's piece listing NaN holds
// them too (NaN equals NaN). Every cut passes ValidatePartition and
// keeps its parent's partition proof.
func TestCutPartitionNaNPiece(t *testing.T) {
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
	check := func(name string, ev *Evaluator, ctx sdl.Query, attr string, opt CutOptions) *Segmentation {
		t.Helper()
		n, err := ev.Count(ctx)
		if err != nil {
			t.Fatal(err)
		}
		fp := ev.Table().Fingerprint()
		out := checkCut(t, ev, singleton(ctx, n, fp), attr, opt).out
		if out.Depth() < 2 {
			t.Fatalf("%s: the cut did not split", name)
		}
		if err := ValidatePartition(ev, ctx, out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !out.provenAt(fp) {
			t.Fatalf("%s: the cut lost its parent's partition proof", name)
		}
		return out
	}
	for _, pruning := range []bool{true, false} {
		for _, sample := range []int{0, 2000} {
			for _, arity := range []int{2, 3} {
				ev := NewEvaluator(tab)
				ev.SetZonePruning(pruning)
				opt := DefaultCutOptions()
				opt.Arity, opt.SampleSize = arity, sample
				name := fmt.Sprintf("pruning %v, sample %d, arity %d", pruning, sample, arity)
				out := check(name, ev, ctx, "redshift", opt)
				last := out.Depth() - 1
				if c, _ := out.Queries[last].Constraint("redshift"); c.String() != "redshift: {NaN}" || out.Counts[last] != len(rows) {
					t.Fatalf("%s: last piece %v holds %d rows, want redshift: {NaN} holding the %d NaN rows", name, c, out.Counts[last], len(rows))
				}
			}
		}
	}

	status := skewedStatusTable(t)
	out := check("fallback", NewEvaluator(status), sdl.ContextAll(status), "latency", DefaultCutOptions())
	if out.Total() != status.NumRows() {
		t.Fatalf("fallback cut into %d children covers %d rows, want all %d", out.Depth(), out.Total(), status.NumRows())
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
				checkOneForm(t, child.String(), cs)
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
