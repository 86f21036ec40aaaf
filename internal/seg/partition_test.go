package seg

import (
	"math"
	"reflect"
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
	delta    Counters
}

// checkCut runs cutSeg and holds what it left in ev's caches to a
// cold evaluator on the same table. With caching on, every child of a
// split parent is cached at the current version with exactly a cold
// SelectChunked's rows — as row ids, or as the bitmap of a packed-only
// entry, which is then the packed cache's own bitmap — and a fresh
// packed entry for a child equals a cold SelectBitmap; when the cut
// evaluated every child and packs (fewer pieces than packBelow,
// caching on, parent dense enough), every child is packed-only. The
// result's counts are the cold counts.
func checkCut(t *testing.T, ev *Evaluator, in *Segmentation, attr string, opt CutOptions, packBelow int) cutOutcome {
	t.Helper()
	before := ev.Counters()
	out, err := cutSeg(ev, in, attr, opt, packBelow)
	if err != nil {
		t.Fatal(err)
	}
	after := ev.Counters()
	res := cutOutcome{out: out, delta: Counters{
		NarrowEvals:    after.NarrowEvals - before.NarrowEvals,
		CacheHits:      after.CacheHits - before.CacheHits,
		DeltaRefreshes: after.DeltaRefreshes - before.DeltaRefreshes,
	}}
	tab := ev.Table()
	nRows, version := tab.NumRows(), tab.Stamp().Version()
	caching := ev.caching.Load()
	var denseParent []bool
	pieces := 0
	for i, q := range in.Queries {
		children, err := CutQuery(ev, q, attr, opt)
		if err != nil {
			t.Fatal(err)
		}
		pieces += len(children)
		if len(children) < 2 {
			continue
		}
		for range children {
			denseParent = append(denseParent, engine.DenseEnough(in.Counts[i], nRows))
		}
		res.children = append(res.children, children...)
	}
	evaluatedAll := res.delta.NarrowEvals == len(res.children)
	cold := NewEvaluator(tab)
	for k, child := range res.children {
		want, err := cold.SelectChunked(child)
		if err != nil {
			t.Fatal(err)
		}
		if !caching {
			continue
		}
		ent, ok := ev.cached(child.Key())
		if !ok || ent.stamp.Version() != version {
			t.Fatalf("cut on %s: child %s is not cached at the current version", attr, child)
		}
		got := ent.cs
		if got == nil {
			got = ent.bm.Chunked()
		}
		if !sameChunked(got, want) {
			t.Fatalf("cut on %s: cached child %s differs from a cold evaluation", attr, child)
		}
		pe, packed := ev.cachedPacked(child.Key())
		packed = packed && pe.stamp.Version() == version
		if ent.cs == nil && (!packed || pe.bm != ent.bm) {
			t.Fatalf("cut on %s: packed-only child %s does not hold the packed cache's bitmap", attr, child)
		}
		if pieces < packBelow && denseParent[k] && evaluatedAll && ent.cs != nil {
			t.Fatalf("cut on %s: child %s (%d rows) of a dense parent was not packed", attr, child, want.Len())
		}
		if packed {
			bm, err := cold.SelectBitmap(child)
			if err != nil {
				t.Fatal(err)
			}
			if pe.bm.Count() != bm.Count() || pe.bm.ChunkRows() != bm.ChunkRows() || !reflect.DeepEqual(pe.bm.Selection(), bm.Selection()) {
				t.Fatalf("cut on %s: packed child %s differs from a cold SelectBitmap", attr, child)
			}
		}
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

// packedCount counts the queries holding a packed-cache entry.
func packedCount(ev *Evaluator, qs []sdl.Query) int {
	n := 0
	for _, q := range qs {
		if _, ok := ev.cachedPacked(q.Key()); ok {
			n++
		}
	}
	return n
}

// packedOnlyCount counts the queries whose selection entry is
// packed-only: no row ids built yet.
func packedOnlyCount(ev *Evaluator, qs []sdl.Query) int {
	n := 0
	for _, q := range qs {
		if ent, ok := ev.cached(q.Key()); ok && ent.cs == nil {
			n++
		}
	}
	return n
}

// TestCutChildrenMatchColdEvaluation holds every child a cut's
// partition pass evaluates — and every bitmap it packs for an HB-cuts
// candidate — to a cold evaluation of the child query on a VOC
// context: initial cuts on every column kind, then a COMPOSE-shaped
// pair of arity-3 cuts whose inner cut is no candidate and packs
// nothing. It runs at the default layout and at 1 024-row chunks, with
// caching off and with zone pruning off. Every child is evaluated
// exactly once: one NarrowEvals per child.
func TestCutChildrenMatchColdEvaluation(t *testing.T) {
	for _, cfg := range []struct {
		name      string
		chunkRows int
		caching   bool
		pruning   bool
	}{
		{"default", 0, true, true},
		{"chunk-rows-1024", 1024, true, true},
		{"caching-off", 1024, false, true},
		{"pruning-off", 1024, true, false},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			tab := dataset.VOC(70000, 3)
			if cfg.chunkRows > 0 {
				tab.SetChunkRows(cfg.chunkRows)
			}
			ev := NewEvaluator(tab)
			ev.SetCaching(cfg.caching)
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
				r := checkCut(t, ev, singleton(ctx, n, ""), attr, DefaultCutOptions(), math.MaxInt)
				if len(r.children) < 2 || r.delta.NarrowEvals != len(r.children) {
					t.Fatalf("initial cut on %s: %d narrow evals for %d children", attr, r.delta.NarrowEvals, len(r.children))
				}
				if first == nil {
					first = r.out
				}
			}
			arity3 := CutOptions{Arity: 3}
			inner := checkCut(t, ev, first, "tonnage", arity3, 0)
			if got := packedCount(ev, inner.children); got != 0 {
				t.Fatalf("a cut that is no candidate packed %d children", got)
			}
			outer := checkCut(t, ev, inner.out, "departure_date", arity3, math.MaxInt)
			for _, r := range []cutOutcome{inner, outer} {
				if r.delta.NarrowEvals != len(r.children) {
					t.Fatalf("composed cut: %d narrow evals for %d children", r.delta.NarrowEvals, len(r.children))
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
		r := checkCut(t, ev, singleton(ctx, n, ""), "redshift", DefaultCutOptions(), math.MaxInt)
		k := r.out.Depth()
		if want := n + len(rows)*(k-1); k < 2 || r.out.Total() != want {
			t.Fatalf("pruning %v: range cut into %d children covers %d rows, want %d (every NaN row in every child)", pruning, k, r.out.Total(), want)
		}
	}

	status := skewedStatusTable(t)
	ev := NewEvaluator(status)
	r := checkCut(t, ev, singleton(sdl.ContextAll(status), status.NumRows(), ""), "latency", DefaultCutOptions(), math.MaxInt)
	nonNaN := 0
	for _, v := range status.MustColumn("latency").(*engine.FloatColumn).Float64s() {
		if v == v {
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
// children, born packed-only. Re-cutting an unmutated parent serves
// every child from the cache with no pass and without reading the
// parent's rows. After an append or an in-place update the children
// are stale with the same dirty chunks, so one pass re-partitions
// only those chunks of the parent and splices each into its words —
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
			children, err := CutQuery(ev, ctx, "tonnage", DefaultCutOptions())
			if err != nil {
				t.Fatal(err)
			}
			if len(children) < 2 {
				t.Fatalf("tonnage did not split: %v", children)
			}
			cutChildren := func(children []sdl.Query) []int {
				t.Helper()
				got, err := ev.cutChildren(ctx, children, "tonnage", true)
				if err != nil {
					t.Fatal(err)
				}
				return got
			}
			cutChildren(children)
			if got := packedOnlyCount(ev, children); got != len(children) {
				t.Fatalf("%d of %d children were born packed-only", got, len(children))
			}
			before := ev.Counters()
			cutChildren(children)
			after := ev.Counters()
			if after.CacheHits-before.CacheHits != len(children) || after.NarrowEvals != before.NarrowEvals || after.DeltaRefreshes != before.DeltaRefreshes || after.RowMaterializations != before.RowMaterializations {
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
			// child, one evaluation for the new one; no child's row ids
			// are built.
			if after.DeltaRefreshes-before.DeltaRefreshes != 1+len(children) || after.NarrowEvals-before.NarrowEvals != 1 || after.RowMaterializations != before.RowMaterializations {
				t.Fatalf("re-cut after %s: counters %+v -> %+v", mutation, before, after)
			}
			if got := packedOnlyCount(ev, mixed); got != len(mixed) {
				t.Fatalf("%d of %d children are packed-only after the splice", got, len(mixed))
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
			}
			n, err := ev.Count(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for _, attr := range []string{"tonnage", "type_of_boat"} {
				checkCut(t, ev, singleton(ctx, n, ""), attr, DefaultCutOptions(), math.MaxInt)
			}
		})
	}
}

// TestCandidateCutsPackOnlyPairedResults pins which cuts pack their
// children: only those whose result HB-cuts pairs with bitmap sides.
// Plain InitialCut and Compose pack nothing; InitialCandidate packs
// every child of its dense context; ComposeCandidate packs only its
// outermost cut, and only while the result stays below maxDepth
// queries. Every piece is packed, the last one included, though INDEP
// derives rather than pairs it: it is born in one form either way.
func TestCandidateCutsPackOnlyPairedResults(t *testing.T) {
	tab := dataset.VOC(20000, 4)
	tab.SetChunkRows(1024)
	ctx, err := sdl.ContextOn(tab, "type_of_boat", "tonnage", "departure_date")
	if err != nil {
		t.Fatal(err)
	}
	s2 := &Segmentation{CutAttrs: []string{"departure_date", "type_of_boat"}}
	// every returns the depth of a candidate whose parents were all
	// dense, so that every piece is packed.
	every := func(parents, s *Segmentation) int {
		if !s.provenAt(tab.Fingerprint()) {
			t.Fatalf("candidate %s carries no partition proof", s)
		}
		for _, c := range parents.Counts {
			if !engine.DenseEnough(c, tab.NumRows()) {
				t.Fatalf("parent of %d rows is not dense: the test needs dense parents", c)
			}
		}
		return s.Depth()
	}
	run := func(initial func(ev *Evaluator) (*Segmentation, bool, error), compose func(ev *Evaluator, s1 *Segmentation) (*Segmentation, error)) (ev *Evaluator, s1, composed *Segmentation) {
		t.Helper()
		ev = NewEvaluator(tab)
		s1, ok, err := initial(ev)
		if err != nil || !ok {
			t.Fatalf("initial cut: %v ok=%v", err, ok)
		}
		composed, err = compose(ev, s1)
		if err != nil {
			t.Fatal(err)
		}
		return ev, s1, composed
	}
	opt := DefaultCutOptions()
	initialCand := func(ev *Evaluator) (*Segmentation, bool, error) {
		return InitialCandidate(ev, ctx, "tonnage", opt)
	}
	composeCand := func(maxDepth int) func(ev *Evaluator, s1 *Segmentation) (*Segmentation, error) {
		return func(ev *Evaluator, s1 *Segmentation) (*Segmentation, error) {
			return ComposeCandidate(ev, s1, s2, opt, maxDepth)
		}
	}

	ev, s1, composed := run(initialCand, composeCand(12))
	n, err := ev.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := packedCount(ev, s1.Queries), every(singleton(ctx, n, ""), s1); got != want {
		t.Fatalf("InitialCandidate packed %d children, want all %d", got, want)
	}
	inner, err := Cut(NewEvaluator(tab), s1, "type_of_boat", opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := packedCount(ev, inner.Queries); got != 0 {
		t.Fatalf("the inner cut of a COMPOSE packed %d of its %d children", got, inner.Depth())
	}
	if got, want := packedCount(ev, composed.Queries), every(inner, composed); composed.Depth() >= 12 || got != want {
		t.Fatalf("the outermost cut packed %d children, want all %d", got, want)
	}

	// A composition that may reach maxDepth is not paired: nothing of
	// it is packed.
	ev, _, composed = run(initialCand, composeCand(composed.Depth()))
	if got := packedCount(ev, composed.Queries); got != 0 {
		t.Fatalf("a composition at maxDepth packed %d children", got)
	}

	ev, s1, composed = run(
		func(ev *Evaluator) (*Segmentation, bool, error) { return InitialCut(ev, ctx, "tonnage", opt) },
		func(ev *Evaluator, s1 *Segmentation) (*Segmentation, error) { return Compose(ev, s1, s2, opt) })
	if got := packedCount(ev, s1.Queries) + packedCount(ev, composed.Queries); got != 0 {
		t.Fatalf("plain InitialCut and Compose packed %d children", got)
	}
}
