package seg

import (
	"slices"
	"testing"

	"charles/internal/engine"
	"charles/internal/obs"
	"charles/internal/sdl"
)

func TestSelectConjunction(t *testing.T) {
	tab, ev := figure2Table(t)
	_ = tab
	q := sdl.MustQuery(
		sdl.SetC("type", engine.String_("fluit")),
		sdl.ClosedRange("tonnage", engine.Int(1500), engine.Int(3000)),
	)
	sel, err := ev.Select(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 { // fluit rows with tonnage 1800, 2000
		t.Fatalf("selection = %v, want 2 rows", sel)
	}
	if !sel.IsSorted() {
		t.Fatal("selection not sorted")
	}
}

func TestSelectCaches(t *testing.T) {
	_, ev := figure2Table(t)
	q := sdl.MustQuery(sdl.SetC("type", engine.String_("jacht")))
	if _, err := ev.Select(q); err != nil {
		t.Fatal(err)
	}
	before := ev.Counters()
	if _, err := ev.Select(q); err != nil {
		t.Fatal(err)
	}
	after := ev.Counters()
	if after[CacheHits] != before[CacheHits]+1 {
		t.Fatalf("second select did not hit cache: %+v -> %+v", before, after)
	}
	if after[FullEvals] != before[FullEvals] {
		t.Fatal("second select re-evaluated")
	}
}

// TestNarrowMatchesFullEval pins the narrow (parent→child)
// evaluation a cut makes: every child equals a cold evaluation of the
// child query, and after an append outside the parent's extent (the
// pieces, and so the child keys, stay the same) re-cutting splices the
// stale children instead of evaluating them again.
func TestNarrowMatchesFullEval(t *testing.T) {
	tab, ev := figure2Table(t)
	parent := sdl.MustQuery(sdl.SetC("type", engine.String_("fluit")))
	n, err := ev.Count(parent)
	if err != nil {
		t.Fatal(err)
	}
	cut := func() *Segmentation {
		t.Helper()
		s, err := Cut(ev, singleton(parent, n, ""), "tonnage", DefaultCutOptions())
		if err != nil {
			t.Fatal(err)
		}
		if s.Depth() < 2 {
			t.Fatalf("fluit tonnage did not split: %v", s.Queries)
		}
		cold := NewEvaluator(tab)
		for i, child := range s.Queries {
			got, err := ev.SelectChunked(child)
			if err != nil {
				t.Fatal(err)
			}
			want, err := cold.SelectChunked(child)
			if err != nil {
				t.Fatal(err)
			}
			if !sameChunked(got, want) || s.Counts[i] != want.Len() {
				t.Fatalf("child %s: narrow %v (count %d) != full %v", child, got.Flat(), s.Counts[i], want.Flat())
			}
		}
		return s
	}
	first := cut()
	if err := tab.AppendRows([]engine.Value{engine.String_("jacht"), engine.Int(4000), engine.Int(1790)}); err != nil {
		t.Fatal(err)
	}
	before := ev.Counters()
	second := cut()
	after := ev.Counters()
	if first.Key() != second.Key() {
		t.Fatalf("an append outside the parent moved the pieces: %s -> %s", first.Key(), second.Key())
	}
	// One refresh for the parent itself, one splice per child.
	if got, want := after[DeltaRefreshes]-before[DeltaRefreshes], 1+second.Depth(); got != want || after[NarrowEvals] != before[NarrowEvals] {
		t.Fatalf("re-cut after append: %d delta refreshes (want %d), narrow evals %d -> %d", got, want, before[NarrowEvals], after[NarrowEvals])
	}
}

func TestSelectUnknownColumn(t *testing.T) {
	_, ev := figure2Table(t)
	q := sdl.MustQuery(sdl.ClosedRange("ghost", engine.Int(0), engine.Int(1)))
	if _, err := ev.Select(q); err == nil {
		t.Fatal("unknown column accepted")
	}
}

func TestSelectRangeOnBoolRejected(t *testing.T) {
	tab := engine.MustNewTable("t", engine.NewBoolColumn("b", []bool{true, false}))
	ev := NewEvaluator(tab)
	q := sdl.MustQuery(sdl.RangeC("b", engine.Bool(false), engine.Bool(true), true, true))
	if _, err := ev.Select(q); err == nil {
		t.Fatal("range on bool accepted")
	}
}

func TestSelectStringRange(t *testing.T) {
	tab := engine.MustNewTable("t", engine.NewStringColumn("s", []string{"apple", "banana", "cherry"}))
	ev := NewEvaluator(tab)
	q := sdl.MustQuery(sdl.RangeC("s", engine.String_("b"), engine.String_("c"), true, false))
	sel, err := ev.Select(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 1 || sel[0] != 1 {
		t.Fatalf("string range selected %v", sel)
	}
}

func TestSelectIntSetAndFloatSet(t *testing.T) {
	tab := engine.MustNewTable("t",
		engine.NewIntColumn("i", []int64{1, 2, 3, 2}),
		engine.NewFloatColumn("f", []float64{1.5, 2.5, 3.5, 2.5}),
	)
	ev := NewEvaluator(tab)
	q := sdl.MustQuery(sdl.SetC("i", engine.Int(2)))
	sel, err := ev.Select(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 {
		t.Fatalf("int set selected %v", sel)
	}
	q = sdl.MustQuery(sdl.SetC("f", engine.Float(2.5), engine.Float(9.9)))
	sel, err = ev.Select(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 {
		t.Fatalf("float set selected %v", sel)
	}
}

// TestRegisterCountersReadEachCounter pins the registration table's
// wiring: with counter c bumped c+1 times, the registered families
// read 1 to numCounters, each once — no counter unread, none read
// twice — and each EvalMetrics mirror reads its own counter.
func TestRegisterCountersReadEachCounter(t *testing.T) {
	_, ev := figure2Table(t)
	em, reg := liveRecorders(ev)
	for c := range numCounters {
		for range c + 1 {
			ev.count(c)
		}
	}
	seen := map[int64]string{}
	for _, fam := range reg.Names() {
		v := scraped(t, reg, fam)
		if other, dup := seen[v]; dup || v < 1 || v > int64(numCounters) {
			t.Errorf("%s reads %d (also read by %q)", fam, v, other)
		}
		seen[v] = fam
	}
	if len(seen) != int(numCounters) {
		t.Errorf("%d families read %d distinct counters, want %d", len(reg.Names()), len(seen), numCounters)
	}
	ctr := ev.Counters()
	for c, m := range map[Counter]*obs.Counter{
		FullEvals: em.FullEvals, NarrowEvals: em.NarrowEvals, CacheHits: em.CacheHits,
		CutPointCalcs: em.CutPointCalcs, DeltaRefreshes: em.DeltaRefreshes, CutRefreshes: em.CutRefreshes,
		CutCacheHits: em.CutCacheHits, PairMemoHits: em.PairMemoHits, PairMemoMisses: em.PairMemoMisses,
	} {
		if m.Value() != int64(ctr[c]) {
			t.Errorf("EvalMetrics mirror of counter %d reads %d, counter %d", c, m.Value(), ctr[c])
		}
	}
}

// TestCountersSnapshots pins how counters are read: a snapshot is a
// copy indexed by Counter, and the work between two snapshots is their
// difference — one new query is one full evaluation and nothing else.
func TestCountersSnapshots(t *testing.T) {
	_, ev := figure2Table(t)
	q := sdl.MustQuery(sdl.SetC("type", engine.String_("fluit")))
	if _, err := ev.Count(q); err != nil {
		t.Fatal(err)
	}
	before := ev.Counters()
	if before[FullEvals] != 1 {
		t.Fatalf("counters = %v", before)
	}
	if _, err := ev.Count(sdl.MustQuery(sdl.SetC("type", engine.String_("jacht")))); err != nil {
		t.Fatal(err)
	}
	after := ev.Counters()
	for c := range numCounters {
		want := 0
		if c == FullEvals {
			want = 1
		}
		if got := after[c] - before[c]; got != want {
			t.Errorf("counter %d moved by %d over one new query, want %d", c, got, want)
		}
	}
	if before[FullEvals] != 1 {
		t.Fatal("a later evaluation changed an earlier snapshot")
	}
}

func TestCacheBudgetBoundsBytes(t *testing.T) {
	tab, ev := figure2Table(t)
	query := func(lo int64) sdl.Query {
		return sdl.MustQuery(sdl.ClosedRange("tonnage", engine.Int(lo), engine.Int(lo+100)))
	}
	// Room for about eight of the selections below.
	budget := 8 * selBytes(query(0).Key(), cachedSel{sel: tab.AllChunked()})
	ev.SetCacheBudget(budget)
	// Far more distinct queries than the budget holds.
	const queries = 200
	for lo := int64(0); lo < queries; lo++ {
		if _, err := ev.Select(query(lo)); err != nil {
			t.Fatal(err)
		}
		if got := ev.CacheBytes(); got > budget {
			t.Fatalf("after %d selects the stores hold %d bytes, budget %d", lo+1, got, budget)
		}
	}
	if n := ev.CacheLen(); n == 0 || n >= queries/4 {
		t.Fatalf("cache holds %d of %d selections under a %d-byte budget", n, queries, budget)
	}
	if ev.Counters()[Evictions] == 0 {
		t.Fatal("no eviction under the budget")
	}
	// Cached and evicted queries still answer as a fresh evaluator.
	cold := NewEvaluator(tab)
	for lo := int64(0); lo < queries; lo += 7 {
		got, err := ev.Select(query(lo))
		if err != nil {
			t.Fatal(err)
		}
		want, err := cold.Select(query(lo))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s after evictions = %v, fresh %v", query(lo), got, want)
		}
	}
}

// TestStoreAtLimitKeepsExistingKey is the regression test for the
// re-store eviction bug: overwriting a key that is already cached at
// the budget must not evict an unrelated entry, and the re-stored key
// is charged once — its old entry is credited as the new one is
// charged. The old code evicted first and overwrote second, shrinking
// the cache by one on every re-store at the limit.
func TestStoreAtLimitKeepsExistingKey(t *testing.T) {
	tab, ev := figure2Table(t)
	sel := cachedSel{sel: tab.AllChunked(), stamp: tab.Stamp()}
	keyA, keyB, keyC := "key-a", "key-b", "key-c"
	// Exactly two entries fit.
	ev.SetCacheBudget(selBytes(keyA, sel) + selBytes(keyB, sel))
	ev.store(keyA, sel)
	ev.store(keyB, sel)
	full := ev.CacheBytes()
	if n := ev.CacheLen(); n != 2 || full != ev.clock.limit.Load() {
		t.Fatalf("after filling: %d entries, %d bytes; want 2 entries at the budget", n, full)
	}
	// Re-store an existing key ten times: the store must keep both, at
	// the same charge.
	for i := 0; i < 10; i++ {
		ev.store(keyA, sel)
	}
	if _, ok := ev.cached(keyB); !ok {
		t.Fatal("re-storing an existing key evicted an unrelated entry")
	}
	if n, got := ev.CacheLen(), ev.CacheBytes(); n != 2 || got != full {
		t.Fatalf("after re-stores: %d entries, %d bytes; want 2 entries, %d bytes", n, got, full)
	}
	if ev.Counters()[Evictions] != 0 {
		t.Fatalf("re-stores evicted %d entries", ev.Counters()[Evictions])
	}
	// A genuinely new key at the budget still evicts exactly one.
	ev.store(keyC, sel)
	if n := ev.CacheLen(); n != 2 {
		t.Fatalf("store holds %d entries after eviction, want 2", n)
	}
	if _, ok := ev.cached(keyC); !ok {
		t.Fatal("new key was not stored at the budget")
	}
	if got := ev.Counters()[Evictions]; got != 1 {
		t.Fatalf("storing a new key at the budget evicted %d entries, want 1", got)
	}
}

// TestPackedSelectionMemoized pins the selection cache behind the
// probes' SelectBitmap: repeated calls return the identical
// (immutable) selection the cache holds, and another evaluator's
// selection of the same rows is its own.
func TestPackedSelectionMemoized(t *testing.T) {
	tab, ev := figure2Table(t)
	q := sdl.MustQuery(sdl.SetC("type", engine.String_("fluit")))
	sel, err := ev.SelectChunked(q)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ev.SelectBitmap(q)
	b, _ := ev.SelectBitmap(q)
	if a != b || a != sel {
		t.Fatal("repeated select returned a fresh selection")
	}
	if a.Len() != sel.Len() || a.NumRows() != tab.NumRows() {
		t.Fatalf("selection shape %d/%d, want %d/%d", a.Len(), a.NumRows(), sel.Len(), tab.NumRows())
	}
	c, _ := NewEvaluator(tab).SelectBitmap(q)
	if c == a || !sameBitmap(c, a) {
		t.Fatal("a fresh evaluator shared the cached selection or selected other rows")
	}
}
