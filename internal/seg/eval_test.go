package seg

import (
	"fmt"
	"testing"

	"charles/internal/engine"
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
	if after.CacheHits != before.CacheHits+1 {
		t.Fatalf("second select did not hit cache: %+v -> %+v", before, after)
	}
	if after.FullEvals != before.FullEvals {
		t.Fatal("second select re-evaluated")
	}
}

func TestSetCachingOff(t *testing.T) {
	_, ev := figure2Table(t)
	ev.SetCaching(false)
	q := sdl.MustQuery(sdl.SetC("type", engine.String_("jacht")))
	if _, err := ev.Select(q); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Select(q); err != nil {
		t.Fatal(err)
	}
	c := ev.Counters()
	if c.CacheHits != 0 || c.FullEvals != 2 {
		t.Fatalf("caching off but counters = %+v", c)
	}
	if ev.CacheLen() != 0 {
		t.Fatal("cache populated while off")
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
	if got, want := after.DeltaRefreshes-before.DeltaRefreshes, 1+second.Depth(); got != want || after.NarrowEvals != before.NarrowEvals {
		t.Fatalf("re-cut after append: %d delta refreshes (want %d), narrow evals %d -> %d", got, want, before.NarrowEvals, after.NarrowEvals)
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

func TestCountersAndReset(t *testing.T) {
	_, ev := figure2Table(t)
	q := sdl.MustQuery(sdl.SetC("type", engine.String_("fluit")))
	if _, err := ev.Count(q); err != nil {
		t.Fatal(err)
	}
	if ev.Counters().FullEvals != 1 {
		t.Fatalf("counters = %+v", ev.Counters())
	}
	ev.ResetCounters()
	if ev.Counters().FullEvals != 0 {
		t.Fatal("ResetCounters did not reset")
	}
}

func TestCacheLimitBoundsEntries(t *testing.T) {
	tab, ev := figure2Table(t)
	_ = tab
	const limit = 8
	ev.SetCacheLimit(limit)
	// Far more distinct queries than the limit allows.
	for lo := int64(0); lo < 200; lo++ {
		q := sdl.MustQuery(sdl.ClosedRange("tonnage", engine.Int(lo), engine.Int(lo+100)))
		if _, err := ev.Select(q); err != nil {
			t.Fatal(err)
		}
	}
	// Per-shard rounding allows at most ceil(limit/shards) per shard.
	if n := ev.CacheLen(); n > limit+cacheShards {
		t.Fatalf("cache holds %d entries, limit %d", n, limit)
	}
	// Cached queries still answer correctly after evictions.
	q := sdl.MustQuery(sdl.ClosedRange("tonnage", engine.Int(0), engine.Int(100)))
	sel, err := ev.Select(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range sel {
		if !sel.IsSorted() {
			t.Fatalf("row %d: unsorted selection after eviction", row)
		}
	}
}

// TestStoreAtLimitKeepsExistingKey is the regression test for the
// re-store eviction bug: overwriting a key that is already cached in
// a full shard must not evict an unrelated entry — the store does
// not grow the shard, so there is nothing to make room for. The old
// code evicted first and overwrote second, shrinking the cache by
// one on every re-store at the limit.
func TestStoreAtLimitKeepsExistingKey(t *testing.T) {
	tab, ev := figure2Table(t)
	sel := cachedSel{sel: tab.AllChunked(), stamp: tab.Stamp()}
	// perShard = ceil(limit/shards) = 2.
	ev.SetCacheLimit(2 * cacheShards)
	// Find two keys that land in the same shard, then fill it.
	keyA := "key-a"
	shard := ev.shard(keyA)
	keyB := ""
	for i := 0; keyB == ""; i++ {
		k := fmt.Sprintf("key-b-%d", i)
		if ev.shard(k) == shard {
			keyB = k
		}
	}
	ev.store(keyA, sel)
	ev.store(keyB, sel)
	if len(shard.m) != 2 {
		t.Fatalf("shard holds %d entries after filling, want 2", len(shard.m))
	}
	// Re-store an existing key ten times: the shard must keep both.
	for i := 0; i < 10; i++ {
		ev.store(keyA, sel)
	}
	if _, ok := ev.cached(keyB); !ok {
		t.Fatal("re-storing an existing key evicted an unrelated entry")
	}
	if len(shard.m) != 2 {
		t.Fatalf("shard shrank to %d entries after re-stores, want 2", len(shard.m))
	}
	// A genuinely new key at the limit still evicts exactly one.
	keyC := ""
	for i := 0; keyC == ""; i++ {
		k := fmt.Sprintf("key-c-%d", i)
		if ev.shard(k) == shard {
			keyC = k
		}
	}
	ev.store(keyC, sel)
	if len(shard.m) != 2 {
		t.Fatalf("shard holds %d entries after eviction, want 2", len(shard.m))
	}
	if _, ok := ev.cached(keyC); !ok {
		t.Fatal("new key was not stored at the limit")
	}
}

// TestPackedSelectionMemoized pins the selection cache behind the
// probes' SelectBitmap: repeated calls return the identical
// (immutable) selection the cache holds when caching is on, and fresh
// ones when it is off.
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
		t.Fatal("caching on: repeated select returned a fresh selection")
	}
	if a.Len() != sel.Len() || a.NumRows() != tab.NumRows() {
		t.Fatalf("selection shape %d/%d, want %d/%d", a.Len(), a.NumRows(), sel.Len(), tab.NumRows())
	}
	ev.SetCaching(false)
	c, _ := ev.SelectBitmap(q)
	d, _ := ev.SelectBitmap(q)
	if c == a || c == d {
		t.Fatal("caching off: selections must not be shared")
	}
}
