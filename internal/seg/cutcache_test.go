package seg

import (
	"fmt"
	"path/filepath"
	"testing"

	"charles/internal/colfile"
	"charles/internal/engine"
	"charles/internal/sdl"
)

// cutCacheTable is large enough (≥ cutStateMinRows) that cut entries
// retain refreshable state, chunked small enough that mutations dirty
// a strict subset of chunks.
func cutCacheTable(t *testing.T) *engine.Table {
	t.Helper()
	const rows = 2 * cutStateMinRows
	ints := make([]int64, rows)
	strs := make([]string, rows)
	for i := range ints {
		ints[i] = int64(i % 1000)
		strs[i] = [4]string{"fluit", "jacht", "pinas", "galjoot"}[i%4]
	}
	tab := engine.MustNewTable("t",
		engine.NewIntColumn("v", ints),
		engine.NewStringColumn("s", strs),
	)
	tab.SetChunkRows(1024)
	return tab
}

// childKeys renders a cut result in comparable form.
func childKeys(t *testing.T, ev *Evaluator, q sdl.Query, attr string) []string {
	t.Helper()
	children, err := CutQuery(ev, q, attr, DefaultCutOptions())
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(children))
	for i, c := range children {
		keys[i] = c.Key()
	}
	return keys
}

// TestCutCacheVersionEqualHit pins that a repeated cut on an
// unmutated table is served from the cache: identical pieces, no new
// cut-point computation.
func TestCutCacheVersionEqualHit(t *testing.T) {
	tab := cutCacheTable(t)
	ev := NewEvaluator(tab)
	ctx := sdl.ContextAll(tab)
	first := childKeys(t, ev, ctx, "v")
	calcs := ev.Counters().CutPointCalcs
	if calcs == 0 {
		t.Fatal("priming cut computed no points")
	}
	second := childKeys(t, ev, ctx, "v")
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("cached cut diverged: %v vs %v", first, second)
	}
	after := ev.Counters()
	if after.CutPointCalcs != calcs {
		t.Fatalf("version-equal hit recomputed points: %d -> %d", calcs, after.CutPointCalcs)
	}
	if after.CutRefreshes != 0 {
		t.Fatalf("unmutated table took %d cut refreshes", after.CutRefreshes)
	}
}

// TestCutCacheRefreshAfterMutation pins the incremental path: after
// mutations that move the median and grow the string dictionary, a
// warm evaluator's cuts go through the splice refresh (CutRefreshes
// advances) and match a cold evaluator's cuts exactly.
func TestCutCacheRefreshAfterMutation(t *testing.T) {
	tab := cutCacheTable(t)
	ev := NewEvaluator(tab)
	ctx := sdl.ContextAll(tab)
	childKeys(t, ev, ctx, "v")
	childKeys(t, ev, ctx, "s")

	// Shift the upper half of one chunk far right (moves the median)
	// and append rows with a brand-new string value (grows the dict).
	sel := make(engine.Selection, 512)
	vals := make([]engine.Value, len(sel))
	for i := range sel {
		sel[i] = int32(3*1024 + i)
		vals[i] = engine.Int(int64(100000 + i))
	}
	if err := tab.UpdateRows(sel, "v", vals); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := tab.AppendRows([]engine.Value{engine.Int(7), engine.String_("kof")}); err != nil {
			t.Fatal(err)
		}
	}

	cold := NewEvaluator(tab)
	for _, attr := range []string{"v", "s"} {
		warmKeys := childKeys(t, ev, ctx, attr)
		coldKeys := childKeys(t, cold, ctx, attr)
		if fmt.Sprint(warmKeys) != fmt.Sprint(coldKeys) {
			t.Fatalf("%s: warm refresh diverged from cold cut:\nwarm %v\ncold %v", attr, warmKeys, coldKeys)
		}
	}
	if got := ev.Counters().CutRefreshes; got < 2 {
		t.Fatalf("CutRefreshes = %d, want ≥2 (int and string cuts)", got)
	}
	if got := cold.Counters().CutRefreshes; got != 0 {
		t.Fatalf("cold evaluator took %d cut refreshes", got)
	}
}

// TestCutCacheWidthChangeRecomputes pins the bail-out: a re-shard
// makes stamps chunk-incomparable, so the stale entry recomputes in
// full — and still matches a cold evaluator.
func TestCutCacheWidthChangeRecomputes(t *testing.T) {
	tab := cutCacheTable(t)
	ev := NewEvaluator(tab)
	ctx := sdl.ContextAll(tab)
	childKeys(t, ev, ctx, "v")
	if err := tab.AppendRows([]engine.Value{engine.Int(999999), engine.String_("kof")}); err != nil {
		t.Fatal(err)
	}
	tab.SetChunkRows(2048)
	warmKeys := childKeys(t, ev, ctx, "v")
	coldKeys := childKeys(t, NewEvaluator(tab), ctx, "v")
	if fmt.Sprint(warmKeys) != fmt.Sprint(coldKeys) {
		t.Fatalf("post-reshard cut diverged:\nwarm %v\ncold %v", warmKeys, coldKeys)
	}
	if got := ev.Counters().CutRefreshes; got != 0 {
		t.Fatalf("chunk-incomparable stamps took the refresh path (%d)", got)
	}
}

// TestCutCacheCachingOff pins that the ablation path bypasses the cut
// cache entirely and still answers identically.
func TestCutCacheCachingOff(t *testing.T) {
	tab := cutCacheTable(t)
	on := NewEvaluator(tab)
	off := NewEvaluator(tab)
	off.SetCaching(false)
	ctx := sdl.ContextAll(tab)
	for _, attr := range []string{"v", "s"} {
		a := childKeys(t, on, ctx, attr)
		b := childKeys(t, off, ctx, attr)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("%s: cached and uncached cuts diverged:\n%v\n%v", attr, a, b)
		}
	}
	if off.CacheLen() != 0 {
		t.Fatal("uncached evaluator stored selections")
	}
}

// TestCutCacheRetainsStateOnlyWhenMutable pins the retention rule: a
// read-only .chc table's stamp never moves, so its cut entries keep
// the pieces but no sorted runs or count vectors, while a
// memory-backed table's entries keep both for the splice refresh.
// The pieces agree across the two backends.
func TestCutCacheRetainsStateOnlyWhenMutable(t *testing.T) {
	mem := cutCacheTable(t)
	path := filepath.Join(t.TempDir(), "t.chc")
	if err := colfile.Write(path, mem, colfile.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	file, err := colfile.OpenTable(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	if !mem.Mutable() || file.Mutable() {
		t.Fatalf("Mutable(): memory %v, .chc %v; want true, false", mem.Mutable(), file.Mutable())
	}
	pieces := map[string]string{}
	for _, tc := range []struct {
		name   string
		tab    *engine.Table
		retain bool
	}{{"memory", mem, true}, {".chc", file, false}} {
		ev := NewEvaluator(tc.tab)
		ctx := sdl.ContextAll(tc.tab)
		for _, attr := range []string{"v", "s"} {
			got := fmt.Sprint(childKeys(t, ev, ctx, attr))
			if want, ok := pieces[attr]; ok && got != want {
				t.Fatalf("%s cut on %s diverged from memory:\n%s\n%s", attr, tc.name, got, want)
			}
			pieces[attr] = got
		}
		ev.cutMu.RLock()
		if len(ev.cuts) != 2 {
			t.Fatalf("%s: %d cut entries, want 2", tc.name, len(ev.cuts))
		}
		for key, ent := range ev.cuts {
			if kept := ent.intRuns != nil || ent.strCounts != nil; kept != tc.retain {
				t.Fatalf("%s entry %q: refreshable state kept = %v, want %v", tc.name, key, kept, tc.retain)
			}
		}
		ev.cutMu.RUnlock()
	}
}
