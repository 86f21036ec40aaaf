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
// a strict subset of chunks, and already past version 0 (one row
// rewritten with its own values), where retention starts. Its int
// columns sit on every side of the retention rule: v spans 999
// (countable, and 8 chunks × 1 000 cells fit its 8 192 rows), w spans
// 1 500 (countable, but 8 × 1 501 cells would outnumber the rows), and
// the date column d spans ~70 000 days (too wide to count).
func cutCacheTable(t *testing.T) *engine.Table {
	t.Helper()
	tab := freshCutCacheTable(t)
	updateCutRows(t, tab, "v", 0, []engine.Value{tab.MustColumn("v").Value(0)})
	return tab
}

// freshCutCacheTable is cutCacheTable at version 0, never mutated.
func freshCutCacheTable(t *testing.T) *engine.Table {
	t.Helper()
	const rows = 2 * cutStateMinRows
	ints := make([]int64, rows)
	wide := make([]int64, rows)
	days := make([]int64, rows)
	strs := make([]string, rows)
	for i := range ints {
		ints[i] = int64(i % 1000)
		wide[i] = int64(i % 1501)
		days[i] = int64(i*37%70000) - 25000
		strs[i] = [4]string{"fluit", "jacht", "pinas", "galjoot"}[i%4]
	}
	tab := engine.MustNewTable("t",
		engine.NewIntColumn("v", ints),
		engine.NewStringColumn("s", strs),
		engine.NewIntColumn("w", wide),
		engine.NewDateColumn("d", days),
	)
	tab.SetChunkRows(1024)
	return tab
}

// appendCutRow appends one row to a cutCacheTable.
func appendCutRow(t *testing.T, tab *engine.Table, v int64, s string) {
	t.Helper()
	if err := tab.AppendRows([]engine.Value{engine.Int(v), engine.String_(s), engine.Int(v), engine.Date(v)}); err != nil {
		t.Fatal(err)
	}
}

// updateCutRows sets attr to vals[i] on rows first, first+1, ….
func updateCutRows(t *testing.T, tab *engine.Table, attr string, first int32, vals []engine.Value) {
	t.Helper()
	sel := make(engine.Selection, len(vals))
	for i := range sel {
		sel[i] = first + int32(i)
	}
	if err := tab.UpdateRows(sel, attr, vals); err != nil {
		t.Fatal(err)
	}
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

// matchCold requires ev's cuts on attrs to equal a cold evaluator's.
func matchCold(t *testing.T, ev *Evaluator, tab *engine.Table, attrs ...string) {
	t.Helper()
	cold := NewEvaluator(tab)
	ctx := sdl.ContextAll(tab)
	for _, attr := range attrs {
		warm, want := childKeys(t, ev, ctx, attr), childKeys(t, cold, ctx, attr)
		if fmt.Sprint(warm) != fmt.Sprint(want) {
			t.Fatalf("%s: warm cut diverged from cold cut:\nwarm %v\ncold %v", attr, warm, want)
		}
	}
	if got := cold.Counters()[CutRefreshes]; got != 0 {
		t.Fatalf("cold evaluator took %d cut refreshes", got)
	}
}

// TestCutCacheVersionEqualHit pins that a repeated cut on an
// unmutated table is served from the cache: identical pieces, no new
// cut-point computation.
func TestCutCacheVersionEqualHit(t *testing.T) {
	tab := cutCacheTable(t)
	ev := NewEvaluator(tab)
	ctx := sdl.ContextAll(tab)
	first := childKeys(t, ev, ctx, "v")
	calcs := ev.Counters()[CutPointCalcs]
	if calcs == 0 {
		t.Fatal("priming cut computed no points")
	}
	second := childKeys(t, ev, ctx, "v")
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("cached cut diverged: %v vs %v", first, second)
	}
	after := ev.Counters()
	if after[CutPointCalcs] != calcs {
		t.Fatalf("version-equal hit recomputed points: %d -> %d", calcs, after[CutPointCalcs])
	}
	if after[CutRefreshes] != 0 {
		t.Fatalf("unmutated table took %d cut refreshes", after[CutRefreshes])
	}
}

// TestCutCacheRefreshAfterMutation pins the incremental path: after
// an in-window update that moves the median and appends that grow the
// string dictionary, a warm evaluator's cuts go through the splice
// refresh (CutRefreshes advances) and match a cold evaluator's cuts
// exactly.
func TestCutCacheRefreshAfterMutation(t *testing.T) {
	tab := cutCacheTable(t)
	ev := NewEvaluator(tab)
	ctx := sdl.ContextAll(tab)
	childKeys(t, ev, ctx, "v")
	childKeys(t, ev, ctx, "s")

	// Push half of one chunk to the top of v's window [0, 999] (moves
	// the median) and append rows with a brand-new string value (grows
	// the dict).
	vals := make([]engine.Value, 512)
	for i := range vals {
		vals[i] = engine.Int(999)
	}
	updateCutRows(t, tab, "v", 3*1024, vals)
	for i := 0; i < 8; i++ {
		appendCutRow(t, tab, 7, "kof")
	}

	matchCold(t, ev, tab, "v", "s")
	if got := ev.Counters()[CutRefreshes]; got < 2 {
		t.Fatalf("CutRefreshes = %d, want ≥2 (int and string cuts)", got)
	}
	// The appends opened a ninth chunk, and 9 × 1 000 cells outnumber
	// the 8 200 rows: the refreshed entry keeps its pieces but no
	// counts.
	ent, _ := ev.cachedCutEntry(cutKey(ctx, "v", DefaultCutOptions().normalize()))
	if ent.intCounts != nil {
		t.Fatalf("refreshed entry kept %d-chunk counts past the size rule", len(ent.intCounts.Chunks))
	}
}

// TestCutCacheRecomputesOutsideWindow pins the count splice's
// bail-out: a dirty chunk holding a value outside the entry's window
// recomputes in full instead of refreshing — once when a value drops
// below the window, once when the span grows past what can be counted
// — and the cut still matches a cold evaluator. A wide-span date cut,
// which retains nothing, recomputes the same way.
func TestCutCacheRecomputesOutsideWindow(t *testing.T) {
	for _, tc := range []struct {
		name, attr string
		val        engine.Value
	}{
		{"below window", "v", engine.Int(-1)},
		{"span past 2048", "v", engine.Int(5000)},
		{"wide date", "d", engine.Date(12345)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tab := cutCacheTable(t)
			ev := NewEvaluator(tab)
			childKeys(t, ev, sdl.ContextAll(tab), tc.attr)
			updateCutRows(t, tab, tc.attr, 5*1024, []engine.Value{tc.val})
			calcs := ev.Counters()[CutPointCalcs]
			matchCold(t, ev, tab, tc.attr)
			ctr := ev.Counters()
			if ctr[CutRefreshes] != 0 {
				t.Fatalf("stale entry took %d cut refreshes, want a full recompute", ctr[CutRefreshes])
			}
			if ctr[CutPointCalcs] != calcs+1 {
				t.Fatalf("CutPointCalcs %d -> %d, want one recompute", calcs, ctr[CutPointCalcs])
			}
		})
	}
}

// TestCutCacheServedMatchesFresh pins that a cut the cache serves on
// every column kind answers as a fresh evaluator's computed cut.
func TestCutCacheServedMatchesFresh(t *testing.T) {
	tab := cutCacheTable(t)
	ev := NewEvaluator(tab)
	ctx := sdl.ContextAll(tab)
	for _, attr := range []string{"v", "s", "w", "d"} {
		childKeys(t, ev, ctx, attr)
		hits := ev.Counters()[CutCacheHits]
		served := childKeys(t, ev, ctx, attr)
		if got := ev.Counters()[CutCacheHits]; got != hits+1 {
			t.Fatalf("%s: repeated cut took %d cache hits, want 1", attr, got-hits)
		}
		if want := childKeys(t, NewEvaluator(tab), ctx, attr); fmt.Sprint(served) != fmt.Sprint(want) {
			t.Fatalf("%s: served and fresh cuts diverged:\n%v\n%v", attr, served, want)
		}
	}
}

// TestCutCacheRetainsStateOnlyWhenMutable pins the retention rule: a
// read-only .chc table's stamp never moves, so its cut entries keep
// the pieces but no count vectors, while a memory-backed table's
// entries keep them for the splice refresh — string counts always,
// int counts only for a countable span whose vectors take no more
// cells than the extent has rows (v, not w or the date column d). No
// entry holds the values themselves. The pieces agree across the two
// backends.
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
	attrs := []string{"v", "s", "w", "d"}
	pieces := map[string]string{}
	for _, tc := range []struct {
		name   string
		tab    *engine.Table
		retain map[string]bool
	}{
		{"memory", mem, map[string]bool{"v": true, "s": true}},
		{".chc", file, map[string]bool{}},
	} {
		ev := NewEvaluator(tc.tab)
		ctx := sdl.ContextAll(tc.tab)
		for _, attr := range attrs {
			got := fmt.Sprint(childKeys(t, ev, ctx, attr))
			if want, ok := pieces[attr]; ok && got != want {
				t.Fatalf("%s cut on %s diverged from memory:\n%s\n%s", attr, tc.name, got, want)
			}
			pieces[attr] = got
			ent, ok := ev.cachedCutEntry(cutKey(ctx, attr, DefaultCutOptions().normalize()))
			if !ok {
				t.Fatalf("%s: no cut entry for %s", tc.name, attr)
			}
			if kept := ent.intCounts != nil || ent.strCounts != nil; kept != tc.retain[attr] {
				t.Fatalf("%s entry for %s: count vectors kept = %v, want %v", tc.name, attr, kept, tc.retain[attr])
			}
			if ic := ent.intCounts; ic != nil {
				checkIntCounts(t, ic, tc.tab.NumRows())
			}
		}
	}
}

// TestCutCountsRetainedPastVersionZero pins where count vectors are
// retained on a mutable table: not while it stands at version 0 — a
// table never mutated, such as a fresh advisor's over generated data,
// has nothing to splice — and from its first mutation on, after which
// a further mutation refreshes the cuts from them.
func TestCutCountsRetainedPastVersionZero(t *testing.T) {
	tab := freshCutCacheTable(t)
	ev := NewEvaluator(tab)
	ctx := sdl.ContextAll(tab)
	kept := func(attr string) bool {
		ent, ok := ev.cachedCutEntry(cutKey(ctx, attr, DefaultCutOptions().normalize()))
		if !ok {
			t.Fatalf("no cut entry for %s", attr)
		}
		return ent.intCounts != nil || ent.strCounts != nil
	}
	for _, attr := range []string{"v", "s"} {
		childKeys(t, ev, ctx, attr)
		if kept(attr) {
			t.Fatalf("version 0: the cut on %s retained count vectors", attr)
		}
	}
	// Updates, not appends: a ninth chunk would outgrow v's vectors.
	updateCutRows(t, tab, "v", 5, []engine.Value{engine.Int(5)})
	for _, attr := range []string{"v", "s"} {
		childKeys(t, ev, ctx, attr)
		if !kept(attr) {
			t.Fatalf("version %d: the cut on %s retained no count vectors", tab.Version(), attr)
		}
	}
	updateCutRows(t, tab, "v", 2048, []engine.Value{engine.Int(999), engine.Int(998)})
	updateCutRows(t, tab, "s", 2048, []engine.Value{engine.String_("pinas")})
	before := ev.Counters()[CutRefreshes]
	matchCold(t, ev, tab, "v", "s")
	if got := ev.Counters()[CutRefreshes] - before; got != 2 {
		t.Fatalf("after a second mutation: %d cut refreshes, want 2", got)
	}
}

// checkIntCounts requires retained int counts to cover every row once
// and to be no larger than the rows they summarise.
func checkIntCounts(t *testing.T, ic *engine.IntCounts, rows int) {
	t.Helper()
	n, cells := 0, 0
	for _, v := range ic.Chunks {
		if v == nil {
			continue
		}
		if len(v) != ic.Cells {
			t.Fatalf("count vector of %d cells, window has %d", len(v), ic.Cells)
		}
		cells += len(v)
		for _, k := range v {
			n += k
		}
	}
	if n != rows {
		t.Fatalf("count vectors hold %d rows, want %d", n, rows)
	}
	if cells > rows {
		t.Fatalf("count vectors take %d cells for %d rows", cells, rows)
	}
}
