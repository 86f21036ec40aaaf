package seg

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"charles/internal/dataset"
	"charles/internal/engine"
	"charles/internal/sdl"
)

// wordsQueries returns the distinct queries of segs whose
// selection entry holds words at the current version.
func wordsQueries(ev *Evaluator, segs []*Segmentation) []sdl.Query {
	version := ev.Table().Stamp().Version()
	seen := map[string]bool{}
	var out []sdl.Query
	for _, s := range segs {
		for _, q := range s.Queries {
			ent, ok := ev.cached(q.Key())
			if seen[q.Key()] || !ok || !holdsWords(ent.sel) || ent.stamp.Version() != version {
				continue
			}
			seen[q.Key()] = true
			out = append(out, q)
		}
	}
	return out
}

// freshRows evaluates q on a new evaluator.
func freshRows(t *testing.T, tab *engine.Table, q sdl.Query) *engine.ChunkedSelection {
	t.Helper()
	cs, err := NewEvaluator(tab).SelectChunked(q)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// packedVOC is a 20 000-row VOC table at 1 024-row chunks and the
// context of the words-child tests: every HB-cuts candidate of it
// has dense children, so they hold words.
func packedVOC(t *testing.T) (*engine.Table, sdl.Query) {
	t.Helper()
	tab := dataset.VOC(20000, 5)
	tab.SetChunkRows(1024)
	ctx, err := sdl.ContextOn(tab, "type_of_boat", "tonnage", "departure_date")
	if err != nil {
		t.Fatal(err)
	}
	return tab, ctx
}

// bornPacked runs one InitialCut on ctx and returns its children,
// every one of them holding words.
func bornPacked(t *testing.T, ev *Evaluator, ctx sdl.Query, attr string) []sdl.Query {
	t.Helper()
	s, ok, err := InitialCut(ev, ctx, attr, DefaultCutOptions())
	if err != nil || !ok {
		t.Fatalf("InitialCut(%s): %v ok=%v", attr, err, ok)
	}
	kids := wordsQueries(ev, []*Segmentation{s})
	if len(kids) != s.Depth() {
		t.Fatalf("%d of the %d children of the cut on %s hold words", len(kids), s.Depth(), attr)
	}
	return kids
}

// TestPackedChildrenMatchUncached holds every words child the HB-cuts
// candidates of a VOC context and of the NaN sky table leave behind to
// a fresh evaluator: its count, SelectBitmap and SelectChunked —
// the cached selection itself, no row built — then the flat rows Select
// decodes from its words, one RowMaterializations per call, the cache
// entry left as it was.
func TestPackedChildrenMatchUncached(t *testing.T) {
	voc, vocCtx := packedVOC(t)
	sky := nanSky(t)
	skyCtx, err := sdl.ContextOn(sky, "class", "magnitude", "redshift", "flag")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		tab *engine.Table
		ctx sdl.Query
	}{{voc, vocCtx}, {sky, skyCtx}} {
		ev := NewEvaluator(tc.tab)
		kids := wordsQueries(ev, candidates(t, ev, tc.ctx))
		if len(kids) == 0 {
			t.Fatalf("%s: no candidate child holds words", tc.tab.Name())
		}
		for _, q := range kids {
			want := freshRows(t, tc.tab, q)
			ent, _ := ev.cached(q.Key())
			before := ev.Counters()
			n, err := ev.Count(q)
			if err != nil {
				t.Fatal(err)
			}
			bm, err := ev.SelectBitmap(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ev.SelectChunked(q)
			if err != nil {
				t.Fatal(err)
			}
			if n != want.Len() || bm != ent.sel || got != ent.sel || !sameChunked(got, want) {
				t.Fatalf("%s: words child %s counts %d, fresh %d, or is not the cached selection", tc.tab.Name(), q, n, want.Len())
			}
			if c := ev.Counters(); c[RowMaterializations] != before[RowMaterializations] || c[FullEvals] != before[FullEvals] {
				t.Fatalf("%s: Count, SelectBitmap and SelectChunked of %s built rows: %+v -> %+v", tc.tab.Name(), q, before, c)
			}
			for i := 1; i <= 2; i++ {
				flat, err := ev.Select(q)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(flat, want.Flat()) {
					t.Fatalf("%s: Select of %s differs from a fresh evaluation", tc.tab.Name(), q)
				}
				if c := ev.Counters(); c[RowMaterializations] != before[RowMaterializations]+i || c[FullEvals] != before[FullEvals] {
					t.Fatalf("%s: Select %d of %s: counters %+v -> %+v", tc.tab.Name(), i, q, before, c)
				}
			}
			if again, _ := ev.cached(q.Key()); again.sel != ent.sel {
				t.Fatalf("%s: Select of %s rewrote its cache entry", tc.tab.Name(), q)
			}
		}
	}
}

// TestRepeatedHBCutsBuildsNoRows runs the HB-cuts candidates of one
// context and every pair's INDEP twice on one evaluator. The first run
// COMPOSEs words children, cutting them from their words, and builds no
// row ids; the second reads only cached counts, cut points, selections
// and pair tables, so it evaluates nothing either.
func TestRepeatedHBCutsBuildsNoRows(t *testing.T) {
	tab, ctx := packedVOC(t)
	ev := NewEvaluator(tab)
	run := func() {
		segs := candidates(t, ev, ctx)
		opt := PairOptions{Workers: 2, Memo: NewPairMemo()}
		for _, s1 := range segs {
			for _, s2 := range segs {
				if _, err := IndepOpt(ev, s1, s2, opt); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	run()
	if c := ev.Counters(); c[RowMaterializations] != 0 || c[NarrowEvals] == 0 {
		t.Fatalf("first run: %d row materializations over %d narrow evaluations", c[RowMaterializations], c[NarrowEvals])
	}
	before := ev.Counters()
	run()
	after := ev.Counters()
	if after[RowMaterializations] != before[RowMaterializations] || after[FullEvals] != before[FullEvals] || after[NarrowEvals] != before[NarrowEvals] || after[CutPointCalcs] != before[CutPointCalcs] {
		t.Fatalf("second run: counters %+v -> %+v", before, after)
	}
}

// TestCachedCutReadsNoRows cuts a candidate's words children twice, as
// a COMPOSE does. The first cut computes their cut points and
// grandchildren from their words and leaves them as they are; the
// second takes its count, its cut points and every grandchild from the
// caches. Neither builds a row.
func TestCachedCutReadsNoRows(t *testing.T) {
	tab, ctx := packedVOC(t)
	ev := NewEvaluator(tab)
	s, ok, err := InitialCut(ev, ctx, "tonnage", DefaultCutOptions())
	if err != nil || !ok {
		t.Fatalf("InitialCut: %v ok=%v", err, ok)
	}
	first, err := Cut(ev, s, "type_of_boat", DefaultCutOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := wordsCount(ev, s.Queries); got != s.Depth() || ev.Counters()[RowMaterializations] != 0 {
		t.Fatalf("%d of %d children hold words after a cut computed their cut points, %d rows built", got, s.Depth(), ev.Counters()[RowMaterializations])
	}
	before := ev.Counters()
	again, err := Cut(ev, s, "type_of_boat", DefaultCutOptions())
	if err != nil {
		t.Fatal(err)
	}
	after := ev.Counters()
	if after[RowMaterializations] != before[RowMaterializations] || after[NarrowEvals] != before[NarrowEvals] || after[CutPointCalcs] != before[CutPointCalcs] || after[FullEvals] != before[FullEvals] {
		t.Fatalf("cached re-cut: counters %+v -> %+v", before, after)
	}
	if again.Key() != first.Key() || !slices.Equal(again.Counts, first.Counts) {
		t.Fatalf("cached re-cut gave %s %v, first cut %s %v", again, again.Counts, first, first.Counts)
	}
}

// TestStalePackedChildSplices appends rows and reads a words child two
// ways. Count refreshes it through its constraint chain over the dirty
// chunks alone and splices the result into its clean chunks (one
// DeltaRefreshes, no full evaluation). Re-running the cut splices every
// stale child from one pass over the parent's dirty chunks, again
// without building rows. Each equals a fresh evaluation, every
// chunk in its smaller form.
func TestStalePackedChildSplices(t *testing.T) {
	tab, ctx := packedVOC(t)
	ev := NewEvaluator(tab)
	kids := bornPacked(t, ev, ctx, "tonnage")
	appendSome := func(from int) {
		t.Helper()
		var rows [][]engine.Value
		for r := 0; r < 300; r++ {
			rows = append(rows, valueRow(tab, from+r*53))
		}
		if err := tab.AppendRows(rows...); err != nil {
			t.Fatal(err)
		}
	}
	check := func(q sdl.Query) {
		t.Helper()
		want := freshRows(t, tab, q)
		ent, ok := ev.cached(q.Key())
		if !ok || !holdsWords(ent.sel) || ent.stamp.Version() != tab.Stamp().Version() {
			t.Fatalf("%s does not hold words at the current version", q)
		}
		if !sameChunked(ent.sel, want) {
			t.Fatalf("spliced %s differs from a fresh evaluation", q)
		}
		checkSmallerForm(t, q.String(), ent.sel)
	}

	appendSome(0)
	before := ev.Counters()
	n, err := ev.Count(kids[0])
	if err != nil {
		t.Fatal(err)
	}
	after := ev.Counters()
	if after[DeltaRefreshes] != before[DeltaRefreshes]+1 || after[FullEvals] != before[FullEvals] || after[RowMaterializations] != before[RowMaterializations] {
		t.Fatalf("Count of a stale words child: counters %+v -> %+v", before, after)
	}
	if n != freshRows(t, tab, kids[0]).Len() {
		t.Fatalf("stale %s counted %d after the splice", kids[0], n)
	}
	check(kids[0])

	appendSome(7)
	before = ev.Counters()
	again := bornPacked(t, ev, ctx, "tonnage")
	after = ev.Counters()
	// One refresh for the context, one splice per child.
	if after[DeltaRefreshes] != before[DeltaRefreshes]+1+len(kids) || after[FullEvals] != before[FullEvals] || after[NarrowEvals] != before[NarrowEvals] || after[RowMaterializations] != before[RowMaterializations] {
		t.Fatalf("re-cut after an append: counters %+v -> %+v", before, after)
	}
	for _, q := range again {
		check(q)
	}
}

// TestConcurrentMaterialization has four goroutines ask for the flat
// rows of one words child at once: each gets the same row ids, equal to
// a fresh evaluation, each decode is counted, and the cache still
// holds the child as it was.
func TestConcurrentMaterialization(t *testing.T) {
	tab, ctx := packedVOC(t)
	ev := NewEvaluator(tab)
	q := bornPacked(t, ev, ctx, "type_of_boat")[0]
	ent, _ := ev.cached(q.Key())
	want := freshRows(t, tab, q).Flat()
	got := make([]engine.Selection, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = ev.Select(q)
		}()
	}
	wg.Wait()
	for i, rows := range got {
		if !slices.Equal(rows, want) {
			t.Fatalf("goroutine %d got rows that differ from a fresh evaluation", i)
		}
	}
	if n := ev.Counters()[RowMaterializations]; n != len(got) {
		t.Fatalf("%d row materializations for %d concurrent readers", n, len(got))
	}
	if again, _ := ev.cached(q.Key()); again.sel != ent.sel {
		t.Fatal("reading the rows rewrote the cache entry")
	}
}

// held reports whether the selection store holds key, without reading
// the entry: the clock would spare an entry read on every check.
func held(ev *Evaluator, key string) bool {
	s := ev.shard(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.m[key]
	return ok
}

// evictUnder stores new keys through put, under a byte budget of what
// the stores hold now, until present reports q's entry gone: each such
// store evicts at least one entry, and the clock spares a read entry
// only once.
func evictUnder(t *testing.T, ev *Evaluator, q sdl.Query, present func() bool, put func(key string)) {
	t.Helper()
	budget := ev.CacheBytes()
	ev.SetCacheBudget(budget)
	for i := 0; i < 100000 && present(); i++ {
		put(fmt.Sprintf("evict-%d", i))
		if got := ev.CacheBytes(); got > budget {
			t.Fatalf("the stores hold %d bytes, budget %d", got, budget)
		}
	}
	if present() {
		t.Fatalf("%s's entry survived every store", q)
	}
}

// TestPackedChildOutlivesPackedCacheEviction evicts a words child's
// selection entry, the one store, under a cache limit: its count, pair
// side and rows are evaluated afresh and stay exact, and the pair side
// builds no rows.
func TestPackedChildOutlivesPackedCacheEviction(t *testing.T) {
	tab, ctx := packedVOC(t)
	opt := DefaultCutOptions()
	candidate := func(ev *Evaluator, attr string) *Segmentation {
		t.Helper()
		s, ok, err := InitialCut(ev, ctx, attr, opt)
		if err != nil || !ok {
			t.Fatalf("InitialCut(%s): %v ok=%v", attr, err, ok)
		}
		return s
	}
	ev := NewEvaluator(tab)
	s, other := candidate(ev, "tonnage"), candidate(ev, "type_of_boat")
	q := s.Queries[0]
	want := freshRows(t, tab, q)
	evictUnder(t, ev, q, func() bool { return held(ev, q.Key()) }, func(k string) { ev.store(k, cachedSel{sel: want, stamp: tab.Stamp()}) })
	before := ev.Counters()
	cells, err := CellCountsOpt(ev, s, other, PairOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fresh := freshCells(t, tab, s, other); !equalCells(cells, fresh) {
		t.Fatalf("pair table after eviction %v, fresh %v", cells, fresh)
	}
	if after := ev.Counters(); after[FullEvals] == before[FullEvals] || after[RowMaterializations] != before[RowMaterializations] {
		t.Fatalf("pair sides with the selection entry evicted: counters %+v -> %+v", before, after)
	}
	if n, err := ev.Count(q); err != nil || n != want.Len() {
		t.Fatalf("Count after eviction = %d, %v; want %d", n, err, want.Len())
	}
	got, err := ev.SelectChunked(q)
	if err != nil || !sameChunked(got, want) {
		t.Fatalf("rows after eviction differ from a fresh evaluation (%v)", err)
	}
	checkSmallerForm(t, q.String(), got)
}

// sameSegs reports whether two segmentations hold the same queries
// with the same counts.
func sameSegs(a, b *Segmentation) bool {
	return a.Key() == b.Key() && slices.Equal(a.Counts, b.Counts)
}

// TestComposePackedParentsBuildsNoRows COMPOSEs two HB-cuts candidates
// whose children hold words, both ways: every inner cut computes its
// cut points and its grandchildren from a parent's words, so no row is
// built, and every result equals a fresh evaluator's.
func TestComposePackedParentsBuildsNoRows(t *testing.T) {
	tab, ctx := packedVOC(t)
	ev, cold := NewEvaluator(tab), NewEvaluator(tab)
	opt := DefaultCutOptions()
	initial := func(ev *Evaluator, attr string) *Segmentation {
		t.Helper()
		s, ok, err := InitialCut(ev, ctx, attr, opt)
		if err != nil || !ok {
			t.Fatalf("InitialCut(%s): %v ok=%v", attr, err, ok)
		}
		return s
	}
	a, b := initial(ev, "tonnage"), initial(ev, "type_of_boat")
	if n := len(wordsQueries(ev, []*Segmentation{a, b})); n != a.Depth()+b.Depth() {
		t.Fatalf("%d of %d candidate children hold words", n, a.Depth()+b.Depth())
	}
	ca, cb := initial(cold, "tonnage"), initial(cold, "type_of_boat")
	before := ev.Counters()
	for _, tc := range []struct {
		name      string
		got, want func() (*Segmentation, error)
	}{
		{"Compose(tonnage, type_of_boat)", func() (*Segmentation, error) { return Compose(ev, a, b, opt) }, func() (*Segmentation, error) { return Compose(cold, ca, cb, opt) }},
		{"Compose(type_of_boat, tonnage)", func() (*Segmentation, error) { return Compose(ev, b, a, opt) }, func() (*Segmentation, error) { return Compose(cold, cb, ca, opt) }},
	} {
		got, err := tc.got()
		if err != nil {
			t.Fatal(err)
		}
		want, err := tc.want()
		if err != nil {
			t.Fatal(err)
		}
		if !sameSegs(got, want) {
			t.Fatalf("%s = %s %v, fresh %s %v", tc.name, got, got.Counts, want, want.Counts)
		}
	}
	after := ev.Counters()
	if after[RowMaterializations] != before[RowMaterializations] || after[NarrowEvals] == before[NarrowEvals] || after[CutPointCalcs] == before[CutPointCalcs] {
		t.Fatalf("COMPOSE over words candidates: counters %+v -> %+v", before, after)
	}
}

// TestZoomedReadviseBuildsNoRows zooms into a words child of a
// candidate — it becomes the context — and re-advises there: every
// candidate of the zoomed context and every pair's INDEP, on an
// evaluator whose caches hold the first advise. The zoomed context is
// read, cut and paired from its words, so no row is built, and every
// candidate and INDEP value equals a fresh evaluator's.
func TestZoomedReadviseBuildsNoRows(t *testing.T) {
	tab, ctx := packedVOC(t)
	ev, cold := NewEvaluator(tab), NewEvaluator(tab)
	first := candidates(t, ev, ctx)
	zoomed := bornPacked(t, ev, ctx, "tonnage")[0]
	if len(first) == 0 {
		t.Fatal("no candidate")
	}
	before := ev.Counters()
	if _, err := ev.Count(zoomed); err != nil {
		t.Fatal(err)
	}
	segs, want := candidates(t, ev, zoomed), candidates(t, cold, zoomed)
	if len(segs) != len(want) || len(segs) == 0 {
		t.Fatalf("zoomed re-advise: %d candidates, fresh %d", len(segs), len(want))
	}
	opt := PairOptions{Workers: 2, Memo: NewPairMemo()}
	for i := range segs {
		if !sameSegs(segs[i], want[i]) {
			t.Fatalf("zoomed candidate %d = %s %v, fresh %s %v", i, segs[i], segs[i].Counts, want[i], want[i].Counts)
		}
		for j := range segs {
			got, err := IndepOpt(ev, segs[i], segs[j], opt)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := IndepOpt(cold, want[i], want[j], PairOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if got != ref {
				t.Fatalf("INDEP(%d, %d) = %v, fresh %v", i, j, got, ref)
			}
		}
	}
	if after := ev.Counters(); after[RowMaterializations] != before[RowMaterializations] || after[NarrowEvals] == before[NarrowEvals] {
		t.Fatalf("zoomed re-advise: counters %+v -> %+v", before, after)
	}
}

// TestSparsePackedPairSide cuts a dense context into a piece holding
// under 1/32 of every chunk and the rest, and pairs it with a candidate.
// The sparse piece is stored as row ids and the rest as words, the pair
// sides are the cached selections as they are, the pair builds no row,
// and its table equals a fresh evaluator's.
func TestSparsePackedPairSide(t *testing.T) {
	tab, ctx := packedVOC(t)
	ev := NewEvaluator(tab)
	col, _ := tab.ColumnByName("tonnage")
	vals := slices.Clone(col.(engine.IntValued).Int64s())
	slices.Sort(vals)
	lo, split, hi := vals[0], vals[len(vals)/200], vals[len(vals)-1]
	var children []sdl.Query
	for _, piece := range []sdl.Constraint{
		sdl.RangeC("tonnage", engine.Int(lo), engine.Int(split), true, false),
		sdl.RangeC("tonnage", engine.Int(split), engine.Int(hi), true, true),
	} {
		child, _, err := childQuery(ctx, piece)
		if err != nil {
			t.Fatal(err)
		}
		children = append(children, child)
	}
	counts, err := ev.cutChildren(ctx, children, "tonnage", tab.Version())
	if err != nil {
		t.Fatal(err)
	}
	sparse, _ := ev.cached(children[0].Key())
	if counts[0] == 0 || holdsWords(sparse.sel) || wordsCount(ev, children[1:]) != 1 {
		t.Fatalf("piece counts %v: want a row-id piece under 1/32 of every chunk and a words piece", counts)
	}
	s := &Segmentation{Queries: children, CutAttrs: []string{"tonnage"}, Counts: counts}
	other, ok, err := InitialCut(ev, ctx, "type_of_boat", DefaultCutOptions())
	if err != nil || !ok {
		t.Fatalf("InitialCut: %v ok=%v", err, ok)
	}
	before := ev.Counters()
	memo := NewPairMemo()
	cells, err := CellCountsOpt(ev, s, other, PairOptions{Workers: 1, Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	if fresh := freshCells(t, tab, s, other); !equalCells(cells, fresh) {
		t.Fatalf("pair table %v, fresh %v", cells, fresh)
	}
	if after := ev.Counters(); after[RowMaterializations] != before[RowMaterializations] || after[FullEvals] != before[FullEvals] {
		t.Fatalf("sparse pair side: counters %+v -> %+v", before, after)
	}
	for key, side := range memo.m {
		if strings.HasSuffix(key, "\x00"+s.Key()) && side[0] != sparse.sel {
			t.Fatal("the sparse piece's pair side is not its cached selection")
		}
	}
}

// TestStalePackedParentCutRefresh computes a string cut of a words
// child on a memory table past version 0 — its per-chunk counts
// retained — then
// appends rows and cuts it again. The child is refreshed, still holding
// words, and its cut points are refreshed by recounting the dirty
// chunks of its words (CutRefreshes +1) without building a row; the
// pieces equal a fresh evaluator's.
func TestStalePackedParentCutRefresh(t *testing.T) {
	tab, ctx := packedVOC(t)
	// Past version 0, where a cut starts retaining its counts.
	if err := tab.AppendRows(valueRow(tab, 0)); err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(tab)
	q := bornPacked(t, ev, ctx, "tonnage")[0]
	opt := DefaultCutOptions()
	if _, err := CutQuery(ev, q, "type_of_boat", opt); err != nil {
		t.Fatal(err)
	}
	var rows [][]engine.Value
	for r := 0; r < 300; r++ {
		rows = append(rows, valueRow(tab, r*61))
	}
	if err := tab.AppendRows(rows...); err != nil {
		t.Fatal(err)
	}
	before := ev.Counters()
	got, err := CutQuery(ev, q, "type_of_boat", opt)
	if err != nil {
		t.Fatal(err)
	}
	after := ev.Counters()
	if after[CutRefreshes] != before[CutRefreshes]+1 || after[CutPointCalcs] != before[CutPointCalcs]+1 || after[RowMaterializations] != before[RowMaterializations] || after[FullEvals] != before[FullEvals] {
		t.Fatalf("re-cut of a stale words parent: counters %+v -> %+v", before, after)
	}
	if wordsCount(ev, []sdl.Query{q}) != 1 {
		t.Fatalf("%s no longer holds words", q)
	}
	want, err := CutQuery(NewEvaluator(tab), q, "type_of_boat", opt)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("refreshed pieces %v, fresh %v", got, want)
	}
}
