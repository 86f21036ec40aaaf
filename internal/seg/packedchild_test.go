package seg

import (
	"fmt"
	"hash/maphash"
	"slices"
	"sync"
	"testing"

	"charles/internal/dataset"
	"charles/internal/engine"
	"charles/internal/sdl"
)

// packedOnlyQueries returns the distinct queries of segs whose
// selection entry is packed-only at the current version.
func packedOnlyQueries(ev *Evaluator, segs []*Segmentation) []sdl.Query {
	version := ev.Table().Stamp().Version()
	seen := map[string]bool{}
	var out []sdl.Query
	for _, s := range segs {
		for _, q := range s.Queries {
			ent, ok := ev.cached(q.Key())
			if seen[q.Key()] || !ok || ent.cs != nil || ent.stamp.Version() != version {
				continue
			}
			seen[q.Key()] = true
			out = append(out, q)
		}
	}
	return out
}

// uncachedRows evaluates q on a new evaluator with caching off.
func uncachedRows(t *testing.T, tab *engine.Table, q sdl.Query) *engine.ChunkedSelection {
	t.Helper()
	cold := NewEvaluator(tab)
	cold.SetCaching(false)
	cs, err := cold.SelectChunked(q)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// packedVOC is a 20 000-row VOC table at 1 024-row chunks and the
// context of the packed-child tests: every HB-cuts candidate of it
// has dense children.
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

// bornPacked runs one InitialCandidate on ctx and returns its children,
// every one of them packed-only.
func bornPacked(t *testing.T, ev *Evaluator, ctx sdl.Query, attr string) []sdl.Query {
	t.Helper()
	s, ok, err := InitialCandidate(ev, ctx, attr, DefaultCutOptions())
	if err != nil || !ok {
		t.Fatalf("InitialCandidate(%s): %v ok=%v", attr, err, ok)
	}
	kids := packedOnlyQueries(ev, []*Segmentation{s})
	if len(kids) != s.Depth() {
		t.Fatalf("%d of the %d children of the cut on %s are packed-only", len(kids), s.Depth(), attr)
	}
	return kids
}

// TestPackedChildrenMatchUncached holds every packed-only child the
// HB-cuts candidates of a VOC context and of the NaN sky table leave
// behind to a caching-off evaluator: its count and bitmap before any
// row is built, then the row ids SelectChunked builds, once per
// child (one RowMaterializations each) and in place of the bitmap.
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
		kids := packedOnlyQueries(ev, candidates(t, ev, tc.ctx))
		if len(kids) == 0 {
			t.Fatalf("%s: no candidate child is packed-only", tc.tab.Name())
		}
		for _, q := range kids {
			want := uncachedRows(t, tc.tab, q)
			before := ev.Counters()
			n, err := ev.Count(q)
			if err != nil {
				t.Fatal(err)
			}
			bm, err := ev.SelectBitmap(q)
			if err != nil {
				t.Fatal(err)
			}
			if n != want.Len() || bm.Count() != want.Len() || !sameChunked(bm.Chunked(), want) {
				t.Fatalf("%s: packed-only %s counts %d (bitmap %d), uncached %d", tc.tab.Name(), q, n, bm.Count(), want.Len())
			}
			if c := ev.Counters(); c.RowMaterializations != before.RowMaterializations || c.FullEvals != before.FullEvals {
				t.Fatalf("%s: Count and SelectBitmap of %s built rows: %+v -> %+v", tc.tab.Name(), q, before, c)
			}
			got, err := ev.SelectChunked(q)
			if err != nil {
				t.Fatal(err)
			}
			if !sameChunked(got, want) {
				t.Fatalf("%s: materialized %s differs from the uncached evaluation", tc.tab.Name(), q)
			}
			if c := ev.Counters(); c.RowMaterializations != before.RowMaterializations+1 || c.FullEvals != before.FullEvals {
				t.Fatalf("%s: first SelectChunked of %s: counters %+v -> %+v", tc.tab.Name(), q, before, c)
			}
			if ent, _ := ev.cached(q.Key()); ent.cs != got {
				t.Fatalf("%s: %s's built rows did not replace its bitmap in the cache", tc.tab.Name(), q)
			}
			if again, _ := ev.SelectChunked(q); again != got || ev.Counters().RowMaterializations != before.RowMaterializations+1 {
				t.Fatalf("%s: a second SelectChunked of %s built its rows again", tc.tab.Name(), q)
			}
		}
	}
}

// TestRepeatedHBCutsBuildsNoRows runs the HB-cuts candidates of one
// context and every pair's INDEP twice on one evaluator: the second
// run reads only cached counts, cut points, bitmaps and pair tables,
// so it builds no row ids and evaluates nothing.
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
	if ev.Counters().RowMaterializations == 0 {
		t.Fatal("the first run built no rows: COMPOSE should cut packed-only children")
	}
	before := ev.Counters()
	run()
	after := ev.Counters()
	if after.RowMaterializations != before.RowMaterializations || after.FullEvals != before.FullEvals || after.NarrowEvals != before.NarrowEvals || after.CutPointCalcs != before.CutPointCalcs {
		t.Fatalf("second run: counters %+v -> %+v", before, after)
	}
}

// TestCachedCutReadsNoRows cuts a candidate's packed-only children
// once — which builds their rows, as a COMPOSE does — then puts them
// back packed-only and cuts them again. The second cut takes its count,
// its cut points and every grandchild from the caches, so it builds
// no rows and reads no parent's rows.
func TestCachedCutReadsNoRows(t *testing.T) {
	tab, ctx := packedVOC(t)
	ev := NewEvaluator(tab)
	s, ok, err := InitialCandidate(ev, ctx, "tonnage", DefaultCutOptions())
	if err != nil || !ok {
		t.Fatalf("InitialCandidate: %v ok=%v", err, ok)
	}
	born := make([]cachedSel, s.Depth())
	for i, q := range s.Queries {
		born[i], _ = ev.cached(q.Key())
	}
	first, err := Cut(ev, s, "type_of_boat", DefaultCutOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := packedOnlyCount(ev, s.Queries); got != 0 {
		t.Fatalf("%d children still packed-only after a cut computed their cut points", got)
	}
	for i, q := range s.Queries {
		ev.store(q.Key(), born[i])
	}
	before := ev.Counters()
	again, err := Cut(ev, s, "type_of_boat", DefaultCutOptions())
	if err != nil {
		t.Fatal(err)
	}
	after := ev.Counters()
	if after.RowMaterializations != before.RowMaterializations || after.NarrowEvals != before.NarrowEvals || after.CutPointCalcs != before.CutPointCalcs || after.FullEvals != before.FullEvals {
		t.Fatalf("cached re-cut: counters %+v -> %+v", before, after)
	}
	if again.Key() != first.Key() || !slices.Equal(again.Counts, first.Counts) {
		t.Fatalf("cached re-cut gave %s %v, first cut %s %v", again, again.Counts, first, first.Counts)
	}
}

// TestStalePackedChildSplices appends rows and reads a packed-only
// child two ways. Count refreshes it through its constraint chain
// over the dirty chunks alone and splices the result into its words
// (one DeltaRefreshes, no full evaluation), leaving it packed-only.
// Re-running the cut splices every stale child from one pass over the
// parent's dirty chunks, again without building rows. Each equals an
// uncached evaluation, as do its rows once built.
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
		want := uncachedRows(t, tab, q)
		if ent, ok := ev.cached(q.Key()); !ok || ent.cs != nil || ent.stamp.Version() != tab.Stamp().Version() {
			t.Fatalf("%s is not packed-only at the current version", q)
		}
		if bm, _ := ev.SelectBitmap(q); bm.Count() != want.Len() || !sameChunked(bm.Chunked(), want) {
			t.Fatalf("spliced %s differs from an uncached evaluation", q)
		}
	}

	appendSome(0)
	before := ev.Counters()
	n, err := ev.Count(kids[0])
	if err != nil {
		t.Fatal(err)
	}
	after := ev.Counters()
	if after.DeltaRefreshes != before.DeltaRefreshes+1 || after.FullEvals != before.FullEvals || after.RowMaterializations != before.RowMaterializations {
		t.Fatalf("Count of a stale packed-only child: counters %+v -> %+v", before, after)
	}
	if n != uncachedRows(t, tab, kids[0]).Len() {
		t.Fatalf("stale %s counted %d after the splice", kids[0], n)
	}
	check(kids[0])

	appendSome(7)
	before = ev.Counters()
	again := bornPacked(t, ev, ctx, "tonnage")
	after = ev.Counters()
	// One refresh for the context, one splice per child.
	if after.DeltaRefreshes != before.DeltaRefreshes+1+len(kids) || after.FullEvals != before.FullEvals || after.NarrowEvals != before.NarrowEvals || after.RowMaterializations != before.RowMaterializations {
		t.Fatalf("re-cut after an append: counters %+v -> %+v", before, after)
	}
	for _, q := range again {
		check(q)
		got, err := ev.SelectChunked(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameChunked(got, uncachedRows(t, tab, q)) {
			t.Fatalf("rows of spliced %s differ from an uncached evaluation", q)
		}
	}
}

// TestConcurrentMaterialization has four goroutines ask for the rows
// of one packed-only child at once: each gets the same row ids, equal
// to an uncached evaluation, and the cache ends up holding row ids.
func TestConcurrentMaterialization(t *testing.T) {
	tab, ctx := packedVOC(t)
	ev := NewEvaluator(tab)
	q := bornPacked(t, ev, ctx, "type_of_boat")[0]
	want := uncachedRows(t, tab, q)
	got := make([]*engine.ChunkedSelection, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = ev.SelectChunked(q)
		}()
	}
	wg.Wait()
	for i, cs := range got {
		if cs == nil || !sameChunked(cs, want) {
			t.Fatalf("goroutine %d got rows that differ from an uncached evaluation", i)
		}
	}
	if n := ev.Counters().RowMaterializations; n < 1 || n > len(got) {
		t.Fatalf("%d row materializations for %d concurrent readers", n, len(got))
	}
	if ent, _ := ev.cached(q.Key()); ent.cs == nil {
		t.Fatal("the cache still holds the child packed-only")
	}
}

// evictUnder stores new keys of q's shard through put, under a limit
// of one entry per shard, until present reports q's entry gone: each
// such store evicts an arbitrary entry of the shard.
func evictUnder(t *testing.T, ev *Evaluator, q sdl.Query, present func() bool, put func(key string)) {
	t.Helper()
	ev.SetCacheLimit(1)
	shard := maphash.String(cacheSeed, q.Key()) % cacheShards
	for i := 0; i < 100000 && present(); i++ {
		if k := fmt.Sprintf("evict-%d", i); maphash.String(cacheSeed, k)%cacheShards == shard {
			put(k)
		}
	}
	if present() {
		t.Fatalf("%s's entry survived every store into its shard", q)
	}
}

// TestPackedChildOutlivesPackedCacheEviction evicts a packed-only
// child's packed-cache entry under a cache limit: the selection entry
// still holds the bitmap, so the child's count, pair side and rows
// stay readable and exact, and the pair side builds no rows. Evicting
// the selection entry instead leaves the packed entry, which a pair
// side reads first: it evaluates nothing.
func TestPackedChildOutlivesPackedCacheEviction(t *testing.T) {
	tab, ctx := packedVOC(t)
	opt := DefaultCutOptions()
	candidate := func(ev *Evaluator, attr string) *Segmentation {
		t.Helper()
		s, ok, err := InitialCandidate(ev, ctx, attr, opt)
		if err != nil || !ok {
			t.Fatalf("InitialCandidate(%s): %v ok=%v", attr, err, ok)
		}
		return s
	}
	all := engine.NewBitmapChunked(tab.AllChunked())

	ev := NewEvaluator(tab)
	s, other := candidate(ev, "tonnage"), candidate(ev, "type_of_boat")
	q := s.Queries[0]
	evictUnder(t, ev, q, func() bool {
		_, ok := ev.cachedPacked(q.Key())
		return ok
	}, func(k string) { ev.storeBitmap(k, all, tab.Stamp()) })
	if ent, ok := ev.cached(q.Key()); !ok || ent.cs != nil {
		t.Fatal("the selection entry is no longer packed-only")
	}
	want := uncachedRows(t, tab, q)
	if n, err := ev.Count(q); err != nil || n != want.Len() {
		t.Fatalf("Count after eviction = %d, %v; want %d", n, err, want.Len())
	}
	before := ev.Counters()
	cells, err := CellCountsOpt(ev, s, other, PairOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fresh := freshCells(t, tab, s, other); !equalCells(cells, fresh) {
		t.Fatalf("pair table after eviction %v, fresh %v", cells, fresh)
	}
	if ev.Counters().RowMaterializations != before.RowMaterializations {
		t.Fatal("the pair side of an evicted packed child built its rows instead of reading its bitmap")
	}
	got, err := ev.SelectChunked(q)
	if err != nil || !sameChunked(got, want) {
		t.Fatalf("rows after eviction differ from an uncached evaluation (%v)", err)
	}

	ev = NewEvaluator(tab)
	s, other = candidate(ev, "tonnage"), candidate(ev, "type_of_boat")
	q = s.Queries[0]
	evictUnder(t, ev, q, func() bool {
		_, ok := ev.cached(q.Key())
		return ok
	}, func(k string) { ev.store(k, cachedSel{cs: want, stamp: tab.Stamp()}) })
	before = ev.Counters()
	if cells, err = CellCountsOpt(ev, s, other, PairOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if fresh := freshCells(t, tab, s, other); !equalCells(cells, fresh) {
		t.Fatalf("pair table after evicting the selection entry %v, fresh %v", cells, fresh)
	}
	if after := ev.Counters(); after.FullEvals != before.FullEvals || after.RowMaterializations != before.RowMaterializations {
		t.Fatalf("pair sides with the selection entry evicted: counters %+v -> %+v", before, after)
	}
}
