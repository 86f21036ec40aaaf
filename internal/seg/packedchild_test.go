package seg

import (
	"fmt"
	"hash/maphash"
	"slices"
	"strings"
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
// context and every pair's INDEP twice on one evaluator. The first run
// COMPOSEs packed-only children, cutting them from their words, and
// builds no row ids; the second reads only cached counts, cut points,
// bitmaps and pair tables, so it evaluates nothing either.
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
	if c := ev.Counters(); c.RowMaterializations != 0 || c.NarrowEvals == 0 {
		t.Fatalf("first run: %d row materializations over %d narrow evaluations", c.RowMaterializations, c.NarrowEvals)
	}
	before := ev.Counters()
	run()
	after := ev.Counters()
	if after.RowMaterializations != before.RowMaterializations || after.FullEvals != before.FullEvals || after.NarrowEvals != before.NarrowEvals || after.CutPointCalcs != before.CutPointCalcs {
		t.Fatalf("second run: counters %+v -> %+v", before, after)
	}
}

// TestCachedCutReadsNoRows cuts a candidate's packed-only children
// twice, as a COMPOSE does. The first cut computes their cut points
// and grandchildren from their words and leaves them packed-only; the
// second takes its count, its cut points and every grandchild from the
// caches. Neither builds a row.
func TestCachedCutReadsNoRows(t *testing.T) {
	tab, ctx := packedVOC(t)
	ev := NewEvaluator(tab)
	s, ok, err := InitialCandidate(ev, ctx, "tonnage", DefaultCutOptions())
	if err != nil || !ok {
		t.Fatalf("InitialCandidate: %v ok=%v", err, ok)
	}
	first, err := Cut(ev, s, "type_of_boat", DefaultCutOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := packedOnlyCount(ev, s.Queries); got != s.Depth() || ev.Counters().RowMaterializations != 0 {
		t.Fatalf("%d of %d children packed-only after a cut computed their cut points, %d rows built", got, s.Depth(), ev.Counters().RowMaterializations)
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

// coldEvaluator is a caching-off evaluator over tab: every query is
// evaluated in full and nothing is packed-only.
func coldEvaluator(tab *engine.Table) *Evaluator {
	cold := NewEvaluator(tab)
	cold.SetCaching(false)
	return cold
}

// sameSegs reports whether two segmentations hold the same queries
// with the same counts.
func sameSegs(a, b *Segmentation) bool {
	return a.Key() == b.Key() && slices.Equal(a.Counts, b.Counts)
}

// TestComposePackedParentsBuildsNoRows COMPOSEs two HB-cuts candidates
// whose children are packed-only, both ways and as a plain Compose and
// a candidate one: every inner cut computes its cut points and its
// grandchildren from a packed parent's words, so no row is built, and
// every result equals a caching-off evaluator's.
func TestComposePackedParentsBuildsNoRows(t *testing.T) {
	tab, ctx := packedVOC(t)
	ev, cold := NewEvaluator(tab), coldEvaluator(tab)
	opt := DefaultCutOptions()
	initial := func(ev *Evaluator, attr string) *Segmentation {
		t.Helper()
		s, ok, err := InitialCandidate(ev, ctx, attr, opt)
		if err != nil || !ok {
			t.Fatalf("InitialCandidate(%s): %v ok=%v", attr, err, ok)
		}
		return s
	}
	a, b := initial(ev, "tonnage"), initial(ev, "type_of_boat")
	if n := len(packedOnlyQueries(ev, []*Segmentation{a, b})); n != a.Depth()+b.Depth() {
		t.Fatalf("%d of %d candidate children are packed-only", n, a.Depth()+b.Depth())
	}
	ca, cb := initial(cold, "tonnage"), initial(cold, "type_of_boat")
	before := ev.Counters()
	for _, tc := range []struct {
		name      string
		got, want func() (*Segmentation, error)
	}{
		{"Compose(tonnage, type_of_boat)", func() (*Segmentation, error) { return Compose(ev, a, b, opt) }, func() (*Segmentation, error) { return Compose(cold, ca, cb, opt) }},
		{"Compose(type_of_boat, tonnage)", func() (*Segmentation, error) { return Compose(ev, b, a, opt) }, func() (*Segmentation, error) { return Compose(cold, cb, ca, opt) }},
		{"ComposeCandidate(tonnage, type_of_boat)", func() (*Segmentation, error) { return ComposeCandidate(ev, a, b, opt, 12) }, func() (*Segmentation, error) { return ComposeCandidate(cold, ca, cb, opt, 12) }},
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
			t.Fatalf("%s = %s %v, caching off %s %v", tc.name, got, got.Counts, want, want.Counts)
		}
	}
	after := ev.Counters()
	if after.RowMaterializations != before.RowMaterializations || after.NarrowEvals == before.NarrowEvals || after.CutPointCalcs == before.CutPointCalcs {
		t.Fatalf("COMPOSE over packed-only candidates: counters %+v -> %+v", before, after)
	}
}

// TestZoomedReadviseBuildsNoRows zooms into a packed-only child of a
// candidate — it becomes the context — and re-advises there: every
// candidate of the zoomed context and every pair's INDEP, on an
// evaluator whose caches hold the first advise. The zoomed context is
// read, cut and paired from its words, so no row is built, and every
// candidate and INDEP value equals a caching-off evaluator's.
func TestZoomedReadviseBuildsNoRows(t *testing.T) {
	tab, ctx := packedVOC(t)
	ev, cold := NewEvaluator(tab), coldEvaluator(tab)
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
		t.Fatalf("zoomed re-advise: %d candidates, caching off %d", len(segs), len(want))
	}
	opt := PairOptions{Workers: 2, Memo: NewPairMemo()}
	for i := range segs {
		if !sameSegs(segs[i], want[i]) {
			t.Fatalf("zoomed candidate %d = %s %v, caching off %s %v", i, segs[i], segs[i].Counts, want[i], want[i].Counts)
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
				t.Fatalf("INDEP(%d, %d) = %v, caching off %v", i, j, got, ref)
			}
		}
	}
	if after := ev.Counters(); after.RowMaterializations != before.RowMaterializations || after.NarrowEvals == before.NarrowEvals {
		t.Fatalf("zoomed re-advise: counters %+v -> %+v", before, after)
	}
}

// TestSparsePackedPairSide packs a cut of a dense context into a piece
// holding under 1/64 of the table and the rest, and pairs it with a
// candidate. The sparse piece's pair side is its packed-only bitmap, so
// the pair builds no row, and its table equals a caching-off
// evaluator's.
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
	counts, err := ev.cutChildren(ctx, children, "tonnage", true)
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] == 0 || engine.DenseEnough(counts[0], tab.NumRows()) || packedOnlyCount(ev, children) != 2 {
		t.Fatalf("piece counts %v: want a packed-only piece under 1/64 of %d rows", counts, tab.NumRows())
	}
	s := &Segmentation{Queries: children, CutAttrs: []string{"tonnage"}, Counts: counts}
	other, ok, err := InitialCandidate(ev, ctx, "type_of_boat", DefaultCutOptions())
	if err != nil || !ok {
		t.Fatalf("InitialCandidate: %v ok=%v", err, ok)
	}
	before := ev.Counters()
	memo := NewPairMemo()
	cells, err := CellCountsOpt(ev, s, other, PairOptions{Workers: 1, Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	if fresh := freshCells(t, tab, s, other); !equalCells(cells, fresh) {
		t.Fatalf("pair table %v, caching off %v", cells, fresh)
	}
	if after := ev.Counters(); after.RowMaterializations != before.RowMaterializations || after.FullEvals != before.FullEvals {
		t.Fatalf("sparse packed pair side: counters %+v -> %+v", before, after)
	}
	for key, side := range memo.m {
		if strings.HasSuffix(key, "\x00"+s.Key()) && (side.bms[0] == nil || side.sels[0] != nil) {
			t.Fatal("the sparse packed-only piece's pair side is not its bitmap")
		}
	}
}

// TestStalePackedParentCutRefresh computes a string cut of a
// packed-only child on a memory table — its per-chunk counts retained
// — then appends rows and cuts it again. The child is refreshed as
// words, and its cut points are refreshed by recounting the dirty
// chunks of its words (CutRefreshes +1) without building a row; the
// pieces equal a caching-off evaluator's.
func TestStalePackedParentCutRefresh(t *testing.T) {
	tab, ctx := packedVOC(t)
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
	if after.CutRefreshes != before.CutRefreshes+1 || after.CutPointCalcs != before.CutPointCalcs+1 || after.RowMaterializations != before.RowMaterializations || after.FullEvals != before.FullEvals {
		t.Fatalf("re-cut of a stale packed-only parent: counters %+v -> %+v", before, after)
	}
	if packedOnlyCount(ev, []sdl.Query{q}) != 1 {
		t.Fatalf("%s is no longer packed-only", q)
	}
	want, err := CutQuery(coldEvaluator(tab), q, "type_of_boat", opt)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("refreshed pieces %v, caching off %v", got, want)
	}
}
