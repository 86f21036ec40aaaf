package seg

import (
	"reflect"
	"testing"

	"charles/internal/dataset"
	"charles/internal/engine"
	"charles/internal/sdl"
)

// selectBitmapQueries builds a spread of query shapes over VOC: the
// unconstrained context, single nominal and numeric predicates, a
// multi-constraint conjunction and an empty extent.
func selectBitmapQueries(t *testing.T, tab *engine.Table) []sdl.Query {
	t.Helper()
	ctx := sdl.ContextAll(tab)
	qString := ctx.WithConstraint(sdl.SetC("type_of_boat", engine.String_("fluit"), engine.String_("jacht")))
	qRange := ctx.WithConstraint(sdl.RangeC("tonnage", engine.Int(100), engine.Int(700), true, false))
	qConj := qRange.WithConstraint(sdl.SetC("departure_harbour", engine.String_("Texel")))
	qEmpty := ctx.WithConstraint(sdl.SetC("type_of_boat", engine.String_("no-such-boat")))
	return []sdl.Query{ctx, qString, qRange, qConj, qEmpty}
}

// packedRef returns q's selection on a fresh evaluator over tab: what
// SelectBitmap must equal chunk for chunk, form included.
func packedRef(t *testing.T, tab *engine.Table, q sdl.Query) *engine.Bitmap {
	t.Helper()
	cs, err := NewEvaluator(tab).SelectChunked(q)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// sameBitmap reports whether a and b select the same rows under the
// same chunk layout, each chunk in the same form.
func sameBitmap(a, b *engine.Bitmap) bool {
	if a.Len() != b.Len() || a.ChunkRows() != b.ChunkRows() || a.NumChunks() != b.NumChunks() || !reflect.DeepEqual(a.Flat(), b.Flat()) {
		return false
	}
	for c := 0; c < a.NumChunks(); c++ {
		if (a.Words(c) == nil) != (b.Words(c) == nil) {
			return false
		}
	}
	return true
}

// TestSelectBitmapMatchesPacked pins SelectBitmap to the chunked
// selection, for every query shape: on a cold evaluator (one FullEvals,
// then a repeat served from the cache), on a warm one whose selection
// is cached (the same selection, no evaluation).
func TestSelectBitmapMatchesPacked(t *testing.T) {
	tab := dataset.VOC(3000, 5)
	for _, q := range selectBitmapQueries(t, tab) {
		want := packedRef(t, tab, q)

		cold := NewEvaluator(tab)
		first, err := cold.SelectBitmap(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBitmap(first, want) {
			t.Fatalf("%s: cold SelectBitmap differs from a fresh selection", q)
		}
		if c := cold.Counters(); c[FullEvals] != 1 || c[CacheHits] != 0 {
			t.Fatalf("%s: cold SelectBitmap counted %d full evals and %d hits, want 1 and 0", q, c[FullEvals], c[CacheHits])
		}
		hit, err := cold.SelectBitmap(q)
		if err != nil {
			t.Fatal(err)
		}
		if hit != first {
			t.Fatalf("%s: repeated SelectBitmap did not serve the cached selection", q)
		}
		if c := cold.Counters(); c[FullEvals] != 1 || c[CacheHits] != 1 {
			t.Fatalf("%s: repeated SelectBitmap counted %d full evals and %d hits, want 1 and 1", q, c[FullEvals], c[CacheHits])
		}

		warm := NewEvaluator(tab)
		cached, err := warm.SelectChunked(q)
		if err != nil {
			t.Fatal(err)
		}
		packed, err := warm.SelectBitmap(q)
		if err != nil {
			t.Fatal(err)
		}
		if packed != cached || !sameBitmap(packed, want) {
			t.Fatalf("%s: SelectBitmap is not the cached selection", q)
		}
		if c := warm.Counters(); c[FullEvals] != 1 {
			t.Fatalf("%s: warm SelectBitmap re-evaluated (%d full evals)", q, c[FullEvals])
		}
	}
}

// TestSelectBitmapSplicesStaleEntry pins the delta path of the
// selection cache: after an append, SelectBitmap finds each entry
// stale and splices fresh chunks for the dirty chunks only — one
// DeltaRefreshes, no FullEvals — into a selection equal to a fresh
// evaluator's, chunk forms included.
func TestSelectBitmapSplicesStaleEntry(t *testing.T) {
	tab := dataset.VOC(3000, 5)
	tab.SetChunkRows(512)
	ev := NewEvaluator(tab)
	qs := selectBitmapQueries(t, tab)
	stale := make([]*engine.Bitmap, len(qs))
	for i, q := range qs {
		bm, err := ev.SelectBitmap(q)
		if err != nil {
			t.Fatal(err)
		}
		stale[i] = bm
	}
	var rows [][]engine.Value
	for r := 0; r < 400; r += 7 {
		rows = append(rows, valueRow(tab, r))
	}
	if err := tab.AppendRows(rows...); err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		before := ev.Counters()
		got, err := ev.SelectBitmap(q)
		if err != nil {
			t.Fatal(err)
		}
		after := ev.Counters()
		if d := after[DeltaRefreshes] - before[DeltaRefreshes]; d != 1 {
			t.Fatalf("%s: SelectBitmap after the append counted %d delta refreshes, want 1", q, d)
		}
		if d := after[FullEvals] - before[FullEvals]; d != 0 {
			t.Fatalf("%s: SelectBitmap after the append counted %d full evals, want 0", q, d)
		}
		if got == stale[i] || got.NumRows() != tab.NumRows() {
			t.Fatalf("%s: SelectBitmap served the pre-append selection", q)
		}
		if !sameBitmap(got, packedRef(t, tab, q)) {
			t.Fatalf("%s: spliced selection differs from a fresh one", q)
		}
	}
}

// TestSelectBitmapErrors mirrors the vector path's error contract.
func TestSelectBitmapErrors(t *testing.T) {
	tab := dataset.VOC(500, 5)
	ev := NewEvaluator(tab)
	bad := sdl.ContextAll(tab).WithConstraint(sdl.SetC("ghost", engine.String_("x")))
	if _, err := ev.SelectBitmap(bad); err == nil {
		t.Fatal("SelectBitmap on unknown column did not error")
	}
}
