package engine

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// bmEqual asserts a fused filter's bitmap equals the pack of the
// corresponding chunked filter's selection: same ones count, same
// materialized rows, and the empty-chunk invariant (nil words where
// no row is selected).
func bmEqual(t *testing.T, name string, got *Bitmap, wantCS *ChunkedSelection) {
	t.Helper()
	want := NewBitmapChunked(wantCS)
	if got.Count() != want.Count() {
		t.Fatalf("%s: fused Count() = %d, packed = %d", name, got.Count(), want.Count())
	}
	if !reflect.DeepEqual(got.Selection(), want.Selection()) {
		t.Fatalf("%s: fused bitmap materializes differently", name)
	}
	for c := 0; c < wantCS.NumChunks(); c++ {
		if len(wantCS.Seg(c)) == 0 && got.chunks[c] != nil {
			t.Fatalf("%s: chunk %d empty but fused bitmap allocated words", name, c)
		}
	}
}

// TestFusedBitmapFiltersMatchChunked is the fused-path equivalence
// property: FilterChunkedBitmap, under every typed predicate, must
// produce exactly the bitmap that packing the corresponding
// Filter*Chunked result produces, over adversarial parent shapes, with and without zone
// maps.
func TestFusedBitmapFiltersMatchChunked(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, nRows := range []int{1, 130, 1000} {
		chunkRows := 64
		tab := chunkTestTable(t, nRows, chunkRows, rng)
		ton := tab.MustColumn("ton").(*IntColumn)
		speed := tab.MustColumn("speed").(*FloatColumn)
		typ := tab.MustColumn("type").(*StringColumn)
		armed := tab.MustColumn("armed").(*BoolColumn)
		tonSum := tab.SummaryByName("ton")
		speedSum := tab.SummaryByName("speed")
		typSum := tab.SummaryByName("type")
		armedSum := tab.SummaryByName("armed")
		ranges := []IntRange{
			{Lo: 0, Hi: int64(nRows * 2), LoIncl: true, HiIncl: true},
			{Lo: int64(nRows * 3), Hi: int64(nRows * 4), LoIncl: true},
			{Lo: 100, Hi: 300, LoIncl: true, HiIncl: false},
		}
		for _, sel := range adversarialSelections(nRows, chunkRows, rng) {
			cs := ChunkSelection(sel, nRows, chunkRows)
			for _, sum := range []*ChunkSummary{tonSum, nil} {
				for _, r := range ranges {
					bmEqual(t, "FilterIntRangeChunkedBitmap",
						FilterIntRangeChunkedBitmap(ton, cs, r, sum),
						FilterIntRangeChunked(ton, cs, r, sum))
				}
				bmEqual(t, "IntSetPred",
					FilterChunkedBitmap(cs, IntSetPred(ton, []int64{0, 17, 100, 999}, sum)),
					FilterIntSetChunked(ton, cs, []int64{0, 17, 100, 999}, sum))
			}
			fr := FloatRange{Lo: 5, Hi: 30, LoIncl: true, HiIncl: true}
			bmEqual(t, "FloatRangePred",
				FilterChunkedBitmap(cs, FloatRangePred(speed, fr, speedSum)),
				FilterFloatRangeChunked(speed, cs, fr, speedSum))
			frAll := FloatRange{Lo: math.Inf(-1), Hi: math.Inf(1), LoIncl: true, HiIncl: true}
			bmEqual(t, "FloatRangePred all",
				FilterChunkedBitmap(cs, FloatRangePred(speed, frAll, speedSum)),
				FilterFloatRangeChunked(speed, cs, frAll, speedSum))
			bmEqual(t, "FloatSetPred",
				FilterChunkedBitmap(cs, FloatSetPred(speed, []float64{3, 20}, speedSum)),
				FilterFloatSetChunked(speed, cs, []float64{3, 20}, speedSum))
			for _, sum := range []*ChunkSummary{typSum, nil} {
				bmEqual(t, "FilterStringSetChunkedBitmap",
					FilterStringSetChunkedBitmap(typ, cs, []string{"fluit", "galjoot"}, sum),
					FilterStringSetChunked(typ, cs, []string{"fluit", "galjoot"}, sum))
				bmEqual(t, "StringRangePred",
					FilterChunkedBitmap(cs, StringRangePred(typ, "g", "k", true, false, sum)),
					FilterStringRangeChunked(typ, cs, "g", "k", true, false, sum))
			}
			bmEqual(t, "BoolSetPred",
				FilterChunkedBitmap(cs, BoolSetPred(armed, []bool{true}, armedSum)),
				FilterBoolSetChunked(armed, cs, []bool{true}, armedSum))
			bmEqual(t, "BoolSetPred both",
				FilterChunkedBitmap(cs, BoolSetPred(armed, []bool{true, false}, armedSum)),
				FilterBoolSetChunked(armed, cs, []bool{true, false}, armedSum))
		}
	}
}

// TestFusedBitmapEmptySets pins the degenerate inputs: empty or
// unresolvable value sets produce the all-empty bitmap in the
// parent's layout.
func TestFusedBitmapEmptySets(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tab := chunkTestTable(t, 300, 64, rng)
	typ := tab.MustColumn("type").(*StringColumn)
	ton := tab.MustColumn("ton").(*IntColumn)
	all := tab.AllChunked()
	for name, bm := range map[string]*Bitmap{
		"string empty":      FilterStringSetChunkedBitmap(typ, all, nil, tab.SummaryByName("type")),
		"string unresolved": FilterStringSetChunkedBitmap(typ, all, []string{"nope"}, tab.SummaryByName("type")),
		"int empty":         FilterChunkedBitmap(all, IntSetPred(ton, nil, tab.SummaryByName("ton"))),
		"bool empty":        FilterChunkedBitmap(all, BoolSetPred(tab.MustColumn("armed").(*BoolColumn), nil, tab.SummaryByName("armed"))),
	} {
		if bm.Count() != 0 || len(bm.Selection()) != 0 {
			t.Fatalf("%s: expected empty bitmap, got %d rows", name, bm.Count())
		}
		if bm.NumRows() != 300 {
			t.Fatalf("%s: universe %d, want 300", name, bm.NumRows())
		}
	}
}
