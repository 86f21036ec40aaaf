package engine

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// bmEqual asserts a filter's result holds exactly the rows of a
// reference filter, every chunk in the one form.
func bmEqual(t *testing.T, name string, got *Bitmap, wantCS *ChunkedSelection) {
	t.Helper()
	if got.Len() != wantCS.Len() || !reflect.DeepEqual(got.Flat(), wantCS.Flat()) {
		t.Fatalf("%s: %d rows, want %d", name, got.Len(), wantCS.Len())
	}
	checkWords(t, name, got)
}

// TestFusedBitmapFiltersMatchChunked holds the filters to each other:
// under every typed predicate, a filter resolved against the column's
// zone map (the probes' *Bitmap shims among them) holds exactly the
// rows the same filter holds without one, every chunk in the one form,
// over adversarial parent shapes.
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
			for _, r := range ranges {
				bmEqual(t, "FilterIntRangeChunkedBitmap",
					FilterIntRangeChunkedBitmap(ton, cs, r, tonSum),
					FilterIntRangeChunked(ton, cs, r, nil))
			}
			bmEqual(t, "IntSetPred",
				FilterChunked(cs, IntSetPred(ton, []int64{0, 17, 100, 999}, tonSum)),
				FilterChunked(cs, IntSetPred(ton, []int64{0, 17, 100, 999}, nil)))
			fr := FloatRange{Lo: 5, Hi: 30, LoIncl: true, HiIncl: true}
			bmEqual(t, "FloatRangePred",
				FilterChunked(cs, FloatRangePred(speed, fr, speedSum)),
				FilterFloatRangeChunked(speed, cs, fr, nil))
			frAll := FloatRange{Lo: math.Inf(-1), Hi: math.Inf(1), LoIncl: true, HiIncl: true}
			bmEqual(t, "FloatRangePred all",
				FilterChunked(cs, FloatRangePred(speed, frAll, speedSum)),
				FilterFloatRangeChunked(speed, cs, frAll, nil))
			bmEqual(t, "FloatSetPred",
				FilterChunked(cs, FloatSetPred(speed, []float64{3, 20}, speedSum)),
				FilterChunked(cs, FloatSetPred(speed, []float64{3, 20}, nil)))
			bmEqual(t, "FilterStringSetChunkedBitmap",
				FilterStringSetChunkedBitmap(typ, cs, []string{"fluit", "galjoot"}, typSum),
				FilterStringSetChunked(typ, cs, []string{"fluit", "galjoot"}, nil))
			bmEqual(t, "StringRangePred",
				FilterChunked(cs, StringRangePred(typ, "g", "k", true, false, typSum)),
				FilterChunked(cs, StringRangePred(typ, "g", "k", true, false, nil)))
			bmEqual(t, "BoolSetPred",
				FilterChunked(cs, BoolSetPred(armed, []bool{true}, armedSum)),
				FilterChunked(cs, BoolSetPred(armed, []bool{true}, nil)))
			bmEqual(t, "BoolSetPred both",
				FilterChunked(cs, BoolSetPred(armed, []bool{true, false}, armedSum)),
				FilterChunked(cs, BoolSetPred(armed, []bool{true, false}, nil)))
		}
	}
}

// TestFusedBitmapEmptySets pins the degenerate inputs: empty or
// unresolvable value sets produce the all-empty selection in the
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
		"int empty":         FilterChunked(all, IntSetPred(ton, nil, tab.SummaryByName("ton"))),
		"bool empty":        FilterChunked(all, BoolSetPred(tab.MustColumn("armed").(*BoolColumn), nil, tab.SummaryByName("armed"))),
	} {
		if bm.Len() != 0 || len(bm.Flat()) != 0 {
			t.Fatalf("%s: expected empty selection, got %d rows", name, bm.Len())
		}
		if bm.NumRows() != 300 {
			t.Fatalf("%s: universe %d, want 300", name, bm.NumRows())
		}
	}
}
