package engine

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// bmEqual asserts a filter's result over a parent in some chunk forms
// holds exactly the rows of the same filter over the parent as row ids,
// every chunk in its smaller form.
func bmEqual(t *testing.T, name string, got *Bitmap, wantCS *ChunkedSelection) {
	t.Helper()
	if got.Len() != wantCS.Len() || !reflect.DeepEqual(got.Flat(), wantCS.Flat()) {
		t.Fatalf("%s: %d rows, want %d", name, got.Len(), wantCS.Len())
	}
	checkRule(t, name, got)
}

// TestFusedBitmapFiltersMatchChunked is the form-equivalence property
// of the filters: under every typed predicate, a filter over a parent
// in rule, word or mixed chunk forms (the probes' *Bitmap shims among
// them) holds exactly the rows the filter over the parent as row ids
// holds, every chunk in its smaller form, over adversarial parent
// shapes, with and without zone maps.
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
		for k, sel := range adversarialSelections(nRows, chunkRows, rng) {
			rows := withForms(ChunkSelection(sel, nRows, chunkRows), func(int) bool { return false })
			cs := formsOf(rows, rng)[[]string{"rule", "words", "mixed"}[k%3]]
			for _, sum := range []*ChunkSummary{tonSum, nil} {
				for _, r := range ranges {
					bmEqual(t, "FilterIntRangeChunkedBitmap",
						FilterIntRangeChunkedBitmap(ton, cs, r, sum),
						FilterIntRangeChunked(ton, rows, r, sum))
				}
				bmEqual(t, "IntSetPred",
					FilterChunked(cs, IntSetPred(ton, []int64{0, 17, 100, 999}, sum)),
					FilterIntSetChunked(ton, rows, []int64{0, 17, 100, 999}, sum))
			}
			fr := FloatRange{Lo: 5, Hi: 30, LoIncl: true, HiIncl: true}
			bmEqual(t, "FloatRangePred",
				FilterChunked(cs, FloatRangePred(speed, fr, speedSum)),
				FilterFloatRangeChunked(speed, rows, fr, speedSum))
			frAll := FloatRange{Lo: math.Inf(-1), Hi: math.Inf(1), LoIncl: true, HiIncl: true}
			bmEqual(t, "FloatRangePred all",
				FilterChunked(cs, FloatRangePred(speed, frAll, speedSum)),
				FilterFloatRangeChunked(speed, rows, frAll, speedSum))
			bmEqual(t, "FloatSetPred",
				FilterChunked(cs, FloatSetPred(speed, []float64{3, 20}, speedSum)),
				FilterFloatSetChunked(speed, rows, []float64{3, 20}, speedSum))
			for _, sum := range []*ChunkSummary{typSum, nil} {
				bmEqual(t, "FilterStringSetChunkedBitmap",
					FilterStringSetChunkedBitmap(typ, cs, []string{"fluit", "galjoot"}, sum),
					FilterStringSetChunked(typ, rows, []string{"fluit", "galjoot"}, sum))
				bmEqual(t, "StringRangePred",
					FilterChunked(cs, StringRangePred(typ, "g", "k", true, false, sum)),
					FilterStringRangeChunked(typ, rows, "g", "k", true, false, sum))
			}
			bmEqual(t, "BoolSetPred",
				FilterChunked(cs, BoolSetPred(armed, []bool{true}, armedSum)),
				FilterBoolSetChunked(armed, rows, []bool{true}, armedSum))
			bmEqual(t, "BoolSetPred both",
				FilterChunked(cs, BoolSetPred(armed, []bool{true, false}, armedSum)),
				FilterBoolSetChunked(armed, rows, []bool{true, false}, armedSum))
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
