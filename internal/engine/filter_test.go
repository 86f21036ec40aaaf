package engine

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIntRangeContains(t *testing.T) {
	r := IntRange{Lo: 10, Hi: 20, LoIncl: true, HiIncl: false} // [10, 20)
	cases := map[int64]bool{9: false, 10: true, 15: true, 19: true, 20: false, 21: false}
	for v, want := range cases {
		if r.Contains(v) != want {
			t.Errorf("[10,20).Contains(%d) = %v, want %v", v, !want, want)
		}
	}
	closed := IntRange{Lo: 10, Hi: 20, LoIncl: true, HiIncl: true}
	if !closed.Contains(20) {
		t.Error("[10,20].Contains(20) = false")
	}
	open := IntRange{Lo: 10, Hi: 20, LoIncl: false, HiIncl: false}
	if open.Contains(10) || open.Contains(20) {
		t.Error("(10,20) contains an endpoint")
	}
}

func TestFloatRangeContains(t *testing.T) {
	r := FloatRange{Lo: 1.5, Hi: 2.5, LoIncl: true, HiIncl: false}
	if !r.Contains(1.5) || r.Contains(2.5) || !r.Contains(2.0) || r.Contains(1.4) {
		t.Error("FloatRange.Contains broken")
	}
	// NaN matches no range, not even an unbounded one, and a NaN bound
	// excludes nothing on its side (SEMANTICS.md §1.4).
	nan, inf := math.NaN(), math.Inf(1)
	for _, r := range []FloatRange{r, {Lo: -inf, Hi: inf, LoIncl: true, HiIncl: true}, {Lo: nan, Hi: nan}} {
		if r.Contains(nan) {
			t.Errorf("%+v contains NaN", r)
		}
	}
	if open := (FloatRange{Lo: nan, Hi: 2}); !open.Contains(-inf) || open.Contains(2) {
		t.Error("a NaN lower bound must leave its side open")
	}
}

// flatFilter runs a chunked filter over a flat selection at the
// smallest chunk width and returns its flat result: the shape the
// small hand-checked cases below read best in.
func flatFilter(sel Selection, nRows int, filter func(cs *ChunkedSelection) *ChunkedSelection) Selection {
	return filter(ChunkSelection(sel, nRows, minChunkRows)).Flat()
}

func TestFilterIntRange(t *testing.T) {
	col := NewIntColumn("tonnage", []int64{100, 200, 300, 400, 500})
	filter := func(sel Selection, r IntRange) Selection {
		return flatFilter(sel, 5, func(cs *ChunkedSelection) *ChunkedSelection {
			return FilterIntRangeChunked(col, cs, r, nil)
		})
	}
	got := filter(AllRows(5), IntRange{Lo: 200, Hi: 400, LoIncl: true, HiIncl: false})
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("FilterIntRangeChunked = %v, want [1 2]", got)
	}
	// Filtering a narrowed selection only looks at its rows.
	got = filter(Selection{0, 4}, IntRange{Lo: 0, Hi: 1000, LoIncl: true, HiIncl: true})
	if len(got) != 2 || got[0] != 0 || got[1] != 4 {
		t.Fatalf("FilterIntRangeChunked on subset = %v, want [0 4]", got)
	}
}

func TestFilterFloatRange(t *testing.T) {
	col := NewFloatColumn("speed", []float64{1, 2, 3, 4})
	got := flatFilter(AllRows(4), 4, func(cs *ChunkedSelection) *ChunkedSelection {
		return FilterFloatRangeChunked(col, cs, FloatRange{Lo: 2, Hi: 3, LoIncl: true, HiIncl: true}, nil)
	})
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("FilterFloatRangeChunked = %v", got)
	}
}

func TestFilterStringSet(t *testing.T) {
	col := NewStringColumn("harbour", []string{"bantam", "surat", "zeeland", "bantam", "surat"})
	filter := func(values []string) Selection {
		return flatFilter(AllRows(5), 5, func(cs *ChunkedSelection) *ChunkedSelection {
			return FilterStringSetChunked(col, cs, values, nil)
		})
	}
	got := filter([]string{"bantam", "zeeland"})
	if len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("FilterStringSetChunked = %v, want [0 2 3]", got)
	}
	if got := filter(nil); len(got) != 0 {
		t.Fatalf("empty set selected %v", got)
	}
	if got := filter([]string{"amsterdam"}); len(got) != 0 {
		t.Fatalf("unknown value selected %v", got)
	}
}

func TestFilterBoolSet(t *testing.T) {
	col := NewBoolColumn("armed", []bool{true, false, true, false})
	filter := func(values []bool) Selection {
		return flatFilter(AllRows(4), 4, func(cs *ChunkedSelection) *ChunkedSelection {
			return FilterChunked(cs, BoolSetPred(col, values, nil))
		})
	}
	if got := filter([]bool{true}); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("BoolSetPred(true) = %v", got)
	}
	if got := filter([]bool{true, false}); len(got) != 4 {
		t.Fatalf("BoolSetPred(both) = %v", got)
	}
	if got := filter(nil); len(got) != 0 {
		t.Fatalf("BoolSetPred(none) = %v", got)
	}
}

func TestFilterPreservesSortedProperty(t *testing.T) {
	col := NewIntColumn("v", func() []int64 {
		vals := make([]int64, 500)
		for i := range vals {
			vals[i] = int64(i * 7 % 101)
		}
		return vals
	}())
	all := AllRowsChunked(500, minChunkRows)
	f := func(lo, hi uint8) bool {
		l, h := int64(lo), int64(hi)
		if l > h {
			l, h = h, l
		}
		got := FilterIntRangeChunked(col, all, IntRange{Lo: l, Hi: h, LoIncl: true, HiIncl: true}, nil).Flat()
		return got.IsSorted() || len(got) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFilterMatchesNaiveScanProperty(t *testing.T) {
	vals := []int64{5, 1, 9, 3, 7, 5, 2, 8, 5, 0}
	col := NewIntColumn("v", vals)
	all := AllRowsChunked(len(vals), minChunkRows)
	f := func(lo, hi uint8) bool {
		l, h := int64(lo%12), int64(hi%12)
		if l > h {
			l, h = h, l
		}
		r := IntRange{Lo: l, Hi: h, LoIncl: true, HiIncl: false}
		got := FilterIntRangeChunked(col, all, r, nil).Flat()
		want := Selection{}
		for i, v := range vals {
			if v >= l && v < h {
				want = append(want, int32(i))
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
