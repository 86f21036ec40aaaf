package ui

import (
	"math"
	"slices"
	"strings"
	"testing"

	"charles/internal/dataset"
	"charles/internal/engine"
	"charles/internal/sdl"
	"charles/internal/seg"
)

func TestSparkline(t *testing.T) {
	out := Sparkline([]int{0, 1, 2, 4, 8})
	if len([]rune(out)) != 5 {
		t.Fatalf("sparkline length = %d", len([]rune(out)))
	}
	runes := []rune(out)
	if runes[0] != '▁' || runes[4] != '█' {
		t.Fatalf("sparkline = %q", out)
	}
	if got := Sparkline([]int{0, 0}); got != "▁▁" {
		t.Fatalf("all-zero sparkline = %q", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64(i)
	}
	col := engine.NewIntColumn("v", vals)
	counts, lo, hi, ok := HistogramBuckets(col, engine.AllRowsChunked(100, 64), 10)
	if !ok || lo != 0 || hi != 99 {
		t.Fatalf("bounds = %v %v ok=%v", lo, hi, ok)
	}
	total := 0
	for _, c := range counts {
		if c == 0 {
			t.Fatalf("uniform data left an empty bucket: %v", counts)
		}
		total += c
	}
	if total != 100 {
		t.Fatalf("bucket total = %d", total)
	}
}

func TestHistogramBucketsDegenerate(t *testing.T) {
	col := engine.NewIntColumn("v", []int64{7, 7, 7})
	if _, _, _, ok := HistogramBuckets(col, engine.AllRowsChunked(3, 64), 8); ok {
		t.Fatal("constant column produced a histogram")
	}
	if _, _, _, ok := HistogramBuckets(col, engine.ChunkSelection(nil, 3, 64), 8); ok {
		t.Fatal("empty selection produced a histogram")
	}
	str := engine.NewStringColumn("s", []string{"a", "b"})
	if _, _, _, ok := HistogramBuckets(str, engine.AllRowsChunked(2, 64), 8); ok {
		t.Fatal("nominal column produced a histogram")
	}
}

// TestRenderSegmentDetailNonFinite renders float columns holding NaN,
// +Inf and −Inf: the histogram covers the finite values only, and a
// segment with fewer than two distinct finite values renders as
// constant. Bucketing a non-finite value indexed the bucket slice at
// int(NaN) and panicked.
func TestRenderSegmentDetailNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		vals []float64
		want string
	}{
		{[]float64{1, 2, nan, 4}, "[1 .. 4]"},
		{[]float64{1, 2, inf, 4}, "[1 .. 4]"},
		{[]float64{-inf, 1, 2, 4}, "[1 .. 4]"},
		{[]float64{nan, 5, inf, 5, -inf}, "(constant: 5)"},
		{[]float64{nan, -inf, inf}, "(constant: NaN)"},
	} {
		tab := engine.MustNewTable("t", engine.NewFloatColumn("v", slices.Clone(tc.vals)))
		out, err := RenderSegmentDetail(seg.NewEvaluator(tab), sdl.ContextAll(tab), []string{"v"})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, tc.want) {
			t.Fatalf("detail of %v = %q, want %q", tc.vals, out, tc.want)
		}
	}
}

func TestRenderSegmentDetail(t *testing.T) {
	tab := dataset.VOC(2000, 1)
	ev := seg.NewEvaluator(tab)
	q := sdl.MustQuery(sdl.SetC("type_of_boat", engine.String_("fluit")))
	out, err := RenderSegmentDetail(ev, q, []string{"type_of_boat", "tonnage", "departure_date", "departure_harbour"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "tonnage") || !strings.Contains(out, "▁") && !strings.Contains(out, "█") {
		t.Fatalf("detail = %q", out)
	}
	// Nominal attrs show value shares; the constrained one is 100%.
	if !strings.Contains(out, "fluit 100%") {
		t.Fatalf("detail lacks nominal share: %q", out)
	}
	// Dates render as ISO bounds.
	if !strings.Contains(out, "16") && !strings.Contains(out, "17") {
		t.Fatalf("detail lacks date bounds: %q", out)
	}
}

func TestRenderSegmentDetailErrors(t *testing.T) {
	tab := dataset.VOC(100, 2)
	ev := seg.NewEvaluator(tab)
	q := sdl.MustQuery(sdl.Any("tonnage"))
	if _, err := RenderSegmentDetail(ev, q, []string{"ghost"}); err == nil {
		t.Fatal("unknown attribute accepted")
	}
	// Empty segments render a header and nothing else.
	empty := sdl.MustQuery(sdl.ClosedRange("tonnage", engine.Int(-5), engine.Int(-1)))
	out, err := RenderSegmentDetail(ev, empty, []string{"tonnage"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "0 rows") {
		t.Fatalf("empty detail = %q", out)
	}
}

func TestRenderSegmentDetailConstantAttr(t *testing.T) {
	tab := engine.MustNewTable("t",
		engine.NewIntColumn("c", []int64{5, 5, 5}),
		engine.NewIntColumn("v", []int64{1, 2, 3}),
	)
	ev := seg.NewEvaluator(tab)
	out, err := RenderSegmentDetail(ev, sdl.ContextAll(tab), []string{"c"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "constant: 5") {
		t.Fatalf("constant detail = %q", out)
	}
}
