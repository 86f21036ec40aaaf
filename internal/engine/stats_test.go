package engine

import (
	"testing"

	"charles/internal/stats"
)

func TestGatherInt(t *testing.T) {
	col := NewIntColumn("v", []int64{10, 20, 30, 40})
	got := GatherInt(col, Selection{1, 3})
	if len(got) != 2 || got[0] != 20 || got[1] != 40 {
		t.Fatalf("GatherInt = %v", got)
	}
}

func TestGatherFloat(t *testing.T) {
	col := NewFloatColumn("v", []float64{1.5, 2.5, 3.5})
	got := GatherFloat(col, Selection{0, 2})
	if len(got) != 2 || got[0] != 1.5 || got[1] != 3.5 {
		t.Fatalf("GatherFloat = %v", got)
	}
}

func TestIntMinMax(t *testing.T) {
	col := NewIntColumn("v", []int64{5, -3, 9, 2})
	min, max, ok := IntMinMax(col, AllRows(4))
	if !ok || min != -3 || max != 9 {
		t.Fatalf("IntMinMax = %d %d %v", min, max, ok)
	}
	if _, _, ok := IntMinMax(col, Selection{}); ok {
		t.Fatal("empty selection reported ok")
	}
	// Restricted selection sees only its rows.
	min, max, _ = IntMinMax(col, Selection{0, 3})
	if min != 2 || max != 5 {
		t.Fatalf("restricted IntMinMax = %d %d", min, max)
	}
}

func TestFloatMinMax(t *testing.T) {
	col := NewFloatColumn("v", []float64{2.5, 0.5, 1.5})
	min, max, ok := FloatMinMax(col, AllRows(3))
	if !ok || min != 0.5 || max != 2.5 {
		t.Fatalf("FloatMinMax = %v %v %v", min, max, ok)
	}
}

func TestIntMedian(t *testing.T) {
	col := NewIntColumn("v", []int64{40, 10, 30, 20})
	med, ok := IntMedian(col, AllRows(4))
	if !ok || med != 30 { // upper median of {10,20,30,40}
		t.Fatalf("IntMedian = %d %v, want 30", med, ok)
	}
	if _, ok := IntMedian(col, Selection{}); ok {
		t.Fatal("median of empty selection reported ok")
	}
}

// TestFloatMedian pins the arity-2 float cut point as the upper
// median, on the flat and the chunked path.
func TestFloatMedian(t *testing.T) {
	col := NewFloatColumn("v", []float64{3, 1, 2, 4})
	for _, med := range [][]float64{
		FloatCutPoints(col, AllRows(4), 2),
		FloatCutPointsChunked(col, AllRowsChunked(4, 64), 2),
	} {
		if len(med) != 1 || med[0] != 3 { // upper median of {1,2,3,4}
			t.Fatalf("median point = %v, want [3]", med)
		}
	}
}

func TestIntCutPoints(t *testing.T) {
	vals := make([]int64, 99)
	for i := range vals {
		vals[i] = int64(i)
	}
	col := NewIntColumn("v", vals)
	points := IntCutPoints(col, AllRows(99), 3)
	if len(points) != 2 || points[0] != 33 || points[1] != 66 {
		t.Fatalf("tertile points = %v, want [33 66]", points)
	}
	if points := IntCutPoints(col, Selection{}, 3); points != nil {
		t.Fatalf("points on empty selection = %v", points)
	}
}

func TestStringValueCounts(t *testing.T) {
	col := NewStringColumn("h", []string{"a", "b", "a", "c", "a", "b"})
	vcs := StringValueCounts(col, AllRows(6))
	got := map[string]int{}
	for _, vc := range vcs {
		got[vc.Value] = vc.Count
	}
	if got["a"] != 3 || got["b"] != 2 || got["c"] != 1 {
		t.Fatalf("counts = %v", got)
	}
	// Counts respect the selection.
	vcs = StringValueCounts(col, Selection{0, 1})
	if len(vcs) != 2 {
		t.Fatalf("restricted counts = %v", vcs)
	}
}

func TestBoolValueCounts(t *testing.T) {
	col := NewBoolColumn("armed", []bool{true, true, false})
	vcs := BoolValueCounts(col, AllRows(3))
	if len(vcs) != 2 || vcs[0].Value != "false" || vcs[0].Count != 1 || vcs[1].Count != 2 {
		t.Fatalf("bool counts = %v", vcs)
	}
	vcs = BoolValueCounts(col, Selection{0})
	if len(vcs) != 1 || vcs[0].Value != "true" {
		t.Fatalf("restricted bool counts = %v", vcs)
	}
}

func TestFloatMeanVar(t *testing.T) {
	col := NewFloatColumn("v", []float64{2, 4, 4, 4, 5, 5, 7, 9})
	mean, variance, ok := FloatMeanVar(col, AllRows(8))
	if !ok || mean != 5 || variance != 4 {
		t.Fatalf("mean=%v var=%v ok=%v, want 5 4 true", mean, variance, ok)
	}
	if _, _, ok := FloatMeanVar(col, Selection{}); ok {
		t.Fatal("empty selection reported ok")
	}
}

func TestNominalMedianPipeline(t *testing.T) {
	// End-to-end nominal split the way seg will drive it: counts,
	// frequency order, split point.
	col := NewStringColumn("h", []string{
		"bantam", "bantam", "bantam", "surat", "surat", "zeeland",
	})
	vcs := StringValueCounts(col, AllRows(6))
	stats.OrderByFrequency(vcs)
	if vcs[0].Value != "bantam" {
		t.Fatalf("frequency order = %v", vcs)
	}
	k, ok := stats.NominalSplitPoint(vcs)
	if !ok || k != 1 { // {bantam} vs {surat, zeeland}: 3 vs 3
		t.Fatalf("split = %d %v, want 1 true", k, ok)
	}
}
