package engine

import (
	"slices"
	"testing"

	"charles/internal/stats"
)

// refSorted is the order statistics' independent reference: vals at
// sel's rows, NaN dropped (it has no rank) and −0 read as +0 (the two
// compare equal), sorted ascending.
func refSorted[T int64 | float64](vals []T, sel Selection) []T {
	out := make([]T, 0, len(sel))
	for _, row := range sel {
		if v := vals[row]; v == v {
			out = append(out, v+0)
		}
	}
	slices.Sort(out)
	return out
}

// refPoints reads the equi-depth points off sorted values: the value
// at rank ⌊i·n/arity⌋ for i in 1..arity−1, kept when above the last
// one kept (the first above the minimum). nil when sorted is empty.
func refPoints[T int64 | float64](sorted []T, arity int) []T {
	if len(sorted) == 0 {
		return nil
	}
	points, last := []T{}, sorted[0]
	for i := 1; i < arity; i++ {
		if p := sorted[int(float64(i)/float64(arity)*float64(len(sorted)))]; p > last {
			points, last = append(points, p), p
		}
	}
	return points
}

// concat joins per-chunk shards into one slice.
func concat[T any](shards [][]T) []T {
	var out []T
	for _, s := range shards {
		out = append(out, s...)
	}
	return out
}

func TestGatherInt(t *testing.T) {
	col := NewIntColumn("v", []int64{10, 20, 30, 40})
	got := concat(GatherIntChunked(col, ChunkSelection(Selection{1, 3}, 4, 64)))
	if len(got) != 2 || got[0] != 20 || got[1] != 40 {
		t.Fatalf("GatherIntChunked = %v", got)
	}
}

func TestGatherFloat(t *testing.T) {
	col := NewFloatColumn("v", []float64{1.5, 2.5, 3.5})
	got := concat(GatherFloatChunked(col, ChunkSelection(Selection{0, 2}, 3, 64)))
	if len(got) != 2 || got[0] != 1.5 || got[1] != 3.5 {
		t.Fatalf("GatherFloatChunked = %v", got)
	}
}

func TestIntMinMax(t *testing.T) {
	col := NewIntColumn("v", []int64{5, -3, 9, 2})
	min, max, ok := IntMinMaxChunked(col, AllRowsChunked(4, 64))
	if !ok || min != -3 || max != 9 {
		t.Fatalf("IntMinMaxChunked = %d %d %v", min, max, ok)
	}
	if _, _, ok := IntMinMaxChunked(col, ChunkSelection(nil, 4, 64)); ok {
		t.Fatal("empty selection reported ok")
	}
	// Restricted selection sees only its rows.
	min, max, _ = IntMinMaxChunked(col, ChunkSelection(Selection{0, 3}, 4, 64))
	if min != 2 || max != 5 {
		t.Fatalf("restricted IntMinMaxChunked = %d %d", min, max)
	}
}

func TestFloatMinMax(t *testing.T) {
	col := NewFloatColumn("v", []float64{2.5, 0.5, 1.5})
	min, max, ok := floatMinMax(col, AllRowsChunked(3, 64))
	if !ok || min != 0.5 || max != 2.5 {
		t.Fatalf("floatMinMax = %v %v %v", min, max, ok)
	}
}

func TestIntMedian(t *testing.T) {
	col := NewIntColumn("v", []int64{40, 10, 30, 20})
	med, ok := IntMedianChunked(col, AllRowsChunked(4, 64))
	if !ok || med != 30 { // upper median of {10,20,30,40}
		t.Fatalf("IntMedianChunked = %d %v, want 30", med, ok)
	}
	if _, ok := IntMedianChunked(col, ChunkSelection(nil, 4, 64)); ok {
		t.Fatal("median of empty selection reported ok")
	}
}

// TestFloatMedian pins the arity-2 float cut point as the upper
// median.
func TestFloatMedian(t *testing.T) {
	col := NewFloatColumn("v", []float64{3, 1, 2, 4})
	if med := FloatCutPointsChunked(col, AllRowsChunked(4, 64), 2); len(med) != 1 || med[0] != 3 { // upper median of {1,2,3,4}
		t.Fatalf("median point = %v, want [3]", med)
	}
}

func TestIntCutPoints(t *testing.T) {
	vals := make([]int64, 99)
	for i := range vals {
		vals[i] = int64(i)
	}
	col := NewIntColumn("v", vals)
	points := IntCutPointsChunked(col, AllRowsChunked(99, 64), 3)
	if len(points) != 2 || points[0] != 33 || points[1] != 66 {
		t.Fatalf("tertile points = %v, want [33 66]", points)
	}
	if points := IntCutPointsChunked(col, ChunkSelection(nil, 99, 64), 3); points != nil {
		t.Fatalf("points on empty selection = %v", points)
	}
}

func TestStringValueCounts(t *testing.T) {
	col := NewStringColumn("h", []string{"a", "b", "a", "c", "a", "b"})
	vcs := StringValueCountsChunked(col, AllRowsChunked(6, 64))
	got := map[string]int{}
	for _, vc := range vcs {
		got[vc.Value] = vc.Count
	}
	if got["a"] != 3 || got["b"] != 2 || got["c"] != 1 {
		t.Fatalf("counts = %v", got)
	}
	// Counts respect the selection.
	vcs = StringValueCountsChunked(col, ChunkSelection(Selection{0, 1}, 6, 64))
	if len(vcs) != 2 {
		t.Fatalf("restricted counts = %v", vcs)
	}
}

func TestBoolValueCounts(t *testing.T) {
	col := NewBoolColumn("armed", []bool{true, true, false})
	vcs := BoolValueCountsChunked(col, AllRowsChunked(3, 64))
	if len(vcs) != 2 || vcs[0].Value != "false" || vcs[0].Count != 1 || vcs[1].Count != 2 {
		t.Fatalf("bool counts = %v", vcs)
	}
	vcs = BoolValueCountsChunked(col, ChunkSelection(Selection{0}, 3, 64))
	if len(vcs) != 1 || vcs[0].Value != "true" {
		t.Fatalf("restricted bool counts = %v", vcs)
	}
}

func TestNominalMedianPipeline(t *testing.T) {
	// End-to-end nominal split the way seg will drive it: counts,
	// frequency order, split point.
	col := NewStringColumn("h", []string{
		"bantam", "bantam", "bantam", "surat", "surat", "zeeland",
	})
	vcs := StringValueCountsChunked(col, AllRowsChunked(6, 64))
	stats.OrderByFrequency(vcs)
	if vcs[0].Value != "bantam" {
		t.Fatalf("frequency order = %v", vcs)
	}
	k, ok := stats.NominalSplitPoint(vcs)
	if !ok || k != 1 { // {bantam} vs {surat, zeeland}: 3 vs 3
		t.Fatalf("split = %d %v, want 1 true", k, ok)
	}
}
