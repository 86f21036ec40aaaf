package engine

import (
	"fmt"
	"math"
	"testing"
)

// withScanWorkers runs fn under a fixed scan-worker cap and restores
// the default afterwards.
func withScanWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	SetScanWorkers(n)
	defer SetScanWorkers(0)
	fn()
}

// parTable builds a selection large enough to trigger the chunked
// scan path (above parallelScanMinRows).
func parTable(t *testing.T) (*IntColumn, *FloatColumn, *StringColumn, Selection) {
	t.Helper()
	n := parallelScanMinRows * 2
	ints := make([]int64, n)
	floats := make([]float64, n)
	strs := make([]string, n)
	for i := 0; i < n; i++ {
		ints[i] = int64(i*7919) % 1000
		floats[i] = float64(ints[i]) / 3
		strs[i] = fmt.Sprintf("v%d", i%13)
	}
	return NewIntColumn("i", ints), NewFloatColumn("f", floats), NewStringColumn("s", strs), AllRows(n)
}

func TestParallelFiltersMatchSequential(t *testing.T) {
	ic, fc, sc, all := parTable(t)
	// 16 chunks, so the chunked drivers fan out at width 4.
	cs := AllRowsChunked(len(all), 1<<12)
	var seqInt, parInt, seqFloat, parFloat, seqStr, parStr, seqBits, parBits Selection
	r := IntRange{Lo: 100, Hi: 700, LoIncl: true, HiIncl: false}
	fr := FloatRange{Lo: 50, Hi: 200, LoIncl: true, HiIncl: true}
	want := []string{"v3", "v7", "v11"}
	run := func() (ints, floats, strs, bits Selection) {
		return FilterIntRangeChunked(ic, cs, r, nil).Flat(),
			FilterFloatRangeChunked(fc, cs, fr, nil).Flat(),
			FilterStringSetChunked(sc, cs, want, nil).Flat(),
			FilterIntRangeChunked(ic, withForms(cs, func(int) bool { return false }), r, nil).Flat()
	}
	withScanWorkers(t, 1, func() { seqInt, seqFloat, seqStr, seqBits = run() })
	withScanWorkers(t, 4, func() { parInt, parFloat, parStr, parBits = run() })
	for name, pair := range map[string][2]Selection{
		"int":    {seqInt, parInt},
		"float":  {seqFloat, parFloat},
		"string": {seqStr, parStr},
		"rows":   {seqBits, parBits},
	} {
		seq, par := pair[0], pair[1]
		if len(seq) == 0 {
			t.Fatalf("%s: empty sequential baseline, test is vacuous", name)
		}
		if len(seq) != len(par) {
			t.Fatalf("%s: parallel %d rows, sequential %d", name, len(par), len(seq))
		}
		for i := range seq {
			if seq[i] != par[i] {
				t.Fatalf("%s: row %d differs: %d vs %d", name, i, seq[i], par[i])
			}
		}
		if !par.IsSorted() {
			t.Fatalf("%s: parallel output not sorted", name)
		}
	}
}

func TestParallelStatsMatchSequential(t *testing.T) {
	ic, fc, sc, all := parTable(t)
	var seqMin, seqMax, parMin, parMax int64
	var seqGather, parGather []int64
	var seqFMin, seqFMax, parFMin, parFMax float64
	var seqCounts, parCounts map[string]int
	withScanWorkers(t, 1, func() {
		seqMin, seqMax, _ = IntMinMax(ic, all)
		seqFMin, seqFMax, _ = FloatMinMax(fc, all)
		seqGather = GatherInt(ic, all)
		seqCounts = map[string]int{}
		for _, vc := range StringValueCounts(sc, all) {
			seqCounts[vc.Value] = vc.Count
		}
	})
	withScanWorkers(t, 4, func() {
		parMin, parMax, _ = IntMinMax(ic, all)
		parFMin, parFMax, _ = FloatMinMax(fc, all)
		parGather = GatherInt(ic, all)
		parCounts = map[string]int{}
		for _, vc := range StringValueCounts(sc, all) {
			parCounts[vc.Value] = vc.Count
		}
	})
	if seqMin != parMin || seqMax != parMax {
		t.Fatalf("IntMinMax: parallel (%d,%d) vs sequential (%d,%d)", parMin, parMax, seqMin, seqMax)
	}
	if seqFMin != parFMin || seqFMax != parFMax {
		t.Fatalf("FloatMinMax: parallel (%v,%v) vs sequential (%v,%v)", parFMin, parFMax, seqFMin, seqFMax)
	}
	if len(seqGather) != len(parGather) {
		t.Fatalf("GatherInt length mismatch")
	}
	for i := range seqGather {
		if seqGather[i] != parGather[i] {
			t.Fatalf("GatherInt: index %d differs", i)
		}
	}
	if len(seqCounts) != len(parCounts) {
		t.Fatalf("StringValueCounts: %d values vs %d", len(parCounts), len(seqCounts))
	}
	for v, n := range seqCounts {
		if parCounts[v] != n {
			t.Fatalf("StringValueCounts: %q = %d, want %d", v, parCounts[v], n)
		}
	}
}

// TestFloatMinMaxIgnoresNaNAcrossChunkings pins the determinism
// guarantee: NaN values never poison a bound, wherever chunk
// boundaries fall.
func TestFloatMinMaxIgnoresNaNAcrossChunkings(t *testing.T) {
	n := parallelScanMinRows * 2
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i % 997)
	}
	// NaNs at chunk-start positions for common widths, plus scattered.
	for _, i := range []int{0, parallelScanMinRows / 2, parallelScanMinRows, n / 3, n - 1} {
		vals[i] = math.NaN()
	}
	col := NewFloatColumn("f", vals)
	all := AllRows(n)
	var seqMin, seqMax, parMin, parMax float64
	withScanWorkers(t, 1, func() { seqMin, seqMax, _ = FloatMinMax(col, all) })
	withScanWorkers(t, 4, func() { parMin, parMax, _ = FloatMinMax(col, all) })
	if seqMin != parMin || seqMax != parMax {
		t.Fatalf("NaN-laden column: parallel (%v,%v) vs sequential (%v,%v)", parMin, parMax, seqMin, seqMax)
	}
	if seqMin != 0 || seqMax != 996 {
		t.Fatalf("bounds (%v,%v), want (0,996): NaN leaked into a bound", seqMin, seqMax)
	}
}

// TestScanSlotsReleased checks the process-wide scan-goroutine
// budget drains back to zero after parallel scans.
func TestScanSlotsReleased(t *testing.T) {
	_, fc, _, all := parTable(t)
	cs := AllRowsChunked(len(all), 1<<12)
	withScanWorkers(t, 4, func() {
		for i := 0; i < 10; i++ {
			FilterFloatRangeChunked(fc, cs, FloatRange{Lo: 0, Hi: 100, LoIncl: true, HiIncl: true}, nil)
			FloatMinMax(fc, all)
		}
	})
	if n := activeScanGoroutines.Load(); n != 0 {
		t.Fatalf("%d scan slots still held after scans finished", n)
	}
}

func TestScanWorkersKnob(t *testing.T) {
	SetScanWorkers(3)
	if got := ScanWorkers(); got != 3 {
		t.Fatalf("ScanWorkers = %d after SetScanWorkers(3)", got)
	}
	SetScanWorkers(0)
	if got := ScanWorkers(); got < 1 {
		t.Fatalf("default ScanWorkers = %d", got)
	}
}
