package engine

import (
	"fmt"
	"math"
	"slices"
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
	var seqInt, parInt, seqFloat, parFloat, seqStr, parStr Selection
	r := IntRange{Lo: 100, Hi: 700, LoIncl: true, HiIncl: false}
	fr := FloatRange{Lo: 50, Hi: 200, LoIncl: true, HiIncl: true}
	want := []string{"v3", "v7", "v11"}
	run := func() (ints, floats, strs Selection) {
		return FilterIntRangeChunked(ic, cs, r, nil).Flat(),
			FilterFloatRangeChunked(fc, cs, fr, nil).Flat(),
			FilterStringSetChunked(sc, cs, want, nil).Flat()
	}
	withScanWorkers(t, 1, func() { seqInt, seqFloat, seqStr = run() })
	withScanWorkers(t, 4, func() { parInt, parFloat, parStr = run() })
	for name, pair := range map[string][2]Selection{
		"int":    {seqInt, parInt},
		"float":  {seqFloat, parFloat},
		"string": {seqStr, parStr},
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

// TestParallelStatsMatchSequential runs the chunked reductions, gather
// and value counts at scan widths 1 and 4 over 16 chunks and holds both
// to a sort-based reference and a row-at-a-time count.
func TestParallelStatsMatchSequential(t *testing.T) {
	ic, fc, sc, all := parTable(t)
	cs := AllRowsChunked(len(all), 1<<12)
	ints, floats := refSorted(ic.Int64s(), all), refSorted(floatValues(fc), all)
	wantCounts := map[string]int{}
	for _, row := range all {
		wantCounts[sc.Value(int(row)).String()]++
	}
	for _, workers := range []int{1, 4} {
		withScanWorkers(t, workers, func() {
			if lo, hi, _ := IntMinMaxChunked(ic, cs); lo != ints[0] || hi != ints[len(ints)-1] {
				t.Fatalf("workers=%d: IntMinMaxChunked = (%d,%d), want (%d,%d)", workers, lo, hi, ints[0], ints[len(ints)-1])
			}
			if lo, hi, _ := floatMinMax(fc, cs); lo != floats[0] || hi != floats[len(floats)-1] {
				t.Fatalf("workers=%d: floatMinMax = (%v,%v), want (%v,%v)", workers, lo, hi, floats[0], floats[len(floats)-1])
			}
			gathered := concat(GatherIntChunked(ic, cs))
			if len(gathered) != len(all) {
				t.Fatalf("workers=%d: GatherIntChunked gathered %d values, want %d", workers, len(gathered), len(all))
			}
			for i, row := range all {
				if gathered[i] != ic.Int64(int(row)) {
					t.Fatalf("workers=%d: GatherIntChunked: index %d differs", workers, i)
				}
			}
			vcs := StringValueCountsChunked(sc, cs)
			if len(vcs) != len(wantCounts) {
				t.Fatalf("workers=%d: StringValueCountsChunked: %d values, want %d", workers, len(vcs), len(wantCounts))
			}
			for _, vc := range vcs {
				if wantCounts[vc.Value] != vc.Count {
					t.Fatalf("workers=%d: StringValueCountsChunked: %q = %d, want %d", workers, vc.Value, vc.Count, wantCounts[vc.Value])
				}
			}
		})
	}
}

// TestFloatMinMaxIgnoresNaNAcrossChunkings pins the determinism
// guarantee: NaN values never poison a bound, wherever chunk
// boundaries fall and at any scan width.
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
	col := NewFloatColumn("f", slices.Clone(vals))
	finite := refSorted(vals, AllRows(n))
	for _, chunkRows := range []int{64, 1 << 12, 1 << 14, DefaultChunkRows} {
		cs := AllRowsChunked(n, chunkRows)
		for _, workers := range []int{1, 4} {
			withScanWorkers(t, workers, func() {
				if lo, hi, _ := floatMinMax(col, cs); lo != finite[0] || hi != finite[len(finite)-1] {
					t.Fatalf("chunkRows=%d workers=%d: bounds (%v,%v), want (%v,%v): NaN leaked into a bound",
						chunkRows, workers, lo, hi, finite[0], finite[len(finite)-1])
				}
			})
		}
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
			floatMinMax(fc, cs)
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
