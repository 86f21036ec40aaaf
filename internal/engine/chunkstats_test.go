package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// wordSelections draws selections word by word over nRows rows: every
// 64-row word full, dense (4 rows in 5), sparse (1 in 16) or empty, the
// mix a words parent's chunks hold.
func wordSelections(nRows int, rng *rand.Rand) []Selection {
	out := make([]Selection, 3)
	for i := range out {
		for w := 0; w < nRows; w += 64 {
			end, density := min(w+64, nRows), rng.Intn(4)
			for r := w; r < end; r++ {
				if density == 0 || (density == 1 && rng.Intn(5) != 0) || (density == 2 && rng.Intn(16) == 0) {
					out[i] = append(out[i], int32(r))
				}
			}
		}
	}
	return out
}

// gatherResult is everything the chunked gathers compute from one
// selection, compared between its chunk forms.
type gatherResult struct {
	IntKeys     [][]uint64
	IntLo       uint64
	IntHi       uint64
	FloatKeys   [][]uint64
	FloatLo     uint64
	FloatHi     uint64
	IntMedian   int64
	IntMin      int64
	IntMax      int64
	FloatMin    uint64
	FloatMax    uint64
	IntCut      NumCut
	IntCounts   *IntCounts
	NarrowCut   NumCut
	Narrow      *IntCounts
	Splice      NumCut
	SpliceOK    bool
	FloatCut    []uint64 // Min, Max and Points as bits: NaN bounds compare equal
	StrCounts   string
	StrChunks   [][]int
	StrSplice   [][]int
	BoolCounts  string
	Rows        Selection
	CountsFit   bool
	NonEmptyLen []int
}

// gatherAll runs every gather over src. dirty marks the chunks the
// splices recount; old are the count vectors they splice into.
func gatherAll(src *ChunkedSelection, ic, narrow *IntColumn, fc *FloatColumn, sc *StringColumn, bc *BoolColumn, dirty []bool, oldNarrow *IntCounts, oldStr [][]int) gatherResult {
	var g gatherResult
	keys, lo, hi, put := gatherIntKeys(ic, src)
	g.IntKeys, g.IntLo, g.IntHi = cloneKeys(keys), lo, hi
	put()
	keys, lo, hi, put = gatherIntKeys(fc, src)
	g.FloatKeys, g.FloatLo, g.FloatHi = cloneKeys(keys), lo, hi
	put()
	g.IntMedian, _ = IntMedianChunked(ic, src)
	g.IntMin, g.IntMax, _ = IntMinMaxChunked(ic, src)
	fmin, fmax, _ := floatMinMax(fc, src)
	g.FloatMin, g.FloatMax = math.Float64bits(fmin), math.Float64bits(fmax)
	g.IntCut, g.IntCounts = IntCutChunked(ic, src, nil, 3, true)
	g.NarrowCut, g.Narrow = IntCutChunked(narrow, src, nil, 2, true)
	if oldNarrow != nil {
		g.Splice, _, g.SpliceOK = IntCutSplice(narrow, src, oldNarrow, dirty, 2)
	}
	fcut, _ := IntCutChunked(fc, src, nil, 4, false)
	for _, o := range append([]int64{fcut.Min, fcut.Max}, fcut.Points...) {
		g.FloatCut = append(g.FloatCut, math.Float64bits(ordinalFloat(o)))
	}
	g.StrCounts = fmt.Sprint(StringValueCountsChunked(sc, src))
	g.StrChunks = StringChunkCounts(sc, src)
	if oldStr != nil {
		g.StrSplice, _ = StringChunkCountsSplice(sc, src, oldStr, dirty)
	}
	g.BoolCounts = fmt.Sprint(BoolValueCountsChunked(bc, src))
	EachRow(src, func(row int) { g.Rows = append(g.Rows, int32(row)) })
	g.CountsFit = countsFit(src, 8)
	for c := 0; c < src.NumChunks(); c++ {
		g.NonEmptyLen = append(g.NonEmptyLen, src.chunkCount(c))
	}
	return g
}

// floatMinMax is IntMinMaxChunked over a float column, decoded.
func floatMinMax(col FloatValued, src *ChunkedSelection) (lo, hi float64, ok bool) {
	olo, ohi, ok := IntMinMaxChunked(col, src)
	return ordinalFloat(olo), ordinalFloat(ohi), ok
}

func cloneKeys(keys [][]uint64) [][]uint64 {
	out := make([][]uint64, len(keys))
	for c, k := range keys {
		if k != nil {
			out[c] = append([]uint64{}, k...)
		}
	}
	return out
}

// TestGatherSourceMatchesRows holds every gather over a selection whose
// chunks are words — the int and float key gathers and the cuts, medians, bounds
// and retained counts built on them, the int count splice over dirty
// chunks, the string and bool value counts and the string count splice,
// and the row batches the numeric-nominal fallback counts — to its
// result over the same selection as row ids, with every chunk as words
// and with the forms mixed: adversarial shapes and
// word-by-word mixes, a partial last chunk and word, NaN and ±0 floats,
// at scan workers 1 and 4.
func TestGatherSourceMatchesRows(t *testing.T) {
	defer SetScanWorkers(0)
	const nRows, chunkRows = 70000, 1 << 13
	rng := rand.New(rand.NewSource(36))
	ints, narrow, floats := make([]int64, nRows), make([]int64, nRows), make([]float64, nRows)
	strs, bools := make([]string, nRows), make([]bool, nRows)
	for r := range ints {
		ints[r] = rng.Int63n(1<<40) - 1<<39
		narrow[r] = int64(rng.Intn(50)) - 20
		floats[r] = rng.NormFloat64()
		if r%7 == 0 {
			floats[r] = partFloatEdges[r%len(partFloatEdges)]
		}
		strs[r] = fmt.Sprintf("v%d", rng.Intn(90))
		bools[r] = rng.Intn(3) == 0
	}
	ic, nc := NewIntColumn("i", ints), NewIntColumn("n", narrow)
	fc, sc, bc := NewFloatColumn("f", floats), NewStringColumn("s", strs), NewBoolColumn("b", bools)
	nChunks := numChunksFor(nRows, chunkRows)
	dirty := make([]bool, nChunks)
	for c := range dirty {
		dirty[c] = c%3 == 1 || c == nChunks-1
	}
	sels := append(adversarialSelections(nRows, chunkRows, rng), wordSelections(nRows, rng)...)
	for _, workers := range []int{1, 4} {
		SetScanWorkers(workers)
		for k, sel := range sels {
			cs := withForms(ChunkSelection(sel, nRows, chunkRows), func(int) bool { return false })
			// The splices start from the counts of a different
			// selection's clean chunks, as after a mutation.
			base := ChunkSelection(sels[(k+1)%len(sels)], nRows, chunkRows)
			old := Splice(cs, base, dirty)
			_, oldNarrow := IntCutChunked(nc, old, nil, 2, true)
			oldStr := StringChunkCounts(sc, old)
			want := gatherAll(cs, ic, nc, fc, sc, bc, dirty, oldNarrow, oldStr)
			for form, src := range formsOf(cs, rng) {
				got := gatherAll(src, ic, nc, fc, sc, bc, dirty, oldNarrow, oldStr)
				if !reflect.DeepEqual(got, want) {
					for i := 0; i < reflect.TypeOf(got).NumField(); i++ {
						if g, w := reflect.ValueOf(got).Field(i).Interface(), reflect.ValueOf(want).Field(i).Interface(); !reflect.DeepEqual(g, w) {
							t.Fatalf("workers %d, selection %d (%d rows): %s from %s differs from rows", workers, k, len(sel), reflect.TypeOf(got).Field(i).Name, form)
						}
					}
				}
			}
		}
	}
}

// BenchmarkGatherSource times an exact int median cut over the same
// parents as BenchmarkPartitionSource: by key gather and radix select
// over a wide column, and by narrow count (narrow/) over a column of
// 1 150 values, tonnage-like, counted straight from the column into its
// zone map's window.
func BenchmarkGatherSource(b *testing.B) {
	defer SetScanWorkers(0)
	SetScanWorkers(1)
	tab, narrow := narrowColumn(1<<18, 1<<16, 50, 1150, rand.New(rand.NewSource(1)))
	sum := tab.SummaryByName("v")
	for _, den := range sourceBenchDensities {
		col, cs, bm := sourceBenchParent(den)
		for _, src := range []*ChunkedSelection{cs, bm} {
			b.Run(fmt.Sprintf("density=1/%d/%s", den, sourceForm(src)), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					IntCutChunked(col, src, nil, 2, false)
				}
			})
			b.Run(fmt.Sprintf("narrow/density=1/%d/%s", den, sourceForm(src)), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					IntCutChunked(narrow, src, sum, 2, false)
				}
			})
		}
	}
}

// narrowColumn is a table of nRows rows in chunks of chunkRows holding
// one int column whose values are drawn from [lo, lo+span), both ends
// present: its zone map's window over all rows is exactly span cells.
func narrowColumn(nRows, chunkRows int, lo, span int64, rng *rand.Rand) (*Table, *IntColumn) {
	vals := make([]int64, nRows)
	for r := range vals {
		vals[r] = lo + rng.Int63n(span)
	}
	vals[rng.Intn(nRows)], vals[rng.Intn(nRows)] = lo, lo+span-1
	col := NewIntColumn("v", vals)
	tab := MustNewTable("narrow", col)
	tab.SetChunkRows(chunkRows)
	return tab, col
}

// TestNarrowCountsMatchGather holds IntCutChunked's count path — each
// chunk's selected rows counted straight from the column into the zone
// map's window — to its gather path (no zone map), cut and retained
// counts alike: over every container form, at scan workers 1 and 4,
// for windows equal to the exact span, wider than it (the selection
// misses the extremes), of 2 048 cells (a span of 2 047: counted) and
// of 2 049 (too wide: gathered). A zone map whose window misses a selected value
// falls back to the gather, and one of another chunk count is not
// read.
func TestNarrowCountsMatchGather(t *testing.T) {
	defer SetScanWorkers(0)
	const nRows, chunkRows = 20000, 1 << 11
	rng := rand.New(rand.NewSource(14))
	for _, tc := range []struct {
		name    string
		lo, spn int64
		counted bool
	}{
		{"tonnage-like", 50, 1151, true},
		{"negative", -700, 300, true},
		{"2048 cells", 1 << 40, 2048, true},
		{"2049 cells", -5, 2049, false},
	} {
		tab, col := narrowColumn(nRows, chunkRows, tc.lo, tc.spn, rng)
		sum := tab.SummaryByName("v")
		all := tab.AllChunked()
		if _, cells, ok := zoneWindow(sum, all); ok != tc.counted || (ok && cells != int(tc.spn)) {
			t.Fatalf("%s: zone window of %d cells, counted %v; want %d cells, counted %v", tc.name, cells, ok, tc.spn, tc.counted)
		}
		vals := col.Int64s()
		var inner Selection // the rows holding neither extreme: a window wider than the extent
		for r, v := range vals {
			if v != tc.lo && v != tc.lo+tc.spn-1 {
				inner = append(inner, int32(r))
			}
		}
		sels := append([]Selection{all.Flat(), inner}, adversarialSelections(nRows, chunkRows, rng)...)
		sels = append(sels, wordSelections(nRows, rng)...)
		for _, workers := range []int{1, 4} {
			SetScanWorkers(workers)
			for k, sel := range sels {
				for form, src := range formsOf(ChunkSelection(sel, nRows, chunkRows), rng) {
					for _, retain := range []bool{false, true} {
						where := fmt.Sprintf("%s, workers %d, selection %d (%d rows, %s), retain %v", tc.name, workers, k, len(sel), form, retain)
						cut, counts := IntCutChunked(col, src, sum, 3, retain)
						wantCut, wantCounts := IntCutChunked(col, src, nil, 3, retain)
						if !reflect.DeepEqual(cut, wantCut) || !reflect.DeepEqual(counts, wantCounts) {
							t.Fatalf("%s: counted cut %+v (counts %v), gathered %+v (counts %v)", where, cut, counts != nil, wantCut, wantCounts != nil)
						}
					}
				}
			}
		}
	}

	// A stale window: the zone map claims every chunk holds only the
	// lower half of the values.
	tab, col := narrowColumn(nRows, chunkRows, 0, 600, rng)
	all := tab.AllChunked()
	nc := all.NumChunks()
	stale, err := ImportSummary(SummaryData{IntMin: make([]int64, nc), IntMax: slices.Repeat([]int64{299}, nc)}, nc)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := countCut(col, all, 0, 300, 2, false); ok {
		t.Fatal("a count over a window missing selected values reported success")
	}
	for _, retain := range []bool{false, true} {
		cut, counts := IntCutChunked(col, all, stale, 2, retain)
		wantCut, wantCounts := IntCutChunked(col, all, nil, 2, retain)
		if !reflect.DeepEqual(cut, wantCut) || !reflect.DeepEqual(counts, wantCounts) {
			t.Fatalf("stale window, retain %v: cut %+v, gathered %+v", retain, cut, wantCut)
		}
	}
	misSized, err := ImportSummary(SummaryData{IntMin: make([]int64, nc+1), IntMax: make([]int64, nc+1)}, nc+1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := zoneWindow(misSized, all); ok {
		t.Fatal("a zone map of another chunk count was read")
	}
}

// TestIntCutSpliceMatchesFreshCut appends rows to a mutable table —
// inside the retained window, and outside it — and holds IntCutSplice,
// which recounts the dirty chunks into the old window, to a fresh cut
// of the grown table: equal when the appended values fit the window,
// refused when they do not.
func TestIntCutSpliceMatchesFreshCut(t *testing.T) {
	for _, tc := range []struct {
		name string
		add  []int64
		ok   bool
	}{
		{"inside", []int64{50, 51, 700, 1200, 1200}, true},
		{"below", []int64{49}, false},
		{"above", []int64{300, 1201}, false},
	} {
		const chunkRows = 1 << 11
		tab, _ := narrowColumn(5000, chunkRows, 50, 1151, rand.New(rand.NewSource(8)))
		col, _ := tab.ColumnByName("v")
		_, old := IntCutChunked(col.(IntValued), tab.AllChunked(), tab.SummaryByName("v"), 2, true)
		if old == nil {
			t.Fatal("no counts retained")
		}
		before := tab.Stamp()
		for _, v := range tc.add {
			if err := tab.AppendRows([]Value{Int(v)}); err != nil {
				t.Fatal(err)
			}
		}
		dirty, ok := tab.Stamp().DirtyVs(before)
		if !ok {
			t.Fatal("stamps not comparable")
		}
		col, _ = tab.ColumnByName("v")
		all := tab.AllChunked()
		cut, counts, ok := IntCutSplice(col.(IntValued), all, old, dirty, 2)
		if ok != tc.ok {
			t.Fatalf("%s: splice ok %v, want %v", tc.name, ok, tc.ok)
		}
		if !ok {
			continue
		}
		want, _ := IntCutChunked(col.(IntValued), all, tab.SummaryByName("v"), 2, true)
		if !reflect.DeepEqual(cut, want) || counts == nil {
			t.Fatalf("%s: spliced cut %+v (counts %v), fresh %+v", tc.name, cut, counts != nil, want)
		}
	}
}

// TestNarrowFloatCutDropsNaN holds the count paths to NaN's rule over a
// near-constant float column, whose ordinals span seven cells: with a
// zone map or without, retained or not, a NaN row stops every count and
// the cut is read off the numbers alone, as the sort-based reference
// reads it. Without NaN rows the same extent is counted and its counts
// are retained.
func TestNarrowFloatCutDropsNaN(t *testing.T) {
	const n, chunkRows = 4096, 1024
	for _, withNaN := range []bool{true, false} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = 1
			for k := i * 5 % 7; k > 0; k-- {
				vals[i] = math.Nextafter(vals[i], 2)
			}
			if withNaN && i%97 == 5 {
				vals[i] = math.NaN()
			}
		}
		tab := MustNewTable("f", NewFloatColumn("v", vals))
		tab.SetChunkRows(chunkRows)
		col, src := tab.MustColumn("v").(FloatValued), tab.AllChunked()
		nums := refSorted(vals, src.Flat())
		for _, sum := range []*ChunkSummary{tab.SummaryByName("v"), nil} {
			for _, retain := range []bool{false, true} {
				cut, counts := IntCutChunked(col, src, sum, 3, retain)
				got := append([]float64{ordinalFloat(cut.Min), ordinalFloat(cut.Max)}, floats(cut.Points)...)
				want := append([]float64{nums[0], nums[len(nums)-1]}, refPoints(nums, 3)...)
				if !slices.Equal(got, want) {
					t.Fatalf("NaN %v, zone map %v, retain %v: bounds and points %v, want %v", withNaN, sum != nil, retain, got, want)
				}
				if (counts != nil) != (retain && !withNaN) {
					t.Fatalf("NaN %v, zone map %v, retain %v: retained counts %v", withNaN, sum != nil, retain, counts != nil)
				}
			}
		}
	}
}
