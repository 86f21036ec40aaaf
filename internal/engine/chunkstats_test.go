package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"charles/internal/stats"
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
// selection, compared between scan worker counts.
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
	g.StrChunks = StringChunkCounts(sc, src, nil)
	if oldStr != nil {
		g.StrSplice, _ = StringChunkCountsSplice(sc, src, nil, oldStr, dirty)
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

// TestGatherSourceMatchesRows holds every gather over a selection's
// words — the int and float key gathers and the cuts, medians, bounds
// and retained counts built on them, the int count splice over dirty
// chunks, the string and bool value counts and the string count splice,
// and the row batches the numeric-nominal fallback counts — to what
// reading the selection's rows one at a time gives, and to itself at
// scan workers 1 and 4: adversarial shapes and word-by-word mixes, a
// partial last chunk and word, NaN and ±0 floats.
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
	for k, sel := range sels {
		cs := ChunkSelection(sel, nRows, chunkRows)
		// The splices start from the counts of a different selection's
		// dirty chunks, as after a mutation.
		base := ChunkSelection(sels[(k+1)%len(sels)], nRows, chunkRows)
		old := Splice(cs, base, dirty)
		_, oldNarrow := IntCutChunked(nc, old, nil, 2, true)
		oldStr := StringChunkCounts(sc, old, nil)
		SetScanWorkers(1)
		want := gatherAll(cs, ic, nc, fc, sc, bc, dirty, oldNarrow, oldStr)
		checkGatherRows(t, fmt.Sprintf("selection %d (%d rows)", k, len(sel)), want, sel, chunkRows, ints, fc.Int64s(), strs, bools)
		SetScanWorkers(4)
		got := gatherAll(cs, ic, nc, fc, sc, bc, dirty, oldNarrow, oldStr)
		if !reflect.DeepEqual(got, want) {
			for i := 0; i < reflect.TypeOf(got).NumField(); i++ {
				if g, w := reflect.ValueOf(got).Field(i).Interface(), reflect.ValueOf(want).Field(i).Interface(); !reflect.DeepEqual(g, w) {
					t.Fatalf("selection %d (%d rows): %s at 4 workers differs from 1", k, len(sel), reflect.TypeOf(got).Field(i).Name)
				}
			}
		}
	}
}

// checkGatherRows holds the gathers' reads of a selection's words to
// its rows sel read one at a time: each chunk's int and float keys in
// row order (NaN's dropped; fords are the float column's ordinals) and their bounds, the median and extremes,
// the per-chunk string counts (and their splice, which recounts every
// chunk old did not take from sel), the bool counts, the rows and the
// chunk counts.
func checkGatherRows(t *testing.T, name string, g gatherResult, sel Selection, chunkRows int, ints, fords []int64, strs []string, bools []bool) {
	t.Helper()
	nc := len(g.NonEmptyLen)
	intKeys, floatKeys := make([][]uint64, nc), make([][]uint64, nc)
	lens := make([]int, nc)
	ilo, ihi, flo, fhi := uint64(math.MaxUint64), uint64(0), uint64(math.MaxUint64), uint64(0)
	strChunks := make([][]int, nc)
	dict := map[string]int{}
	for code, v := range NewStringColumn("s", strs).dict {
		dict[v] = code
	}
	trues := 0
	for _, row := range sel {
		c := int(row) / chunkRows
		if lens[c] == 0 {
			intKeys[c], floatKeys[c], strChunks[c] = []uint64{}, []uint64{}, make([]int, len(dict))
		}
		lens[c]++
		k := stats.Int64Key(ints[row])
		intKeys[c] = append(intKeys[c], k)
		ilo, ihi = min(ilo, k), max(ihi, k)
		if o := fords[row]; o != nanOrdinal {
			k := stats.Int64Key(o)
			floatKeys[c] = append(floatKeys[c], k)
			flo, fhi = min(flo, k), max(fhi, k)
		}
		strChunks[c][dict[strs[row]]]++
		trues += b2i(bools[row])
	}
	sorted := refSorted(ints, sel)
	var median, imin, imax int64
	if len(sel) > 0 {
		median, imin, imax = sorted[len(sorted)/2], sorted[0], sorted[len(sorted)-1]
	}
	bools2 := []stats.ValueCount{}
	if n := len(sel) - trues; n > 0 {
		bools2 = append(bools2, stats.ValueCount{Value: "false", Count: n})
	}
	if trues > 0 {
		bools2 = append(bools2, stats.ValueCount{Value: "true", Count: trues})
	}
	for _, c := range []struct {
		field     string
		got, want any
	}{
		{"IntKeys", g.IntKeys, intKeys},
		{"IntBounds", [2]uint64{g.IntLo, g.IntHi}, [2]uint64{ilo, ihi}},
		{"FloatKeys", g.FloatKeys, floatKeys},
		{"FloatBounds", [2]uint64{g.FloatLo, g.FloatHi}, [2]uint64{flo, fhi}},
		{"IntMedian", g.IntMedian, median},
		{"IntMinMax", [2]int64{g.IntMin, g.IntMax}, [2]int64{imin, imax}},
		{"StrChunks", g.StrChunks, strChunks},
		{"StrSplice", g.StrSplice, strChunks},
		{"BoolCounts", g.BoolCounts, fmt.Sprint(bools2)},
		{"Rows", g.Rows, sel},
		{"NonEmptyLen", g.NonEmptyLen, lens},
	} {
		if !reflect.DeepEqual(c.got, c.want) && !(len(sel) == 0 && c.field == "Rows" && len(g.Rows) == 0) {
			t.Fatalf("%s: %s read from words differs from the rows read one by one", name, c.field)
		}
	}
}

// BenchmarkGatherSource times an exact int median cut over the same
// parents as BenchmarkPartitionSource: by key gather and radix select
// over a wide column, by narrow count (narrow/) over a column of
// 1 150 values, tonnage-like, counted into its zone map's window — all
// rows (narrow/all) from the chunks' stored value counts, parents of
// three rows in four (narrow/density=3/4/words) and sparser straight
// from the column —
// and over the wide column's rank codes (rank/) on
// a warmed table: all rows, taken whole from the stored counts, and
// the parents at density 1/2 and 1/64, whose codes are counted. The
// counts/ cases time the value counts of a five-value string column
// over the parents, counting each row's code, and over the column's
// code planes (planes/counts/), by popcount.
func BenchmarkGatherSource(b *testing.B) {
	defer SetScanWorkers(0)
	SetScanWorkers(1)
	tab, narrow := narrowColumn(1<<18, 1<<16, 50, 1150, rand.New(rand.NewSource(1)))
	sum := tab.SummaryByName("v")
	for _, den := range sourceBenchDensities {
		col, bm := sourceBenchParent(den)
		if den != 8 {
			_, wide := warmedColumn(col, 1<<16)
			name := fmt.Sprintf("rank/density=1/%d/words", den)
			if den == 1 {
				name = "rank/all"
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					IntCutChunked(col, bm, wide, 2, false)
				}
			})
		}
		b.Run(fmt.Sprintf("density=1/%d/words", den), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				IntCutChunked(col, bm, nil, 2, false)
			}
		})
		name := fmt.Sprintf("narrow/density=1/%d/words", den)
		if den == 1 {
			name = "narrow/all"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				IntCutChunked(narrow, bm, sum, 2, false)
			}
		})
		tab := planeBenchTable(col)
		kind, ksum := tab.MustColumn("kind").(*StringColumn), tab.SummaryByName("kind")
		for _, s := range []*ChunkSummary{nil, ksum} {
			prefix := ""
			if s != nil {
				prefix = "planes/"
			}
			b.Run(fmt.Sprintf("%scounts/density=1/%d/words", prefix, den), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					StringValueCounts(kind, bm, s)
				}
			})
		}
	}
	rng := rand.New(rand.NewSource(34))
	var sel Selection
	for r := range 1 << 18 {
		if rng.Intn(4) != 0 {
			sel = append(sel, int32(r))
		}
	}
	bm := ChunkSelection(sel, 1<<18, 1<<16)
	b.Run("narrow/density=3/4/words", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			IntCutChunked(narrow, bm, sum, 2, false)
		}
	})
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
// chunk's selected rows counted into the zone map's window, from its
// stored value counts or straight from the column — to its gather path
// (no zone map), cut and retained counts alike, and countCut with the
// zone map to countCut without it (checkStoredCounts): at scan workers
// 1 and 4, for windows equal to the exact span, wider than it (the
// selection misses the extremes), of 2 048 cells (a span of 2 047:
// counted) and of 2 049 (too wide: gathered), over selections that
// take chunks whole, more than half, half or less and sparsely, the
// short tail chunk among them (densitySelections). A zone map whose
// window misses a selected value falls back to the gather, and one of
// another chunk count is not read. TestStoredCountsEdges covers the
// stored counts' other cases.
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
		sels = append(sels, densitySelections(nRows, chunkRows, rng)...)
		for _, workers := range []int{1, 4} {
			SetScanWorkers(workers)
			for k, sel := range sels {
				src := ChunkSelection(sel, nRows, chunkRows)
				for _, retain := range []bool{false, true} {
					where := fmt.Sprintf("%s, workers %d, selection %d (%d rows), retain %v", tc.name, workers, k, len(sel), retain)
					cut, counts := IntCutChunked(col, src, sum, 3, retain)
					wantCut, wantCounts := IntCutChunked(col, src, nil, 3, retain)
					if !reflect.DeepEqual(cut, wantCut) || !reflect.DeepEqual(counts, wantCounts) {
						t.Fatalf("%s: counted cut %+v (counts %v), gathered %+v (counts %v)", where, cut, counts != nil, wantCut, wantCounts != nil)
					}
					if lo, cells, ok := zoneWindow(sum, src); ok {
						checkStoredCounts(t, where, col, src, sum, lo, cells, retain)
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
	stale := intBoundsSummary(make([]int64, nc), slices.Repeat([]int64{299}, nc))
	if _, _, ok := countCut(col, all, nil, 0, 300, 2, false); ok {
		t.Fatal("a count over a window missing selected values reported success")
	}
	for _, retain := range []bool{false, true} {
		cut, counts := IntCutChunked(col, all, stale, 2, retain)
		wantCut, wantCounts := IntCutChunked(col, all, nil, 2, retain)
		if !reflect.DeepEqual(cut, wantCut) || !reflect.DeepEqual(counts, wantCounts) {
			t.Fatalf("stale window, retain %v: cut %+v, gathered %+v", retain, cut, wantCut)
		}
	}
	if _, _, ok := zoneWindow(intBoundsSummary(make([]int64, nc+1), make([]int64, nc+1)), all); ok {
		t.Fatal("a zone map of another chunk count was read")
	}
}

// densitySelections draws five selections over nRows rows in chunks of
// chunkRows that hold each chunk whole, at density 3/4, 1/2 and 1/64,
// or not at all, the densities rotating by one chunk from one
// selection to the next, so that every chunk, the short tail chunk
// too, is held at each of them once.
func densitySelections(nRows, chunkRows int, rng *rand.Rand) []Selection {
	dens := []float64{1, 0.75, 0.5, 1.0 / 64, 0}
	out := make([]Selection, len(dens))
	for k := range out {
		for r := 0; r < nRows; r++ {
			if d := dens[(r/chunkRows+k)%len(dens)]; d == 1 || rng.Float64() < d {
				out[k] = append(out[k], int32(r))
			}
		}
	}
	return out
}

// checkStoredCounts holds countCut over sum's stored value counts to
// countCut over none, into the window [lo, lo+cells): the same cut,
// retained counts and verdict.
func checkStoredCounts(t *testing.T, where string, col Numeric, src *ChunkedSelection, sum *ChunkSummary, lo int64, cells int, retain bool) {
	t.Helper()
	cut, counts, ok := countCut(col, src, sum, lo, cells, 3, retain)
	wantCut, wantCounts, wantOK := countCut(col, src, nil, lo, cells, 3, retain)
	if ok != wantOK || !reflect.DeepEqual(cut, wantCut) || !reflect.DeepEqual(counts, wantCounts) {
		t.Fatalf("%s: window [%d, +%d): stored counts give %+v ok %v, the column %+v ok %v", where, lo, cells, cut, ok, wantCut, wantOK)
	}
}

// TestStoredCountsEdges holds countCut over a zone map's stored value
// counts to countCut over none where the stored counts are missing or
// cannot be used: a chunk whose span is too wide to store (nil counts)
// counted over a window that holds it, a window narrower than a
// chunk's stored counts with the rows outside it left out, a float
// chunk holding NaN, a table after AppendRows and UpdateRows, whose
// refreshed zone map recounts the dirty chunks and shares the clean
// chunks' counts, 64-row chunks, which store no counts wider than their
// rows, and a selection of as many chunks at another width than the
// zone map's.
func TestStoredCountsEdges(t *testing.T) {
	defer SetScanWorkers(0)
	const nRows, chunkRows = 10000, 1 << 11
	rng := rand.New(rand.NewSource(23))
	check := func(where string, col Numeric, sum *ChunkSummary, width int, lo int64, cells int, keep func(v int64) bool) {
		t.Helper()
		vals := col.Int64s()
		n := len(vals)
		for k, sel := range append([]Selection{AllRows(n)}, densitySelections(n, width, rng)...) {
			var kept Selection
			for _, r := range sel {
				if keep(vals[r]) {
					kept = append(kept, r)
				}
			}
			src := ChunkSelection(kept, n, width)
			for _, workers := range []int{1, 4} {
				SetScanWorkers(workers)
				for _, retain := range []bool{false, true} {
					checkStoredCounts(t, fmt.Sprintf("%s, selection %d, workers %d, retain %v", where, k, workers, retain), col, src, sum, lo, cells, retain)
				}
			}
		}
	}
	every := func(int64) bool { return true }

	// Chunk 2 spans 5 000 values: no stored counts, counted in a wide
	// window beside chunks counted from theirs.
	tab, col := narrowColumn(nRows, chunkRows, 0, 600, rng)
	col.Int64s()[2*chunkRows+7] = 4999
	tab = MustNewTable("wide", col)
	tab.SetChunkRows(chunkRows)
	sum := tab.SummaryByName("v")
	if sum.vcounts[2] != nil || sum.vcounts[1] == nil {
		t.Fatalf("stored counts: chunk 2 (span 5 000) %v, chunk 1 (span 600) %v; want none and some", sum.vcounts[2] != nil, sum.vcounts[1] != nil)
	}
	check("wide chunk", col, sum, chunkRows, 0, 5000, every)
	// A window of [0, 500): every chunk's stored counts reach past it.
	check("narrow window", col, sum, chunkRows, 0, 500, func(v int64) bool { return v < 500 })
	check("narrow window, rows outside kept", col, sum, chunkRows, 0, 500, every)

	// A float column of adjacent ordinals, NaN in chunk 1.
	floats := make([]float64, nRows)
	for r := range floats {
		floats[r] = math.Float64frombits(math.Float64bits(1) + uint64(rng.Intn(700)))
	}
	floats[chunkRows+3] = math.NaN()
	fcol := NewFloatColumn("f", floats)
	ftab := MustNewTable("nan", fcol)
	ftab.SetChunkRows(chunkRows)
	fsum := ftab.SummaryByName("f")
	if fsum.vcounts[1] != nil || fsum.vcounts[0] == nil {
		t.Fatalf("stored counts: chunk 1 (NaN) %v, chunk 0 %v; want none and some", fsum.vcounts[1] != nil, fsum.vcounts[0] != nil)
	}
	flo, fcells, ok := zoneWindow(fsum, ftab.AllChunked())
	if !ok {
		t.Fatal("the float column's zone window is too wide to count")
	}
	check("float, NaN", fcol, fsum, chunkRows, flo, fcells, every)
	check("float, NaN left out", fcol, fsum, chunkRows, flo, fcells, func(v int64) bool { return v != nanOrdinal })

	// Appends grow the tail chunk and add one; an update moves a row of
	// chunk 1. Only those chunks are recounted.
	tab, col = narrowColumn(nRows-100, chunkRows, 50, 1151, rng)
	old := tab.SummaryByName("v")
	var rows [][]Value
	for range 2200 {
		rows = append(rows, []Value{Int(50 + rng.Int63n(1151))})
	}
	if err := tab.AppendRows(rows...); err != nil {
		t.Fatal(err)
	}
	if err := tab.UpdateRows(Selection{chunkRows + 5}, "v", []Value{Int(900)}); err != nil {
		t.Fatal(err)
	}
	col = tab.MustColumn("v").(*IntColumn)
	sum = tab.SummaryByName("v")
	fresh := MustNewTable("fresh", NewIntColumn("v", slices.Clone(col.Int64s())))
	fresh.SetChunkRows(chunkRows)
	if !reflect.DeepEqual(sum.vcounts, fresh.SummaryByName("v").vcounts) {
		t.Fatal("refreshed stored counts differ from a fresh table's")
	}
	for c := range old.vcounts {
		if shared := &sum.vcounts[c][0] == &old.vcounts[c][0]; shared != (c != 1 && c != 4) {
			t.Fatalf("chunk %d: stored counts shared with the old zone map %v", c, shared)
		}
	}
	lo, cells, ok := zoneWindow(sum, tab.AllChunked())
	if !ok {
		t.Fatal("the grown column's zone window is too wide to count")
	}
	check("after append and update", col, sum, chunkRows, lo, cells, every)

	// At 64-row chunks a chunk stores its counts only when its span is
	// no wider than its rows: the 40-row tail chunk of a span of 50
	// stores none, and a span of 600 stores none at all.
	for _, span := range []int64{50, 600} {
		const nSmall, width = 1000, 64
		tab, col := narrowColumn(nSmall, width, 7, span, rng)
		sum := tab.SummaryByName("v")
		stored := 0
		for c := range sum.vcounts {
			lo, hi := tab.ChunkBounds(c)
			fits := sum.intMax[c]-sum.intMin[c] < int64(hi-lo)
			if (sum.vcounts[c] != nil) != fits || len(sum.vcounts[c]) > hi-lo {
				t.Fatalf("span %d, chunk %d of %d rows over [%d, %d]: %d stored counts", span, c, hi-lo, sum.intMin[c], sum.intMax[c], len(sum.vcounts[c]))
			}
			if fits {
				stored++
			}
		}
		if (stored > 0) != (span == 50) {
			t.Fatalf("span %d: %d chunks of %d store counts", span, stored, len(sum.vcounts))
		}
		lo, cells, ok := zoneWindow(sum, tab.AllChunked())
		if !ok {
			t.Fatalf("span %d: the zone window is too wide to count", span)
		}
		check(fmt.Sprintf("64-row chunks, span %d", span), col, sum, width, lo, cells, every)
	}

	// A selection chunked at another width than the zone map's covers
	// other rows even where the row and chunk counts agree (10 000 rows
	// make 5 chunks at 2 000 as at 2 048): the stored counts are not
	// read.
	tab, col = narrowColumn(nRows, chunkRows, 0, 600, rng)
	if numChunksFor(nRows, 2000) != tab.NumChunks() {
		t.Fatalf("%d chunks at width 2 000, %d at %d", numChunksFor(nRows, 2000), tab.NumChunks(), chunkRows)
	}
	check("selection at another width", col, tab.SummaryByName("v"), 2000, 0, 600, every)
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
		tab := MustNewTable("f", NewFloatColumn("v", slices.Clone(vals)))
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
