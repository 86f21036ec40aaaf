package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestCodeMatchMask holds codeMatch.mask to a byte-by-byte reference
// over random codes, wanted sets of 1 to 6 codes among them (so runs of
// wanted bytes and wanted neighbours occur), rankNaN and the extremes.
func TestCodeMatchMask(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	codes := make([]uint8, 64)
	for trial := 0; trial < 2000; trial++ {
		var want [rankCells]bool
		for i, n := 0, 1+rng.Intn(6); i < n; i++ {
			want[[]int{0, 1, 127, 128, rankBounds, rng.Intn(rankBounds + 1)}[rng.Intn(6)]] = true
		}
		for i := range codes {
			switch rng.Intn(4) {
			case 0:
				codes[i] = rankNaN
			case 1:
				codes[i] = uint8([]int{0, 1, 127, 128, 129, rankBounds}[rng.Intn(6)])
			default:
				codes[i] = uint8(rng.Intn(rankCells))
			}
		}
		var ref uint64
		for i, k := range codes {
			if want[k] {
				ref |= 1 << i
			}
		}
		if got := newCodeMatch(&want).mask(codes); got != ref {
			t.Fatalf("trial %d: mask %064b, want %064b", trial, got, ref)
		}
	}
}

// warmedColumn is a warmed table in chunks of chunkRows holding col,
// named "v", and the column's summary.
func warmedColumn(col Column, chunkRows int) (*Table, *ChunkSummary) {
	tab := MustNewTable("rank", col)
	tab.SetChunkRows(chunkRows)
	tab.WarmSummaries()
	return tab, tab.SummaryByName("v")
}

// withRankCodes returns sum with rank codes over the table's column
// "v" whatever its span, built as a warmed wide column's are: for the
// narrow columns (all rows equal) the rank path must still agree.
func withRankCodes(tab *Table, sum *ChunkSummary) *ChunkSummary {
	col := tab.MustColumn("v").(Numeric)
	vals := col.Int64s()
	rc := newRankCodes(vals, col.Kind() == KindFloat)
	nc := tab.NumChunks()
	rc.codes, rc.counts = make([][]uint8, nc), make([][rankCells]uint32, nc)
	for c := range nc {
		lo, hi := tab.ChunkBounds(c)
		rc.codes[c], rc.counts[c] = rc.codeChunk(vals[lo:hi])
	}
	s := *sum
	s.rank = rc
	return &s
}

// takenChunks selects chunks 0 and 2 and the last whole, a third of
// chunk 1's rows, and nothing else: an extent whose counts are read
// for some chunks and counted for others.
func takenChunks(nRows, chunkRows int, rng *rand.Rand) Selection {
	last := (nRows - 1) / chunkRows
	var sel Selection
	for r := 0; r < nRows; r++ {
		switch c := r / chunkRows; {
		case c == 0 || c == 2 || c == last, c == 1 && rng.Intn(3) == 0:
			sel = append(sel, int32(r))
		}
	}
	return sel
}

// checkRankCut holds IntCutChunked over sum, whose rank codes the cut
// reads, to the gather over no summary, for every form of every
// selection at arity 2–5, retained or not, and returns how many of the
// extents (per arity and form) the rank path served.
func checkRankCut(t *testing.T, name string, col Numeric, sum *ChunkSummary, sels []Selection, nRows, chunkRows int, rng *rand.Rand) (ranked int) {
	t.Helper()
	for k, sel := range sels {
		for form, src := range formsOf(ChunkSelection(sel, nRows, chunkRows), rng) {
			for arity := 2; arity <= 5; arity++ {
				if _, _, _, _, put, ok := rankKeys(col, src, sum, arity); ok {
					put()
					ranked++
				}
				for _, retain := range []bool{false, true} {
					cut, counts := IntCutChunked(col, src, sum, arity, retain)
					want, wantCounts := IntCutChunked(col, src, nil, arity, retain)
					if !reflect.DeepEqual(cut, want) || !reflect.DeepEqual(counts, wantCounts) {
						t.Fatalf("%s, workers %d, selection %d (%d rows, %s), arity %d, retain %v: rank-coded cut %+v (counts %v), gathered %+v (counts %v)",
							name, ScanWorkers(), k, len(sel), form, arity, retain, cut, counts != nil, want, wantCounts != nil)
					}
				}
			}
		}
	}
	return ranked
}

// TestRankCutMatchesGather is the rank path's differential test: over
// wide int columns (with both int64 extremes), a float column with
// NaN, ±0 and ±Inf, heavy duplicates at the median straddling equal
// boundaries (held by two fifths of the rows, under the fallback share,
// and by nineteen twentieths, over it), an all-equal column and extents held
// inside one code, IntCutChunked over the warmed summary equals the
// gather over none: cut and retained counts, over row-id, words and
// mixed chunks, chunks taken whole beside chunks counted, a partial
// last chunk and word, at scan workers 1 and 4, arity 2–5. The last two
// run with the fallback share off, so the rank path serves them too.
func TestRankCutMatchesGather(t *testing.T) {
	defer SetScanWorkers(0)
	defer func(m float64) { rankShareMax = m }(rankShareMax)
	const nRows, chunkRows = 40037, 1 << 12
	rng := rand.New(rand.NewSource(17))
	ints, floats := make([]int64, nRows), make([]float64, nRows)
	dup40, dup95, equal := make([]int64, nRows), make([]int64, nRows), make([]int64, nRows)
	for r := range ints {
		ints[r] = rng.Int63n(1<<40) - 1<<39
		floats[r] = rng.NormFloat64() * 1e3
		if r%7 == 0 {
			floats[r] = partFloatEdges[r%len(partFloatEdges)]
		}
		dup40[r], dup95[r] = rng.Int63n(1<<30), rng.Int63n(1<<30)
		if rng.Intn(5) < 2 {
			dup40[r] = 1 << 29
		}
		if rng.Intn(20) < 19 {
			dup95[r] = 1 << 29
		}
		equal[r] = -7
	}
	ints[5], ints[nRows-3] = math.MinInt64, math.MaxInt64
	for _, tc := range []struct {
		name      string
		col       Numeric
		forceRank bool   // codes over a narrow column, fallback share off
		ranked    [2]int // how many of the 208 extents the rank path serves
	}{
		{"wide ints", NewIntColumn("v", ints), false, [2]int{150, 208}},
		{"floats with NaN", NewFloatColumn("v", floats), false, [2]int{150, 208}},
		{"duplicates, 2/5", NewIntColumn("v", dup40), false, [2]int{120, 208}},
		{"duplicates, 19/20", NewIntColumn("v", dup95), false, [2]int{0, 40}},
		{"all equal", NewIntColumn("v", equal), true, [2]int{208, 208}},
	} {
		tab, sum := warmedColumn(tc.col, chunkRows)
		if (sum.rank != nil) == tc.forceRank {
			t.Fatalf("%s: rank codes built %v on a warmed column", tc.name, sum.rank != nil)
		}
		rankShareMax = 0.9
		if tc.forceRank {
			sum, rankShareMax = withRankCodes(tab, sum), 1
		}
		sels := append(adversarialSelections(nRows, chunkRows, rng), wordSelections(nRows, rng)...)
		sels = append(sels, takenChunks(nRows, chunkRows, rng))
		for _, workers := range []int{1, 4} {
			SetScanWorkers(workers)
			ranked := checkRankCut(t, tc.name, tc.col, sum, sels, nRows, chunkRows, rng)
			if ranked < tc.ranked[0] || ranked > tc.ranked[1] {
				t.Fatalf("%s: the rank path served %d cuts, want %d to %d", tc.name, ranked, tc.ranked[0], tc.ranked[1])
			}
		}
		// Extents inside one code, with the share off: the rows of
		// each of a few codes, alone and with the code above's.
		rankShareMax = 1
		col, codes := tc.col, sum.rank.codes
		for _, k := range []uint8{0, 1, 127, rankBounds, rankNaN} {
			var one, two Selection
			for r := range nRows {
				switch codes[r/chunkRows][r%chunkRows] {
				case k:
					one = append(one, int32(r))
					two = append(two, int32(r))
				case k + 1:
					two = append(two, int32(r))
				}
			}
			SetScanWorkers(1)
			checkRankCut(t, fmt.Sprintf("%s, code %d", tc.name, k), col, sum, []Selection{one, two}, nRows, chunkRows, rng)
		}
	}
}

// TestRankCodesBuiltOnlyWhenWarmAndWide pins where rank codes exist:
// never on a table that was not warmed, on a warmed table only for a
// numeric column whose span is wider than the count window, and on a
// summary built lazily before WarmSummaries once it runs.
func TestRankCodesBuiltOnlyWhenWarmAndWide(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 5000
	wide, narrow, floats := make([]int64, n), make([]int64, n), make([]float64, n)
	for r := range wide {
		wide[r], narrow[r], floats[r] = rng.Int63n(1<<33), int64(rng.Intn(2048)), rng.Float64()
	}
	mk := func() *Table {
		tab := MustNewTable("t", NewIntColumn("wide", wide), NewIntColumn("narrow", narrow),
			NewFloatColumn("f", slices.Clone(floats)), NewStringColumn("s", make([]string, n)))
		tab.SetChunkRows(1024)
		return tab
	}
	cold := mk()
	for _, name := range []string{"wide", "narrow", "f", "s"} {
		if cold.SummaryByName(name).rank != nil {
			t.Fatalf("%s: rank codes on a table never warmed", name)
		}
	}
	cold.WarmSummaries() // upgrades the lazily built summaries
	warm := mk()
	warm.WarmSummaries()
	for _, tab := range []*Table{cold, warm} {
		for name, want := range map[string]bool{"wide": true, "narrow": false, "f": true, "s": false} {
			rc := tab.SummaryByName(name).rank
			if (rc != nil) != want {
				t.Fatalf("%s: rank codes %v, want %v", name, rc != nil, want)
			}
			if rc != nil && len(rc.codes) != tab.NumChunks() {
				t.Fatalf("%s: codes for %d chunks, table has %d", name, len(rc.codes), tab.NumChunks())
			}
		}
	}
}

// TestRankCodesRefresh mutates a warmed table — values appended below
// and above both outer boundaries and NaN, and an update inside one
// chunk — and holds the refreshed summary's rank codes to their
// contract: the boundaries kept, the clean chunks' codes and counts
// shared, every row's code the code of its current value, the
// appended extremes at code 0 and rankBounds, every chunk's counts
// those of its codes; and the cut over them to the gather.
func TestRankCodesRefresh(t *testing.T) {
	const chunkRows = 1 << 10
	rng := rand.New(rand.NewSource(29))
	for _, kind := range []Kind{KindInt, KindFloat} {
		const n = 5*chunkRows + 300
		ints, floats := make([]int64, n), make([]float64, n)
		for r := range ints {
			ints[r], floats[r] = rng.Int63n(1<<32), rng.NormFloat64()
		}
		col := Numeric(NewIntColumn("v", ints))
		below, above, mid := Int(-1), Int(1<<33), Int(1<<31)
		if kind == KindFloat {
			col, below, above, mid = NewFloatColumn("v", floats), Float(-10), Float(10), Float(0)
		}
		tab, sum := warmedColumn(col, chunkRows)
		old := sum.rank
		rows := [][]Value{{below}, {above}, {mid}}
		if kind == KindFloat {
			rows = append(rows, []Value{Float(math.NaN())})
		}
		for i := 0; i < 3*chunkRows/2; i++ {
			if err := tab.AppendRows(rows[i%len(rows)]); err != nil {
				t.Fatal(err)
			}
		}
		upd, vals := Selection{}, []Value{}
		for r := 2 * chunkRows; r < 3*chunkRows; r += 3 {
			upd, vals = append(upd, int32(r)), append(vals, []Value{below, above}[r%2])
		}
		if err := tab.UpdateRows(upd, "v", vals); err != nil {
			t.Fatal(err)
		}
		sum = tab.SummaryByName("v")
		rc := sum.rank
		if rc == nil || rc.bounds != old.bounds {
			t.Fatalf("%v: refresh kept no rank codes, or new boundaries", kind)
		}
		col = tab.MustColumn("v").(Numeric)
		all := col.Int64s()
		for c := range tab.NumChunks() {
			lo, hi := tab.ChunkBounds(c)
			clean := c < 2 || c == 3 || c == 4
			if shared := c < len(old.codes) && &rc.codes[c][0] == &old.codes[c][0]; shared != clean {
				t.Fatalf("%v: chunk %d codes shared %v, clean %v", kind, c, shared, clean)
			}
			var counts [rankCells]uint32
			for r := lo; r < hi; r++ {
				k := rc.codes[c][r-lo]
				if want := rc.code(all[r]); k != want {
					t.Fatalf("%v: row %d (chunk %d) holds code %d, its value's is %d", kind, r, c, k, want)
				}
				counts[k]++
			}
			if counts != rc.counts[c] {
				t.Fatalf("%v: chunk %d counts are not its codes'", kind, c)
			}
		}
		last := tab.NumRows() - 1
		if k, want := rc.code(all[last-len(rows)+1]), uint8(0); k != want {
			t.Fatalf("%v: a value below every boundary codes to %d", kind, k)
		}
		if k := rc.code(all[last-len(rows)+2]); k != rankBounds {
			t.Fatalf("%v: a value above every boundary codes to %d", kind, k)
		}
		nRows := tab.NumRows()
		sels := append(adversarialSelections(nRows, chunkRows, rng), takenChunks(nRows, chunkRows, rng))
		if ranked := checkRankCut(t, fmt.Sprintf("%v after mutation", kind), col, sum, sels, nRows, chunkRows, rng); ranked == 0 {
			t.Fatalf("%v: the rank path served no cut after the mutation", kind)
		}
	}
}
