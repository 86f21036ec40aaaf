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

// TestRankTableMatchesSearch holds code, which reads the rank table for
// a number inside the sample's span, to the search over the boundaries
// (rank) for every number of the column, every bucket's first and last
// number, numbers past the span on both sides and the int64 extremes:
// over a narrow column coded exactly (one number per bucket), narrow and
// equi-depth, wide, wide with heavy duplicates (a run of equal
// boundaries in one bucket), one spanning the whole int64 range, and
// floats with NaN.
func TestRankTableMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const n = 50000
	cols := map[string][]int64{}
	for _, name := range []string{"exact", "narrow", "wide", "dup", "full"} {
		cols[name] = make([]int64, n)
	}
	floats := make([]float64, n)
	for r := range n {
		cols["exact"][r] = 3 * rng.Int63n(100)
		cols["narrow"][r] = 50 + rng.Int63n(1150)
		cols["wide"][r] = rng.Int63n(80000)
		cols["dup"][r] = rng.Int63n(1 << 30)
		if rng.Intn(20) < 19 {
			cols["dup"][r] = 1 << 29
		}
		cols["full"][r] = int64(rng.Uint64())
		floats[r] = rng.NormFloat64()
		if r%9 == 0 {
			floats[r] = partFloatEdges[r%len(partFloatEdges)]
		}
	}
	check := func(name string, rc *rankCodes, vals []int64) {
		t.Helper()
		probe := slices.Clone(vals)
		for i := range rc.lut {
			first := int64(uint64(rc.lutLo) + uint64(i)<<rc.lutShift)
			probe = append(probe, first, first-1, first+1<<rc.lutShift-1)
		}
		end := int64(uint64(rc.lutLo) + rc.lutSpan)
		probe = append(probe, rc.lutLo-1, end, end+1, math.MinInt64, math.MaxInt64, nanOrdinal)
		for _, v := range probe {
			want := rc.rank(v)
			if rc.nan && v == nanOrdinal {
				want = rankNaN
			}
			if got := rc.code(v); got != want {
				t.Fatalf("%s: %d codes to %d by the rank table, %d by the search", name, v, got, want)
			}
		}
	}
	for name, vals := range cols {
		check(name, newRankCodes(vals, false), vals)
	}
	fvals := NewFloatColumn("v", floats).Int64s()
	check("floats", newRankCodes(fvals, true), fvals)
}

// warmedColumn is a warmed table in chunks of chunkRows holding col,
// named "v", and the column's summary.
func warmedColumn(col Column, chunkRows int) (*Table, *ChunkSummary) {
	tab := MustNewTable("rank", col)
	tab.SetChunkRows(chunkRows)
	tab.WarmSummaries()
	return tab, tab.SummaryByName("v")
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
// reads, to the gather over no summary, for every selection at arity
// 2–5, retained or not, and returns how many of the extents (per
// arity) the rank path served.
func checkRankCut(t *testing.T, name string, col Numeric, sum *ChunkSummary, sels []Selection, nRows, chunkRows int) (ranked int) {
	t.Helper()
	for k, sel := range sels {
		src := ChunkSelection(sel, nRows, chunkRows)
		for arity := 2; arity <= 5; arity++ {
			if _, _, _, _, _, put, ok := rankKeys(col, src, sum, arity); ok {
				put()
				ranked++
			}
			for _, retain := range []bool{false, true} {
				cut, counts := IntCutChunked(col, src, sum, arity, retain)
				want, wantCounts := IntCutChunked(col, src, nil, arity, retain)
				if !reflect.DeepEqual(cut, want) || !reflect.DeepEqual(counts, wantCounts) {
					t.Fatalf("%s, workers %d, selection %d (%d rows), arity %d, retain %v: rank-coded cut %+v (counts %v), gathered %+v (counts %v)",
						name, ScanWorkers(), k, len(sel), arity, retain, cut, counts != nil, want, wantCounts != nil)
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
// and by nineteen twentieths, over it), an all-equal column (coded
// exactly: its one value is one code) and extents held inside one
// code, IntCutChunked over the warmed summary equals the gather over
// none: cut and retained counts, over chunks taken whole beside chunks
// counted, a partial last chunk and
// word, at scan workers 1 and 4, arity 2–5. The last two run with the
// fallback share off, so the rank path serves them too.
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
		name     string
		col      Numeric
		shareOff bool   // fallback share off: one code holds every row
		ranked   [2]int // how many of the 52 extents the rank path serves
	}{
		{"wide ints", NewIntColumn("v", ints), false, [2]int{38, 52}},
		{"floats with NaN", NewFloatColumn("v", floats), false, [2]int{38, 52}},
		{"duplicates, 2/5", NewIntColumn("v", dup40), false, [2]int{30, 52}},
		{"duplicates, 19/20", NewIntColumn("v", dup95), false, [2]int{0, 10}},
		{"all equal", NewIntColumn("v", equal), true, [2]int{52, 52}},
	} {
		_, sum := warmedColumn(tc.col, chunkRows)
		if sum.rank == nil {
			t.Fatalf("%s: no rank codes on a warmed column", tc.name)
		}
		rankShareMax = 0.9
		if tc.shareOff {
			rankShareMax = 1
		}
		sels := append(adversarialSelections(nRows, chunkRows, rng), wordSelections(nRows, rng)...)
		sels = append(sels, takenChunks(nRows, chunkRows, rng))
		for _, workers := range []int{1, 4} {
			SetScanWorkers(workers)
			ranked := checkRankCut(t, tc.name, tc.col, sum, sels, nRows, chunkRows)
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
			checkRankCut(t, fmt.Sprintf("%s, code %d", tc.name, k), col, sum, []Selection{one, two}, nRows, chunkRows)
		}
	}
}

// checkSummaryCodes holds every summary tab serves to its codes, the
// oracle of TestSummariesCarryCodes (summarycodes_test.go): rank codes
// and their planes for every numeric column, wide or narrow, each row
// coded as its value codes; code planes for a string column of 2 to 16
// values only, bits.Len(dictLen−1) of them. A column named "narrow"
// holds multiples of 3 below 600 and no more than rankBounds+1 of
// them: its boundaries are its distinct sampled numbers but the
// smallest, so each value is a code of its own, its rank among them.
// Every plane holds its bit of every row's code.
func checkSummaryCodes(t testing.TB, name string, tab *Table) {
	t.Helper()
	for i, col := range tab.Columns() {
		s, where := tab.Summary(i), name+", "+col.Name()
		switch col := col.(type) {
		case Numeric:
			rc := s.rank
			if rc == nil || len(rc.codes) != tab.NumChunks() {
				t.Fatalf("%s: rank codes %v, want %d chunks coded", where, rc != nil, tab.NumChunks())
			}
			vals := col.Int64s()
			for c := range tab.NumChunks() {
				checkPlanes(t, where, &rc.planes, c, func(r int) uint32 { return uint32(rc.codes[c][r]) }, len(rc.codes[c]))
				lo, hi := tab.ChunkBounds(c)
				for r, v := range vals[lo:hi] {
					want := rc.code(v)
					if col.Name() == "narrow" {
						want = uint8(v / 3)
					}
					if k := rc.codes[c][r]; k != want {
						t.Fatalf("%s: value %d codes to %d, want %d", where, v, k, want)
					}
				}
			}
		case *StringColumn:
			pl, p := s.codePlanes, dictPlaneBits(col.Cardinality())
			if pl == nil && p == 0 {
				continue
			}
			if pl == nil || pl.p != p || len(pl.words) != tab.NumChunks() {
				t.Fatalf("%s: code planes %v, want %d planes", where, pl, p)
			}
			codes := col.Codes()
			for c := range tab.NumChunks() {
				lo, hi := tab.ChunkBounds(c)
				checkPlanes(t, where, pl, c, func(r int) uint32 { return codes[lo+r] }, hi-lo)
			}
		}
	}
}

// checkPlanes holds chunk c's planes in pl to the codes of its first n
// rows, code(r) being row r's.
func checkPlanes(t testing.TB, name string, pl *bitPlanes, c int, code func(r int) uint32, n int) {
	t.Helper()
	words := pl.chunk(c, (n+63)/64)
	if words == nil {
		t.Fatalf("%s: chunk %d has no planes for its %d rows", name, c, n)
	}
	for r := range n {
		for b := range pl.p {
			if got, want := words[r/64*pl.p+b]>>(r%64)&1, uint64(code(r)>>b&1); got != want {
				t.Fatalf("%s: chunk %d row %d plane %d holds %d, its code %d", name, c, r, b, got, code(r))
			}
		}
	}
}

// TestPlaneValueCounts holds StringValueCounts and StringChunkCounts
// over a warmed table's code planes to the counts of its rows' codes
// (no zone map: countCodes) at scan workers 1 and 4, for dictionaries
// of 2 to 16 values. Appends then grow a dictionary of 5 values to 6
// (3 planes still: the clean chunks' planes kept), one of 8 to 9 (3
// planes to 4: rebuilt) and one of 16 to 17 (planes dropped): the
// counts still agree, and StringChunkCountsSplice over the grown
// table's planes, from counts taken over the planes before the append,
// agrees with the codes' counts of the grown table.
func TestPlaneValueCounts(t *testing.T) {
	defer SetScanWorkers(0)
	const n, chunkRows = 9037, 1 << 10
	rng := rand.New(rand.NewSource(51))
	column := func(dictLen int) []string {
		vals := make([]string, n)
		for r := range vals {
			vals[r] = fmt.Sprintf("v%02d", rng.Intn(dictLen))
		}
		return vals
	}
	check := func(name string, tab *Table, planed bool) {
		t.Helper()
		col, sum := tab.MustColumn("v").(*StringColumn), tab.SummaryByName("v")
		if (sumPlanes(sum, col) != nil) != planed {
			t.Fatalf("%s: code planes %v, want %v", name, sumPlanes(sum, col) != nil, planed)
		}
		nRows := tab.NumRows()
		sels := append(adversarialSelections(nRows, chunkRows, rng), wordSelections(nRows, rng)...)
		for _, workers := range []int{1, 4} {
			SetScanWorkers(workers)
			for k, sel := range sels {
				src := ChunkSelection(sel, nRows, chunkRows)
				got, want := StringValueCounts(col, src, sum), StringValueCountsChunked(col, src)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, workers %d, selection %d (%d rows): plane counts %v, code counts %v", name, workers, k, len(sel), got, want)
				}
				if got, want := StringChunkCounts(col, src, sum), StringChunkCounts(col, src, nil); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, workers %d, selection %d (%d rows): per-chunk plane counts differ from code counts", name, workers, k, len(sel))
				}
			}
		}
	}
	for _, dictLen := range []int{2, 3, 5, 8, 13, 16} {
		tab, _ := warmedColumn(NewStringColumn("v", column(dictLen)), chunkRows)
		check(fmt.Sprintf("%d values", dictLen), tab, true)
	}
	for _, tc := range []struct{ from, to, p int }{{5, 6, 3}, {8, 9, 4}, {16, 17, 0}} {
		name := fmt.Sprintf("%d values grown to %d", tc.from, tc.to)
		tab, sum := warmedColumn(NewStringColumn("v", column(tc.from)), chunkRows)
		old := sum.codePlanes
		sel := wordSelections(n, rng)[0]
		stamp := tab.Stamp()
		oldCounts := StringChunkCounts(tab.MustColumn("v").(*StringColumn), ChunkSelection(sel, n, chunkRows), sum)
		var rows [][]Value
		for i := range 1500 {
			v := fmt.Sprintf("v%02d", rng.Intn(tc.from))
			if i%100 == 7 {
				v = fmt.Sprintf("v%02d", tc.to-1)
			}
			rows = append(rows, []Value{String_(v)})
		}
		if err := tab.AppendRows(rows...); err != nil {
			t.Fatal(err)
		}
		pl := tab.SummaryByName("v").codePlanes
		if tc.p == 0 {
			if pl != nil {
				t.Fatalf("%s: planes kept past %d values", name, maxPlaneDict)
			}
		} else if pl == nil || pl.p != tc.p {
			t.Fatalf("%s: planes %v, want %d of them", name, pl, tc.p)
		} else if kept := &pl.words[0][0] == &old.words[0][0]; kept != (tc.p == old.p) {
			t.Fatalf("%s: clean chunk's planes kept %v, from %d planes to %d", name, kept, old.p, tc.p)
		}
		col := tab.MustColumn("v").(*StringColumn)
		if pl != nil {
			codes := col.Codes()
			for c := range tab.NumChunks() {
				lo, hi := tab.ChunkBounds(c)
				checkPlanes(t, name, pl, c, func(r int) uint32 { return codes[lo+r] }, hi-lo)
			}
		}
		check(name, tab, tc.p > 0)
		dirty, ok := tab.Stamp().DirtyVs(stamp)
		if !ok {
			t.Fatalf("%s: stamps not comparable", name)
		}
		// The selection's clean chunks hold the rows they held; every
		// appended row is selected.
		grown := ChunkSelection(append(slices.Clone(sel), AllRows(tab.NumRows())[n:]...), tab.NumRows(), chunkRows)
		spliced, ok := StringChunkCountsSplice(col, grown, tab.SummaryByName("v"), oldCounts, dirty)
		if !ok {
			t.Fatalf("%s: splice refused", name)
		}
		if got, want := StringCountsFromChunks(col, spliced), StringValueCountsChunked(col, grown); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: spliced counts %v, code counts %v", name, got, want)
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
		if ranked := checkRankCut(t, fmt.Sprintf("%v after mutation", kind), col, sum, sels, nRows, chunkRows); ranked == 0 {
			t.Fatalf("%v: the rank path served no cut after the mutation", kind)
		}
	}
}
