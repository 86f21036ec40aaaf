package engine

import (
	"fmt"
	"testing"
)

// clusteredStringTable lays values out in contiguous runs so whole
// chunks hold a single value: the shape nominal zone maps exist for.
func clusteredStringTable(nRows, chunkRows, runLen int) *Table {
	vals := make([]string, nRows)
	for i := range vals {
		vals[i] = fmt.Sprintf("v%02d", i/runLen)
	}
	tab := MustNewTable("clustered", NewStringColumn("region", vals))
	tab.SetChunkRows(chunkRows)
	return tab
}

// naiveStringFilter is naiveFilter over a string column's values.
func naiveStringFilter(col *StringColumn, sel Selection, keep func(v string) bool) Selection {
	return naiveFilter(sel, func(row int32) bool { return keep(col.Str(int(row))) })
}

// TestNominalVerdictSkipTakeScan pins the presence verdicts chunk by
// chunk on a clustered layout: chunks holding none of the wanted
// values skip, chunks holding only wanted values take, mixed chunks
// scan.
func TestNominalVerdictSkipTakeScan(t *testing.T) {
	// 4 chunks of 64 rows; runs of 32 rows → 2 values per chunk:
	// chunk 0 = {v00,v01}, chunk 1 = {v02,v03}, ...
	tab := clusteredStringTable(256, 64, 32)
	col := tab.MustColumn("region").(*StringColumn)
	sum := tab.SummaryByName("region")
	if sum == nil || !sum.HasNominal() {
		t.Fatal("string column must have a nominal summary")
	}
	want := stringCodeSet(col, []string{"v02", "v03", "v04"})
	verdict := codeSetVerdict(sum, want)
	expect := []chunkVerdict{chunkSkip, chunkTake, chunkScan, chunkSkip}
	for c, v := range expect {
		if got := verdict(c); got != v {
			t.Fatalf("chunk %d verdict = %d, want %d", c, got, v)
		}
	}
}

// sameContainer reports whether chunk c of a and b holds the same
// non-empty words, shared rather than copied.
func sameContainer(a, b *ChunkedSelection, c int) bool {
	x, y := a.chunks[c], b.chunks[c]
	return x.n > 0 && x.n == y.n && &x.words[0] == &y.words[0]
}

// TestNominalTakePassesSegmentByReference pins the take fast path:
// a fully covered chunk must flow into the result without being
// rescanned or copied.
func TestNominalTakePassesSegmentByReference(t *testing.T) {
	tab := clusteredStringTable(256, 64, 64) // one value per chunk
	col := tab.MustColumn("region").(*StringColumn)
	sum := tab.SummaryByName("region")
	all := tab.AllChunked()
	out := FilterStringSetChunked(col, all, []string{"v01"}, sum)
	if out.Len() != 64 {
		t.Fatalf("selected %d rows, want 64", out.Len())
	}
	if !sameContainer(all, out, 1) {
		t.Fatal("take verdict did not pass the parent chunk through by reference")
	}
	for _, c := range []int{0, 2, 3} {
		if out.chunkCount(c) != 0 {
			t.Fatalf("chunk %d should be empty", c)
		}
	}
}

// TestNominalEdgeCases covers the boundary shapes of the presence
// summaries: empty dictionary (zero-row table), a single-value
// column, a value present in the dictionary but absent from probed
// chunks, and an all-covered chunk under the bool summary.
func TestNominalEdgeCases(t *testing.T) {
	t.Run("EmptyDictionary", func(t *testing.T) {
		tab := MustNewTable("empty", NewStringColumn("s", nil))
		col := tab.MustColumn("s").(*StringColumn)
		if col.Cardinality() != 0 {
			t.Fatal("empty column must have an empty dictionary")
		}
		sum := tab.SummaryByName("s")
		out := FilterStringSetChunked(col, tab.AllChunked(), []string{"anything"}, sum)
		if out.Len() != 0 {
			t.Fatalf("selected %d rows from an empty table", out.Len())
		}
	})
	t.Run("SingleValueColumn", func(t *testing.T) {
		tab := clusteredStringTable(200, 64, 200) // all rows "v00"
		col := tab.MustColumn("region").(*StringColumn)
		sum := tab.SummaryByName("region")
		all := tab.AllChunked()
		hit := FilterStringSetChunked(col, all, []string{"v00"}, sum)
		if hit.Len() != 200 {
			t.Fatalf("single-value take selected %d rows, want 200", hit.Len())
		}
		// Every chunk is fully covered: all chunks share the parent's.
		for c := 0; c < all.NumChunks(); c++ {
			if !sameContainer(all, hit, c) {
				t.Fatalf("chunk %d not passed by reference", c)
			}
		}
		miss := FilterStringSetChunked(col, all, []string{"v99"}, sum)
		if miss.Len() != 0 {
			t.Fatalf("absent value selected %d rows", miss.Len())
		}
	})
	t.Run("ValueAbsentFromEveryProbedChunk", func(t *testing.T) {
		// "v03" lives only in chunk 3; a selection confined to chunks
		// 0-2 must come back empty with every chunk skipped.
		tab := clusteredStringTable(256, 64, 64)
		col := tab.MustColumn("region").(*StringColumn)
		sum := tab.SummaryByName("region")
		verdict := codeSetVerdict(sum, stringCodeSet(col, []string{"v03"}))
		for c := 0; c < 3; c++ {
			if got := verdict(c); got != chunkSkip {
				t.Fatalf("chunk %d verdict = %d, want skip", c, got)
			}
		}
		if got := verdict(3); got != chunkTake {
			t.Fatalf("chunk 3 verdict = %d, want take", got)
		}
	})
	t.Run("BoolVerdicts", func(t *testing.T) {
		vals := make([]bool, 192) // chunk 0 all false, chunk 1 all true, chunk 2 mixed
		for i := 64; i < 128; i++ {
			vals[i] = true
		}
		vals[130] = true
		tab := MustNewTable("flags", NewBoolColumn("armed", vals))
		tab.SetChunkRows(64)
		sum := tab.SummaryByName("armed")
		if sum == nil {
			t.Fatal("bool column must have a presence summary")
		}
		verdict := boolSetVerdict(sum, true, false) // want {true}
		expect := []chunkVerdict{chunkSkip, chunkTake, chunkScan}
		for c, v := range expect {
			if got := verdict(c); got != v {
				t.Fatalf("chunk %d verdict = %d, want %d", c, got, v)
			}
		}
		col := tab.MustColumn("armed").(*BoolColumn)
		out := FilterChunked(tab.AllChunked(), BoolSetPred(col, []bool{true}, sum))
		if out.Len() != 65 {
			t.Fatalf("selected %d rows, want 65", out.Len())
		}
	})
}

// TestNominalSparseSummaryAndOverflow exercises the large-dictionary
// form: sorted per-chunk code lists when chunks are low-diversity,
// the overflow mark (always scan) when a chunk's distinct count
// exceeds the list cap, and end-to-end equivalence with the naive
// row-at-a-time filter either way.
func TestNominalSparseSummaryAndOverflow(t *testing.T) {
	// 5000 distinct values (> denseCodeDictMax) in runs of 4: with
	// 64-row chunks every chunk holds 16 distinct codes — well under
	// the list cap, so every chunk gets a sparse sorted list.
	const values = 5000
	vals := make([]string, values*4)
	for i := range vals {
		vals[i] = fmt.Sprintf("u%04d", i/4)
	}
	tab := MustNewTable("sparse", NewStringColumn("id", vals))
	tab.SetChunkRows(64) // 16 values per chunk — well under the list cap
	col := tab.MustColumn("id").(*StringColumn)
	sum := tab.SummaryByName("id")
	if sum == nil || sum.codeList == nil {
		t.Fatal("large dictionary must use the sparse code-list summary")
	}
	for c := range sum.codeOverflow {
		if sum.codeOverflow[c] {
			t.Fatalf("chunk %d overflowed with only 16 distinct codes", c)
		}
	}
	all := tab.AllChunked()
	flatAll := tab.All()
	wantVals := []string{"u0000", "u2500", "u4999"}
	selEqual(t, "sparse set filter",
		FilterStringSetChunked(col, all, wantVals, sum),
		naiveStringFilter(col, flatAll, func(v string) bool { return v == "u0000" || v == "u2500" || v == "u4999" }))
	verdict := codeSetVerdict(sum, stringCodeSet(col, wantVals))
	if got := verdict(1); got != chunkSkip {
		t.Fatalf("uninvolved chunk verdict = %d, want skip", got)
	}

	// All-distinct rows push every full chunk past the list cap:
	// overflow chunks must scan, and results must still match naive.
	big := make([]string, 4992)
	for i := range big {
		big[i] = fmt.Sprintf("w%05d", i)
	}
	otab := MustNewTable("overflow", NewStringColumn("id", big))
	otab.SetChunkRows(512) // 512 distinct codes per chunk > maxCodeListLen
	ocol := otab.MustColumn("id").(*StringColumn)
	osum := otab.SummaryByName("id")
	if osum == nil || osum.codeList == nil {
		t.Fatal("overflow table must use the sparse summary")
	}
	overflowed := 0
	for c := range osum.codeOverflow {
		if osum.codeOverflow[c] {
			overflowed++
		}
	}
	if overflowed == 0 {
		t.Fatal("no chunk overflowed despite 512 distinct codes per chunk")
	}
	over := codeSetVerdict(osum, stringCodeSet(ocol, []string{"w00000"}))
	if got := over(0); got != chunkScan {
		t.Fatalf("overflowed chunk verdict = %d, want scan", got)
	}
	selEqual(t, "overflow set filter",
		FilterStringSetChunked(ocol, otab.AllChunked(), []string{"w00000", "w04000"}, osum),
		naiveStringFilter(ocol, otab.All(), func(v string) bool { return v == "w00000" || v == "w04000" }))
	// An all-overflowed summary cannot prune: the string-range filter
	// must refuse the O(dictionary) code-set resolution and take the
	// direct comparison scan — with identical results.
	if overflowed == len(osum.codeOverflow) && osum.canPruneCodes() {
		t.Fatal("all-overflow summary claims it can prune")
	}
	if !sum.canPruneCodes() {
		t.Fatal("healthy sparse summary claims it cannot prune")
	}
	selEqual(t, "overflow string range",
		FilterChunked(otab.AllChunked(), StringRangePred(ocol, "w00100", "w00300", true, true, osum)),
		naiveStringFilter(ocol, otab.All(), func(v string) bool { return "w00100" <= v && v <= "w00300" }))
}
