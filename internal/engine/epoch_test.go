package engine

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// mutTable builds a small memory-backed table with every mutable
// column kind, chunked at the minimum width so mutations land in
// interesting chunks.
func mutTable(t *testing.T, rows int) *Table {
	t.Helper()
	ints := make([]int64, rows)
	floats := make([]float64, rows)
	strs := make([]string, rows)
	bools := make([]bool, rows)
	days := make([]int64, rows)
	for i := 0; i < rows; i++ {
		ints[i] = int64(i % 7)
		floats[i] = float64(i%5) / 2
		strs[i] = [3]string{"red", "green", "blue"}[i%3]
		bools[i] = i%2 == 0
		days[i] = int64(1000 + i%11)
	}
	tab := MustNewTable("m",
		NewIntColumn("n", ints),
		NewFloatColumn("x", floats),
		NewStringColumn("color", strs),
		NewBoolColumn("flag", bools),
		NewDateColumn("day", days),
	)
	tab.SetChunkRows(minChunkRows)
	return tab
}

func sampleRow(tab *Table, r int) []Value {
	row := make([]Value, tab.NumCols())
	for i := 0; i < tab.NumCols(); i++ {
		row[i] = tab.Column(i).Value(r)
	}
	return row
}

func TestAppendRowsDirtiesOnlyTail(t *testing.T) {
	tab := mutTable(t, 3*minChunkRows) // 3 full chunks
	before := tab.Stamp()
	if before.Version() != 0 || before.NumChunks() != 3 {
		t.Fatalf("fresh stamp: version=%d chunks=%d", before.Version(), before.NumChunks())
	}
	// Append half a chunk: creates chunk 3, leaves 0..2 untouched.
	rows := make([][]Value, minChunkRows/2)
	for i := range rows {
		rows[i] = sampleRow(tab, i)
	}
	if err := tab.AppendRows(rows...); err != nil {
		t.Fatal(err)
	}
	cur := tab.Stamp()
	if cur.Version() != 1 {
		t.Fatalf("version after append = %d, want 1", cur.Version())
	}
	if got := tab.NumRows(); got != 3*minChunkRows+minChunkRows/2 {
		t.Fatalf("rows = %d", got)
	}
	dirty, ok := cur.DirtyVs(before)
	if !ok {
		t.Fatal("stamps not comparable")
	}
	want := []bool{false, false, false, true}
	if len(dirty) != len(want) {
		t.Fatalf("dirty len = %d, want %d", len(dirty), len(want))
	}
	for c := range want {
		if dirty[c] != want[c] {
			t.Fatalf("dirty[%d] = %v, want %v", c, dirty[c], want[c])
		}
	}
	// Append into the partial tail: only chunk 3 dirties again.
	mid := tab.Stamp()
	if err := tab.AppendRows(sampleRow(tab, 0)); err != nil {
		t.Fatal(err)
	}
	dirty, ok = tab.Stamp().DirtyVs(mid)
	if !ok || dirty[3] != true || dirty[0] || dirty[1] || dirty[2] {
		t.Fatalf("partial-tail append dirty = %v ok=%v", dirty, ok)
	}
}

func TestUpdateRowsDirtiesTouchedChunks(t *testing.T) {
	tab := mutTable(t, 4*minChunkRows)
	before := tab.Stamp()
	// Touch one row in chunk 1 and one in chunk 3.
	sel := Selection{int32(minChunkRows + 5), int32(3*minChunkRows + 7)}
	vals := []Value{Int(99), Int(100)}
	if err := tab.UpdateRows(sel, "n", vals); err != nil {
		t.Fatal(err)
	}
	dirty, ok := tab.Stamp().DirtyVs(before)
	if !ok {
		t.Fatal("stamps not comparable")
	}
	want := []bool{false, true, false, true}
	for c := range want {
		if dirty[c] != want[c] {
			t.Fatalf("dirty = %v, want %v", dirty, want)
		}
	}
	col := tab.MustColumn("n").(*IntColumn)
	if col.Int64(minChunkRows+5) != 99 || col.Int64(3*minChunkRows+7) != 100 {
		t.Fatal("update did not land")
	}
}

func TestMutationValidationIsAllOrNothing(t *testing.T) {
	tab := mutTable(t, minChunkRows)
	before := tab.Stamp()
	fpBefore := tab.Fingerprint()

	// Wrong arity.
	if err := tab.AppendRows([]Value{Int(1)}); err == nil {
		t.Fatal("short row accepted")
	}
	// Wrong kind in the second row: the first must not be applied.
	good := sampleRow(tab, 0)
	bad := sampleRow(tab, 1)
	bad[0] = Float(1.5)
	if err := tab.AppendRows(good, bad); err == nil {
		t.Fatal("kind mismatch accepted")
	}
	// Update: out-of-range row, wrong kind, wrong length, bad column.
	if err := tab.UpdateRows(Selection{int32(tab.NumRows())}, "n", []Value{Int(1)}); err == nil {
		t.Fatal("out-of-range row accepted")
	}
	if err := tab.UpdateRows(Selection{0}, "n", []Value{String_("no")}); err == nil {
		t.Fatal("kind mismatch accepted")
	}
	if err := tab.UpdateRows(Selection{0, 1}, "n", []Value{Int(1)}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := tab.UpdateRows(Selection{0}, "nope", []Value{Int(1)}); err == nil {
		t.Fatal("unknown column accepted")
	}

	if tab.NumRows() != minChunkRows {
		t.Fatalf("failed mutations changed row count to %d", tab.NumRows())
	}
	if tab.Stamp() != before {
		t.Fatal("failed mutations advanced the stamp")
	}
	if tab.Fingerprint() != fpBefore {
		t.Fatal("failed mutations changed the fingerprint")
	}
}

func TestFingerprintChangesPerMutationOnly(t *testing.T) {
	tab := mutTable(t, minChunkRows)
	fp0 := tab.Fingerprint()
	if fp0 != tab.Fingerprint() {
		t.Fatal("fingerprint not stable")
	}
	other := mutTable(t, minChunkRows)
	if other.Fingerprint() == fp0 {
		t.Fatal("distinct tables share a fingerprint")
	}
	if err := tab.AppendRows(sampleRow(tab, 0)); err != nil {
		t.Fatal(err)
	}
	fp1 := tab.Fingerprint()
	if fp1 == fp0 {
		t.Fatal("append did not change the fingerprint")
	}
	if err := tab.UpdateRows(Selection{0}, "n", []Value{Int(42)}); err != nil {
		t.Fatal(err)
	}
	if tab.Fingerprint() == fp1 {
		t.Fatal("update did not change the fingerprint")
	}
	// Empty mutations are no-ops.
	fp2 := tab.Fingerprint()
	if err := tab.AppendRows(); err != nil {
		t.Fatal(err)
	}
	if err := tab.UpdateRows(nil, "n", nil); err != nil {
		t.Fatal(err)
	}
	if tab.Fingerprint() != fp2 {
		t.Fatal("empty mutation changed the fingerprint")
	}
}

// TestSummaryRefreshAfterMutation pins that zone maps rebuilt after
// a mutation describe the new data — and that clean chunks keep
// their entries (pointer equality on the backing slices is not
// observable, so correctness of bounds is what is checked).
func TestSummaryRefreshAfterMutation(t *testing.T) {
	tab := mutTable(t, 2*minChunkRows)
	i := 0 // column "n"
	s := tab.Summary(i)
	if _, hi := s.IntBounds(0); hi != 6 {
		t.Fatalf("initial bounds wrong: hi=%d", hi)
	}
	// Push a new maximum into chunk 0.
	if err := tab.UpdateRows(Selection{3}, "n", []Value{Int(500)}); err != nil {
		t.Fatal(err)
	}
	s = tab.Summary(i)
	if _, hi := s.IntBounds(0); hi != 500 {
		t.Fatalf("chunk 0 bounds not refreshed: hi=%d", hi)
	}
	if _, hi := s.IntBounds(1); hi != 6 {
		t.Fatalf("clean chunk 1 bounds corrupted: hi=%d", hi)
	}
	// Append rows extending the table into a new chunk with a new
	// minimum; the new chunk's bounds must appear.
	row := sampleRow(tab, 0)
	row[0] = Int(-50)
	var rows [][]Value
	for r := 0; r < minChunkRows; r++ {
		rows = append(rows, row)
	}
	if err := tab.AppendRows(rows...); err != nil {
		t.Fatal(err)
	}
	s = tab.Summary(i)
	if lo, _ := s.IntBounds(2); lo != -50 {
		t.Fatalf("appended chunk bounds wrong: lo=%d", lo)
	}
	// String summary: a new dictionary value forces a full nominal
	// rebuild sized to the grown dictionary.
	sc := tab.MustColumn("color").(*StringColumn)
	oldCard := sc.Cardinality()
	row2 := sampleRow(tab, 0)
	row2[2] = String_("chartreuse")
	if err := tab.AppendRows(row2); err != nil {
		t.Fatal(err)
	}
	if sc.Cardinality() != oldCard+1 {
		t.Fatalf("dictionary did not grow: %d", sc.Cardinality())
	}
	if s := tab.Summary(2); s == nil || !s.HasNominal() {
		t.Fatal("nominal summary missing after dict growth")
	}
}

// summaryTable builds a 26-chunk table of every summarized kind at a
// 256-row chunk width: int, float with NaN in some chunks, bool with
// single-valued chunks, a dense string column of two values per chunk
// and a sparse one whose
// 5 200-value dictionary overflows the code list in its first 20
// chunks and fits it in the rest.
func summaryTable() *Table {
	const chunk, rows = 256, 26 * 256
	ints := make([]int64, rows)
	floats := make([]float64, rows)
	bools := make([]bool, rows)
	dense := make([]string, rows)
	sparse := make([]string, rows)
	for r := range rows {
		ints[r] = int64(r%97 - 40)
		floats[r] = float64(r%13) / 4
		if r%300 == 7 {
			floats[r] = math.NaN()
		}
		bools[r] = r/chunk%3 == 0 || r%2 == 0
		dense[r] = fmt.Sprintf("d%d", r/chunk%7+r%2)
		if r < 5200 {
			sparse[r] = fmt.Sprintf("s%d", r)
		} else {
			sparse[r] = fmt.Sprintf("s%d", r%5)
		}
	}
	tab := MustNewTable("z",
		NewIntColumn("n", ints),
		NewFloatColumn("x", floats),
		NewBoolColumn("flag", bools),
		NewStringColumn("dense", dense),
		NewStringColumn("sparse", sparse),
	)
	tab.SetChunkRows(chunk)
	return tab
}

// requireSummariesMatchFullBuild holds every column's zone map, as
// Summary serves it after a mutation, to a full build of the same data:
// the cached summary is dropped and Summary rebuilt from the column.
// Rank codes are left out: a refresh keeps their boundaries by design.
func requireSummariesMatchFullBuild(t *testing.T, tab *Table, step string) {
	t.Helper()
	for i := range tab.NumCols() {
		got := *tab.Summary(i)
		tab.summaries[i].Store(nil)
		want := *tab.Summary(i)
		got.rank, want.rank = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s summary differs from a full build:\n%+v\n%+v", step, tab.Column(i).Name(), got, want)
		}
	}
}

// TestSummaryRefreshMatchesFullBuild pins the zone-map refresh for every
// summarized kind — numeric bounds, float NaN bits, bool presence,
// dense string bits and sparse or overflowed string lists: after an
// UpdateRows, and after an AppendRows that does not grow a dictionary,
// each refreshed summary equals a full build of the same data.
func TestSummaryRefreshMatchesFullBuild(t *testing.T) {
	tab := summaryTable()
	for i := range tab.NumCols() {
		if tab.Summary(i) == nil {
			t.Fatalf("column %s has no summary", tab.Column(i).Name())
		}
	}
	dense, sparse := tab.MustColumn("dense").(*StringColumn), tab.MustColumn("sparse").(*StringColumn)
	cards := [2]int{dense.Cardinality(), sparse.Cardinality()}
	if cards[0] > denseCodeDictMax || cards[1] <= denseCodeDictMax {
		t.Fatalf("dictionaries of %v values: want one dense and one sparse summary", cards)
	}
	s := tab.Summary(4)
	if !s.codeOverflow[0] || s.codeOverflow[25] {
		t.Fatal("the sparse column wants overflowed and listed chunks")
	}
	for _, u := range []struct {
		col  string
		rows Selection
		vals []Value
	}{
		{"n", Selection{3, 600}, []Value{Int(9000), Int(-9000)}},
		{"x", Selection{7, 1000, 2000}, []Value{Float(0.5), Float(math.NaN()), Float(-3)}},
		{"flag", Selection{0, 256 + 1}, []Value{Bool(false), Bool(true)}},
		{"dense", Selection{10, 3000}, []Value{String_("d7"), String_("d0")}},
		{"sparse", Selection{100, 25 * 256}, []Value{String_("s4"), String_("s4000")}},
	} {
		if err := tab.UpdateRows(u.rows, u.col, u.vals); err != nil {
			t.Fatal(err)
		}
		requireSummariesMatchFullBuild(t, tab, "update of "+u.col)
	}
	var rows [][]Value
	for r := range 300 {
		rows = append(rows, sampleRow(tab, 5200+r))
	}
	rows[0][1], rows[1][2] = Float(math.NaN()), Bool(false)
	if err := tab.AppendRows(rows...); err != nil {
		t.Fatal(err)
	}
	if got := [2]int{dense.Cardinality(), sparse.Cardinality()}; got != cards {
		t.Fatalf("the append grew the dictionaries from %v to %v", cards, got)
	}
	requireSummariesMatchFullBuild(t, tab, "append")
}

// readonlyBackend wraps MemoryBackend but is a distinct type, so the
// mutation gate must refuse it.
type readonlyBackend struct{ *MemoryBackend }

func TestMutationRefusedOffMemoryBackend(t *testing.T) {
	mb := NewMemoryBackend("ro", NewIntColumn("n", []int64{1, 2, 3}))
	tab, err := NewTableFromBackend(readonlyBackend{mb})
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.AppendRows([]Value{Int(4)}); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("append on non-memory backend: err=%v", err)
	}
	if err := tab.UpdateRows(Selection{0}, "n", []Value{Int(9)}); err == nil {
		t.Fatal("update on non-memory backend accepted")
	}
}

// TestSetChunkRowsResetsEpochWidth pins the build step: before the
// table is sealed, reading its width, chunk count and stamp seals
// nothing, a new width re-addresses the stamp and keeps its version,
// and a same-width call (after rounding) keeps the stamp.
func TestSetChunkRowsResetsEpochWidth(t *testing.T) {
	tab := mutTable(t, 4*minChunkRows)
	if err := tab.AppendRows(sampleRow(tab, 0)); err != nil {
		t.Fatal(err)
	}
	_, _, _ = tab.ChunkRows(), tab.NumChunks(), tab.Stamp()
	if err := tab.SetChunkRows(2 * minChunkRows); err != nil {
		t.Fatalf("unsealed table refused a width: %v", err)
	}
	cur := tab.Stamp()
	if tab.ChunkRows() != 2*minChunkRows || cur.NumChunks() != tab.NumChunks() || cur.NumChunks() != 3 {
		t.Fatalf("width %d, stamp over %d chunks, table %d, want %d over 3",
			tab.ChunkRows(), cur.NumChunks(), tab.NumChunks(), 2*minChunkRows)
	}
	if cur.Version() != 1 {
		t.Fatalf("version %d after a width change, want 1 (the data did not change)", cur.Version())
	}
	if err := tab.SetChunkRows(2*minChunkRows - 1); err != nil || tab.Stamp() != cur {
		t.Fatalf("same-width call changed the table (err %v)", err)
	}
}

// TestSealPointsSealOnTheirOwn pins the two seal points: the first
// AllChunked and the first zone-map build each seal the table by
// themselves, and a sealed table refuses another width.
func TestSealPointsSealOnTheirOwn(t *testing.T) {
	for name, hand := range map[string]func(*Table){
		"AllChunked":    func(tab *Table) { tab.AllChunked() },
		"Summary":       func(tab *Table) { tab.SummaryByName("n") },
		"WarmSummaries": func(tab *Table) { tab.WarmSummaries() },
	} {
		tab := mutTable(t, 4*minChunkRows)
		hand(tab)
		if err := tab.SetChunkRows(2 * minChunkRows); err == nil {
			t.Fatalf("%s did not seal the table", name)
		}
		if tab.ChunkRows() != minChunkRows {
			t.Fatalf("%s: sealed table at width %d, want %d", name, tab.ChunkRows(), minChunkRows)
		}
	}
}

// sealedTable returns a sealed table holding every column's zone map,
// and a check that it still has its width, stamp and zone maps.
func sealedTable(t *testing.T) (*Table, func(what string)) {
	t.Helper()
	tab := mutTable(t, 4*minChunkRows)
	all := tab.AllChunked()
	sums := make([]*ChunkSummary, tab.NumCols())
	for i := range sums {
		sums[i] = tab.Summary(i)
	}
	stamp := tab.Stamp()
	return tab, func(what string) {
		t.Helper()
		if tab.ChunkRows() != minChunkRows || tab.NumChunks() != 4 || tab.Stamp() != stamp {
			t.Fatalf("%s: width %d in %d chunks, stamp kept %v", what, tab.ChunkRows(), tab.NumChunks(), tab.Stamp() == stamp)
		}
		for i, s := range sums {
			if tab.Summary(i) != s {
				t.Fatalf("%s: column %d's zone map was replaced", what, i)
			}
		}
		if got := tab.AllChunked(); got.ChunkRows() != all.ChunkRows() || got.NumChunks() != all.NumChunks() {
			t.Fatalf("%s: identity at width %d in %d chunks", what, got.ChunkRows(), got.NumChunks())
		}
	}
}

// TestSealedTableKeepsItsWidth pins the sealed contract: a different
// width is refused with an error, and the table keeps its width, stamp
// and zone maps.
func TestSealedTableKeepsItsWidth(t *testing.T) {
	tab, check := sealedTable(t)
	for _, n := range []int{0, 2 * minChunkRows, maxChunkRows} {
		err := tab.SetChunkRows(n)
		if err == nil || !strings.Contains(err.Error(), "sealed") {
			t.Fatalf("sealed table took width %d (err %v)", n, err)
		}
		check(fmt.Sprintf("after SetChunkRows(%d)", n))
	}
}

// TestSetChunkRowsSameWidthIsNoOp pins that setting the width a sealed
// table already has, after rounding, succeeds and keeps its width,
// stamp and zone maps.
func TestSetChunkRowsSameWidthIsNoOp(t *testing.T) {
	tab, check := sealedTable(t)
	for _, n := range []int{minChunkRows, minChunkRows - 1, 1} {
		if err := tab.SetChunkRows(n); err != nil {
			t.Fatalf("same-width SetChunkRows(%d) refused: %v", n, err)
		}
		check(fmt.Sprintf("after same-width SetChunkRows(%d)", n))
	}
}
