package colfile

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"charles/internal/engine"
)

// testTable builds a deterministic table exercising every storable
// kind (§5): ints, dates, floats with NaN rows, a small-dictionary
// string column, a high-cardinality string column, and bools.
func testTable(t *testing.T, rows int, seed int64) *engine.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ints := make([]int64, rows)
	days := make([]int64, rows)
	floats := make([]float64, rows)
	small := make([]string, rows)
	wide := make([]string, rows)
	bools := make([]bool, rows)
	cities := []string{"amsterdam", "batavia", "cape town", "galle", "texel"}
	for i := 0; i < rows; i++ {
		ints[i] = rng.Int63n(2000) - 500
		days[i] = 10000 + rng.Int63n(4000)
		if rng.Intn(17) == 0 {
			floats[i] = math.NaN()
		} else {
			floats[i] = rng.NormFloat64() * 40
		}
		small[i] = cities[rng.Intn(len(cities))]
		wide[i] = "v" + string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26)))
		bools[i] = rng.Intn(3) == 0
	}
	tab, err := engine.NewTable("roundtrip",
		engine.NewIntColumn("tonnage", ints),
		engine.NewDateColumn("departure", days),
		engine.NewFloatColumn("latitude", floats),
		engine.NewStringColumn("harbour", small),
		engine.NewStringColumn("captain", wide),
		engine.NewBoolColumn("lost", bools),
	)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// writeOpen writes tab and reopens it through the mmap path.
func writeOpen(t *testing.T, tab *engine.Table, opts WriteOptions) (*File, *engine.Table) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "table"+Extension)
	if err := Write(path, tab, opts); err != nil {
		t.Fatalf("write: %v", err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	got, err := engine.NewTableFromBackend(f)
	if err != nil {
		t.Fatalf("table from backend: %v", err)
	}
	return f, got
}

// sameValue compares values with NaN-aware float equality.
func sameValue(a, b engine.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == engine.KindFloat {
		af, bf := a.AsFloat(), b.AsFloat()
		return af == bf || (math.IsNaN(af) && math.IsNaN(bf))
	}
	return a.Equal(b)
}

// TestRoundTripValues pins §5 (value pages), §6 (dictionary) and §8
// (footer schema): every cell read back through the mmap view must
// equal the cell that was written, at several chunk widths including
// ones that leave a partial tail chunk.
func TestRoundTripValues(t *testing.T) {
	const rows = 5000
	want := testTable(t, rows, 1)
	for _, chunkRows := range []int{0, 512, 4096} {
		f, got := writeOpen(t, want, WriteOptions{ChunkRows: chunkRows})
		if got.Name() != want.Name() {
			t.Fatalf("chunkRows=%d: table name %q, want %q", chunkRows, got.Name(), want.Name())
		}
		if got.NumRows() != rows || got.NumCols() != want.NumCols() {
			t.Fatalf("chunkRows=%d: got %dx%d, want %dx%d",
				chunkRows, got.NumRows(), got.NumCols(), rows, want.NumCols())
		}
		wantWidth := engine.NormalizeChunkRows(chunkRows)
		if chunkRows == 0 {
			wantWidth = want.ChunkRows()
		}
		if f.NativeChunkRows() != wantWidth {
			t.Fatalf("chunkRows=%d: file width %d, want %d", chunkRows, f.NativeChunkRows(), wantWidth)
		}
		for ci := 0; ci < want.NumCols(); ci++ {
			wc, gc := want.Column(ci), got.Column(ci)
			if wc.Name() != gc.Name() || wc.Kind() != gc.Kind() {
				t.Fatalf("column %d: got %q/%v, want %q/%v", ci, gc.Name(), gc.Kind(), wc.Name(), wc.Kind())
			}
			for r := 0; r < rows; r++ {
				if !sameValue(wc.Value(r), gc.Value(r)) {
					t.Fatalf("chunkRows=%d: column %q row %d: got %v, want %v",
						chunkRows, wc.Name(), r, gc.Value(r), wc.Value(r))
				}
			}
		}
		if err := f.Verify(); err != nil {
			t.Fatalf("verify clean file: %v", err)
		}
	}
}

// TestClusterByReorders pins WriteOptions.ClusterBy: the clustered
// file holds the same multiset of rows sorted by the cluster column
// (NaN floats last), and records the column in its footer.
func TestClusterByReorders(t *testing.T) {
	want := testTable(t, 4000, 3)
	f, got := writeOpen(t, want, WriteOptions{ChunkRows: 512, ClusterBy: "tonnage"})
	if f.ClusterBy() != "tonnage" {
		t.Fatalf("footer cluster_by = %q, want tonnage", f.ClusterBy())
	}
	key := got.MustColumn("tonnage").(*engine.IntColumn).Int64s()
	for i := 1; i < len(key); i++ {
		if key[i-1] > key[i] {
			t.Fatalf("cluster column not sorted at row %d: %d > %d", i, key[i-1], key[i])
		}
	}
	// Every column must hold the same multiset as the source.
	for ci := 0; ci < want.NumCols(); ci++ {
		wc, gc := want.Column(ci), got.Column(ci)
		ws := make([]string, want.NumRows())
		gs := make([]string, want.NumRows())
		for r := range ws {
			ws[r] = wc.Value(r).String()
			gs[r] = gc.Value(r).String()
		}
		sort.Strings(ws)
		sort.Strings(gs)
		for r := range ws {
			if ws[r] != gs[r] {
				t.Fatalf("column %q: clustered multiset diverged at sorted position %d: %q vs %q",
					wc.Name(), r, gs[r], ws[r])
			}
		}
	}
}

// TestClusterByFloatNaNLast pins the cluster ordering rule for float
// keys: finite values ascend, NaN rows sink to the end.
func TestClusterByFloatNaNLast(t *testing.T) {
	vals := []float64{3, math.NaN(), -1, 2.5, math.NaN(), 0}
	tab, err := engine.NewTable("nan",
		engine.NewFloatColumn("x", vals),
		engine.NewIntColumn("id", []int64{0, 1, 2, 3, 4, 5}),
	)
	if err != nil {
		t.Fatal(err)
	}
	_, got := writeOpen(t, tab, WriteOptions{ClusterBy: "x"})
	xc := got.MustColumn("x").(*engine.FloatColumn)
	x := make([]float64, xc.Len())
	for i := range x {
		x[i] = xc.Float64(i)
	}
	wantOrder := []float64{-1, 0, 2.5, 3, math.NaN(), math.NaN()}
	for i, w := range wantOrder {
		if math.IsNaN(w) != math.IsNaN(x[i]) || (!math.IsNaN(w) && w != x[i]) {
			t.Fatalf("clustered floats[%d] = %v, want %v (full: %v)", i, x[i], w, x)
		}
	}
}

// TestRoundTripEmptyTable pins the zero-row edge: a rows=0 file has
// no pages (§5) but must round-trip its schema.
func TestRoundTripEmptyTable(t *testing.T) {
	tab, err := engine.NewTable("empty",
		engine.NewIntColumn("a", nil),
		engine.NewStringColumn("b", nil),
	)
	if err != nil {
		t.Fatal(err)
	}
	f, got := writeOpen(t, tab, WriteOptions{})
	if got.NumRows() != 0 || got.NumCols() != 2 {
		t.Fatalf("got %dx%d, want 0x2", got.NumRows(), got.NumCols())
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("verify empty table: %v", err)
	}
}

// TestRoundTripFloatCanonicalValues pins the float data rule (§5.1):
// the writer stores +0 for either zero and math.NaN()'s pattern for
// every NaN, every other value bit-exact; a reader accepts any pattern
// — as a file written before the rule holds them — and reads back
// those same canonical values.
func TestRoundTripFloatCanonicalValues(t *testing.T) {
	sub := math.SmallestNonzeroFloat64
	in := []float64{
		math.Copysign(0, -1), 0, math.NaN(),
		math.Float64frombits(0xfff8000000000001), math.Float64frombits(0x7ff0000000000001),
		math.Inf(1), math.Inf(-1), sub, -sub, math.MaxFloat64, -math.MaxFloat64, 1.5, -2.25,
	}
	canonical := func(v float64) uint64 {
		switch {
		case v == 0:
			return 0
		case v != v:
			return math.Float64bits(math.NaN())
		}
		return math.Float64bits(v)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "canon"+Extension)
	if err := Write(path, engine.MustNewTable("canon", engine.NewFloatColumn("x", slices.Clone(in))), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	region := f.ft.Columns[0].Data
	f.Close()
	data := raw[region.Offset : region.Offset+region.Length]
	for r, v := range in {
		if got := binary.LittleEndian.Uint64(data[8*r:]); got != canonical(v) {
			t.Fatalf("row %d (%#x): file stores %#x, want %#x", r, math.Float64bits(v), got, canonical(v))
		}
	}
	// The same file with the raw patterns in its data region.
	for r, v := range in {
		binary.LittleEndian.PutUint64(data[8*r:], math.Float64bits(v))
	}
	old := filepath.Join(dir, "old"+Extension)
	if err := os.WriteFile(old, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{path, old} {
		g, err := Open(p)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := engine.NewTableFromBackend(g)
		if err != nil {
			t.Fatal(err)
		}
		x := tab.MustColumn("x").(*engine.FloatColumn)
		for r, v := range in {
			if got := math.Float64bits(x.Float64(r)); got != canonical(v) {
				t.Fatalf("%s row %d (%#x): read back %#x, want %#x", filepath.Base(p), r, math.Float64bits(v), got, canonical(v))
			}
		}
		g.Close()
	}
}
