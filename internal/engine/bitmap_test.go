package engine

import (
	"math/bits"
	"math/rand"
	"testing"
)

// randSelection draws a sorted, duplicate-free selection where each
// of the nRows rows is kept with probability density.
func randSelection(rng *rand.Rand, nRows int, density float64) Selection {
	out := make(Selection, 0, int(float64(nRows)*density)+1)
	for i := 0; i < nRows; i++ {
		if rng.Float64() < density {
			out = append(out, int32(i))
		}
	}
	return out
}

// bitmapCases enumerates the adversarial shapes every property must
// hold on: empty, single-row at both ends, all-rows, dense, sparse,
// and universes straddling the 64-bit word boundary.
func bitmapCases(rng *rand.Rand) []struct {
	name  string
	nRows int
	sel   Selection
} {
	return []struct {
		name  string
		nRows int
		sel   Selection
	}{
		{"empty", 1000, Selection{}},
		{"single-first", 1000, Selection{0}},
		{"single-last", 1000, Selection{999}},
		{"all-rows", 1000, AllRows(1000)},
		{"all-rows-word-exact", 128, AllRows(128)},
		{"word-minus-one", 63, AllRows(63)},
		{"word-plus-one", 65, Selection{0, 63, 64}},
		{"dense", 10000, randSelection(rng, 10000, 0.5)},
		{"sparse", 10000, randSelection(rng, 10000, 0.01)},
		{"tiny-universe", 1, Selection{0}},
		{"run-mid-word", 1000, AllRows(900)[37:]},
		{"run-in-one-word", 1000, AllRows(70)[66:]},
	}
}

func selectionsEqual(a, b Selection) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBitmapRoundTrip pins Selection → Bitmap → Selection identity
// on every adversarial shape.
func TestBitmapRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range bitmapCases(rng) {
		b := NewBitmap(tc.sel, tc.nRows)
		if b.Count() != len(tc.sel) {
			t.Errorf("%s: Count = %d, want %d", tc.name, b.Count(), len(tc.sel))
		}
		if b.NumRows() != tc.nRows {
			t.Errorf("%s: NumRows = %d, want %d", tc.name, b.NumRows(), tc.nRows)
		}
		back := b.Selection()
		if !selectionsEqual(back, tc.sel) {
			t.Errorf("%s: round trip %v != %v", tc.name, back, tc.sel)
		}
		if !back.IsSorted() {
			t.Errorf("%s: materialized selection not sorted", tc.name)
		}
	}
}

// TestBitmapContains checks membership against the source selection.
func TestBitmapContains(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sel := randSelection(rng, 5000, 0.2)
	b := NewBitmap(sel, 5000)
	in := make(map[int32]bool, len(sel))
	for _, r := range sel {
		in[r] = true
	}
	for r := int32(0); r < 5000; r++ {
		if b.Contains(r) != in[r] {
			t.Fatalf("Contains(%d) = %v, want %v", r, b.Contains(r), in[r])
		}
	}
	if b.Contains(-1) || b.Contains(5000) {
		t.Fatal("rows outside the universe must not be contained")
	}
}

// TestBitmapAndCountMatchesIntersectCount is the core equivalence
// property: for every pair of shapes, AndCount must agree with the
// sorted-merge IntersectCount, the mixed bitmap×vector probe must
// agree too, and the materialized And must round-trip to the exact
// sorted intersection.
func TestBitmapAndCountMatchesIntersectCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := bitmapCases(rng)
	for _, ca := range cases {
		for _, cb := range cases {
			if ca.nRows != cb.nRows {
				continue
			}
			want := IntersectCount(ca.sel, cb.sel)
			ba, bb := NewBitmap(ca.sel, ca.nRows), NewBitmap(cb.sel, cb.nRows)
			if got := ba.AndCount(bb); got != want {
				t.Errorf("%s∩%s: AndCount = %d, want %d", ca.name, cb.name, got, want)
			}
			if got := bb.AndCount(ba); got != want {
				t.Errorf("%s∩%s: AndCount not symmetric: %d, want %d", cb.name, ca.name, got, want)
			}
			if got := AndCountSelection(ba, cb.sel); got != want {
				t.Errorf("%s∩%s: AndCountSelection = %d, want %d", ca.name, cb.name, got, want)
			}
			and := ba.And(bb)
			if and.Count() != want {
				t.Errorf("%s∩%s: And().Count = %d, want %d", ca.name, cb.name, and.Count(), want)
			}
			checkChunkCounts(t, ca.name+"∩"+cb.name, and)
			if !selectionsEqual(and.Selection(), Intersect(ca.sel, cb.sel)) {
				t.Errorf("%s∩%s: And().Selection() != Intersect", ca.name, cb.name)
			}
		}
	}
}

// TestBitmapAndCountRandomPairs hammers the equivalence with random
// pairs across the density spectrum.
func TestBitmapAndCountRandomPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	densities := []float64{0.001, 1.0 / 64, 0.1, 0.5, 0.95}
	for trial := 0; trial < 20; trial++ {
		nRows := 100 + rng.Intn(20000)
		da := densities[rng.Intn(len(densities))]
		db := densities[rng.Intn(len(densities))]
		a, b := randSelection(rng, nRows, da), randSelection(rng, nRows, db)
		want := IntersectCount(a, b)
		ba, bb := NewBitmap(a, nRows), NewBitmap(b, nRows)
		if got := ba.AndCount(bb); got != want {
			t.Fatalf("trial %d (n=%d da=%v db=%v): AndCount = %d, want %d", trial, nRows, da, db, got, want)
		}
		if got := AndCountSelection(ba, b); got != want {
			t.Fatalf("trial %d: AndCountSelection = %d, want %d", trial, got, want)
		}
	}
}

// TestDenseEnough pins the 1/64 crossover, including the exact
// boundary and the empty selection.
func TestDenseEnough(t *testing.T) {
	cases := []struct {
		selLen, nRows int
		want          bool
	}{
		{0, 1000, false},    // empty never packs
		{1, 64, true},       // exactly 1/64
		{1, 65, false},      // just under
		{999, 64000, false}, // just under at scale
		{1000, 64000, true}, // exactly 1/64 at scale
		{1000, 1000, true},  // full extent
		{1, 1, true},        // tiny universe
		{5, 0, true},        // degenerate empty table: any row packs
	}
	for _, tc := range cases {
		if got := DenseEnough(tc.selLen, tc.nRows); got != tc.want {
			t.Errorf("DenseEnough(%d, %d) = %v, want %v", tc.selLen, tc.nRows, got, tc.want)
		}
	}
}

// TestBitmapChunkedRoundTrip pins the materializer: Bitmap.Chunked
// returns, in the bitmap's own layout, exactly ChunkSelection of
// Bitmap.Selection — chunk for chunk, exact-length segments, empty
// chunks empty — at scan workers 1 and 4. The large shapes hold more
// than parallelScanMinRows rows over several chunks, so workers 4
// fans out; every shape ends in a partial chunk or leaves whole
// chunks empty.
func TestBitmapChunkedRoundTrip(t *testing.T) {
	defer SetScanWorkers(0)
	rng := rand.New(rand.NewSource(11))
	const chunkRows = 1 << 13
	big := 9*chunkRows + 77
	// gappy keeps every other chunk empty.
	var gappy Selection
	for _, row := range randSelection(rng, big, 0.7) {
		if int(row)/chunkRows%2 == 0 {
			gappy = append(gappy, row)
		}
	}
	cases := []struct {
		name      string
		nRows     int
		chunkRows int
		sel       Selection
	}{
		{"gappy", big, chunkRows, gappy},
		{"run-across-chunks", big, chunkRows, AllRows(3*chunkRows + 5)[chunkRows-3:]},
		{"dense-partial-last", big, chunkRows, randSelection(rng, big, 0.6)},
		{"all-rows", big, chunkRows, AllRows(big)},
		{"last-row-only", big, chunkRows, Selection{int32(big - 1)}},
		{"empty", big, chunkRows, Selection{}},
		{"one-chunk", 1000, chunkRows, randSelection(rng, 1000, 0.5)},
		{"odd-width", 1000, 100, randSelection(rng, 1000, 0.3)},
	}
	for _, workers := range []int{1, 4} {
		SetScanWorkers(workers)
		for _, c := range cases {
			bm := NewBitmapChunked(ChunkSelection(c.sel, c.nRows, c.chunkRows))
			got := bm.Chunked()
			want := ChunkSelection(bm.Selection(), c.nRows, c.chunkRows)
			if got.NumRows() != c.nRows || got.ChunkRows() != c.chunkRows || got.NumChunks() != want.NumChunks() || got.Len() != len(c.sel) {
				t.Fatalf("workers %d, %s: materialized %d rows in %d chunks of %d, want %d in %d of %d",
					workers, c.name, got.Len(), got.NumChunks(), got.ChunkRows(), len(c.sel), want.NumChunks(), c.chunkRows)
			}
			for k := 0; k < want.NumChunks(); k++ {
				if g := got.Seg(k); !selectionsEqual(g, want.Seg(k)) || cap(g) != len(g) {
					t.Fatalf("workers %d, %s: chunk %d holds %d rows (cap %d), want %d", workers, c.name, k, len(g), cap(g), len(want.Seg(k)))
				}
			}
			if !selectionsEqual(got.Flat(), c.sel) {
				t.Fatalf("workers %d, %s: flat view differs from the packed selection", workers, c.name)
			}
		}
	}
}

// TestSpliceBitmapMatchesRepack holds SpliceBitmap to packing the
// spliced selection afresh — clean chunks from the old bitmap, dirty
// and new ones from the fresh — words and Count alike, after the
// universe grew past the old bitmap's partial last chunk.
func TestSpliceBitmapMatchesRepack(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const chunkRows = 256
	for trial := 0; trial < 50; trial++ {
		oldRows := 1 + rng.Intn(8*chunkRows)
		newRows := oldRows + rng.Intn(3*chunkRows)
		old := ChunkSelection(randSelection(rng, oldRows, rng.Float64()), oldRows, chunkRows)
		fresh := ChunkSelection(randSelection(rng, newRows, rng.Float64()), newRows, chunkRows)
		dirty := make([]bool, fresh.NumChunks())
		for c := range dirty {
			// The old partial last chunk changed when rows were added.
			grown := c == old.NumChunks()-1 && newRows > oldRows && oldRows%chunkRows != 0
			dirty[c] = c >= old.NumChunks() || grown || rng.Intn(3) == 0
		}
		got := SpliceBitmap(NewBitmapChunked(old), NewBitmapChunked(fresh), dirty)
		want := NewBitmapChunked(SpliceChunked(old, fresh, dirty))
		if got.Count() != want.Count() || got.NumRows() != want.NumRows() || !selectionsEqual(got.Selection(), want.Selection()) {
			t.Fatalf("trial %d: spliced bitmap holds %d rows, repacked %d", trial, got.Count(), want.Count())
		}
		checkChunkCounts(t, "spliced", got)
		checkChunkCounts(t, "restricted", Restrict(got, dirty).(*Bitmap))
	}
}

// checkChunkCounts holds every chunk's cached row count to the bits
// its words set, and every chunk without a row to nil words.
func checkChunkCounts(t *testing.T, name string, b *Bitmap) {
	t.Helper()
	for c, words := range b.chunks {
		n := 0
		for _, w := range words {
			n += bits.OnesCount64(w)
		}
		if int(b.counts[c]) != n || (n == 0) != (words == nil) {
			t.Fatalf("%s: chunk %d counts %d rows, its words %d (nil %v)", name, c, b.counts[c], n, words == nil)
		}
	}
}
