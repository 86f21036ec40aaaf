package engine

import (
	"fmt"
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

// segOf returns chunk c's rows of cs, decoded from its words at exact
// length: nil when the chunk is empty.
func segOf(cs *ChunkedSelection, c int) Selection {
	ct := cs.chunks[c]
	if ct.n == 0 {
		return nil
	}
	seg := make(Selection, ct.n)
	decodeWords(seg, ct.words, int32(c*cs.chunkRows))
	return seg
}

// checkWords holds every chunk of cs to the one form: a non-empty
// chunk holds the words of all its rows, an empty one none, and each
// chunk's count is its words' popcount.
func checkWords(t testing.TB, name string, cs *ChunkedSelection) {
	t.Helper()
	total := 0
	for c, ct := range cs.chunks {
		n := 0
		for _, w := range ct.words {
			n += bits.OnesCount64(w)
		}
		wantLen := 0
		if ct.n > 0 {
			wantLen = (cs.chunkLen(c) + 63) >> 6
		}
		if n != ct.n || len(ct.words) != wantLen || (ct.words == nil) != (ct.n == 0) {
			t.Fatalf("%s: chunk %d of %d rows counts %d rows and holds %d words (%d set), want %d words",
				name, c, cs.chunkLen(c), ct.n, len(ct.words), n, wantLen)
		}
		total += n
	}
	if total != cs.Len() {
		t.Fatalf("%s: chunks hold %d rows, Len %d", name, total, cs.Len())
	}
}

// TestBitmapRoundTrip pins Selection → ChunkedSelection → Flat
// identity on every adversarial shape.
func TestBitmapRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range bitmapCases(rng) {
		for _, chunkRows := range []int{64, DefaultChunkRows} {
			b := ChunkSelection(tc.sel, tc.nRows, chunkRows)
			name := fmt.Sprintf("%s/%d", tc.name, chunkRows)
			checkWords(t, name, b)
			if b.Len() != len(tc.sel) || b.NumRows() != tc.nRows {
				t.Errorf("%s: Len %d NumRows %d, want %d %d", name, b.Len(), b.NumRows(), len(tc.sel), tc.nRows)
			}
			if back := b.Flat(); !selectionsEqual(back, tc.sel) || !back.IsSorted() {
				t.Errorf("%s: round trip %v != %v", name, back, tc.sel)
			}
		}
	}
}

// TestBitmapContains checks membership against the source selection:
// a one-row selection intersects cs in one row exactly when cs holds
// it.
func TestBitmapContains(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const nRows, chunkRows = 5000, 1024
	sel := randSelection(rng, nRows, 0.2)
	in := make(map[int32]bool, len(sel))
	for _, r := range sel {
		in[r] = true
	}
	b := ChunkSelection(sel, nRows, chunkRows)
	for r := int32(0); r < nRows; r++ {
		one := ChunkSelection(Selection{r}, nRows, chunkRows)
		if got := b.AndCount(one); (got == 1) != in[r] || got > 1 {
			t.Fatalf("sel ∩ {%d} = %d, want member %v", r, got, in[r])
		}
	}
	if b.AndCount(ChunkSelection(Selection{nRows}, nRows+1, chunkRows)) != 0 {
		t.Fatal("a row outside the universe must not be contained")
	}
}

// TestBitmapAndCountMatchesIntersectCount is the core equivalence
// property: for every pair of shapes, AndCount agrees with the
// sorted-merge IntersectCount, both ways round.
func TestBitmapAndCountMatchesIntersectCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := bitmapCases(rng)
	for _, ca := range cases {
		for _, cb := range cases {
			if ca.nRows != cb.nRows {
				continue
			}
			want := IntersectCount(ca.sel, cb.sel)
			a, b := ChunkSelection(ca.sel, ca.nRows, 64), ChunkSelection(cb.sel, cb.nRows, 64)
			if got := a.AndCount(b); got != want {
				t.Errorf("%s∩%s: AndCount = %d, want %d", ca.name, cb.name, got, want)
			}
			if got := b.AndCount(a); got != want {
				t.Errorf("%s∩%s: AndCount not symmetric: %d, want %d", cb.name, ca.name, got, want)
			}
		}
	}
}

// TestBitmapAndCountRandomPairs hammers the equivalence with random
// pairs across the density spectrum.
func TestBitmapAndCountRandomPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	densities := []float64{0.001, 1.0 / 32, 0.1, 0.5, 0.95}
	for trial := 0; trial < 20; trial++ {
		nRows := 100 + rng.Intn(20000)
		da := densities[rng.Intn(len(densities))]
		db := densities[rng.Intn(len(densities))]
		a, b := randSelection(rng, nRows, da), randSelection(rng, nRows, db)
		want := IntersectCount(a, b)
		ca, cb := ChunkSelection(a, nRows, 1024), ChunkSelection(b, nRows, 1024)
		if got := ca.AndCount(cb); got != want {
			t.Fatalf("trial %d (n=%d da=%v db=%v): AndCount = %d, want %d", trial, nRows, da, db, got, want)
		}
	}
}

// TestBitmapChunkedRoundTrip pins the per-chunk views: chunk k's words
// hold exactly chunk k's rows of the flat selection, empty chunks none,
// and Flat and EachRow the whole selection — at scan
// workers 1 and 4. The large shapes hold more than parallelScanMinRows
// rows over several chunks; every shape ends in a partial chunk or
// leaves whole chunks empty.
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
			got := ChunkSelection(c.sel, c.nRows, c.chunkRows)
			checkWords(t, c.name, got)
			if got.NumRows() != c.nRows || got.ChunkRows() != c.chunkRows || got.Len() != len(c.sel) {
				t.Fatalf("workers %d, %s: %d rows in chunks of %d, want %d", workers, c.name, got.Len(), got.ChunkRows(), len(c.sel))
			}
			var each Selection
			EachRow(got, func(row int) { each = append(each, int32(row)) })
			if !selectionsEqual(got.Flat(), c.sel) || !selectionsEqual(each, c.sel) {
				t.Fatalf("workers %d, %s: flat view or rows read one by one differ from the selection", workers, c.name)
			}
			at := 0
			for k := 0; k < got.NumChunks(); k++ {
				g := segOf(got, k)
				if !selectionsEqual(g, c.sel[at:at+len(g)]) {
					t.Fatalf("workers %d, %s: chunk %d holds %d rows", workers, c.name, k, len(g))
				}
				for _, row := range g {
					if int(row)/c.chunkRows != k {
						t.Fatalf("workers %d, %s: row %d filed in chunk %d", workers, c.name, row, k)
					}
				}
				at += len(g)
			}
		}
	}
}

// TestSpliceBitmapMatchesRepack holds Splice to building the spliced
// selection afresh — clean chunks from the old selection, dirty and new
// ones from the fresh — rows and Len alike, after the universe grew
// past the old selection's partial last chunk. Restrict keeps exactly
// the dirty chunks.
func TestSpliceBitmapMatchesRepack(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const chunkRows = 256
	for trial := 0; trial < 50; trial++ {
		oldRows := 1 + rng.Intn(8*chunkRows)
		newRows := oldRows + rng.Intn(3*chunkRows)
		old := ChunkSelection(randSelection(rng, oldRows, rng.Float64()/8), oldRows, chunkRows)
		fresh := ChunkSelection(randSelection(rng, newRows, rng.Float64()), newRows, chunkRows)
		dirty := make([]bool, fresh.NumChunks())
		for c := range dirty {
			// The old partial last chunk changed when rows were added.
			grown := c == old.NumChunks()-1 && newRows > oldRows && oldRows%chunkRows != 0
			dirty[c] = c >= old.NumChunks() || grown || rng.Intn(3) == 0
		}
		var want Selection
		for c := range dirty {
			if dirty[c] {
				want = append(want, segOf(fresh, c)...)
			} else {
				want = append(want, segOf(old, c)...)
			}
		}
		got := Splice(old, fresh, dirty)
		checkWords(t, "spliced", got)
		if got.Len() != len(want) || got.NumRows() != newRows || !selectionsEqual(got.Flat(), want) {
			t.Fatalf("trial %d: spliced selection holds %d rows, want %d", trial, got.Len(), len(want))
		}
		r := Restrict(got, dirty)
		n := 0
		for c, d := range dirty {
			if d {
				n += got.chunkCount(c)
			} else if r.chunkCount(c) != 0 {
				t.Fatalf("trial %d: Restrict kept clean chunk %d", trial, c)
			}
		}
		if r.Len() != n {
			t.Fatalf("trial %d: Restrict holds %d rows, dirty chunks %d", trial, r.Len(), n)
		}
	}
}

// TestAndCountChunkPairs is AndCount's table: every pair of chunk
// shapes — dense × dense, dense × sparse words of a bit or two, sparse
// × sparse, empty × either, and a universe grown past the other's
// partial last chunk — each held to IntersectCount of the two flat
// views.
func TestAndCountChunkPairs(t *testing.T) {
	const nRows, chunkRows = 700, 256 // the last chunk is partial
	rng := rand.New(rand.NewSource(40))
	dense := ChunkSelection(randSelection(rng, nRows, 0.6), nRows, chunkRows)
	other := ChunkSelection(randSelection(rng, nRows, 0.5), nRows, chunkRows)
	sparse := ChunkSelection(randSelection(rng, nRows, 0.02), nRows, chunkRows)
	sparse2 := ChunkSelection(randSelection(rng, nRows, 0.03), nRows, chunkRows)
	empty := ChunkSelection(nil, nRows, chunkRows)
	cases := []struct {
		name string
		a, b *ChunkedSelection
	}{
		{"dense×dense", dense, other},
		{"dense×sparse", dense, sparse},
		{"sparse×dense", sparse, dense},
		{"sparse×sparse", sparse, sparse2},
		{"empty×dense", empty, dense},
		{"empty×sparse", empty, sparse},
		{"dense×empty", dense, empty},
		{"grown universe", dense, ChunkSelection(randSelection(rng, nRows+300, 0.5), nRows+300, chunkRows)},
	}
	for _, tc := range cases {
		want := IntersectCount(tc.a.Flat(), tc.b.Flat())
		if got := tc.a.AndCount(tc.b); got != want {
			t.Errorf("%s: AndCount = %d, want %d", tc.name, got, want)
		}
	}
}
