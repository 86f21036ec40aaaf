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

// withForms returns cs's rows with chunk c held as words when words(c)
// and as row ids otherwise — a form the storage rule may not pick, so
// every reader is held to both forms at every density.
func withForms(cs *ChunkedSelection, words func(c int) bool) *ChunkedSelection {
	out := emptyLike(cs)
	for c := range cs.chunks {
		rows := cs.Seg(c)
		switch {
		case len(rows) == 0:
		case words(c):
			w := make([]uint64, (cs.chunkLen(c)+63)>>6)
			setSegBits(w, rows, int32(c*cs.chunkRows))
			out.chunks[c] = container{words: w, n: len(rows)}
		default:
			out.chunks[c] = container{rows: rows, n: len(rows)}
		}
	}
	return out.seal()
}

// formsOf returns cs as the storage rule built it, with every chunk as
// row ids, with every chunk as words, and with the forms mixed chunk by
// chunk.
func formsOf(cs *ChunkedSelection, rng *rand.Rand) map[string]*ChunkedSelection {
	return map[string]*ChunkedSelection{
		"rule":  cs,
		"rows":  withForms(cs, func(int) bool { return false }),
		"words": withForms(cs, func(int) bool { return true }),
		"mixed": withForms(cs, func(int) bool { return rng.Intn(2) == 0 }),
	}
}

// checkRule holds every chunk of cs to the storage rule: words exactly
// when denseEnough, row ids otherwise, neither when empty, and the
// chunk's count equal to the rows its form holds.
func checkRule(t testing.TB, name string, cs *ChunkedSelection) {
	t.Helper()
	total := 0
	for c, ct := range cs.chunks {
		n := len(ct.rows)
		for _, w := range ct.words {
			n += bits.OnesCount64(w)
		}
		wantWords := denseEnough(ct.n, cs.chunkLen(c))
		if n != ct.n || (ct.words != nil) != wantWords || (ct.rows != nil) != (ct.n > 0 && !wantWords) {
			t.Fatalf("%s: chunk %d of %d rows holds %d rows, words %v (%d), rows %v (%d): not its smaller form",
				name, c, cs.chunkLen(c), ct.n, ct.words != nil, n, ct.rows != nil, len(ct.rows))
		}
		total += n
	}
	if total != cs.Len() {
		t.Fatalf("%s: chunks hold %d rows, Len %d", name, total, cs.Len())
	}
}

// TestBitmapRoundTrip pins Selection → ChunkedSelection → Flat
// identity on every adversarial shape, with every chunk in its rule
// form and forced into either form.
func TestBitmapRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range bitmapCases(rng) {
		for _, chunkRows := range []int{64, DefaultChunkRows} {
			cs := ChunkSelection(tc.sel, tc.nRows, chunkRows)
			checkRule(t, tc.name, cs)
			for form, b := range formsOf(cs, rng) {
				name := fmt.Sprintf("%s/%d/%s", tc.name, chunkRows, form)
				if b.Len() != len(tc.sel) || b.NumRows() != tc.nRows {
					t.Errorf("%s: Len %d NumRows %d, want %d %d", name, b.Len(), b.NumRows(), len(tc.sel), tc.nRows)
				}
				if back := b.Flat(); !selectionsEqual(back, tc.sel) || !back.IsSorted() {
					t.Errorf("%s: round trip %v != %v", name, back, tc.sel)
				}
			}
		}
	}
}

// TestBitmapContains checks membership against the source selection:
// a one-row selection intersects cs in one row exactly when cs holds
// it, whichever form either chunk is in.
func TestBitmapContains(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const nRows, chunkRows = 5000, 1024
	sel := randSelection(rng, nRows, 0.2)
	in := make(map[int32]bool, len(sel))
	for _, r := range sel {
		in[r] = true
	}
	for form, b := range formsOf(ChunkSelection(sel, nRows, chunkRows), rng) {
		for r := int32(0); r < nRows; r++ {
			one := ChunkSelection(Selection{r}, nRows, chunkRows)
			for oneForm, o := range formsOf(one, rng) {
				if got := b.AndCount(o); (got == 1) != in[r] || got > 1 {
					t.Fatalf("%s ∩ {%d} as %s = %d, want member %v", form, r, oneForm, got, in[r])
				}
			}
		}
		if b.AndCount(ChunkSelection(Selection{nRows}, nRows+1, chunkRows)) != 0 {
			t.Fatalf("%s: a row outside the universe must not be contained", form)
		}
	}
}

// TestBitmapAndCountMatchesIntersectCount is the core equivalence
// property: for every pair of shapes and every pair of forms, AndCount
// agrees with the sorted-merge IntersectCount, both ways round.
func TestBitmapAndCountMatchesIntersectCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := bitmapCases(rng)
	for _, ca := range cases {
		for _, cb := range cases {
			if ca.nRows != cb.nRows {
				continue
			}
			want := IntersectCount(ca.sel, cb.sel)
			fa, fb := formsOf(ChunkSelection(ca.sel, ca.nRows, 64), rng), formsOf(ChunkSelection(cb.sel, cb.nRows, 64), rng)
			for na, a := range fa {
				for nb, b := range fb {
					if got := a.AndCount(b); got != want {
						t.Errorf("%s(%s)∩%s(%s): AndCount = %d, want %d", ca.name, na, cb.name, nb, got, want)
					}
					if got := b.AndCount(a); got != want {
						t.Errorf("%s(%s)∩%s(%s): AndCount not symmetric: %d, want %d", cb.name, nb, ca.name, na, got, want)
					}
				}
			}
		}
	}
}

// TestBitmapAndCountRandomPairs hammers the equivalence with random
// pairs across the density spectrum, in rule and mixed forms.
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
		for _, pair := range [][2]*ChunkedSelection{{ca, cb}, {formsOf(ca, rng)["mixed"], formsOf(cb, rng)["mixed"]}} {
			if got := pair[0].AndCount(pair[1]); got != want {
				t.Fatalf("trial %d (n=%d da=%v db=%v): AndCount = %d, want %d", trial, nRows, da, db, got, want)
			}
		}
	}
}

// TestDenseEnough pins the storage rule: words iff 4·n ≥
// 8·⌈lenC/64⌉, at the exact boundary, on a partial chunk, and never
// for an empty one.
func TestDenseEnough(t *testing.T) {
	cases := []struct {
		n, lenC int
		want    bool
	}{
		{0, 64, false},         // empty holds neither form
		{1, 64, false},         // 4 B of row ids < one 8 B word
		{2, 64, true},          // equal: words
		{4095, 1 << 17, false}, // just under 1/32 at scale
		{4096, 1 << 17, true},  // exactly 1/32 at scale
		{1, 1, false},          // one row in a one-row chunk
		{2, 65, false},         // 65 rows take two words
		{4, 65, true},          // the partial word counts whole
		{7, 200, false},        // a partial chunk: 4 words, not chunkRows'
		{8, 200, true},
	}
	for _, tc := range cases {
		if got := denseEnough(tc.n, tc.lenC); got != tc.want {
			t.Errorf("denseEnough(%d, %d) = %v, want %v", tc.n, tc.lenC, got, tc.want)
		}
	}
}

// TestBitmapChunkedRoundTrip pins the per-chunk views: Seg returns, in
// every form, exactly chunk k's rows of the flat selection at exact
// length, empty chunks empty, and Flat the whole selection — at scan
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
			cs := ChunkSelection(c.sel, c.nRows, c.chunkRows)
			checkRule(t, c.name, cs)
			for form, got := range formsOf(cs, rng) {
				if got.NumRows() != c.nRows || got.ChunkRows() != c.chunkRows || got.Len() != len(c.sel) {
					t.Fatalf("workers %d, %s (%s): %d rows in chunks of %d, want %d", workers, c.name, form, got.Len(), got.ChunkRows(), len(c.sel))
				}
				var each Selection
				EachRow(got, func(row int) { each = append(each, int32(row)) })
				if !selectionsEqual(got.Flat(), c.sel) || !selectionsEqual(each, c.sel) {
					t.Fatalf("workers %d, %s (%s): flat view or rows read one by one differ from the selection", workers, c.name, form)
				}
				at := 0
				for k := 0; k < got.NumChunks(); k++ {
					g := got.Seg(k)
					if !selectionsEqual(g, c.sel[at:at+len(g)]) || cap(g) != len(g) {
						t.Fatalf("workers %d, %s (%s): chunk %d holds %d rows (cap %d)", workers, c.name, form, k, len(g), cap(g))
					}
					for _, row := range g {
						if int(row)/c.chunkRows != k {
							t.Fatalf("workers %d, %s (%s): row %d filed in chunk %d", workers, c.name, form, row, k)
						}
					}
					at += len(g)
				}
			}
		}
	}
}

// TestSpliceBitmapMatchesRepack holds Splice to building the spliced
// selection afresh — clean chunks from the old selection, dirty and new
// ones from the fresh — rows and Len alike, after the universe grew
// past the old selection's partial last chunk, with both inputs in rule
// and mixed forms. Restrict keeps exactly the dirty chunks.
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
				want = append(want, fresh.Seg(c)...)
			} else {
				want = append(want, old.Seg(c)...)
			}
		}
		for _, in := range [][2]*ChunkedSelection{{old, fresh}, {formsOf(old, rng)["mixed"], formsOf(fresh, rng)["mixed"]}} {
			got := Splice(in[0], in[1], dirty)
			if got.Len() != len(want) || got.NumRows() != newRows || !selectionsEqual(got.Flat(), want) {
				t.Fatalf("trial %d: spliced selection holds %d rows, want %d", trial, got.Len(), len(want))
			}
			r := Restrict(got, dirty)
			n := 0
			for c, d := range dirty {
				if d {
					n += len(got.Seg(c))
				} else if r.chunkCount(c) != 0 {
					t.Fatalf("trial %d: Restrict kept clean chunk %d", trial, c)
				}
			}
			if r.Len() != n {
				t.Fatalf("trial %d: Restrict holds %d rows, dirty chunks %d", trial, r.Len(), n)
			}
		}
		checkRule(t, "spliced", Splice(old, fresh, dirty))
	}
}

// TestAndCountFormPairs is AndCount's table: every pair of chunk forms
// — words × words, words × row ids, row ids × words, row ids × row
// ids, empty × either — each held to IntersectCount of the two flat
// views.
func TestAndCountFormPairs(t *testing.T) {
	const nRows, chunkRows = 700, 256 // the last chunk is partial
	rng := rand.New(rand.NewSource(40))
	dense := ChunkSelection(randSelection(rng, nRows, 0.6), nRows, chunkRows)
	other := ChunkSelection(randSelection(rng, nRows, 0.5), nRows, chunkRows)
	sparse := ChunkSelection(randSelection(rng, nRows, 0.02), nRows, chunkRows)
	empty := ChunkSelection(nil, nRows, chunkRows)
	rows := func(cs *ChunkedSelection) *ChunkedSelection { return withForms(cs, func(int) bool { return false }) }
	words := func(cs *ChunkedSelection) *ChunkedSelection { return withForms(cs, func(int) bool { return true }) }
	cases := []struct {
		name string
		a, b *ChunkedSelection
	}{
		{"words×words", dense, other},
		{"words×rows", dense, sparse},
		{"rows×words", sparse, dense},
		{"rows×rows", sparse, rows(other)},
		{"dense rows×rows", rows(dense), rows(other)},
		{"sparse words×words", words(sparse), dense},
		{"empty×words", empty, dense},
		{"empty×rows", empty, sparse},
		{"words×empty", dense, empty},
		{"grown universe", dense, ChunkSelection(randSelection(rng, nRows+300, 0.5), nRows+300, chunkRows)},
	}
	for _, tc := range cases {
		want := IntersectCount(tc.a.Flat(), tc.b.Flat())
		if got := tc.a.AndCount(tc.b); got != want {
			t.Errorf("%s: AndCount = %d, want %d", tc.name, got, want)
		}
	}
	if dense.Words(0) == nil || sparse.Words(0) != nil {
		t.Fatal("fixture: the dense side must hold words and the sparse side row ids")
	}
}
