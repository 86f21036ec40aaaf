package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
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
	IntCut      NumCut[int64]
	IntCounts   *IntCounts
	NarrowCut   NumCut[int64]
	Narrow      *IntCounts
	Splice      NumCut[int64]
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
	keys, lo, hi, put = gatherFloatKeys(fc, src)
	g.FloatKeys, g.FloatLo, g.FloatHi = cloneKeys(keys), lo, hi
	put()
	g.IntMedian, _ = IntMedianChunked(ic, src)
	g.IntMin, g.IntMax, _ = IntMinMaxChunked(ic, src)
	fmin, fmax, _ := FloatMinMaxChunked(fc, src)
	g.FloatMin, g.FloatMax = math.Float64bits(fmin), math.Float64bits(fmax)
	g.IntCut, g.IntCounts = IntCutChunked(ic, src, 3, true)
	g.NarrowCut, g.Narrow = IntCutChunked(narrow, src, 2, true)
	if oldNarrow != nil {
		g.Splice, _, g.SpliceOK = IntCutSplice(narrow, src, oldNarrow, dirty, 2)
	}
	fcut := FloatCutChunked(fc, src, 4)
	for _, v := range append([]float64{fcut.Min, fcut.Max}, fcut.Points...) {
		g.FloatCut = append(g.FloatCut, math.Float64bits(v))
	}
	g.StrCounts = fmt.Sprint(StringValueCountsChunked(sc, src))
	g.StrChunks = StringChunkCounts(sc, src)
	if oldStr != nil {
		g.StrSplice, _ = StringChunkCountsSplice(sc, src, oldStr, dirty)
	}
	g.BoolCounts = fmt.Sprint(BoolValueCountsChunked(bc, src))
	RowBatches(src, func(rows Selection) { g.Rows = append(g.Rows, rows...) })
	g.CountsFit = countsFit(src, 8)
	for c := 0; c < src.NumChunks(); c++ {
		g.NonEmptyLen = append(g.NonEmptyLen, src.chunkCount(c))
	}
	return g
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
			_, oldNarrow := IntCutChunked(nc, old, 2, true)
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

// sourceBenchParent is a parent of 1/den of 2^18 rows, drawn uniformly
// at random, so its words hold about 64/den bits each, over an int
// column of uniform values: as row ids and as words.
func sourceBenchParent(den int) (*IntColumn, *ChunkedSelection, *ChunkedSelection) {
	const nRows, chunkRows = 1 << 18, 1 << 16
	rng := rand.New(rand.NewSource(int64(den)))
	vals := make([]int64, nRows)
	var sel Selection
	for r := range vals {
		vals[r] = rng.Int63n(1 << 20)
		if rng.Intn(den) == 0 {
			sel = append(sel, int32(r))
		}
	}
	cs := ChunkSelection(sel, nRows, chunkRows)
	return NewIntColumn("v", vals), withForms(cs, func(int) bool { return false }), withForms(cs, func(int) bool { return true })
}

var sourceBenchDensities = []int{64, 8, 2, 1}

// BenchmarkPartitionSource times a binary median cut of an int column
// over a parent at density 1/64, 1/8, 1/2 and 1, as row ids and as
// words, on one scan worker. A words parent's word of
// at least denseWordBits bits runs the word kernel and a sparser one
// iterates its set bits, so the densities 1/8 and 1 time each kernel
// alone: their per-word costs put the crossover popcount.
func BenchmarkPartitionSource(b *testing.B) {
	defer SetScanWorkers(0)
	SetScanWorkers(1)
	for _, den := range sourceBenchDensities {
		col, cs, bm := sourceBenchParent(den)
		mid := int64(1 << 19)
		preds := []Pred{
			IntRangePred(col, IntRange{Lo: 0, Hi: mid, LoIncl: true}, nil),
			IntRangePred(col, IntRange{Lo: mid, Hi: 1 << 20, LoIncl: true, HiIncl: true}, nil),
		}
		for _, src := range []*ChunkedSelection{cs, bm} {
			b.Run(fmt.Sprintf("density=1/%d/%s", den, sourceForm(src)), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					PartitionChunked(src, preds)
				}
			})
		}
	}
}

// BenchmarkGatherSource times an exact int median cut — the key gather
// and the radix select — over the same parents as
// BenchmarkPartitionSource.
func BenchmarkGatherSource(b *testing.B) {
	defer SetScanWorkers(0)
	SetScanWorkers(1)
	for _, den := range sourceBenchDensities {
		col, cs, bm := sourceBenchParent(den)
		for _, src := range []*ChunkedSelection{cs, bm} {
			b.Run(fmt.Sprintf("density=1/%d/%s", den, sourceForm(src)), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					IntCutChunked(col, src, 2, false)
				}
			})
		}
	}
}

func sourceForm(src *ChunkedSelection) string {
	if src.Words(0) != nil {
		return "words"
	}
	return "rows"
}
