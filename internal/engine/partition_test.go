package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

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
// words, on one scan worker: without the cover promise, where each
// piece runs its own kernel, and under it (covered/), where the second
// piece is the parent less the first. A words parent's word of at
// least denseWordBits bits runs the word kernel and a sparser one
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
		for _, cover := range []bool{false, true} {
			prefix := ""
			if cover {
				prefix = "covered/"
			}
			for _, src := range []*ChunkedSelection{cs, bm} {
				b.Run(fmt.Sprintf("%sdensity=1/%d/%s", prefix, den, sourceForm(src)), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						PartitionChunked(src, preds, cover)
					}
				})
			}
		}
	}
}

func sourceForm(src *ChunkedSelection) string {
	if src.Words(0) != nil {
		return "words"
	}
	return "rows"
}
