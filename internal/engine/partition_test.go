package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

// sourceBenchParent is a parent of 1/den of 2^18 rows, drawn uniformly
// at random, so its words hold about 64/den bits each, over an int
// column of uniform values.
func sourceBenchParent(den int) (*IntColumn, *ChunkedSelection) {
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
	return NewIntColumn("v", vals), ChunkSelection(sel, nRows, chunkRows)
}

var sourceBenchDensities = []int{64, 8, 2, 1}

// BenchmarkPartitionSource times a binary median cut of an int column
// over a parent at density 1/64, 1/8, 1/2 and 1, on one scan worker:
// without the cover promise, where each piece runs its own kernel, and
// under it (covered/), where the second piece is the parent less the
// first. A parent word of at least denseWordBits bits runs the word
// kernel and a sparser one iterates its set bits, so the densities 1/8
// and 1 time each kernel alone: their per-word costs put the crossover
// popcount.
//
// The planes/ cases run the same cuts of the parent, each piece
// tested, over a warmed table's code planes (planes.go), beside the
// value kernels they replace: the wide column's median cut, whose
// boundary code's rows are tested by value (planes/ against the plain
// case); a cut of a column of 200 values, exactly coded (exact/ against
// planes/exact/); and a cut of a five-value string column into two sets
// of codes (set/ against planes/set/).
func BenchmarkPartitionSource(b *testing.B) {
	defer SetScanWorkers(0)
	SetScanWorkers(1)
	for _, den := range sourceBenchDensities {
		col, bm := sourceBenchParent(den)
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
			b.Run(fmt.Sprintf("%sdensity=1/%d/words", prefix, den), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					PartitionChunked(bm, preds, cover)
				}
			})
		}
		tab := planeBenchTable(col)
		exact, kind := tab.MustColumn("exact").(*IntColumn), tab.MustColumn("kind").(*StringColumn)
		cases := []struct {
			name  string
			preds func(sum *ChunkSummary) []Pred
			sum   *ChunkSummary
		}{
			{"", func(sum *ChunkSummary) []Pred {
				return []Pred{
					IntRangePred(col, IntRange{Lo: 0, Hi: mid, LoIncl: true}, sum),
					IntRangePred(col, IntRange{Lo: mid, Hi: 1 << 20, LoIncl: true, HiIncl: true}, sum),
				}
			}, tab.SummaryByName("v")},
			{"exact/", func(sum *ChunkSummary) []Pred {
				return []Pred{
					IntRangePred(exact, IntRange{Lo: 0, Hi: 100, LoIncl: true}, sum),
					IntRangePred(exact, IntRange{Lo: 100, Hi: 199, LoIncl: true, HiIncl: true}, sum),
				}
			}, tab.SummaryByName("exact")},
			{"set/", func(sum *ChunkSummary) []Pred {
				return []Pred{
					StringSetPred(kind, planeBenchKinds[:2], sum),
					StringSetPred(kind, planeBenchKinds[2:], sum),
				}
			}, tab.SummaryByName("kind")},
		}
		for _, tc := range cases {
			for _, planes := range []bool{false, true} {
				sum, prefix := (*ChunkSummary)(nil), ""
				if planes {
					sum, prefix = tc.sum, "planes/"
				} else if tc.name == "" {
					continue // the plain case above
				}
				preds := tc.preds(sum)
				b.Run(fmt.Sprintf("%s%sdensity=1/%d/words", prefix, tc.name, den), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						PartitionChunked(bm, preds, false)
					}
				})
			}
		}
	}
}

// planeBenchKinds is the five-value dictionary of planeBenchTable's
// string column.
var planeBenchKinds = []string{"fluit", "jacht", "pinas", "hoeker", "spiegelretourschip"}

// planeBenchTable is a warmed table in chunks of 2^16 rows of col
// ("v"), a column of 200 uniform values ("exact") and a string column
// of five uniform values ("kind"), over col's rows.
func planeBenchTable(col *IntColumn) *Table {
	rng := rand.New(rand.NewSource(7))
	exact, kinds := make([]int64, col.Len()), make([]string, col.Len())
	for r := range exact {
		exact[r], kinds[r] = rng.Int63n(200), planeBenchKinds[rng.Intn(len(planeBenchKinds))]
	}
	tab := MustNewTable("planes", col, NewIntColumn("exact", exact), NewStringColumn("kind", kinds))
	tab.SetChunkRows(1 << 16)
	tab.WarmSummaries()
	return tab
}
