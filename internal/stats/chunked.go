// Chunked order statistics: the cut-point math (medians, equi-depth
// quantiles) over data that arrives as per-chunk slices instead of
// one flat vector. Section 5.1 names exactly these calculations as
// the vertical-scalability bottleneck. Every chunk is radix-sorted
// independently on the worker pool (radix.go: O(n), no comparisons),
// and the requested ranks are then resolved by value-space binary
// search over the sorted chunks, so no step ever concatenates or
// copies the whole extent. The sorted chunks are also the runs the
// cut cache retains and splices on a mutable table. Every function
// returns exactly what its flat counterpart returns on the
// concatenation of the chunks: the k-th smallest of a multiset does
// not depend on how the multiset is sharded or sorted.
package stats

import (
	"math"
	"sort"

	"charles/internal/par"
)

// SortInt64Chunks radix-sorts every chunk ascending in place, one
// chunk per worker-pool task.
func SortInt64Chunks(chunks [][]int64, workers int) {
	_ = par.ForEach(par.Workers(workers), len(chunks), func(c int) error {
		sortInt64s(chunks[c])
		return nil
	})
}

// SortFloat64Chunks radix-sorts every chunk ascending in place, one
// chunk per worker-pool task. Zeros come back as +0.0 (float64Key's
// canonical form); the chunks should be NaN-free, as every rank
// selection over them requires.
func SortFloat64Chunks(chunks [][]float64, workers int) {
	_ = par.ForEach(par.Workers(workers), len(chunks), func(c int) error {
		sortFloat64s(chunks[c])
		return nil
	})
}

// int64Key maps int64 to uint64 preserving order (flip the sign
// bit), so rank binary searches can bisect the value space without
// signed-midpoint overflow.
func int64Key(v int64) uint64 { return uint64(v) ^ (1 << 63) }

func int64FromKey(u uint64) int64 { return int64(u ^ (1 << 63)) }

// float64Key maps a float64 to uint64 preserving IEEE-754 order:
// non-negative values set the sign bit, negative values are
// bit-complemented. -0.0 is collapsed onto +0.0 first — the two
// compare equal, so counting cannot separate their raw keys, and
// without the collapse the search would converge on the -0.0 key
// and return a "-0" the data may not contain (which renders
// differently in canonical query strings). With it, any selected
// zero comes back as +0.0, deterministically. The map is then
// monotone on the non-NaN range, letting the rank search bisect
// float values through integer midpoints. NaN, which has no rank,
// maps to key 0, below -Inf, so the radix sort puts it first as
// sort.Float64s does.
func float64Key(v float64) uint64 {
	if v != v {
		return 0
	}
	if v == 0 {
		v = 0 // +0.0, whatever the sign bit said
	}
	b := math.Float64bits(v)
	if b>>63 == 1 {
		return ^b
	}
	return b | 1<<63
}

func float64FromKey(u uint64) float64 {
	if u>>63 == 1 {
		return math.Float64frombits(u &^ (1 << 63))
	}
	return math.Float64frombits(^u)
}

// KthSortedInt64Chunks returns the k-th smallest element (0-based)
// of the multiset union of sorted chunks. It binary-searches the
// value space: the answer is the smallest value v with
// count(≤ v) ≥ k+1, located through O(64) probes of c·log(chunk)
// comparisons each — no merge, no copy. Panics when k is out of
// range.
func KthSortedInt64Chunks(chunks [][]int64, k int) int64 {
	n := 0
	loK, hiK := uint64(math.MaxUint64), uint64(0)
	for _, ch := range chunks {
		n += len(ch)
		if len(ch) == 0 {
			continue
		}
		if f := int64Key(ch[0]); f < loK {
			loK = f
		}
		if l := int64Key(ch[len(ch)-1]); l > hiK {
			hiK = l
		}
	}
	if k < 0 || k >= n {
		panic("stats: chunked rank out of range")
	}
	for loK < hiK {
		mid := loK + (hiK-loK)/2
		v := int64FromKey(mid)
		le := 0
		for _, ch := range chunks {
			le += sort.Search(len(ch), func(i int) bool { return ch[i] > v })
		}
		if le >= k+1 {
			hiK = mid
		} else {
			loK = mid + 1
		}
	}
	return int64FromKey(loK)
}

// KthSortedFloat64Chunks is KthSortedInt64Chunks over floats. The
// chunks must be NaN-free (NaN has no rank). A selected zero is
// always returned as +0.0: -0.0 and +0.0 compare equal, so counting
// cannot tell whose key the search converged on, and the positive
// canonical form keeps downstream renderings ("0", never "-0")
// independent of sharding and branch choice.
func KthSortedFloat64Chunks(chunks [][]float64, k int) float64 {
	n := 0
	loK, hiK := uint64(math.MaxUint64), uint64(0)
	for _, ch := range chunks {
		n += len(ch)
		if len(ch) == 0 {
			continue
		}
		if f := float64Key(ch[0]); f < loK {
			loK = f
		}
		if l := float64Key(ch[len(ch)-1]); l > hiK {
			hiK = l
		}
	}
	if k < 0 || k >= n {
		panic("stats: chunked rank out of range")
	}
	for loK < hiK {
		mid := loK + (hiK-loK)/2
		v := float64FromKey(mid)
		le := 0
		for _, ch := range chunks {
			le += sort.Search(len(ch), func(i int) bool { return ch[i] > v })
		}
		if le >= k+1 {
			hiK = mid
		} else {
			loK = mid + 1
		}
	}
	if v := float64FromKey(loK); v != 0 {
		return v
	}
	return 0 // canonical +0.0 for any selected zero
}

// MedianInt64Chunks returns the upper median (the element at global
// sorted index n/2 — what MedianInt64 returns on the concatenation).
// Chunks are sorted in place. Panics on empty input.
func MedianInt64Chunks(chunks [][]int64, workers int) int64 {
	SortInt64Chunks(chunks, workers)
	n := 0
	for _, ch := range chunks {
		n += len(ch)
	}
	return KthSortedInt64Chunks(chunks, n/2)
}

// MedianFloat64Chunks is MedianInt64Chunks over floats.
func MedianFloat64Chunks(chunks [][]float64, workers int) float64 {
	SortFloat64Chunks(chunks, workers)
	n := 0
	for _, ch := range chunks {
		n += len(ch)
	}
	return KthSortedFloat64Chunks(chunks, n/2)
}

// EquiDepthPointsChunks returns exactly what EquiDepthPoints returns
// on the concatenation of the chunks: up to arity−1 strictly
// increasing equi-depth points, duplicates collapsed and points
// equal to the global minimum dropped. Chunks are radix-sorted in
// place in parallel; each point is then one rank selection.
func EquiDepthPointsChunks(chunks [][]int64, arity, workers int) []int64 {
	n := 0
	for _, ch := range chunks {
		n += len(ch)
	}
	if arity < 2 || n == 0 {
		return nil
	}
	SortInt64Chunks(chunks, workers)
	return EquiDepthPointsSorted(chunks, arity)
}

// EquiDepthPointsSorted is the rank-selection half of
// EquiDepthPointsChunks: the chunks must already be sorted ascending
// (for example, cached sorted runs from an earlier computation). The
// k-th smallest of a multiset does not depend on who sorted it, so
// the result is identical to EquiDepthPointsChunks on the same data.
func EquiDepthPointsSorted(chunks [][]int64, arity int) []int64 {
	n := 0
	for _, ch := range chunks {
		n += len(ch)
	}
	if arity < 2 || n == 0 {
		return nil
	}
	min := KthSortedInt64Chunks(chunks, 0)
	points := make([]int64, 0, arity-1)
	for i := 1; i < arity; i++ {
		p := KthSortedInt64Chunks(chunks, quantileIndex(n, float64(i)/float64(arity)))
		if len(points) == 0 || p > points[len(points)-1] {
			if p > min {
				points = append(points, p)
			}
		}
	}
	return points
}

// EquiDepthPointsChunksFloat64 is EquiDepthPointsChunks for float64
// data.
func EquiDepthPointsChunksFloat64(chunks [][]float64, arity, workers int) []float64 {
	n := 0
	for _, ch := range chunks {
		n += len(ch)
	}
	if arity < 2 || n == 0 {
		return nil
	}
	SortFloat64Chunks(chunks, workers)
	min := KthSortedFloat64Chunks(chunks, 0)
	points := make([]float64, 0, arity-1)
	for i := 1; i < arity; i++ {
		p := KthSortedFloat64Chunks(chunks, quantileIndex(n, float64(i)/float64(arity)))
		if len(points) == 0 || p > points[len(points)-1] {
			if p > min {
				points = append(points, p)
			}
		}
	}
	return points
}
