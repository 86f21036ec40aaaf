// Chunked order statistics: the cut-point math (medians, equi-depth
// quantiles) over data that arrives as per-chunk slices instead of
// one flat vector. Section 5.1 names exactly these calculations as
// the vertical-scalability bottleneck. Int and date values are
// radix-sorted chunk by chunk on the worker pool (radix.go: O(n), no
// comparisons) and the requested ranks resolved by value-space binary
// search over the sorted chunks; those sorted chunks are the runs the
// cut cache retains and splices on a mutable table. Float values are
// never sorted: they become order-preserving keys and the requested
// ranks are radix-selected (selectKeys, radix.go), since nothing
// retains a float run. No step concatenates the whole extent. Every
// function returns exactly what its flat counterpart returns on the
// concatenation of the chunks: the k-th smallest of a multiset does
// not depend on how the multiset is sharded, sorted or selected.
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

// int64Key maps int64 to uint64 preserving order (flip the sign
// bit), so rank binary searches can bisect the value space without
// signed-midpoint overflow.
func int64Key(v int64) uint64 { return uint64(v) ^ (1 << 63) }

func int64FromKey(u uint64) int64 { return int64(u ^ (1 << 63)) }

// Float64Key maps a float64 to uint64 preserving IEEE-754 order:
// non-negative values set the sign bit, negative values are
// bit-complemented. -0.0 is collapsed onto +0.0 first (adding +0.0
// turns -0.0 into +0.0 and leaves every other value alone) — the two
// compare equal, so no rank can separate them, and without the
// collapse a selected zero could come back as a "-0" that renders
// differently in canonical query strings. With it, any selected zero
// or zero bound comes back as +0.0, deterministically. NaN, which has
// no rank, maps to key 0, below -Inf's key: a key minimum taken over
// k−1 wraps it to MaxUint64 and a key maximum never picks it, so
// bounds over keys ignore NaN without a branch.
func Float64Key(v float64) uint64 {
	b := math.Float64bits(v + 0)
	k := b ^ (uint64(int64(b)>>63) | 1<<63)
	if v != v {
		k = 0
	}
	return k
}

// Float64FromKey inverts Float64Key on non-NaN keys; key 0 decodes
// to a NaN.
func Float64FromKey(u uint64) float64 {
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
// data, with NaN values — which have no rank — dropped first. The
// chunks are read, not reordered: their values become Float64Key keys
// in pooled scratch and the points are selected from those. A zero
// point is always +0.0.
func EquiDepthPointsChunksFloat64(chunks [][]float64, arity, workers int) []float64 {
	n := 0
	for _, ch := range chunks {
		n += len(ch)
	}
	if arity < 2 || n == 0 {
		return nil
	}
	kp := uint64Scratch.Get(n)
	defer uint64Scratch.Put(kp)
	keys := make([][]uint64, len(chunks))
	los := make([]uint64, len(chunks))
	his := make([]uint64, len(chunks))
	off := 0
	for c, ch := range chunks {
		keys[c] = (*kp)[off : off+len(ch)]
		off += len(ch)
	}
	_ = par.ForEach(par.Workers(workers), len(chunks), func(c int) error {
		m, lo, hi := float64Keys(keys[c], chunks[c])
		keys[c], los[c], his[c] = keys[c][:m], lo, hi
		return nil
	})
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for c := range chunks {
		lo, hi = min(lo, los[c]), max(hi, his[c])
	}
	return EquiDepthPointsFloat64Keys(keys, lo+1, hi, arity, workers)
}

// float64Keys writes the keys of vals' numbers to ks, dropping NaN
// without a branch: every key is stored, and the cursor advances past
// a number's only. It returns how many it kept, their smallest key
// minus one and their largest (MaxUint64 and 0 when none, since a
// NaN's key is 0). len(ks) must be at least len(vals).
func float64Keys(ks []uint64, vals []float64) (m int, loMinus1, hi uint64) {
	loMinus1 = math.MaxUint64
	for _, v := range vals {
		k := Float64Key(v)
		ks[m] = k
		m += b2i(k != 0) // only a NaN's key is 0
		loMinus1, hi = min(loMinus1, k-1), max(hi, k)
	}
	return m, loMinus1, hi
}

// EquiDepthPointsFloat64Keys is the float equi-depth computation over
// chunks of Float64Key keys, none of them NaN's, whose smallest key is
// lo and largest hi: the keys at the quantile ranks are radix-selected
// (selectKeys), which overwrites the chunks — they are the caller's
// scratch. Points come back strictly increasing, none equal to the
// minimum — as EquiDepthPoints defines them — and a zero point is
// +0.0.
func EquiDepthPointsFloat64Keys(chunks [][]uint64, lo, hi uint64, arity, workers int) []float64 {
	n := 0
	for _, ch := range chunks {
		n += len(ch)
	}
	if arity < 2 || n == 0 {
		return nil
	}
	ranks := make([]int, arity-1)
	for i := range ranks {
		ranks[i] = quantileIndex(n, float64(i+1)/float64(arity))
	}
	keys := make([]uint64, len(ranks))
	selectKeys(chunks, n, lo, hi, ranks, keys, par.Workers(workers))
	points := make([]float64, 0, len(keys))
	last := lo // rank 0: a point equal to the minimum splits off nothing
	for _, k := range keys {
		if k > last {
			points = append(points, Float64FromKey(k))
			last = k
		}
	}
	return points
}
