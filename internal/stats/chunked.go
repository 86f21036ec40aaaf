// Chunked order statistics: the cut-point math (medians, equi-depth
// quantiles) over data that arrives as per-chunk slices instead of
// one flat vector. Section 5.1 names exactly these calculations as
// the vertical-scalability bottleneck. No order statistic sorts its
// input (SortInt64Chunks and KthSortedInt64Chunks remain only for the
// layer probes). Int, date and float values become order-preserving
// uint64 keys and the requested ranks are radix-selected (selectKeys,
// radix.go); over an int span below radixBuckets that select is a
// single value count. The engine counts an int or date extent whose
// zone-map window is that narrow straight from the column instead,
// per chunk, and reads its ranks off the counts' sum by one prefix
// walk (EquiDepthPointsCounts); a mutable table's cut cache retains
// those per-chunk counts, which add across chunks. No step
// concatenates the whole extent.
// Every function returns exactly what it returns on the concatenation
// of the chunks as one chunk: the k-th smallest of a multiset does not
// depend on how the multiset is sharded, selected or counted.
package stats

import (
	"math"
	"slices"
	"sort"

	"charles/internal/par"
)

// SortInt64Chunks sorts every chunk ascending in place, one chunk per
// worker-pool task. Kept for bench/layers probes.
func SortInt64Chunks(chunks [][]int64, workers int) {
	_ = par.ForEach(par.Workers(workers), len(chunks), func(c int) error {
		slices.Sort(chunks[c])
		return nil
	})
}

// Int64Key maps int64 to uint64 preserving order (flip the sign
// bit), so int and date values share the float keys' radix select
// and rank binary searches can bisect the value space without
// signed-midpoint overflow.
func Int64Key(v int64) uint64 { return uint64(v) ^ (1 << 63) }

// Int64FromKey inverts Int64Key.
func Int64FromKey(u uint64) int64 { return int64(u ^ (1 << 63)) }

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
// range. Kept for bench/layers probes.
func KthSortedInt64Chunks(chunks [][]int64, k int) int64 {
	n := 0
	loK, hiK := uint64(math.MaxUint64), uint64(0)
	for _, ch := range chunks {
		n += len(ch)
		if len(ch) == 0 {
			continue
		}
		loK, hiK = min(loK, Int64Key(ch[0])), max(hiK, Int64Key(ch[len(ch)-1]))
	}
	if k < 0 || k >= n {
		panic("stats: chunked rank out of range")
	}
	for loK < hiK {
		mid := loK + (hiK-loK)/2
		v := Int64FromKey(mid)
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
	return Int64FromKey(loK)
}

// EquiDepthPointsChunks returns up to arity−1 split points dividing
// the multiset union of the chunks into arity pieces of
// (approximately) equal depth: the quantiles at i/arity for i in
// 1..arity−1. The points are strictly increasing: duplicate quantile
// values (heavy duplicates in the data) are collapsed, so fewer than
// arity−1 points may be returned, and a point equal to the global
// minimum splits off nothing, so it is dropped. The chunks are read,
// not reordered: their values become Int64Key keys in pooled scratch
// and the points are selected from those.
func EquiDepthPointsChunks(chunks [][]int64, arity, workers int) []int64 {
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
		los[c], his[c] = int64Keys(keys[c], chunks[c])
		return nil
	})
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for c := range chunks {
		lo, hi = min(lo, los[c]), max(hi, his[c])
	}
	return EquiDepthPointsInt64Keys(keys, lo, hi, arity, workers)
}

// int64Keys writes the keys of vals to ks and returns the smallest
// and largest (MaxUint64 and 0 when vals is empty). len(ks) must be
// at least len(vals).
func int64Keys(ks []uint64, vals []int64) (lo, hi uint64) {
	lo = math.MaxUint64
	for i, v := range vals {
		k := Int64Key(v)
		ks[i] = k
		lo, hi = min(lo, k), max(hi, k)
	}
	return lo, hi
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
	return equiDepthKeys(keys, lo+1, hi, arity, workers, Float64FromKey)
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

// EquiDepthPointsInt64Keys is the int and date equi-depth computation
// over chunks of Int64Key keys whose smallest key is lo and largest
// hi: the keys at the quantile ranks are radix-selected (selectKeys),
// which overwrites the chunks — they are the caller's scratch. Points
// come back strictly increasing, none equal to the minimum, as
// EquiDepthPointsChunks defines them.
func EquiDepthPointsInt64Keys(chunks [][]uint64, lo, hi uint64, arity, workers int) []int64 {
	return equiDepthKeys(chunks, lo, hi, arity, workers, Int64FromKey)
}

func equiDepthKeys[T int64 | float64](chunks [][]uint64, lo, hi uint64, arity, workers int, decode func(uint64) T) []T {
	n := 0
	for _, ch := range chunks {
		n += len(ch)
	}
	if arity < 2 || n == 0 {
		return nil
	}
	ranks := equiDepthRanks(n, arity)
	keys := make([]uint64, len(ranks))
	selectKeys(chunks, n, lo, hi, ranks, keys, par.Workers(workers))
	return pointsAbove(keys, lo, decode)
}

// KthInt64Keys returns the value at 0-based rank k of chunks of
// Int64Key keys whose smallest key is lo and largest hi, radix-selected
// (selectKeys overwrites the chunks). Panics when k is out of range.
func KthInt64Keys(chunks [][]uint64, lo, hi uint64, k, workers int) int64 {
	n := 0
	for _, ch := range chunks {
		n += len(ch)
	}
	if k < 0 || k >= n {
		panic("stats: chunked rank out of range")
	}
	var out [1]uint64
	selectKeys(chunks, n, lo, hi, []int{k}, out[:], par.Workers(workers))
	return Int64FromKey(out[0])
}

// CountCells returns how many value-count cells keys in [lo, hi]
// take, and whether the span is narrow enough to count: below
// radixBuckets, where one select histogram already holds one value
// per bucket, so counting the values straight from the column costs no
// more than the select's first round and needs no gather.
func CountCells(lo, hi uint64) (cells int, ok bool) {
	if hi-lo >= radixBuckets {
		return 0, false
	}
	return int(hi-lo) + 1, true
}

// EquiDepthPointsCounts is EquiDepthPointsChunks over a multiset
// given as value counts — value lo+i occurs counts[i] times, the sum
// of a narrow int or date extent's per-chunk counts: the ranks resolve
// by one prefix walk over the counts.
func EquiDepthPointsCounts[C int | uint64](counts []C, lo int64, arity int) []int64 {
	n, first := 0, -1
	for i, c := range counts {
		if first < 0 && c > 0 {
			first = i
		}
		n += int(c)
	}
	if arity < 2 || n == 0 {
		return nil
	}
	ranks := equiDepthRanks(n, arity)
	keys := make([]uint64, len(ranks))
	base := Int64Key(lo)
	countRanks(counts, base, ranks, keys)
	return pointsAbove(keys, base+uint64(first), Int64FromKey)
}

// countRanks sets out[i] to the key at 0-based rank ranks[i] of the
// multiset in which key lo+d occurs counts[d] times. ranks must be
// ascending and below the multiset's size.
func countRanks[C int | uint64](counts []C, lo uint64, ranks []int, out []uint64) {
	d, below := 0, 0
	for i, r := range ranks {
		for below+int(counts[d]) <= r {
			below += int(counts[d])
			d++
		}
		out[i] = lo + uint64(d)
	}
}

// equiDepthRanks returns the ascending 0-based ranks of the arity−1
// equi-depth quantiles of n values.
func equiDepthRanks(n, arity int) []int {
	ranks := make([]int, arity-1)
	for i := range ranks {
		ranks[i] = quantileIndex(n, float64(i+1)/float64(arity))
	}
	return ranks
}

// pointsAbove decodes the keys selected at the quantile ranks into
// points, strictly increasing and none at or below the minimum key
// lo: a point equal to the minimum splits off nothing.
func pointsAbove[T int64 | float64](keys []uint64, lo uint64, decode func(uint64) T) []T {
	points := make([]T, 0, len(keys))
	last := lo
	for _, k := range keys {
		if k > last {
			points = append(points, decode(k))
			last = k
		}
	}
	return points
}
