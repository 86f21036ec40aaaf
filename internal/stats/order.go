package stats

// quickSelect returns the k-th smallest element (0-based) of v,
// reordering v in place. Expected O(n): iterative quickselect with a
// median-of-three pivot and three-way (Dutch national flag)
// partitioning, which stays linear on inputs with heavy duplicates.
// It panics if k is out of range; callers own the bounds check.
func quickSelect(v []int64, k int) int64 {
	if k < 0 || k >= len(v) {
		panic("stats: quickselect index out of range")
	}
	lo, hi := 0, len(v)-1
	for lo < hi {
		p := pivotValue(v, lo, hi)
		// Partition [lo..hi] into [<p | ==p | >p].
		lt, gt, i := lo, hi, lo
		for i <= gt {
			switch {
			case v[i] < p:
				v[i], v[lt] = v[lt], v[i]
				lt++
				i++
			case v[i] > p:
				v[i], v[gt] = v[gt], v[i]
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return p
		}
	}
	return v[lo]
}

// pivotValue returns the median of v[lo], v[mid], v[hi] by value.
func pivotValue(v []int64, lo, hi int) int64 {
	mid := lo + (hi-lo)/2
	a, b, c := v[lo], v[mid], v[hi]
	switch {
	case a < b:
		switch {
		case b < c:
			return b
		case a < c:
			return c
		default:
			return a
		}
	default: // b <= a
		switch {
		case a < c:
			return a
		case b < c:
			return c
		default:
			return b
		}
	}
}

// MedianInt64 returns the upper median vals[n/2] (the cut point used
// by Definition 5: the left piece takes values strictly below it).
// vals is reordered in place. It panics on empty input.
func MedianInt64(vals []int64) int64 {
	return quickSelect(vals, len(vals)/2)
}

func quantileIndex(n int, q float64) int {
	if n == 0 {
		panic("stats: quantile of empty input")
	}
	k := int(q * float64(n))
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return k
}

// EquiDepthPoints returns arity−1 split points dividing vals into
// arity pieces of (approximately) equal depth, i.e. the quantiles at
// i/arity for i in 1..arity−1. The points are strictly increasing:
// duplicate quantile values (heavy duplicates in the data) are
// collapsed, so fewer than arity−1 points may be returned, and a
// point equal to the minimum splits off nothing, so it is dropped.
// This is the same select as EquiDepthPointsChunks over one chunk;
// vals is not reordered.
func EquiDepthPoints(vals []int64, arity int) []int64 {
	return EquiDepthPointsChunks([][]int64{vals}, arity, 1)
}

// EquiDepthPointsFloat64 is EquiDepthPoints for float64 data: the
// same select as EquiDepthPointsChunksFloat64 over one chunk, so NaN
// values are dropped before any rank is read and a zero point is
// +0.0. vals is not reordered.
func EquiDepthPointsFloat64(vals []float64, arity int) []float64 {
	return EquiDepthPointsChunksFloat64([][]float64{vals}, arity, 1)
}
