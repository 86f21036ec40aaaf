package stats

import (
	"math"
	"math/bits"

	"charles/internal/pool"
)

// The one sort behind every order statistic: an LSD radix sort on
// the order-preserving keys of chunked.go. It is O(n) per pass, and
// it runs only as many 11-bit passes as the value span max − min has
// bits — a narrow int or date column (a span under 2^22) takes two,
// a constant one none — and skips any pass whose digit every value
// shares. 2^11 buckets keep one pass's counters (16 KiB) cache
// resident.
const (
	radixBits    = 11
	radixBuckets = 1 << radixBits
	radixMask    = radixBuckets - 1
)

// Scratch for the sort: the ping-pong half of every pass, the float
// keys, and the digit counters. Nothing here outlives one sort.
var (
	int64Scratch  pool.Slice[int64]
	uint64Scratch pool.Slice[uint64]
	countScratch  pool.Slice[int]
)

// radixKey is what radixSort orders directly: int64 values, whose
// two's-complement offsets x − lo are already order-preserving, and
// the uint64 keys float64Key maps floats to.
type radixKey interface{ ~int64 | ~uint64 }

// radixSort sorts v ascending given its minimum lo and maximum hi,
// ping-ponging through tmp (len(v) elements). Digits are taken from
// x − lo, which is exact in wrapping arithmetic for any span. All
// per-pass histograms are counted in one read of v.
func radixSort[T radixKey](v, tmp []T, lo, hi T) {
	n := len(v)
	span := uint64(hi - lo)
	if n < 2 || span == 0 {
		return
	}
	passes := (bits.Len64(span) + radixBits - 1) / radixBits
	cp := countScratch.Get(passes * radixBuckets)
	defer countScratch.Put(cp)
	counts := *cp
	clear(counts)
	for _, x := range v {
		d := uint64(x - lo)
		for p := 0; p < passes; p++ {
			counts[p<<radixBits|int(d>>(p*radixBits)&radixMask)]++
		}
	}
	src, dst := v, tmp
	for p := 0; p < passes; p++ {
		shift := p * radixBits
		c := counts[p<<radixBits : (p+1)<<radixBits]
		if c[int(uint64(src[0]-lo)>>shift&radixMask)] == n {
			continue // every value shares this digit: the pass is the identity
		}
		sum := 0
		for i, k := range c {
			c[i] = sum
			sum += k
		}
		for _, x := range src {
			d := int(uint64(x-lo) >> shift & radixMask)
			dst[c[d]] = x
			c[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &v[0] {
		copy(v, src)
	}
}

// sortInt64s sorts vals ascending in place.
func sortInt64s(vals []int64) {
	if len(vals) < 2 {
		return
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	if lo == hi {
		return
	}
	tp := int64Scratch.Get(len(vals))
	defer int64Scratch.Put(tp)
	radixSort(vals, *tp, lo, hi)
}

// sortFloat64s sorts vals ascending in place through float64Key:
// every zero comes back as +0.0, and NaN — which no order statistic
// ranks — sorts first, where sort.Float64s puts it.
func sortFloat64s(vals []float64) {
	n := len(vals)
	if n == 0 {
		return
	}
	kp := uint64Scratch.Get(n)
	defer uint64Scratch.Put(kp)
	keys := *kp
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for i, v := range vals {
		k := float64Key(v)
		keys[i] = k
		lo, hi = min(lo, k), max(hi, k)
	}
	if lo != hi {
		tp := uint64Scratch.Get(n)
		defer uint64Scratch.Put(tp)
		radixSort(keys, *tp, lo, hi)
	}
	for i, k := range keys {
		vals[i] = float64FromKey(k)
	}
}
