package stats

import (
	"math"
	"math/bits"
	"slices"

	"charles/internal/par"
	"charles/internal/pool"
)

// Two radix algorithms share one digit width. Int and date values are
// radix SORTED (radixSort, LSD): their per-chunk sorted runs are what
// the cut cache splices on a mutable table. It is O(n) per pass, and
// it runs only as many 11-bit passes as the value span max − min has
// bits — a narrow int or date column (a span under 2^22) takes two, a
// constant one none — and skips any pass whose digit every value
// shares. Float values are radix SELECTED (selectKeys, MSD): a float's
// order-preserving key spans nearly all 64 bits, so sorting it would
// take six scatter passes to read arity − 1 ranks, while the select
// histograms the top bits once and gathers only the buckets that hold
// a wanted rank. If a workload ever mutated float columns, a float
// splice would retain per-chunk key histograms, not sorted runs.
// 2^11 buckets keep one histogram (16 KiB) cache resident.
const (
	radixBits    = 11
	radixBuckets = 1 << radixBits
	radixMask    = radixBuckets - 1
)

// bandGap is the cell count left free after each band's part of a
// bucket copied out by selectKeys: 128 bytes, so the trailing misses
// one worker stores there never share a cache line, or its prefetched
// neighbour, with another worker's part.
const bandGap = 16

// selectSortMax is the candidate count at or below which selectKeys
// stops refining and sorts what is left: a histogram round touches
// radixBuckets counters however few keys it reads.
const selectSortMax = radixBuckets

// Scratch for the sort and the select: the sort's ping-pong half, the
// select's float keys and candidates, and the digit counters. Nothing
// here outlives one call.
var (
	int64Scratch  pool.Slice[int64]
	uint64Scratch pool.Slice[uint64]
	countScratch  pool.Slice[int]
)

// radixSort sorts v ascending given its minimum lo and maximum hi,
// ping-ponging through tmp (len(v) elements). Digits are taken from
// x − lo, which is exact in wrapping arithmetic for any span. All
// per-pass histograms are counted in one read of v.
func radixSort(v, tmp []int64, lo, hi int64) {
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

// selectKeys sets out[i] to the key at 0-based rank ranks[i] of the
// multiset held by chunks: n keys, the smallest lo and the largest hi.
// ranks must be ascending and within [0, n). The keys in chunks are
// scratch: they are overwritten.
//
// One round histograms the top radixBits bits of key − lo, one
// histogram per band of the input so no two workers share a counter
// (histograms add, so the merge is a sum); finds the bucket holding
// each wanted rank, ranks in one bucket sharing it; gathers only those
// buckets' keys out of every band; and recurses on each bucket's
// candidates with their own bounds, so every round narrows the span by
// at least radixBits bits. It stops when the span is zero, when a
// bucket is one key wide, or when the candidates fit a small sort.
func selectKeys(chunks [][]uint64, n int, lo, hi uint64, ranks []int, out []uint64, workers int) {
	if lo == hi {
		for i := range out {
			out[i] = lo
		}
		return
	}
	if n <= selectSortMax {
		sortSelect(chunks, ranks, out)
		return
	}
	shift := uint(max(bits.Len64(hi-lo)-radixBits, 0))
	bands := splitBands(chunks, n, workers)
	nb := len(bands)
	// Each band counts into two interleaved counter sets, the second
	// held in the upper half of hists and folded into the first: a run
	// of keys in one bucket, the common case near the median, then
	// increments two counters in turn instead of waiting on each store
	// to one.
	hp := countScratch.Get(2 * nb * radixBuckets)
	defer countScratch.Put(hp)
	hists := *hp
	clear(hists)
	_ = par.ForEach(nb, nb, func(b int) error {
		h := (*[radixBuckets]int)(hists[b*radixBuckets:])
		h2 := (*[radixBuckets]int)(hists[(nb+b)*radixBuckets:])
		for _, ch := range bands[b] {
			countDigits(h, h2, ch, lo, shift)
		}
		for d, c := range h2 {
			h[d] += c
		}
		return nil
	})

	// Resolve every rank to its bucket: ranks[first:last] fall in
	// bucket digit, which holds size keys above below smaller ones.
	type want struct{ digit, below, size, first, last int }
	var wants []want
	below, i := 0, 0
	for d := 0; i < len(ranks); d++ {
		size := 0
		for b := 0; b < nb; b++ {
			size += hists[b*radixBuckets+d]
		}
		first := i
		for i < len(ranks) && ranks[i] < below+size {
			i++
		}
		if i > first {
			wants = append(wants, want{d, below, size, first, i})
		}
		below += size
	}
	if shift == 0 { // a bucket is one key wide: its digit is the answer
		for _, w := range wants {
			for i := w.first; i < w.last; i++ {
				out[i] = lo + uint64(w.digit)
			}
		}
		return
	}

	// Gather each wanted bucket's keys in turn. Every key is stored at
	// a cursor that advances only past a key of the bucket — no branch
	// on an outcome that, for a bucket holding much of the data, is as
	// often true as not. The last bucket (a median's only one) is
	// compacted in place: the cursor never passes the key being read,
	// and no later bucket needs the keys it overwrites. Earlier ones go
	// to buf, band b's part followed by a bandGap-cell gap that takes its
	// trailing misses and that no other band touches.
	var buf []uint64
	if len(wants) > 1 {
		largest := 0
		for _, w := range wants {
			largest = max(largest, w.size)
		}
		bp := uint64Scratch.Get(largest + nb*bandGap)
		defer uint64Scratch.Put(bp)
		buf = *bp
	}
	starts := make([]int, nb)
	cands := make([][][]uint64, nb)
	los := make([]uint64, nb)
	his := make([]uint64, nb)
	for j, w := range wants {
		inPlace := j == len(wants)-1
		if !inPlace {
			pos := 0
			for b := range starts {
				starts[b] = pos
				pos += hists[b*radixBuckets+w.digit] + bandGap
			}
		}
		d := uint64(w.digit)
		_ = par.ForEach(nb, nb, func(b int) error {
			cb := cands[b][:0]
			if inPlace {
				for _, ch := range bands[b] {
					cb = append(cb, ch[:copyDigit(ch, 0, ch, lo, shift, d)])
				}
			} else {
				c := starts[b]
				for _, ch := range bands[b] {
					c = copyDigit(buf, c, ch, lo, shift, d)
				}
				cb = append(cb, buf[starts[b]:c])
			}
			los[b], his[b] = uint64(math.MaxUint64), 0
			for _, ch := range cb {
				clo, chi := keyBounds(ch)
				los[b], his[b] = min(los[b], clo), max(his[b], chi)
			}
			cands[b] = cb
			return nil
		})
		var cand [][]uint64
		clo, chi := uint64(math.MaxUint64), uint64(0)
		for b := range cands {
			cand = append(cand, cands[b]...)
			clo, chi = min(clo, los[b]), max(chi, his[b])
		}
		subRanks := make([]int, w.last-w.first)
		for i := range subRanks {
			subRanks[i] = ranks[w.first+i] - w.below
		}
		selectKeys(cand, w.size, clo, chi, subRanks, out[w.first:w.last], workers)
	}
}

// countDigits adds the digits (k−lo)>>shift of keys to two counter
// sets, alternating between them.
func countDigits(h, h2 *[radixBuckets]int, keys []uint64, lo uint64, shift uint) {
	shift &= 63 // always true; saying so spares the loop the ≥ 64 case
	i := 0
	for ; i+1 < len(keys); i += 2 {
		h[(keys[i]-lo)>>shift&radixMask]++
		h2[(keys[i+1]-lo)>>shift&radixMask]++
	}
	if i < len(keys) {
		h[(keys[i]-lo)>>shift&radixMask]++
	}
}

// copyDigit stores every key at buf[c] and advances c past those
// whose digit (k−lo)>>shift is d, returning the final c. buf may be
// keys itself, starting at c = 0; otherwise it must have a cell at the
// final c for the trailing misses.
func copyDigit(buf []uint64, c int, keys []uint64, lo uint64, shift uint, d uint64) int {
	shift &= 63
	for _, k := range keys {
		buf[c] = k
		c += b2i((k-lo)>>shift == d)
	}
	return c
}

// keyBounds returns the smallest and largest of keys, or MaxUint64
// and 0 when there are none.
func keyBounds(keys []uint64) (lo, hi uint64) {
	// Two accumulator pairs halve the compare-and-move chains.
	lo, lo2 := uint64(math.MaxUint64), uint64(math.MaxUint64)
	var hi2 uint64
	i := 0
	for ; i+1 < len(keys); i += 2 {
		lo, hi = min(lo, keys[i]), max(hi, keys[i])
		lo2, hi2 = min(lo2, keys[i+1]), max(hi2, keys[i+1])
	}
	if i < len(keys) {
		lo, hi = min(lo, keys[i]), max(hi, keys[i])
	}
	return min(lo, lo2), max(hi, hi2)
}

// b2i converts a comparison outcome to 0/1; the compiler turns this
// shape into a flag set, not a jump.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// splitBands cuts the concatenation of chunks (n keys) into
// min(parts, n) bands of near-equal length, splitting a chunk where a
// band boundary falls inside it. Band b holds global positions
// [b·n/parts, (b+1)·n/parts).
func splitBands(chunks [][]uint64, n, parts int) [][][]uint64 {
	parts = max(min(parts, n), 1)
	bands := make([][][]uint64, parts)
	b, pos := 0, 0
	for _, ch := range chunks {
		for len(ch) > 0 {
			for pos >= (b+1)*n/parts {
				b++
			}
			take := min(len(ch), (b+1)*n/parts-pos)
			bands[b] = append(bands[b], ch[:take])
			ch, pos = ch[take:], pos+take
		}
	}
	return bands
}

// sortSelect is selectKeys' base case: at most selectSortMax keys,
// copied out and sorted.
func sortSelect(chunks [][]uint64, ranks []int, out []uint64) {
	var small [selectSortMax]uint64
	n := 0
	for _, ch := range chunks {
		n += copy(small[n:], ch)
	}
	flat := small[:n]
	slices.Sort(flat)
	for i, r := range ranks {
		out[i] = flat[r]
	}
}
