package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The radix select, the narrow-span value counts and everything routed
// through them are checked against references built on slices.Sort,
// which shares no code with either: selected ranks element for
// element, and equi-depth points and medians read straight off the
// reference order.

// radixInt64Cases are int and date shapes for both sides of the
// count/select choice: spans of 2 047, 2 048 and 2 049 (the last
// countable span and the first two that are not), the int64 extremes
// together, negative dates — days before 1970 — narrow and wide, and
// constant columns, each small and past the select's sort cutoff.
func radixInt64Cases(rng *rand.Rand) [][]int64 {
	cases := [][]int64{
		nil,
		{},
		{42},
		{2, 1},
		{math.MaxInt64, math.MinInt64},
		{math.MaxInt64, math.MinInt64, 0, -1, 1, math.MinInt64 + 1, math.MaxInt64 - 1},
		{-3, 3, -2, 2, -1, 1, 0},                      // span crossing zero, odd length
		{7, 8, 7, 8, 8, 7, 7, 8, 8},                   // span 1
		{5, 5, 5, 5, 5, 5},                            // all equal
		{math.MinInt64, math.MinInt64, math.MinInt64}, // all equal at an extreme
	}
	// Random inputs below and past the select's sort cutoff: heavy
	// duplicates, a 2^20 span (two select rounds), a span straddling
	// zero, the full 64-bit range, and only a high bit varying.
	gens := []func() int64{
		func() int64 { return int64(rng.Intn(3)) },
		func() int64 { return 1_000_000 + rng.Int63n(1<<20) },
		func() int64 { return rng.Int63n(1<<40) - 1<<39 },
		func() int64 { return int64(rng.Uint64()) },
		func() int64 { return int64(rng.Intn(2)) << 40 }, // only a high digit varies
	}
	for _, gen := range gens {
		for _, n := range []int{3, 2049, 5001} {
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = gen()
			}
			cases = append(cases, vals)
		}
	}
	// spanned draws n values in [lo, lo+span] with both ends present, so
	// the span is exact.
	spanned := func(lo, span int64, n int) []int64 {
		vals := []int64{lo + span, lo}
		for len(vals) < n {
			vals = append(vals, lo+rng.Int63n(span+1))
		}
		return vals
	}
	const epoch1900 = -25567 // 1900-01-01 in days since 1970-01-01
	for _, n := range []int{5, 5001} {
		cases = append(cases,
			spanned(-1000, radixBuckets-1, n),
			spanned(-1000, radixBuckets, n),
			spanned(-1000, radixBuckets+1, n),
			spanned(math.MaxInt64-radixBuckets+1, radixBuckets-1, n), // countable at the top edge
			spanned(math.MinInt64, radixBuckets-1, n),                // and at the bottom
			spanned(epoch1900, 364, n),                               // dates within 1900
			spanned(epoch1900, 70400, n),                             // two centuries of dates
			append(spanned(0, 3, n), math.MinInt64, math.MaxInt64),   // both extremes, dense middle
			slices.Repeat([]int64{epoch1900}, n),                     // a constant date
		)
	}
	return cases
}

func radixFloat64Cases(rng *rand.Rand) [][]float64 {
	negZero := math.Copysign(0, -1)
	cases := [][]float64{
		nil,
		{negZero},
		{0, negZero},
		{negZero, 0, negZero, 0, 1, -1},
		{math.Inf(1), math.Inf(-1), 0, negZero, math.MaxFloat64, -math.MaxFloat64},
		{math.Inf(-1), math.Inf(1), 0, -0.25, 1e300, -1e300, 1e-300},
		{math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1030, negZero, 0},
		{2.5, 2.5, 2.5},
		{1, math.Nextafter(1, 2), math.Nextafter(1, 0)},
	}
	random := func() float64 {
		for {
			if v := math.Float64frombits(rng.Uint64()); v == v {
				return v
			}
		}
	}
	gens := []func() float64{
		func() float64 { return (rng.Float64() - 0.5) * 1e6 },
		func() float64 { return 10 + rng.Float64()*15 }, // magnitude-like: one sign, few exponents
		func() float64 { return float64(rng.Intn(4)) - 2 },
		func() float64 { return float64(rng.Intn(40)) / 4 },
		random,
	}
	for _, gen := range gens {
		for _, n := range []int{5, 3001} {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = gen()
			}
			cases = append(cases, vals)
		}
	}
	// Shapes aimed at the select's rounds, each below and above the
	// small-input cutoff: one bucket holding nearly everything (the
	// outlier), a span of one or two keys, a median bucket of equal
	// keys, ±0 both sides of zero, the key extremes, a constant.
	outlier := func(i, n int) float64 {
		if i == n/3 {
			return 1e300
		}
		return 1 + rng.Float64()
	}
	lastBit := func(int, int) float64 {
		return math.Float64frombits(math.Float64bits(-3.75) ^ uint64(rng.Intn(2)))
	}
	dupMedian := func(int, int) float64 {
		if rng.Intn(10) < 6 {
			return 7.25
		}
		return 7.25 + rng.NormFloat64()*1e3
	}
	zeros := func(int, int) float64 {
		switch rng.Intn(4) {
		case 0:
			return negZero
		case 1:
			return 0
		default:
			return (rng.Float64() - 0.5) * 1e-3
		}
	}
	extremes := func(int, int) float64 {
		switch rng.Intn(4) {
		case 0:
			return math.Inf(1 - 2*rng.Intn(2))
		case 1:
			return math.Copysign(math.Float64frombits(rng.Uint64()&(1<<52-1)), float64(rng.Intn(2))-0.5) // subnormal
		default:
			return random()
		}
	}
	constant := func(int, int) float64 { return -1.125 }
	for _, gen := range []func(i, n int) float64{outlier, lastBit, dupMedian, zeros, extremes, constant} {
		for _, n := range []int{selectSortMax / 2, 4*selectSortMax + 3} {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = gen(i, n)
			}
			cases = append(cases, vals)
		}
	}
	return cases
}

// shard splits vals into random-width chunks, empty ones included,
// whose concatenation is vals.
func shard[T any](vals []T, rng *rand.Rand) [][]T {
	chunks := [][]T{{}}
	for i := 0; i < len(vals); {
		w := rng.Intn(len(vals)-i) + 1
		chunks = append(chunks, slices.Clone(vals[i:i+w]))
		i += w
		if rng.Intn(3) == 0 {
			chunks = append(chunks, nil)
		}
	}
	return chunks
}

// refEquiDepth is EquiDepthPointsChunks' definition read off a
// reference sort: the values at ranks quantileIndex(n, i/arity),
// strictly increasing, none equal to the minimum.
func refEquiDepth[T int64 | float64](sorted []T, arity int) []T {
	if arity < 2 || len(sorted) == 0 {
		return nil
	}
	var points []T
	for i := 1; i < arity; i++ {
		p := sorted[quantileIndex(len(sorted), float64(i)/float64(arity))]
		if p > sorted[0] && (len(points) == 0 || p > points[len(points)-1]) {
			points = append(points, p)
		}
	}
	return points
}

// canonKeys maps floats to their canonical keys, the identity the
// float order statistics promise (+0.0 for either zero).
func canonKeys(vals []float64) []uint64 {
	out := make([]uint64, len(vals))
	for i, v := range vals {
		out[i] = Float64Key(v)
	}
	return out
}

// int64KeyChunks converts chunks to Int64Key keys, returning them with
// their smallest and largest key.
func int64KeyChunks(chunks [][]int64) (keys [][]uint64, lo, hi uint64) {
	lo = math.MaxUint64
	for _, ch := range chunks {
		ks := make([]uint64, len(ch))
		clo, chi := int64Keys(ks, ch)
		lo, hi = min(lo, clo), max(hi, chi)
		keys = append(keys, ks)
	}
	return keys, lo, hi
}

// selectInt64Ranks runs the radix select over the keys of chunks for
// every rank in ranks, which must be ascending.
func selectInt64Ranks(chunks [][]int64, ranks []int, workers int) []int64 {
	keys, lo, hi := int64KeyChunks(chunks)
	n := 0
	for _, ks := range keys {
		n += len(ks)
	}
	out := make([]uint64, len(ranks))
	selectKeys(keys, n, lo, hi, ranks, out, workers)
	vals := make([]int64, len(out))
	for i, k := range out {
		vals[i] = Int64FromKey(k)
	}
	return vals
}

// summedCounts is the narrow count path up to the rank walk: the
// chunks' values counted over their span. ok is false when the span
// is too wide to count.
func summedCounts(chunks [][]int64) (total []int, lo int64, ok bool) {
	keys, klo, khi := int64KeyChunks(chunks)
	cells, ok := CountCells(klo, khi)
	if !ok {
		return nil, 0, false
	}
	total = make([]int, cells)
	for _, ks := range keys {
		for _, k := range ks {
			total[k-klo]++
		}
	}
	return total, Int64FromKey(klo), true
}

// TestRadixSortInt64MatchesReference reads every rank of each int
// case off the radix select and, where the span is narrow enough, off
// the summed per-chunk value counts, over a random sharding with empty
// chunks; both must reproduce the slices.Sort order. SortInt64Chunks,
// kept for the layer probes, must sort every chunk.
func TestRadixSortInt64MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	counted := 0
	for _, workers := range []int{1, 4} {
		for _, vals := range radixInt64Cases(rng) {
			want := slices.Clone(vals)
			slices.Sort(want)
			ranks := make([]int, len(vals))
			for i := range ranks {
				ranks[i] = i
			}
			if got := selectInt64Ranks(shard(vals, rng), ranks, workers); !slices.Equal(got, want) {
				t.Fatalf("workers=%d: select of %d values diverged from slices.Sort", workers, len(vals))
			}
			if total, lo, ok := summedCounts(shard(vals, rng)); ok && len(vals) > 0 {
				counted++
				out := make([]uint64, len(ranks))
				countRanks(total, Int64Key(lo), ranks, out)
				for i, k := range out {
					if Int64FromKey(k) != want[i] {
						t.Fatalf("count walk over %d values: rank %d = %d, want %d", len(vals), i, Int64FromKey(k), want[i])
					}
				}
			}
			chunks := shard(vals, rng)
			SortInt64Chunks(chunks, workers)
			for c, ch := range chunks {
				if !slices.IsSorted(ch) {
					t.Fatalf("SortInt64Chunks left chunk %d unsorted", c)
				}
			}
			if flat := slices.Concat(chunks...); len(flat) != len(vals) {
				t.Fatalf("SortInt64Chunks changed the value count: %d -> %d", len(vals), len(flat))
			}
		}
	}
	if counted == 0 {
		t.Fatal("no case reached the count path")
	}
}

// TestCountCellsBoundary pins the count/select choice at its edge:
// spans below radixBuckets count, wider ones select — and the key
// difference is taken in unsigned arithmetic, so the int64 extremes
// never wrap into a countable span.
func TestCountCellsBoundary(t *testing.T) {
	for _, tc := range []struct {
		lo, hi int64
		cells  int
		ok     bool
	}{
		{0, 0, 1, true},
		{-1000, -1000 + radixBuckets - 1, radixBuckets, true},
		{-1000, -1000 + radixBuckets, 0, false},
		{-1000, -1000 + radixBuckets + 1, 0, false},
		{math.MinInt64, math.MaxInt64, 0, false},
		{math.MaxInt64 - 5, math.MaxInt64, 6, true},
	} {
		cells, ok := CountCells(Int64Key(tc.lo), Int64Key(tc.hi))
		if cells != tc.cells || ok != tc.ok {
			t.Fatalf("CountCells(%d, %d) = %d, %v; want %d, %v", tc.lo, tc.hi, cells, ok, tc.cells, tc.ok)
		}
	}
}

// selectFloat64Ranks runs the radix select over the keys of chunks
// (NaN-free) for every rank in ranks, which must be ascending.
func selectFloat64Ranks(chunks [][]float64, ranks []int, workers int) []float64 {
	var keys [][]uint64
	n, lo, hi := 0, uint64(math.MaxUint64), uint64(0)
	for _, ch := range chunks {
		ks := canonKeys(ch)
		for _, k := range ks {
			lo, hi = min(lo, k), max(hi, k)
		}
		keys = append(keys, ks)
		n += len(ks)
	}
	out := make([]uint64, len(ranks))
	selectKeys(keys, n, lo, hi, ranks, out, workers)
	vals := make([]float64, len(out))
	for i, k := range out {
		vals[i] = Float64FromKey(k)
	}
	return vals
}

// TestRadixSortFloat64MatchesReference selects every rank at once, over
// a random sharding with empty chunks, which must reproduce the
// slices.Sort order with every zero as +0.0.
func TestRadixSortFloat64MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, workers := range []int{1, 4} {
		for _, vals := range radixFloat64Cases(rng) {
			want := slices.Clone(vals)
			slices.Sort(want)
			ranks := make([]int, len(vals))
			for i := range ranks {
				ranks[i] = i
			}
			got := selectFloat64Ranks(shard(vals, rng), ranks, workers)
			if !slices.Equal(canonKeys(got), canonKeys(want)) {
				t.Fatalf("workers=%d: select of %d values diverged from slices.Sort", workers, len(vals))
			}
			for i, v := range got {
				if v == 0 && math.Signbit(v) {
					t.Fatalf("workers=%d: select returned -0 at rank %d", workers, i)
				}
			}
		}
	}
}

// TestEquiDepthPointsFloat64DropsNaN pins the float points' NaN rule:
// NaN has no rank, so it is dropped before any point is selected, and
// NaN-only input has no points.
func TestEquiDepthPointsFloat64DropsNaN(t *testing.T) {
	vals := []float64{3, math.NaN(), -1, math.Inf(-1), math.NaN(), 7, 5}
	for _, arity := range []int{2, 3} {
		got := EquiDepthPointsChunksFloat64([][]float64{vals[:3], vals[3:]}, arity, 1)
		want := refEquiDepth([]float64{math.Inf(-1), -1, 3, 5, 7}, arity)
		if !slices.Equal(got, want) || len(got) == 0 {
			t.Fatalf("arity=%d: points %v, want %v (NaN dropped)", arity, got, want)
		}
	}
	if got := EquiDepthPointsChunksFloat64([][]float64{{math.NaN(), math.NaN()}}, 2, 1); got != nil {
		t.Fatalf("all-NaN points = %v, want nil", got)
	}
}

func TestOrderStatisticsChunksMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, workers := range []int{1, 4} {
		for _, vals := range radixInt64Cases(rng) {
			sorted := slices.Clone(vals)
			slices.Sort(sorted)
			for _, arity := range []int{2, 3, 7} {
				want := refEquiDepth(sorted, arity)
				if got := EquiDepthPointsChunks(shard(vals, rng), arity, workers); !slices.Equal(got, want) {
					t.Fatalf("workers=%d arity=%d: EquiDepthPointsChunks = %v, want %v", workers, arity, got, want)
				}
				if total, lo, ok := summedCounts(shard(vals, rng)); ok {
					if got := EquiDepthPointsCounts(total, lo, arity); !slices.Equal(got, want) {
						t.Fatalf("arity=%d: EquiDepthPointsCounts = %v, want %v", arity, got, want)
					}
					// A spliced window can be wider than the values it
					// still counts: empty cells on either side.
					if lo > math.MinInt64+1 {
						padded := slices.Concat([]int{0, 0}, total, []int{0, 0})
						if got := EquiDepthPointsCounts(padded, lo-2, arity); !slices.Equal(got, want) {
							t.Fatalf("arity=%d: EquiDepthPointsCounts over a padded window = %v, want %v", arity, got, want)
						}
					}
				}
			}
			if len(vals) == 0 {
				continue
			}
			keys, lo, hi := int64KeyChunks(shard(vals, rng))
			if got, want := KthInt64Keys(keys, lo, hi, len(vals)/2, workers), sorted[len(sorted)/2]; got != want {
				t.Fatalf("workers=%d: KthInt64Keys median = %d, want %d", workers, got, want)
			}
		}
		for _, vals := range radixFloat64Cases(rng) {
			sorted := slices.Clone(vals)
			slices.Sort(sorted)
			for _, arity := range []int{2, 3, 7} {
				got := EquiDepthPointsChunksFloat64(shard(vals, rng), arity, workers)
				if want := refEquiDepth(sorted, arity); !slices.Equal(canonKeys(got), canonKeys(want)) {
					t.Fatalf("workers=%d arity=%d: EquiDepthPointsChunksFloat64 = %v, want %v", workers, arity, got, want)
				}
			}
			if len(vals) == 0 {
				continue
			}
			got := selectFloat64Ranks(shard(vals, rng), []int{len(vals) / 2}, workers)[0]
			if want := sorted[len(sorted)/2]; Float64Key(got) != Float64Key(want) || math.Signbit(got) && got == 0 {
				t.Fatalf("workers=%d: median = %v, want %v", workers, got, want)
			}
		}
	}
}

// FuzzEquiDepthChunks decodes a multiset (8-byte little-endian words,
// read both as int64 and as float64 bits), a sharding (one chunk
// width per byte of cuts, 0 meaning an empty chunk), an arity and a
// replicate byte, and requires the chunked equi-depth points and
// median to equal the slices.Sort reference — for ints both from the
// radix select and, when the span is narrow enough to count, from the
// summed per-chunk value counts. narrow folds the ints into a span of
// 16 so duplicates and countable spans are common; unfolded words
// span too widely to count. rep
// repeats every word 1 + 16·(rep>>1) times, so a few words cross the
// float select's small-input cutoff and reach its refining rounds: as
// exact duplicates when rep is even, spread over consecutive bit
// patterns (neighbouring ints, floats an ulp apart) when it is odd.
func FuzzEquiDepthChunks(f *testing.F) {
	word := func(vs ...uint64) []byte {
		b := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}
	fbits := math.Float64bits
	f.Add(word(1, 2, 3, 4, 5), []byte{2, 0, 3}, uint8(0), false, uint8(0))
	f.Add(word(1<<63, 1<<63-1, 0, fbits(math.Copysign(0, -1))), []byte{1, 1, 0, 2}, uint8(2), false, uint8(0))
	f.Add(word(7, 7, 7, 9, 7, 7, 9), []byte{3}, uint8(1), true, uint8(0))
	f.Add(word(fbits(math.Inf(-1)), fbits(math.Inf(1)), 1, fbits(math.MaxFloat64)), []byte{}, uint8(5), false, uint8(0))
	f.Add(word(fbits(1.5), fbits(1e300), fbits(math.Copysign(0, -1))), []byte{200, 0, 100}, uint8(1), false, uint8(201))
	f.Add(word(fbits(7.25), fbits(-3), 5), []byte{}, uint8(0), true, uint8(200))
	f.Add(word(0, 2047, 1000), []byte{90, 0, 200}, uint8(1), false, uint8(200)) // widest countable span, past the sort cutoff
	f.Add(word(0, 2048, 1000), []byte{90, 0, 200}, uint8(1), false, uint8(200)) // narrowest selected one
	f.Fuzz(func(t *testing.T, data, cuts []byte, arityByte uint8, narrow bool, rep uint8) {
		copies := 1 + 16*int(rep>>1)
		var ints []int64
		var floats []float64
		for i := 0; i+8 <= len(data); i += 8 {
			w := binary.LittleEndian.Uint64(data[i:])
			for r := 0; r < copies; r++ {
				wr := w
				if rep&1 == 1 {
					wr += uint64(r)
				}
				iv := int64(wr)
				if narrow {
					iv = int64(wr%16) - 8
				}
				ints = append(ints, iv)
				if v := math.Float64frombits(wr); v == v {
					floats = append(floats, v) // NaN has no rank
				}
			}
		}
		arity := 2 + int(arityByte%15)
		split := func(n int) []int {
			var widths []int
			left := n
			for _, b := range cuts {
				if left == 0 {
					break
				}
				w := int(b) % (left + 1)
				widths = append(widths, w)
				left -= w
			}
			return append(widths, left)
		}
		intChunks := func() [][]int64 {
			var out [][]int64
			pos := 0
			for _, w := range split(len(ints)) {
				out = append(out, slices.Clone(ints[pos:pos+w]))
				pos += w
			}
			return out
		}
		floatChunks := func() [][]float64 {
			var out [][]float64
			pos := 0
			for _, w := range split(len(floats)) {
				out = append(out, slices.Clone(floats[pos:pos+w]))
				pos += w
			}
			return out
		}

		sortedInts := slices.Clone(ints)
		slices.Sort(sortedInts)
		sortedFloats := slices.Clone(floats)
		slices.Sort(sortedFloats)
		wantInts := refEquiDepth(sortedInts, arity)
		if total, lo, ok := summedCounts(intChunks()); ok {
			if got := EquiDepthPointsCounts(total, lo, arity); !slices.Equal(got, wantInts) {
				t.Fatalf("int counts arity=%d: got %v, want %v", arity, got, wantInts)
			}
		}
		for _, workers := range []int{1, 3} {
			if got := EquiDepthPointsChunks(intChunks(), arity, workers); !slices.Equal(got, wantInts) {
				t.Fatalf("int arity=%d workers=%d: got %v, want %v", arity, workers, got, wantInts)
			}
			got := EquiDepthPointsChunksFloat64(floatChunks(), arity, workers)
			if want := refEquiDepth(sortedFloats, arity); !slices.Equal(canonKeys(got), canonKeys(want)) {
				t.Fatalf("float arity=%d workers=%d: got %v, want %v", arity, workers, got, want)
			}
			if len(ints) > 0 {
				keys, lo, hi := int64KeyChunks(intChunks())
				if got, want := KthInt64Keys(keys, lo, hi, len(ints)/2, workers), sortedInts[len(ints)/2]; got != want {
					t.Fatalf("int median workers=%d: got %d, want %d", workers, got, want)
				}
			}
			if len(floats) > 0 {
				if got, want := selectFloat64Ranks(floatChunks(), []int{len(floats) / 2}, workers)[0], sortedFloats[len(floats)/2]; Float64Key(got) != Float64Key(want) {
					t.Fatalf("float median workers=%d: got %v, want %v", workers, got, want)
				}
			}
		}
	})
}
