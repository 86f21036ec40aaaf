package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The int radix sort, the float radix select and everything routed
// through them are checked against references built on slices.Sort,
// which shares no code with either: sorted output and selected ranks
// element for element, and equi-depth points and medians read
// straight off the reference order.

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
	// Random inputs past one digit's width, so several passes run and
	// some are skipped: heavy duplicates, a narrow span (two passes),
	// a span straddling zero, and the full 64-bit range (six passes).
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

// refEquiDepth is EquiDepthPoints' definition read off a reference
// sort: the values at ranks quantileIndex(n, i/arity), strictly
// increasing, none equal to the minimum.
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

func TestRadixSortInt64MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, vals := range radixInt64Cases(rng) {
		want := slices.Clone(vals)
		slices.Sort(want)
		got := slices.Clone(vals)
		sortInt64s(got)
		if !slices.Equal(got, want) {
			t.Fatalf("sortInt64s(%d values) diverged from slices.Sort", len(vals))
		}
		chunks := shard(vals, rng)
		SortInt64Chunks(chunks, 2)
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

// TestEquiDepthPointsFloat64DropsNaN pins the flat float path's NaN
// rule: NaN has no rank, so it is dropped before any point is
// selected — the exact chunked path's rule — and NaN-only input has
// no points.
func TestEquiDepthPointsFloat64DropsNaN(t *testing.T) {
	vals := []float64{3, math.NaN(), -1, math.Inf(-1), math.NaN(), 7, 5}
	for _, arity := range []int{2, 3} {
		got := EquiDepthPointsFloat64(vals, arity)
		want := EquiDepthPointsFloat64([]float64{3, -1, math.Inf(-1), 7, 5}, arity)
		if !slices.Equal(got, want) || len(got) == 0 {
			t.Fatalf("arity=%d: points %v, want %v (NaN dropped)", arity, got, want)
		}
	}
	if got := EquiDepthPointsFloat64([]float64{math.NaN(), math.NaN()}, 2); got != nil {
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
				if got, want := EquiDepthPointsChunks(shard(vals, rng), arity, workers), refEquiDepth(sorted, arity); !slices.Equal(got, want) {
					t.Fatalf("workers=%d arity=%d: EquiDepthPointsChunks = %v, want %v", workers, arity, got, want)
				}
			}
			if len(vals) == 0 {
				continue
			}
			if got, want := MedianInt64Chunks(shard(vals, rng), workers), sorted[len(sorted)/2]; got != want {
				t.Fatalf("workers=%d: MedianInt64Chunks = %d, want %d", workers, got, want)
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
// median to equal the slices.Sort reference. narrow folds the ints
// into a span of 16 so duplicates and short spans are common. rep
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
		for _, workers := range []int{1, 3} {
			if got, want := EquiDepthPointsChunks(intChunks(), arity, workers), refEquiDepth(sortedInts, arity); !slices.Equal(got, want) {
				t.Fatalf("int arity=%d workers=%d: got %v, want %v", arity, workers, got, want)
			}
			got := EquiDepthPointsChunksFloat64(floatChunks(), arity, workers)
			if want := refEquiDepth(sortedFloats, arity); !slices.Equal(canonKeys(got), canonKeys(want)) {
				t.Fatalf("float arity=%d workers=%d: got %v, want %v", arity, workers, got, want)
			}
			if len(ints) > 0 {
				if got, want := MedianInt64Chunks(intChunks(), workers), sortedInts[len(ints)/2]; got != want {
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
