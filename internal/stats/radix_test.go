package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The radix sort and everything routed through it are checked
// against references built on slices.Sort, which shares no code with
// it: sorted output element for element, and equi-depth points and
// medians read straight off the reference order.

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
		{math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1030, negZero, 0},
		{2.5, 2.5, 2.5},
		{1, math.Nextafter(1, 2), math.Nextafter(1, 0)},
	}
	gens := []func() float64{
		func() float64 { return (rng.Float64() - 0.5) * 1e6 },
		func() float64 { return 10 + rng.Float64()*15 }, // magnitude-like: one sign, few exponents
		func() float64 { return float64(rng.Intn(4)) - 2 },
		func() float64 {
			for {
				if v := math.Float64frombits(rng.Uint64()); v == v {
					return v
				}
			}
		},
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
		out[i] = float64Key(v)
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

func TestRadixSortFloat64MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, vals := range radixFloat64Cases(rng) {
		want := slices.Clone(vals)
		slices.Sort(want)
		got := slices.Clone(vals)
		sortFloat64s(got)
		if !slices.Equal(canonKeys(got), canonKeys(want)) {
			t.Fatalf("sortFloat64s diverged from slices.Sort:\ngot  %v\nwant %v", got, want)
		}
		for i, v := range got {
			if v == 0 && math.Signbit(v) {
				t.Fatalf("sortFloat64s left -0 at %d", i)
			}
		}
	}
}

// TestRadixSortFloat64NaNFirst pins the flat float sort's NaN rule:
// NaN sorts first, where sort.Float64s puts it, so EquiDepthPoints
// on NaN-bearing data is unchanged by the sort swap.
func TestRadixSortFloat64NaNFirst(t *testing.T) {
	vals := []float64{3, math.NaN(), -1, math.Inf(-1), math.NaN()}
	sortFloat64s(vals)
	if !math.IsNaN(vals[0]) || !math.IsNaN(vals[1]) || vals[2] != math.Inf(-1) || vals[3] != -1 || vals[4] != 3 {
		t.Fatalf("sorted = %v, want [NaN NaN -Inf -1 3]", vals)
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
			got := MedianFloat64Chunks(shard(vals, rng), workers)
			if want := sorted[len(sorted)/2]; float64Key(got) != float64Key(want) || math.Signbit(got) && got == 0 {
				t.Fatalf("workers=%d: MedianFloat64Chunks = %v, want %v", workers, got, want)
			}
		}
	}
}

// FuzzEquiDepthChunks decodes a multiset (8-byte little-endian words,
// read both as int64 and as float64 bits), a sharding (one chunk
// width per byte of cuts, 0 meaning an empty chunk) and an arity,
// and requires the chunked equi-depth points and median to equal the
// slices.Sort reference. narrow folds the ints into a span of 16 so
// duplicates and short spans are common.
func FuzzEquiDepthChunks(f *testing.F) {
	word := func(vs ...uint64) []byte {
		b := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}
	f.Add(word(1, 2, 3, 4, 5), []byte{2, 0, 3}, uint8(0), false)
	f.Add(word(1<<63, 1<<63-1, 0, math.Float64bits(math.Copysign(0, -1))), []byte{1, 1, 0, 2}, uint8(2), false)
	f.Add(word(7, 7, 7, 9, 7, 7, 9), []byte{3}, uint8(1), true)
	f.Add(word(math.Float64bits(math.Inf(-1)), math.Float64bits(math.Inf(1)), 1, math.Float64bits(math.MaxFloat64)), []byte{}, uint8(5), false)
	f.Fuzz(func(t *testing.T, data, cuts []byte, arityByte uint8, narrow bool) {
		ints := make([]int64, len(data)/8)
		floats := make([]float64, 0, len(ints))
		for i := range ints {
			w := binary.LittleEndian.Uint64(data[8*i:])
			ints[i] = int64(w)
			if narrow {
				ints[i] = int64(w%16) - 8
			}
			if v := math.Float64frombits(w); v == v {
				floats = append(floats, v) // NaN has no rank
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
				if got, want := MedianFloat64Chunks(floatChunks(), workers), sortedFloats[len(floats)/2]; float64Key(got) != float64Key(want) {
					t.Fatalf("float median workers=%d: got %v, want %v", workers, got, want)
				}
			}
		}
	})
}
