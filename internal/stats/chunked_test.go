package stats

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// chunkInt64 splits vals into random-width chunks (including empty
// ones) whose concatenation is vals.
func chunkInt64(vals []int64, rng *rand.Rand) [][]int64 {
	var chunks [][]int64
	for i := 0; i < len(vals); {
		w := rng.Intn(len(vals)-i) + 1
		chunks = append(chunks, append([]int64(nil), vals[i:i+w]...))
		i += w
		if rng.Intn(3) == 0 {
			chunks = append(chunks, []int64{})
		}
	}
	if len(chunks) == 0 {
		chunks = [][]int64{{}}
	}
	return chunks
}

func chunkFloat64(vals []float64, rng *rand.Rand) [][]float64 {
	var chunks [][]float64
	for i := 0; i < len(vals); {
		w := rng.Intn(len(vals)-i) + 1
		chunks = append(chunks, append([]float64(nil), vals[i:i+w]...))
		i += w
	}
	if len(chunks) == 0 {
		chunks = [][]float64{{}}
	}
	return chunks
}

// int64Cases covers the value shapes the rank search bisects badly
// if the midpoint math is wrong: negatives, extremes, and heavy
// duplicates.
func int64Cases(rng *rand.Rand) [][]int64 {
	cases := [][]int64{
		{0},
		{-1, 1},
		{math.MaxInt64, math.MinInt64, 0, -1, 1},
		{5, 5, 5, 5, 5},
	}
	uniq := make([]int64, 200)
	for i := range uniq {
		uniq[i] = rng.Int63n(2000) - 1000
	}
	cases = append(cases, uniq)
	heavy := make([]int64, 300)
	for i := range heavy {
		heavy[i] = int64(rng.Intn(3))
	}
	cases = append(cases, heavy)
	return cases
}

func TestKthSortedInt64ChunksMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, vals := range int64Cases(rng) {
		sorted := append([]int64(nil), vals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		chunks := chunkInt64(vals, rng)
		SortInt64Chunks(chunks, 2)
		for k := 0; k < len(vals); k++ {
			if got := KthSortedInt64Chunks(chunks, k); got != sorted[k] {
				t.Fatalf("kth(%d) = %d, want %d (vals %v)", k, got, sorted[k], vals)
			}
		}
	}
}

// TestKthSortedFloat64ChunksMatchesSort selects each rank on its own,
// so every round of the select narrows to a single bucket.
func TestKthSortedFloat64ChunksMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	cases := [][]float64{
		{0},
		{-1.5, 2.5},
		{math.Inf(-1), math.Inf(1), 0, -0.25, 1e300, -1e300, 1e-300},
		{3.25, 3.25, 3.25},
	}
	mixed := make([]float64, 257)
	for i := range mixed {
		mixed[i] = (rng.Float64() - 0.5) * 1e6
	}
	cases = append(cases, mixed)
	for _, vals := range cases {
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		chunks := chunkFloat64(vals, rng)
		for k := 0; k < len(vals); k++ {
			if got := selectFloat64Ranks(chunks, []int{k}, 2)[0]; got != sorted[k] {
				t.Fatalf("kth(%d) = %v, want %v (vals %v)", k, got, sorted[k], vals)
			}
		}
	}
}

func TestMedianChunksMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, vals := range int64Cases(rng) {
		want := MedianInt64(append([]int64(nil), vals...))
		if got := MedianInt64Chunks(chunkInt64(vals, rng), 3); got != want {
			t.Fatalf("MedianInt64Chunks = %d, want %d", got, want)
		}
	}
	fvals := make([]float64, 101)
	for i := range fvals {
		fvals[i] = float64(rng.Intn(50)) / 2
	}
	sorted := append([]float64(nil), fvals...)
	sort.Float64s(sorted)
	if got, want := selectFloat64Ranks(chunkFloat64(fvals, rng), []int{len(fvals) / 2}, 3)[0], sorted[len(fvals)/2]; got != want {
		t.Fatalf("float median = %v, want %v", got, want)
	}
}

func TestEquiDepthPointsChunksMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, vals := range int64Cases(rng) {
		for _, arity := range []int{2, 3, 4, 8, 13} {
			want := EquiDepthPoints(append([]int64(nil), vals...), arity)
			got := EquiDepthPointsChunks(chunkInt64(vals, rng), arity, 2)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("EquiDepthPointsChunks(arity=%d) = %v, want %v (vals %v)", arity, got, want, vals)
			}
		}
	}
	fvals := make([]float64, 173)
	for i := range fvals {
		fvals[i] = float64(rng.Intn(40)) / 4
	}
	for _, arity := range []int{2, 5} {
		want := EquiDepthPointsFloat64(append([]float64(nil), fvals...), arity)
		got := EquiDepthPointsChunksFloat64(chunkFloat64(fvals, rng), arity, 2)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("EquiDepthPointsChunksFloat64(arity=%d) = %v, want %v", arity, got, want)
		}
	}
}

func TestKthChunksPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range rank")
		}
	}()
	KthSortedInt64Chunks([][]int64{{1, 2}}, 2)
}

// TestKthFloatChunksCanonicalZero pins the -0.0 collapse: a selected
// zero always comes back as +0.0 — no rank can tell the two apart,
// and "-0" must never leak into canonical renderings — regardless of
// which zero's bit pattern the data held.
func TestKthFloatChunksCanonicalZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, chunks := range [][][]float64{
		{{-1, 0}, {5}},
		{{-1, negZero}, {5}},
		{{negZero}, {-1}, {0, 5}},
	} {
		got := selectFloat64Ranks(chunks, []int{1}, 1)[0] // rank 1 of {-1, ±0, 5}-shaped data
		if got != 0 || math.Signbit(got) {
			t.Fatalf("kth(1) = %v (signbit %v), want canonical +0", got, math.Signbit(got))
		}
	}
}
