package engine

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"charles/internal/stats"
)

// selEqual compares a chunked selection's flat view to a flat one.
func selEqual(t *testing.T, name string, got *ChunkedSelection, want Selection) {
	t.Helper()
	flat := got.Flat()
	if len(flat) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(flat, want) {
		t.Fatalf("%s: chunked %v != monolithic %v", name, flat, want)
	}
	if got.Len() != len(want) {
		t.Fatalf("%s: Len() = %d, want %d", name, got.Len(), len(want))
	}
}

// adversarialSelections generates the shapes the chunk math can get
// wrong: empty, single row, runs straddling chunk edges, exactly one
// chunk, final partial chunk, rows only in the first and last chunk
// (every middle chunk empty), and dense random selections. An empty
// universe has only the empty selection: every row id must be in
// [0, nRows).
func adversarialSelections(nRows, chunkRows int, rng *rand.Rand) []Selection {
	if nRows == 0 {
		return []Selection{{}}
	}
	sels := []Selection{
		{},
		{0},
		{int32(nRows - 1)},
		AllRows(nRows),
	}
	// A run straddling every chunk boundary.
	var straddle Selection
	for b := chunkRows; b < nRows; b += chunkRows {
		for d := -2; d <= 1; d++ {
			r := b + d
			if r >= 0 && r < nRows {
				straddle = append(straddle, int32(r))
			}
		}
	}
	if len(straddle) > 0 {
		sels = append(sels, straddle)
	}
	// First and last chunk only: middle chunks all empty.
	var sparse Selection
	for r := 0; r < nRows && r < 3; r++ {
		sparse = append(sparse, int32(r))
	}
	for r := nRows - 3; r < nRows; r++ {
		if r >= 3 {
			sparse = append(sparse, int32(r))
		}
	}
	sels = append(sels, sparse)
	// Random selections at several densities.
	for _, p := range []float64{0.01, 0.3, 0.9} {
		var s Selection
		for r := 0; r < nRows; r++ {
			if rng.Float64() < p {
				s = append(s, int32(r))
			}
		}
		sels = append(sels, s)
	}
	return sels
}

func TestChunkSelectionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, nRows := range []int{0, 1, 63, 64, 100, 1000} {
		for _, chunkRows := range []int{64, 128, 448, 1024} {
			for _, sel := range adversarialSelections(nRows, chunkRows, rng) {
				cs := ChunkSelection(sel, nRows, chunkRows)
				selEqual(t, "roundtrip", cs, sel)
				// Every segment's rows must fall inside its chunk.
				for c := 0; c < cs.NumChunks(); c++ {
					for _, row := range cs.Seg(c) {
						if int(row)/chunkRows != c {
							t.Fatalf("row %d filed under chunk %d (chunkRows=%d)", row, c, chunkRows)
						}
					}
				}
			}
		}
	}
}

func TestAllRowsChunkedMatchesAllRows(t *testing.T) {
	for _, nRows := range []int{0, 1, 64, 65, 1000} {
		cs := AllRowsChunked(nRows, 64)
		selEqual(t, "allrows", cs, AllRows(nRows))
	}
}

// chunkTestTable builds a table whose columns exercise every filter
// kind, with values arranged so zone maps both skip and take chunks.
func chunkTestTable(t *testing.T, nRows, chunkRows int, rng *rand.Rand) *Table {
	ints := make([]int64, nRows)
	floats := make([]float64, nRows)
	strs := make([]string, nRows)
	bools := make([]bool, nRows)
	dict := []string{"fluit", "jacht", "pinas", "galjoot"}
	for i := range ints {
		// Increasing-by-region ints make whole chunks skippable and
		// takable; the jitter keeps boundaries honest.
		ints[i] = int64(i/10*10) + rng.Int63n(7)
		floats[i] = float64(rng.Intn(50))
		if rng.Intn(97) == 0 {
			floats[i] = math.NaN()
		}
		strs[i] = dict[rng.Intn(len(dict))]
		bools[i] = rng.Intn(2) == 0
	}
	tab := MustNewTable("chunked",
		NewIntColumn("ton", ints),
		NewFloatColumn("speed", floats),
		NewStringColumn("type", strs),
		NewBoolColumn("armed", bools),
	)
	tab.SetChunkRows(chunkRows)
	return tab
}

// TestChunkedFiltersMatchMonolithic is the central equivalence
// property: every chunked filter, row-id and bitmap alike, must
// produce exactly the selection the naive row-at-a-time reference
// produces, for every adversarial parent selection shape, with and
// without the zone map.
func TestChunkedFiltersMatchMonolithic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, nRows := range []int{1, 130, 1000} {
		chunkRows := 64
		tab := chunkTestTable(t, nRows, chunkRows, rng)
		ton := tab.MustColumn("ton").(*IntColumn)
		speed := tab.MustColumn("speed").(*FloatColumn)
		speedVals := floatValues(speed)
		typ := tab.MustColumn("type").(*StringColumn)
		armed := tab.MustColumn("armed").(*BoolColumn)
		tonSum := tab.SummaryByName("ton")
		speedSum := tab.SummaryByName("speed")
		if tonSum == nil || speedSum == nil {
			t.Fatal("numeric columns must have zone maps")
		}
		typSum := tab.SummaryByName("type")
		armedSum := tab.SummaryByName("armed")
		if typSum == nil || armedSum == nil {
			t.Fatal("nominal columns must have presence zone maps")
		}
		ranges := []IntRange{
			{Lo: 0, Hi: int64(nRows * 2), LoIncl: true, HiIncl: true},  // covers all: take path
			{Lo: int64(nRows * 3), Hi: int64(nRows * 4), LoIncl: true}, // misses all: skip path
			{Lo: 100, Hi: 300, LoIncl: true, HiIncl: false},            // mixed
			{Lo: 42, Hi: 42, LoIncl: true, HiIncl: true},               // point
			{Lo: 0, Hi: int64(nRows), LoIncl: false, HiIncl: false},    // exclusive bounds
		}
		for _, sel := range adversarialSelections(nRows, chunkRows, rng) {
			cs := ChunkSelection(sel, nRows, chunkRows)
			for _, r := range ranges {
				checkIntRange(t, ton, tonSum, cs, r)
			}
			checkFloatRange(t, speed, speedVals, speedSum, cs, FloatRange{Lo: 5, Hi: 30, LoIncl: true, HiIncl: true})
			checkFloatRange(t, speed, speedVals, speedSum, cs, FloatRange{Lo: math.Inf(-1), Hi: math.Inf(1), LoIncl: true, HiIncl: true})
			checkIntSet(t, ton, tonSum, cs, []int64{0, 17, 100, 999})
			checkFloatSet(t, speed, speedVals, speedSum, cs, []float64{3, 20})
			checkStringSet(t, typ, typSum, cs, []string{"fluit", "galjoot"})
			checkStringRange(t, typ, typSum, cs, "g", "k", true, false)
			checkBoolSet(t, armed, armedSum, cs, []bool{true})
			checkBoolSet(t, armed, armedSum, cs, []bool{true, false})
		}
	}
}

// TestChunkedStatsMatchMonolithic pins the chunked reductions and
// cut-point calculations to a sort-based reference (refSorted) over the
// adversarial selection shapes, and the value counts and gathers to a
// row-at-a-time loop over the flat selection.
func TestChunkedStatsMatchMonolithic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	nRows, chunkRows := 1000, 64
	tab := chunkTestTable(t, nRows, chunkRows, rng)
	ton := tab.MustColumn("ton").(*IntColumn)
	typ := tab.MustColumn("type").(*StringColumn)
	armed := tab.MustColumn("armed").(*BoolColumn)
	// The float statistics drop NaN before selecting, so the column
	// holds some; an all-NaN selection's bounds are NaN.
	speedVals := make([]float64, nRows)
	for i := range speedVals {
		speedVals[i] = float64(rng.Intn(200)) / 4
		if rng.Intn(50) == 0 {
			speedVals[i] = math.NaN()
		}
	}
	speed := NewFloatColumn("speed", speedVals)
	for _, sel := range adversarialSelections(nRows, chunkRows, rng) {
		cs := ChunkSelection(sel, nRows, chunkRows)
		ints, floats := refSorted(ton.Int64s(), sel), refSorted(speedVals, sel)
		gotMin, gotMax, gotOK := IntMinMaxChunked(ton, cs)
		if gotOK != (len(sel) > 0) || gotOK && (gotMin != ints[0] || gotMax != ints[len(ints)-1]) {
			t.Fatalf("IntMinMaxChunked = (%d,%d,%v) over %d rows", gotMin, gotMax, gotOK, len(sel))
		}
		cMin, cMax, cOK := floatMinMax(speed, cs)
		switch {
		case cOK != (len(sel) > 0):
			t.Fatalf("floatMinMax ok = %v over %d rows", cOK, len(sel))
		case cOK && len(floats) == 0 && !(math.IsNaN(cMin) && math.IsNaN(cMax)):
			t.Fatalf("floatMinMax = (%v,%v) over NaN only, want NaN bounds", cMin, cMax)
		case len(floats) > 0 && (math.Float64bits(cMin) != math.Float64bits(floats[0]) || math.Float64bits(cMax) != math.Float64bits(floats[len(floats)-1])):
			t.Fatalf("floatMinMax = (%v,%v), want (%v,%v)", cMin, cMax, floats[0], floats[len(floats)-1])
		}
		gm, gok := IntMedianChunked(ton, cs)
		if gok != (len(sel) > 0) || gok && gm != ints[len(ints)/2] {
			t.Fatalf("IntMedianChunked = (%d,%v) over %d rows", gm, gok, len(sel))
		}
		for _, arity := range []int{2, 3, 7} {
			if got, want := IntCutPointsChunked(ton, cs, arity), refPoints(ints, arity); !reflect.DeepEqual(got, want) {
				t.Fatalf("IntCutPointsChunked(arity=%d) = %v, want %v", arity, got, want)
			}
			if got, want := FloatCutPointsChunked(speed, cs, arity), refPoints(floats, arity); !reflect.DeepEqual(got, want) {
				t.Fatalf("FloatCutPointsChunked(arity=%d) = %v, want %v", arity, got, want)
			}
		}
		codeCounts := make([]int, typ.Cardinality())
		var trues, falses int
		var gathered []int64
		for _, row := range sel {
			codeCounts[typ.Codes()[row]]++
			if armed.Bool(int(row)) {
				trues++
			} else {
				falses++
			}
			gathered = append(gathered, ton.Int64(int(row)))
		}
		var wantVC []stats.ValueCount
		for code, n := range codeCounts {
			if n > 0 {
				wantVC = append(wantVC, stats.ValueCount{Value: typ.DictValue(uint32(code)), Count: n})
			}
		}
		if got := StringValueCountsChunked(typ, cs); len(got) != len(wantVC) || len(got) > 0 && !reflect.DeepEqual(got, wantVC) {
			t.Fatalf("StringValueCountsChunked = %v, want %v", got, wantVC)
		}
		var wantBool []stats.ValueCount
		if falses > 0 {
			wantBool = append(wantBool, stats.ValueCount{Value: "false", Count: falses})
		}
		if trues > 0 {
			wantBool = append(wantBool, stats.ValueCount{Value: "true", Count: trues})
		}
		if got := BoolValueCountsChunked(armed, cs); len(got) != len(wantBool) || len(got) > 0 && !reflect.DeepEqual(got, wantBool) {
			t.Fatalf("BoolValueCountsChunked = %v, want %v", got, wantBool)
		}
		if got := concat(GatherIntChunked(ton, cs)); len(got) != len(gathered) || len(got) > 0 && !reflect.DeepEqual(got, gathered) {
			t.Fatal("GatherIntChunked diverged")
		}
	}
}

// TestChunkedBitmapMatchesFlat pins the chunk forms to the selection
// semantics: build, count, per-chunk views, intersection count and
// materialization agree with the row-id vector paths in every form,
// and empty chunks hold neither form.
func TestChunkedBitmapMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	nRows, chunkRows := 1000, 128
	for _, a := range adversarialSelections(nRows, chunkRows, rng) {
		ca := ChunkSelection(a, nRows, chunkRows)
		checkRule(t, "adversarial", ca)
		fa := formsOf(ca, rng)
		for form, x := range fa {
			if x.Len() != len(a) || !selectionsEqual(x.Flat(), a) {
				t.Fatalf("%s: %d rows, flat view differs from %d", form, x.Len(), len(a))
			}
			for c := 0; c < x.NumChunks(); c++ {
				if len(ca.Seg(c)) == 0 && (x.Words(c) != nil || x.Seg(c) != nil) {
					t.Fatalf("%s: empty chunk %d holds a form", form, c)
				}
			}
		}
		for _, b := range adversarialSelections(nRows, chunkRows, rng) {
			want := IntersectCount(a, b)
			for fb, y := range formsOf(ChunkSelection(b, nRows, chunkRows), rng) {
				if got := fa["mixed"].AndCount(y); got != want {
					t.Fatalf("mixed ∩ %s: AndCount = %d, want %d", fb, got, want)
				}
			}
		}
	}
}

// TestBitmapMismatchedLayouts covers the off-path: selections sharded
// at different chunk widths still intersect correctly, in any form.
func TestBitmapMismatchedLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := Selection{1, 5, 64, 65, 700, 901}
	b := Selection{5, 64, 200, 901}
	want := IntersectCount(a, b)
	for fa, x := range formsOf(ChunkSelection(a, 1000, 128), rng) {
		for fb, y := range formsOf(ChunkSelection(b, 1000, 256), rng) {
			if got := x.AndCount(y); got != want {
				t.Fatalf("%s ∩ %s: mismatched AndCount = %d, want %d", fa, fb, got, want)
			}
		}
	}
}

// TestChunkedParallelLoopsRace drives the chunked filter, stat and
// intersection loops with a selection large enough to fan out across scan
// workers; run under -race it proves the per-chunk slots are
// disjoint. The outputs are compared against the sequential path, so
// it doubles as a determinism check at width > 1.
func TestChunkedParallelLoopsRace(t *testing.T) {
	SetScanWorkers(4)
	defer SetScanWorkers(0)
	rng := rand.New(rand.NewSource(19))
	nRows := 1 << 17 // 128K rows: above parallelScanMinRows
	chunkRows := 1 << 12
	vals := make([]int64, nRows)
	for i := range vals {
		vals[i] = rng.Int63n(1000)
	}
	tab := MustNewTable("race", NewIntColumn("v", vals))
	tab.SetChunkRows(chunkRows)
	col := tab.MustColumn("v").(*IntColumn)
	sum := tab.SummaryByName("v")
	cs := tab.AllChunked()
	r := IntRange{Lo: 100, Hi: 800, LoIncl: true, HiIncl: false}
	wantSel := naiveFilter(AllRows(nRows), func(row int32) bool { return r.Contains(vals[row]) })
	got := FilterIntRangeChunked(col, cs, r, sum)
	selEqual(t, "parallel FilterIntRangeChunked", got, wantSel)
	if med, _ := IntMedianChunked(col, got); med != refSorted(vals, wantSel)[len(wantSel)/2] {
		t.Fatal("parallel median diverged")
	}
	if n := got.AndCount(withForms(got, func(int) bool { return false })); n != got.Len() {
		t.Fatalf("parallel self-intersection %d != %d", n, got.Len())
	}
}

// TestFloatOrderStatsDeterministicWithNaN pins the NaN convention of
// the chunked float order statistics: NaN values carry no rank and
// are excluded — deterministically, in the sequential and parallel
// branches alike — so cut points depend only on the finite values,
// never on scan-slot availability. An all-NaN extent has no median.
func TestFloatOrderStatsDeterministicWithNaN(t *testing.T) {
	vals := []float64{math.NaN(), 5, 1, 9, 3, 7}
	col := NewFloatColumn("v", vals)
	finite := []float64{1, 3, 5, 7, 9}
	wantMed := finite[len(finite)/2] // upper median of the finite values
	for _, chunkRows := range []int{64, 128} {
		cs := AllRowsChunked(len(vals), chunkRows)
		points := FloatCutPointsChunked(col, cs, 2)
		if len(points) != 1 || points[0] != wantMed {
			t.Fatalf("chunkRows=%d: FloatCutPointsChunked = %v, want [%v]", chunkRows, points, wantMed)
		}
	}
	allNaN := NewFloatColumn("n", []float64{math.NaN(), math.NaN()})
	if pts := FloatCutPointsChunked(allNaN, AllRowsChunked(2, 64), 2); pts != nil {
		t.Fatalf("all-NaN extent produced cut points %v", pts)
	}
}

// TestSetChunkRowsSameWidthIsNoOp pins the re-shard guard: setting
// the width a table already has must keep its zone maps.
func TestSetChunkRowsSameWidthIsNoOp(t *testing.T) {
	tab := MustNewTable("t", NewIntColumn("v", []int64{1, 2, 3}))
	tab.SetChunkRows(128)
	before := tab.SummaryByName("v")
	tab.SetChunkRows(128)
	if tab.SummaryByName("v") != before {
		t.Fatal("same-width SetChunkRows rebuilt the zone maps")
	}
	tab.SetChunkRows(256)
	if tab.SummaryByName("v") == before {
		t.Fatal("re-shard kept stale zone maps")
	}
}

// TestFloatRangeChunkedKeepsNaNInSkippedChunks is the regression
// test for the zone-map NaN hazard: FloatRange.Contains(NaN) is true
// (range filters keep NaN rows), so a chunk whose finite bounds miss
// the range entirely may only be skipped when the zone map proves it
// NaN-free.
func TestFloatRangeChunkedKeepsNaNInSkippedChunks(t *testing.T) {
	const chunkRows = 64
	vals := make([]float64, 2*chunkRows)
	for i := 0; i < chunkRows; i++ {
		vals[i] = 1.0 // chunk 0: finite bounds [1,1], outside [10,30]
	}
	vals[7] = math.NaN() // ...but one NaN row the range must keep
	for i := chunkRows; i < 2*chunkRows; i++ {
		vals[i] = 20.0 // chunk 1: fully inside the range
	}
	tab := MustNewTable("nan", NewFloatColumn("v", vals))
	tab.SetChunkRows(chunkRows)
	col := tab.MustColumn("v").(*FloatColumn)
	r := FloatRange{Lo: 10, Hi: 30, LoIncl: true, HiIncl: true}
	want := naiveFilter(AllRows(len(vals)), func(row int32) bool { return r.Contains(vals[row]) })
	got := FilterFloatRangeChunked(col, tab.AllChunked(), r, tab.SummaryByName("v"))
	selEqual(t, "NaN in skip-candidate chunk", got, want)
	if got.Len() != chunkRows+1 { // chunk 1 plus the NaN row
		t.Fatalf("kept %d rows, want %d (the NaN row must survive)", got.Len(), chunkRows+1)
	}
	// An all-NaN chunk is taken wholesale: every row matches.
	allNaN := make([]float64, chunkRows)
	for i := range allNaN {
		allNaN[i] = math.NaN()
	}
	tab2 := MustNewTable("nan2", NewFloatColumn("v", allNaN))
	tab2.SetChunkRows(chunkRows)
	col2 := tab2.MustColumn("v").(*FloatColumn)
	want2 := naiveFilter(AllRows(chunkRows), func(row int32) bool { return r.Contains(allNaN[row]) })
	got2 := FilterFloatRangeChunked(col2, tab2.AllChunked(), r, tab2.SummaryByName("v"))
	selEqual(t, "all-NaN chunk", got2, want2)
	if got2.Len() != chunkRows {
		t.Fatalf("all-NaN chunk kept %d rows, want %d", got2.Len(), chunkRows)
	}
}

// TestFloatCutPointCanonicalZero pins zero canonicalization at the
// engine level: whatever zero the data holds at the selected rank, a
// zero cut point is +0.0 ("0"), never -0.0 ("-0").
func TestFloatCutPointCanonicalZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	col := NewFloatColumn("v", []float64{-1, negZero, 5, negZero})
	cs := AllRowsChunked(4, 64)
	med := FloatCutPointsChunked(col, cs, 2)
	if len(med) != 1 || med[0] != 0 || math.Signbit(med[0]) {
		t.Fatalf("median point = %v, want canonical +0", med)
	}
	for _, p := range FloatCutPointsChunked(col, cs, 3) {
		if p == 0 && math.Signbit(p) {
			t.Fatal("cut point rendered as -0")
		}
	}
}

// TestFloatMinMaxCanonicalZero pins that a zero bound is +0.0,
// whichever zero a row order puts first.
func TestFloatMinMaxCanonicalZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, vals := range [][]float64{{negZero, 0}, {0, negZero}, {negZero, negZero}} {
		col := NewFloatColumn("v", vals)
		lo, hi, _ := floatMinMax(col, AllRowsChunked(len(vals), 64))
		for _, b := range []float64{lo, hi} {
			if b != 0 || math.Signbit(b) {
				t.Fatalf("rows %v: bounds (%v,%v), want +0", vals, lo, hi)
			}
		}
	}
}

// TestNormalizeChunkRowsClamped pins the width normalization: powers
// of two within [64, 2^30], automatic default below 1, and absurd
// widths clamp instead of overflowing.
func TestNormalizeChunkRowsClamped(t *testing.T) {
	cases := map[int]int{
		-5:            DefaultChunkRows,
		0:             DefaultChunkRows,
		1:             64,
		65:            128,
		448:           512,
		1 << 16:       1 << 16,
		maxChunkRows:  maxChunkRows,
		1<<62 + 1:     maxChunkRows,
		math.MaxInt64: maxChunkRows,
	}
	for in, want := range cases {
		if got := normalizeChunkRows(in); got != want {
			t.Fatalf("normalizeChunkRows(%d) = %d, want %d", in, got, want)
		}
	}
}
