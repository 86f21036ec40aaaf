package engine

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"charles/internal/obs"
)

// naiveFilter is the reference every filter kernel is held to: the
// rows of sel for which keep says yes, tested one at a time.
func naiveFilter(sel Selection, keep func(row int32) bool) Selection {
	out := Selection{}
	for _, row := range sel {
		if keep(row) {
			out = append(out, row)
		}
	}
	return out
}

func sameRows(a, b Selection) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

type rowsFilter func(cs *ChunkedSelection, sum *ChunkSummary) *ChunkedSelection

// checkKernel holds one predicate's filter to the naive reference over
// cs, with the column's zone map (verdicts engaged) and without it
// (every chunk scanned). It also pins the output shape: every chunk is
// in the one form.
func checkKernel(t testing.TB, name string, cs *ChunkedSelection, sum *ChunkSummary, rows rowsFilter, keep func(row int32) bool) {
	t.Helper()
	want := naiveFilter(cs.Flat(), keep)
	for _, s := range []*ChunkSummary{sum, nil} {
		got := rows(cs, s)
		if !sameRows(got.Flat(), want) || got.Len() != len(want) {
			t.Fatalf("%s (zone map %v): rows %v, want %v", name, s != nil, got.Flat(), want)
		}
		checkWords(t, name, got)
	}
}

func checkIntRange(t testing.TB, col IntValued, sum *ChunkSummary, cs *ChunkedSelection, r IntRange) {
	t.Helper()
	vals := col.Int64s()
	checkKernel(t, fmt.Sprintf("int range %+v", r), cs, sum,
		func(cs *ChunkedSelection, s *ChunkSummary) *ChunkedSelection {
			return FilterIntRangeChunked(col, cs, r, s)
		},
		func(row int32) bool { return r.Contains(vals[row]) })
}

// checkFloatRange's reference is r.Contains over vals, the values the
// column was built from: the column stores them as ordinals, −0 as +0
// and every NaN as one, which no range may tell apart.
func checkFloatRange(t testing.TB, col FloatValued, vals []float64, sum *ChunkSummary, cs *ChunkedSelection, r FloatRange) {
	t.Helper()
	checkKernel(t, fmt.Sprintf("float range %+v", r), cs, sum,
		func(cs *ChunkedSelection, s *ChunkSummary) *ChunkedSelection {
			return FilterFloatRangeChunked(col, cs, r, s)
		},
		func(row int32) bool { return r.Contains(vals[row]) })
}

func checkIntSet(t testing.TB, col IntValued, sum *ChunkSummary, cs *ChunkedSelection, values []int64) {
	t.Helper()
	vals := col.Int64s()
	checkKernel(t, fmt.Sprintf("int set %v", values), cs, sum,
		func(cs *ChunkedSelection, s *ChunkSummary) *ChunkedSelection {
			return FilterChunked(cs, IntSetPred(col, values, s))
		},
		func(row int32) bool {
			for _, v := range values {
				if vals[row] == v {
					return true
				}
			}
			return false
		})
}

// checkFloatSet's reference is floatIn over vals, the values the
// column was built from.
func checkFloatSet(t testing.TB, col FloatValued, vals []float64, sum *ChunkSummary, cs *ChunkedSelection, values []float64) {
	t.Helper()
	checkKernel(t, fmt.Sprintf("float set %v", values), cs, sum,
		func(cs *ChunkedSelection, s *ChunkSummary) *ChunkedSelection {
			return FilterChunked(cs, FloatSetPred(col, values, s))
		},
		func(row int32) bool { return floatIn(vals[row], values) })
}

// floatIn is float set membership by SEMANTICS.md §1.4: == over the
// values, under which −0 matches +0, and NaN equal to NaN.
func floatIn(v float64, values []float64) bool {
	for _, w := range values {
		if v == w || v != v && w != w {
			return true
		}
	}
	return false
}

func checkStringSet(t testing.TB, col *StringColumn, sum *ChunkSummary, cs *ChunkedSelection, values []string) {
	t.Helper()
	want := map[string]bool{}
	for _, v := range values {
		want[v] = true
	}
	checkKernel(t, fmt.Sprintf("string set %q (dict %d)", values, col.Cardinality()), cs, sum,
		func(cs *ChunkedSelection, s *ChunkSummary) *ChunkedSelection {
			return FilterStringSetChunked(col, cs, values, s)
		},
		func(row int32) bool { return want[col.Str(int(row))] })
}

func checkStringRange(t testing.TB, col *StringColumn, sum *ChunkSummary, cs *ChunkedSelection, lo, hi string, loIncl, hiIncl bool) {
	t.Helper()
	checkKernel(t, fmt.Sprintf("string range %q..%q %v/%v (dict %d)", lo, hi, loIncl, hiIncl, col.Cardinality()), cs, sum,
		func(cs *ChunkedSelection, s *ChunkSummary) *ChunkedSelection {
			return FilterChunked(cs, StringRangePred(col, lo, hi, loIncl, hiIncl, s))
		},
		func(row int32) bool {
			v := col.Str(int(row))
			return (lo < v || (loIncl && lo == v)) && (v < hi || (hiIncl && v == hi))
		})
}

func checkBoolSet(t testing.TB, col *BoolColumn, sum *ChunkSummary, cs *ChunkedSelection, values []bool) {
	t.Helper()
	checkKernel(t, fmt.Sprintf("bool set %v", values), cs, sum,
		func(cs *ChunkedSelection, s *ChunkSummary) *ChunkedSelection {
			return FilterChunked(cs, BoolSetPred(col, values, s))
		},
		func(row int32) bool {
			for _, v := range values {
				if col.Bool(int(row)) == v {
					return true
				}
			}
			return false
		})
}

// kernelSelections is adversarialSelections in chunked form; an
// empty table has only the empty selection.
func kernelSelections(nRows, chunkRows int, rng *rand.Rand) []*ChunkedSelection {
	if nRows == 0 {
		return []*ChunkedSelection{AllRowsChunked(0, chunkRows)}
	}
	var out []*ChunkedSelection
	for _, sel := range adversarialSelections(nRows, chunkRows, rng) {
		out = append(out, ChunkSelection(sel, nRows, chunkRows))
	}
	return out
}

var inclusivities = [][2]bool{{true, true}, {true, false}, {false, true}, {false, false}}

// TestIntRangeKernelEdges drives the one-compare int kernel through
// the int64 domain's edges: bounds at MinInt64/MaxInt64 under every
// inclusivity (an exclusive bound there empties the range), Lo > Hi,
// and point ranges, over values that sit on those edges.
func TestIntRangeKernelEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const nRows, chunkRows = 300, 64
	edges := []int64{math.MinInt64, math.MinInt64 + 1, -5, 0, 5, math.MaxInt64 - 1, math.MaxInt64}
	vals := make([]int64, nRows)
	for i := range vals {
		if rng.Intn(3) == 0 {
			vals[i] = edges[rng.Intn(len(edges))]
		} else {
			vals[i] = rng.Int63n(21) - 10
		}
	}
	tab := MustNewTable("ints", NewIntColumn("v", vals))
	tab.SetChunkRows(chunkRows)
	col, sum := tab.MustColumn("v").(IntValued), tab.SummaryByName("v")
	for _, cs := range kernelSelections(nRows, chunkRows, rng) {
		for _, lo := range edges {
			for _, hi := range edges {
				for _, in := range inclusivities {
					checkIntRange(t, col, sum, cs, IntRange{Lo: lo, Hi: hi, LoIncl: in[0], HiIncl: in[1]})
				}
			}
		}
		checkIntSet(t, col, sum, cs, []int64{math.MinInt64, 0, math.MaxInt64})
		checkIntSet(t, col, sum, cs, []int64{3, 1 << 40})
	}
}

// TestFloatRangeKernelEdges drives the key-space float kernel through
// every bound that has a special meaning — ±Inf, NaN (an open side),
// ±0 (both zeros on the same side of the bound), subnormals and
// ±MaxFloat64 — under every inclusivity, over values holding NaNs of
// both signs, both zeros, infinities and subnormals.
func TestFloatRangeKernelEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const nRows, chunkRows = 300, 64
	negZero := math.Copysign(0, -1)
	sub := math.SmallestNonzeroFloat64
	bounds := []float64{math.Inf(-1), -math.MaxFloat64, -1.5, -sub, negZero, 0, sub, 1.5, math.MaxFloat64, math.Inf(1), math.NaN()}
	special := append([]float64{
		math.Float64frombits(0xfff8000000000001), // negative quiet NaN
		math.Float64frombits(0x7ff0000000000001), // signaling NaN
		-2 * sub, 2 * sub, math.Nextafter(1.5, 2), math.Nextafter(-1.5, -2),
	}, bounds...)
	vals := make([]float64, nRows)
	for i := range vals {
		if rng.Intn(3) == 0 {
			vals[i] = special[rng.Intn(len(special))]
		} else {
			vals[i] = float64(rng.Intn(9)-4) / 2
		}
	}
	tab := MustNewTable("floats", NewFloatColumn("v", slices.Clone(vals)))
	tab.SetChunkRows(chunkRows)
	col, sum := tab.MustColumn("v").(FloatValued), tab.SummaryByName("v")
	for _, cs := range kernelSelections(nRows, chunkRows, rng) {
		for _, lo := range bounds {
			for _, hi := range bounds {
				for _, in := range inclusivities {
					checkFloatRange(t, col, vals, sum, cs, FloatRange{Lo: lo, Hi: hi, LoIncl: in[0], HiIncl: in[1]})
				}
			}
		}
		checkFloatSet(t, col, vals, sum, cs, []float64{negZero, 1.5, math.NaN()})
		checkFloatSet(t, col, vals, sum, cs, []float64{math.Inf(1), sub})
	}
}

// TestCodeSetKernelDictionaries drives the bitset code kernels across
// the word edges of the bitset (dictionaries of 63, 64 and 65 codes),
// the degenerate dictionaries (0 and 1), and a dictionary past
// denseCodeDictMax, whose zone map is the sparse code list. Sets mix
// present, absent and duplicate values; ranges take bounds from
// inside, between and outside the dictionary.
func TestCodeSetKernelDictionaries(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const chunkRows = 64
	for _, dictLen := range []int{0, 1, 63, 64, 65, denseCodeDictMax + 7} {
		nRows := 300
		if dictLen == 0 {
			nRows = 0
		}
		dict := make([]string, dictLen)
		for i := range dict {
			dict[i] = fmt.Sprintf("s%05d", i*2)
		}
		rng.Shuffle(len(dict), func(i, j int) { dict[i], dict[j] = dict[j], dict[i] })
		codes := make([]uint32, nRows)
		for i := range codes {
			codes[i] = uint32(rng.Intn(dictLen))
			if i >= 128 && i < 192 {
				codes[i] = 0 // one single-code chunk: a take candidate
			}
		}
		strCol, err := NewStringColumnFromDict("s", codes, dict)
		if err != nil {
			t.Fatal(err)
		}
		bools := make([]bool, nRows)
		for i := range bools {
			bools[i] = rng.Intn(2) == 0 || (i >= 64 && i < 128)
		}
		tab := MustNewTable("dict", strCol, NewBoolColumn("b", bools))
		tab.SetChunkRows(chunkRows)
		col, sum := tab.MustColumn("s").(*StringColumn), tab.SummaryByName("s")
		if dictLen > denseCodeDictMax && sum.codeList == nil {
			t.Fatalf("dict %d: expected the sparse presence summary", dictLen)
		}
		bcol, bsum := tab.MustColumn("b").(*BoolColumn), tab.SummaryByName("b")
		pick := func() string {
			if dictLen == 0 || rng.Intn(4) == 0 {
				return fmt.Sprintf("s%05d", 2*rng.Intn(dictLen+2)+1) // between or past the values
			}
			return dict[rng.Intn(dictLen)]
		}
		for _, cs := range kernelSelections(nRows, chunkRows, rng) {
			checkStringSet(t, col, sum, cs, nil)
			checkStringSet(t, col, sum, cs, []string{"absent"})
			for k := 0; k < 6; k++ {
				values := make([]string, 1+rng.Intn(5))
				for i := range values {
					values[i] = pick()
				}
				checkStringSet(t, col, sum, cs, values)
				for _, in := range inclusivities {
					checkStringRange(t, col, sum, cs, pick(), pick(), in[0], in[1])
				}
			}
			if dictLen > 0 {
				checkStringSet(t, col, sum, cs, dict) // every code: a take everywhere
				checkStringRange(t, col, sum, cs, "", "t", true, true)
			}
			for _, values := range [][]bool{nil, {true}, {false}, {true, false}, {false, false}} {
				checkBoolSet(t, bcol, bsum, cs, values)
			}
		}
	}
}

// FuzzFilterKernels holds every kernel, through both drivers and with
// and without zone maps, to the naive references on decoded inputs:
// raw supplies one 64-bit word per row, read as an int, as a float
// (so NaN payloads, ±0, subnormals and infinities all occur) and,
// reduced, as a dictionary code; seed picks the parent selection;
// the bounds and inclusivity bits build every predicate. With a zone
// map the kernels run on its codes, so the summary-less filter and the
// naive reference hold the plane kernels; a narrow column's count over
// the zone map's stored value counts is held to the count over none;
// its rank mode then holds the int and float cuts over the rank codes
// to the key gather.
func FuzzFilterKernels(f *testing.F) {
	word := func(ws ...uint64) []byte {
		var b []byte
		for _, w := range ws {
			for i := 0; i < 8; i++ {
				b = append(b, byte(w>>(8*i)))
			}
		}
		return b
	}
	f.Add(word(0, 1, 2, 3, 1<<63, 1<<63-1, 0x7ff8000000000000, 0xfff0000000000000), uint64(1), int64(1), int64(2), 0.0, 1.0, uint8(0xff))
	f.Add(word(0x8000000000000000, 0, 1, 0x7ff0000000000000), uint64(7), int64(math.MinInt64), int64(math.MaxInt64), math.Copysign(0, -1), math.Inf(1), uint8(0))
	f.Add(word(5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5), uint64(3), int64(math.MaxInt64), int64(math.MinInt64), math.NaN(), -math.MaxFloat64, uint8(0x5a))
	// 1 000 rows of 40 values, as floats 40 adjacent subnormals: every
	// chunk stores its value counts, the 40-row tail chunk too. Seed 459
	// selects every row (every chunk whole), seed 14 three in four (no
	// chunk whole); the second set puts a NaN in chunk 1.
	narrow := make([]uint64, 1000)
	for i := range narrow {
		narrow[i] = uint64(i*37) % 40
	}
	f.Add(word(narrow...), uint64(459), int64(10), int64(30), 0.0, 1e-322, uint8(0x13))
	narrow[70] = 0x7ff8000000000000
	f.Add(word(narrow...), uint64(14), int64(10), int64(30), 0.0, 1e-322, uint8(0x13))
	f.Fuzz(func(t *testing.T, raw []byte, seed uint64, lo, hi int64, flo, fhi float64, incl uint8) {
		const chunkRows = 64
		nRows := len(raw) / 8
		if nRows > 16*chunkRows {
			nRows = 16 * chunkRows
		}
		dictLen := 1 + int(incl>>2)%70 // 1..70: across the 64-code word edge
		dict := make([]string, dictLen)
		for i := range dict {
			dict[i] = fmt.Sprintf("s%02d", i)
		}
		ints := make([]int64, nRows)
		floats := make([]float64, nRows)
		codes := make([]uint32, nRows)
		bools := make([]bool, nRows)
		for i := range ints {
			var w uint64
			for k := 0; k < 8; k++ {
				w |= uint64(raw[8*i+k]) << (8 * k)
			}
			ints[i], floats[i] = int64(w), math.Float64frombits(w)
			codes[i] = uint32(w % uint64(dictLen))
			bools[i] = w&1 == 1
		}
		strCol, err := NewStringColumnFromDict("s", codes, dict)
		if err != nil {
			t.Fatal(err)
		}
		tab := MustNewTable("fuzz", NewIntColumn("i", ints), NewFloatColumn("f", slices.Clone(floats)), strCol, NewBoolColumn("b", bools))
		tab.SetChunkRows(chunkRows)
		rng := rand.New(rand.NewSource(int64(seed)))
		p := rng.Float64()
		var sel Selection
		for r := 0; r < nRows; r++ {
			if rng.Float64() < p {
				sel = append(sel, int32(r))
			}
		}
		cs := ChunkSelection(sel, nRows, chunkRows)
		icol, isum := tab.MustColumn("i").(IntValued), tab.SummaryByName("i")
		fcol, fsum := tab.MustColumn("f").(FloatValued), tab.SummaryByName("f")
		scol, ssum := tab.MustColumn("s").(*StringColumn), tab.SummaryByName("s")
		bcol, bsum := tab.MustColumn("b").(*BoolColumn), tab.SummaryByName("b")

		checkIntRange(t, icol, isum, cs, IntRange{Lo: lo, Hi: hi, LoIncl: incl&1 != 0, HiIncl: incl&2 != 0})
		checkIntSet(t, icol, isum, cs, []int64{lo, hi})
		checkFloatRange(t, fcol, floats, fsum, cs, FloatRange{Lo: flo, Hi: fhi, LoIncl: incl&4 != 0, HiIncl: incl&8 != 0})
		checkFloatSet(t, fcol, floats, fsum, cs, []float64{flo, fhi})
		var values []string
		for d := 0; d < dictLen; d++ {
			if uint64(lo)>>(d%64)&1 != 0 {
				values = append(values, dict[d])
			}
		}
		checkStringSet(t, scol, ssum, cs, values)
		slo, shi := dict[uint64(hi)%uint64(dictLen)], fmt.Sprintf("s%02d", uint64(lo)%80)
		checkStringRange(t, scol, ssum, cs, slo, shi, incl&16 != 0, incl&32 != 0)
		checkBoolSet(t, bcol, bsum, cs, []bool{incl&64 != 0, incl&128 == 0})

		// A narrow column's count adds a chunk's stored value counts
		// where it selects the chunk whole, and must count what the
		// column holds.
		for _, name := range []string{"i", "f"} {
			col, sum := tab.MustColumn(name).(Numeric), tab.SummaryByName(name)
			if lo, cells, ok := zoneWindow(sum, cs); ok {
				for _, retain := range []bool{false, true} {
					checkStoredCounts(t, fmt.Sprintf("column %s, retain %v", name, retain), col, cs, sum, lo, cells, retain)
				}
			}
		}

		// Rank mode: a wide int or float column's cut reads its rank
		// codes — with the fallback share off, for every extent — and
		// must equal the gather over no summary.
		defer func(m float64) { rankShareMax = m }(rankShareMax)
		rankShareMax = 1
		arity := 2 + int(incl>>4)%4
		for _, name := range []string{"i", "f"} {
			col, sum := tab.MustColumn(name).(Numeric), tab.SummaryByName(name)
			for _, retain := range []bool{false, true} {
				cut, counts := IntCutChunked(col, cs, sum, arity, retain)
				want, wantCounts := IntCutChunked(col, cs, nil, arity, retain)
				if !reflect.DeepEqual(cut, want) || !reflect.DeepEqual(counts, wantCounts) {
					t.Fatalf("column %s (rank codes %v), arity %d, retain %v: cut %+v, gathered %+v",
						name, sum.rank != nil, arity, retain, cut, want)
				}
			}
		}
	})
}

// TestCodeSetVerdictShortWantSet pins the dense verdict against a
// wanted set with fewer words than the presence summary (a summary
// built over a larger dictionary): codes past the set are unwanted,
// never wanted.
func TestCodeSetVerdictShortWantSet(t *testing.T) {
	dict := make([]string, 130)
	for i := range dict {
		dict[i] = fmt.Sprintf("s%03d", i)
	}
	codes := make([]uint32, 128)
	for i := range codes {
		codes[i] = 100 // chunk 0: only code 100
	}
	codes[64] = 0 // chunk 1: codes 0 and 100
	col, err := NewStringColumnFromDict("s", codes, dict)
	if err != nil {
		t.Fatal(err)
	}
	tab := MustNewTable("short", col)
	tab.SetChunkRows(64)
	verdict := codeSetVerdict(tab.SummaryByName("s"), codeSet{1}) // {code 0}, one word
	if got := verdict(0); got != chunkSkip {
		t.Fatalf("chunk of unwanted codes: verdict %d, want skip", got)
	}
	if got := verdict(1); got != chunkScan {
		t.Fatalf("mixed chunk: verdict %d, want scan", got)
	}
}

// partPiece is one predicate of a fuzzed partition: its Pred for the
// partition, the one-piece filter the partition must agree with, and
// the row-at-a-time reference both are held to.
type partPiece struct {
	name   string
	pred   func(sum *ChunkSummary) Pred
	filter func(cs *ChunkedSelection, sum *ChunkSummary) *ChunkedSelection
	keep   func(row int32) bool
}

func countingMetrics() *Metrics {
	return &Metrics{ZoneSkip: &obs.Counter{}, ZoneTake: &obs.Counter{}, ZoneScan: &obs.Counter{},
		VectorKernels: &obs.Counter{}, FusedKernels: &obs.Counter{}}
}

// metricCounts reads a counting hook: skip, take, scan, vector, fused.
func metricCounts(m *Metrics) [5]int64 {
	return [5]int64{m.ZoneSkip.Value(), m.ZoneTake.Value(), m.ZoneScan.Value(), m.VectorKernels.Value(), m.FusedKernels.Value()}
}

// checkPartition holds PartitionChunked over pieces — promised to
// partition cs when cover is set — to one filter per piece and to each
// piece's reference run over cs's rows, with the zone map and without
// it, at scan workers 1 and 4. Every child equals both chunk for chunk,
// every child chunk is in the one form, and the metrics hook counts
// exactly what the per-piece filters count.
func checkPartition(t testing.TB, cs *ChunkedSelection, sum *ChunkSummary, pieces []partPiece, cover bool) {
	t.Helper()
	defer SetScanWorkers(0)
	defer SetMetrics(nil)
	checkWords(t, "parent", cs)
	for _, workers := range []int{1, 4} {
		SetScanWorkers(workers)
		for _, s := range []*ChunkSummary{sum, nil} {
			where := fmt.Sprintf("workers %d, zone map %v", workers, s != nil)
			checkPartitionOf(t, cs, s, pieces, cover, where)
		}
	}
}

// rowFilter runs keep over every row of cs: the reference the verdicts
// and kernels are held to.
func rowFilter(cs *ChunkedSelection, keep func(row int32) bool) *ChunkedSelection {
	return ChunkSelection(naiveFilter(cs.Flat(), keep), cs.nRows, cs.chunkRows)
}

// checkPartitionOf is one checkPartition pass over parent.
func checkPartitionOf(t testing.TB, parent *ChunkedSelection, s *ChunkSummary, pieces []partPiece, cover bool, where string) {
	t.Helper()
	preds := make([]Pred, len(pieces))
	for i, p := range pieces {
		preds[i] = p.pred(s)
	}
	m := countingMetrics()
	SetMetrics(m)
	children := PartitionChunked(parent, preds, cover)
	got := metricCounts(m)
	m = countingMetrics()
	SetMetrics(m)
	for i, p := range pieces {
		want := rowFilter(parent, p.keep)
		checkChild(t, p.name+" ("+where+")", children[i], want)
		checkChild(t, p.name+" filter ("+where+")", p.filter(parent, s), want)
	}
	if want := metricCounts(m); got != want {
		t.Fatalf("%s: partition counted skip/take/scan/vector/fused %v, per-piece filters %v", where, got, want)
	}
}

// checkChild holds one partition child to its reference, chunk for
// chunk, every chunk in the one form.
func checkChild(t testing.TB, name string, child, want *ChunkedSelection) {
	t.Helper()
	if child.NumRows() != want.NumRows() || child.NumChunks() != want.NumChunks() || child.Len() != want.Len() {
		t.Fatalf("%s: child holds %d rows in %d chunks, reference %d in %d", name, child.Len(), child.NumChunks(), want.Len(), want.NumChunks())
	}
	checkWords(t, name, child)
	for c := 0; c < want.NumChunks(); c++ {
		if g := segOf(child, c); !sameRows(g, segOf(want, c)) {
			t.Fatalf("%s: chunk %d holds %v, reference %v", name, c, g, segOf(want, c))
		}
	}
}

// partFloatEdges are the float values with a special meaning to a
// range or set test.
var partFloatEdges = []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(-1), math.Inf(1), -1.5, 1.5}

// rangePieces draws arity cut-shaped range pieces over vals: adjacent
// [b_i, b_i+1), the last one closed, on sorted bounds drawn mostly from
// the column's values and otherwise from edges; one piece in four is
// an arbitrary range instead — overlapping, inverted or empty.
func rangePieces[T int64 | float64](vals, edges []T, rng *rand.Rand, arity int, piece func(lo, hi T, loIncl, hiIncl bool) partPiece) []partPiece {
	draw := func() T {
		if len(vals) > 0 && rng.Intn(5) != 0 {
			return vals[rng.Intn(len(vals))]
		}
		return edges[rng.Intn(len(edges))]
	}
	bounds := make([]T, arity+1)
	for i := range bounds {
		bounds[i] = draw()
	}
	slices.Sort(bounds)
	pieces := make([]partPiece, arity)
	for i := range pieces {
		if rng.Intn(4) == 0 {
			pieces[i] = piece(draw(), draw(), rng.Intn(2) == 0, rng.Intn(2) == 0)
		} else {
			pieces[i] = piece(bounds[i], bounds[i+1], true, i == arity-1)
		}
	}
	return pieces
}

// valueSets draws arity value sets for nominal-fallback pieces: 0–4
// values each, mostly ones the column holds, otherwise from extra; an
// empty set matches nothing.
func valueSets[T int64 | float64](vals, extra []T, rng *rand.Rand, arity int) [][]T {
	sets := make([][]T, arity)
	for i := range sets {
		for k := rng.Intn(5); k > 0; k-- {
			if len(vals) > 0 && rng.Intn(4) != 0 {
				sets[i] = append(sets[i], vals[rng.Intn(len(vals))])
			} else {
				sets[i] = append(sets[i], extra[rng.Intn(len(extra))])
			}
		}
	}
	return sets
}

// The piece constructors: each pairs a predicate with the filter it
// must agree with.

func intRangePiece(ic IntValued, r IntRange) partPiece {
	return partPiece{
		name: fmt.Sprintf("int range %+v", r),
		pred: func(s *ChunkSummary) Pred { return IntRangePred(ic, r, s) },
		filter: func(cs *ChunkedSelection, s *ChunkSummary) *ChunkedSelection {
			return FilterIntRangeChunked(ic, cs, r, s)
		},
		keep: func(row int32) bool { return r.Contains(ic.Int64(int(row))) },
	}
}

// floatRangePiece's reference reads the column's decoded values: −0
// reads as +0 and every NaN as the one NaN, which no range tells apart
// from the values the column was built from.
func floatRangePiece(fc FloatValued, r FloatRange) partPiece {
	return partPiece{
		name: fmt.Sprintf("float range %+v", r),
		pred: func(s *ChunkSummary) Pred { return FloatRangePred(fc, r, s) },
		filter: func(cs *ChunkedSelection, s *ChunkSummary) *ChunkedSelection {
			return FilterFloatRangeChunked(fc, cs, r, s)
		},
		keep: func(row int32) bool { return r.Contains(fc.Float64(int(row))) },
	}
}

func intSetPiece(ic IntValued, set []int64) partPiece {
	return partPiece{
		name: fmt.Sprintf("int set %v", set),
		pred: func(s *ChunkSummary) Pred { return IntSetPred(ic, set, s) },
		filter: func(cs *ChunkedSelection, s *ChunkSummary) *ChunkedSelection {
			return FilterChunked(cs, IntSetPred(ic, set, s))
		},
		keep: func(row int32) bool { return slices.Contains(set, ic.Int64(int(row))) },
	}
}

func floatSetPiece(fc FloatValued, set []float64) partPiece {
	return partPiece{
		name: fmt.Sprintf("float set %v", set),
		pred: func(s *ChunkSummary) Pred { return FloatSetPred(fc, set, s) },
		filter: func(cs *ChunkedSelection, s *ChunkSummary) *ChunkedSelection {
			return FilterChunked(cs, FloatSetPred(fc, set, s))
		},
		keep: func(row int32) bool { return floatIn(fc.Float64(int(row)), set) },
	}
}

func stringSetPiece(sc *StringColumn, values []string) partPiece {
	return partPiece{
		name: fmt.Sprintf("string set %q", values),
		pred: func(s *ChunkSummary) Pred { return StringSetPred(sc, values, s) },
		filter: func(cs *ChunkedSelection, s *ChunkSummary) *ChunkedSelection {
			return FilterStringSetChunked(sc, cs, values, s)
		},
		keep: func(row int32) bool { return slices.Contains(values, sc.Str(int(row))) },
	}
}

func boolSetPiece(bc *BoolColumn, values []bool) partPiece {
	return partPiece{
		name: fmt.Sprintf("bool set %v", values),
		pred: func(s *ChunkSummary) Pred { return BoolSetPred(bc, values, s) },
		filter: func(cs *ChunkedSelection, s *ChunkSummary) *ChunkedSelection {
			return FilterChunked(cs, BoolSetPred(bc, values, s))
		},
		keep: func(row int32) bool { return slices.Contains(values, bc.Bool(int(row))) },
	}
}

// coverPieces draws two or three pieces that partition the rows sel
// selects of col, the way a cut's children do. For an int, date or
// float column they are adjacent ranges over the selected numbers'
// exact [min, max], split at selected values, and a {NaN} set when the
// selection holds NaN, which no range matches, or, with sets, the
// distinct selected values shuffled and dealt into sets, as the
// numeric-nominal fallback's are. A string column's pieces deal the
// codes the selection holds, a bool column's are {false} and {true}.
func coverPieces(col Column, sel Selection, sets bool, rng *rand.Rand, arity int) []partPiece {
	switch col := col.(type) {
	case IntValued:
		vals := gatherDistinct(col.Int64s(), sel, cmp.Compare[int64])
		if sets {
			return setPieces(dealSets(vals, rng, arity), func(set []int64) partPiece { return intSetPiece(col, set) })
		}
		return coverRanges(vals, rng, arity, func(lo, hi int64, hiIncl bool) partPiece {
			return intRangePiece(col, IntRange{Lo: lo, Hi: hi, LoIncl: true, HiIncl: hiIncl})
		})
	case FloatValued:
		vals := gatherDistinct(floatValues(col), sel, cmp.Compare[float64])
		if sets {
			return setPieces(dealSets(vals, rng, arity), func(set []float64) partPiece { return floatSetPiece(col, set) })
		}
		nums := slices.DeleteFunc(slices.Clone(vals), func(v float64) bool { return v != v })
		pieces := coverRanges(nums, rng, arity, func(lo, hi float64, hiIncl bool) partPiece {
			return floatRangePiece(col, FloatRange{Lo: lo, Hi: hi, LoIncl: true, HiIncl: hiIncl})
		})
		if len(nums) < len(vals) {
			pieces = append(pieces, floatSetPiece(col, []float64{math.NaN()}))
		}
		return pieces
	case *StringColumn:
		codes := gatherDistinct(col.Codes(), sel, cmp.Compare[uint32])
		return setPieces(dealSets(codes, rng, arity), func(set []uint32) partPiece {
			values := make([]string, len(set))
			for i, code := range set {
				values[i] = col.DictValue(code)
			}
			return stringSetPiece(col, values)
		})
	case *BoolColumn:
		return []partPiece{boolSetPiece(col, []bool{false}), boolSetPiece(col, []bool{true})}
	}
	return nil
}

// floatValues decodes col's values by row.
func floatValues(col FloatValued) []float64 {
	vals := make([]float64, col.Len())
	for r := range vals {
		vals[r] = col.Float64(r)
	}
	return vals
}

func setPieces[T any](sets [][]T, piece func([]T) partPiece) []partPiece {
	pieces := make([]partPiece, len(sets))
	for i, set := range sets {
		pieces[i] = piece(set)
	}
	return pieces
}

// gatherDistinct returns the distinct values of vals at sel, ascending
// by compare (NaN first, the zeros as one value).
func gatherDistinct[T any](vals []T, sel Selection, compare func(a, b T) int) []T {
	out := make([]T, len(sel))
	for i, row := range sel {
		out[i] = vals[row]
	}
	slices.SortFunc(out, compare)
	return slices.CompactFunc(out, func(a, b T) bool { return compare(a, b) == 0 })
}

// coverRanges splits the sorted distinct values vals into up to arity
// adjacent ranges [b_i, b_i+1), the last closed at the maximum, the
// first bound the minimum and the rest drawn from vals.
func coverRanges[T int64 | float64](vals []T, rng *rand.Rand, arity int, piece func(lo, hi T, hiIncl bool) partPiece) []partPiece {
	if len(vals) == 0 {
		return nil
	}
	bounds := []T{vals[0]}
	if len(vals) > 1 {
		for _, i := range rng.Perm(len(vals) - 1)[:min(arity, len(vals))-1] {
			bounds = append(bounds, vals[1+i])
		}
	}
	slices.Sort(bounds)
	bounds = append(bounds, vals[len(vals)-1])
	var pieces []partPiece
	for i := 0; i+1 < len(bounds); i++ {
		pieces = append(pieces, piece(bounds[i], bounds[i+1], i+2 == len(bounds)))
	}
	return pieces
}

// dealSets shuffles vals and deals them into arity non-empty sets (fewer
// when there are fewer values).
func dealSets[T any](vals []T, rng *rand.Rand, arity int) [][]T {
	rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	sets := make([][]T, min(arity, len(vals)))
	for i, v := range vals {
		sets[i%len(sets)] = append(sets[i%len(sets)], v)
	}
	return sets
}

// Shape bits of FuzzPartitionKernels: the low three pick the column
// kind and piece family, the rest transform the column or the pieces.
const (
	partSorted = 1 << 3 // sort the values, so whole chunks fall to one side of a piece
	partBig    = 1 << 4 // tile the rows past parallelScanMinRows, so workers 4 fans out
	partSmall  = 1 << 5 // fold the values into a small domain holding NaN and ±0
	partRuns   = 1 << 6 // 256-row chunks, the parent one contiguous run in each
	partWords  = 1 << 7 // draw the parent word by word (before partRuns): full, dense, sparse or empty
	partCover  = 1 << 8 // draw pieces that partition the parent (coverPieces) and promise the cover
	partPlanes = 1 << 9 // code half the rows, append the rest (some past the outer boundaries): refreshed code planes
)

// FuzzPartitionKernels holds the partition driver to one filter per
// piece and to each piece's row-at-a-time reference (checkPartition),
// under which NaN matches no range and a set listing NaN matches it. raw supplies one 64-bit word per row; shape
// picks the column — int or date ranges, float ranges, int or float
// sets (the nominal fallback), string sets or ranges, bool sets — and
// whether its values are sorted (so the verdicts take and skip whole
// chunks), folded into a small domain with NaN and ±0, or tiled past
// the parallel-scan threshold; seed draws the parent selection, with
// empty chunks, 2–7 pieces, empty spans and sets included, and the one
// piece whose packing is off. With partRuns the parent holds one
// contiguous run per 256-row chunk — the whole chunk or any sub-run —
// which the driver cuts as the run of words it fills. With
// partWords each 64-row word of the parent is full, dense (4 rows in
// 5), sparse (1 in 16) or empty, so a packed parent's words reach both
// the word kernels and the set-bit loops; a table whose row count is
// not a multiple of 64 ends in a partial word. Bits 32–33 of seed, when
// not zero, make every chunk of lenC rows sparse instead: it holds
// 2·⌈lenC/64⌉ − 1, exactly 2·⌈lenC/64⌉ or 2·⌈lenC/64⌉ + 1 rows (a run
// under partRuns), about two rows a word, the partial last chunk by its
// own length, not chunkRows'. With partCover the
// pieces partition the parent instead (coverPieces) and the pass is
// promised so: every child must still equal its filter, whether the
// pass derived it (ranges and code sets) or tested it (a pass holding
// a set — the fallback's, or the {NaN} piece beside float ranges).
// Every pass with the zone map runs numeric and 2–16 value string
// pieces on its codes (the plane kernels), and the pass without it on
// the values. With partPlanes the table is coded over the
// first half of the rows and the rest appended, every fifth of them a
// value past the outer boundaries (the extremes, NaN and values just
// past the small domain), so numeric pieces run the plane kernels over
// refreshed rank codes — exact over a small domain, equi-depth
// otherwise — and string pieces over code planes of a 2–16 value
// dictionary, each child held to the references over the parent's
// rows.
func FuzzPartitionKernels(f *testing.F) {
	word := func(ws ...uint64) []byte {
		var b []byte
		for _, w := range ws {
			for i := 0; i < 8; i++ {
				b = append(b, byte(w>>(8*i)))
			}
		}
		return b
	}
	mixed := word(0, 1, 2, 3, 1<<63, 1<<63-1, 0x7ff8000000000000, 0xfff0000000000000, 5, 9, 12, 7)
	f.Add(mixed, uint64(1), uint16(0))
	f.Add(mixed, uint64(2), uint16(1|partSorted|partSmall))
	f.Add(mixed, uint64(3), uint16(2|partSmall))
	f.Add(mixed, uint64(4), uint16(3|partSmall|partSorted))
	f.Add(mixed, uint64(5), uint16(4|partSmall))
	f.Add(mixed, uint64(6<<8|6), uint16(5|partSorted))
	f.Add(mixed, uint64(40<<8|3), uint16(6))
	f.Add(mixed, uint64(7), uint16(7|partSorted))
	f.Add(mixed, uint64(9), uint16(7))
	f.Add(mixed, uint64(14), uint16(7))
	f.Add(mixed, uint64(8), uint16(2|partBig|partSorted|partSmall))
	f.Add(mixed, uint64(11), uint16(5|partBig))
	// Binary cuts (seed%6 == 0), which scan in the two-piece loops: int,
	// date, float with NaN and ±0, string sets over a one-word and a
	// two-word dictionary, and string ranges.
	f.Add(mixed, uint64(6), uint16(0))
	f.Add(mixed, uint64(12), uint16(1|partSmall))
	f.Add(mixed, uint64(18), uint16(2|partSmall))
	f.Add(mixed, uint64(24), uint16(2|partBig))
	f.Add(mixed, uint64(42<<8|6), uint16(5))
	f.Add(mixed, uint64(66<<8), uint16(5|partBig))
	f.Add(mixed, uint64(66<<8|6), uint16(6))
	// Contiguous parents: whole chunks and sub-runs, every shared test
	// kind, an opaque set kind, and a short table of partial words.
	f.Add(mixed, uint64(6), uint16(0|partRuns|partBig))
	f.Add(mixed, uint64(12), uint16(1|partRuns|partBig|partSorted))
	f.Add(mixed, uint64(18), uint16(2|partRuns|partBig|partSmall))
	f.Add(mixed, uint64(5), uint16(2|partRuns|partBig))
	f.Add(mixed, uint64(7), uint16(3|partRuns|partBig))
	f.Add(mixed, uint64(42<<8|6), uint16(5|partRuns|partBig))
	f.Add(mixed, uint64(66<<8|6), uint16(6|partRuns|partBig))
	f.Add(mixed, uint64(9), uint16(0|partRuns))
	// Parents drawn word by word, cut as words: every test kind, binary
	// cuts in the two-piece word kernels, floats with NaN and ±0, an
	// opaque kind, and a 230-row table ending in a 38-row word.
	long := make([]uint64, 230)
	for i := range long {
		long[i] = uint64(i*7919) ^ uint64(i)<<40
	}
	tail := word(long...)
	f.Add(mixed, uint64(6), uint16(0|partWords|partBig))
	f.Add(mixed, uint64(12), uint16(1|partWords|partBig|partSorted))
	f.Add(mixed, uint64(18), uint16(2|partWords|partBig|partSmall))
	f.Add(mixed, uint64(5), uint16(2|partWords|partBig|partSmall))
	f.Add(mixed, uint64(7), uint16(3|partWords|partBig))
	f.Add(mixed, uint64(42<<8|6), uint16(5|partWords|partBig))
	f.Add(mixed, uint64(66<<8|6), uint16(6|partWords|partBig))
	f.Add(mixed, uint64(9), uint16(7|partWords|partBig))
	f.Add(tail, uint64(7), uint16(0|partWords))
	f.Add(tail, uint64(7), uint16(2|partWords))
	f.Add(tail, uint64(24), uint16(2|partWords|partSmall))
	f.Add(tail, uint64(30<<8|6), uint16(5|partWords|partRuns))
	// Sparse parents of about two rows a word, one row under, at and
	// over it: 64-row chunks (2 rows), and 256-row chunks (8 rows) over
	// a 300-row table whose 44-row last chunk holds 1 to 3.
	edge := word(append(long, long[:70]...)...)
	for bnd := uint64(1); bnd <= 3; bnd++ {
		f.Add(mixed, bnd<<32|6, uint16(0|partBig))
		f.Add(mixed, bnd<<32|12, uint16(2|partBig|partSmall))
		f.Add(edge, bnd<<32|6, uint16(0|partRuns))
		f.Add(edge, bnd<<32|66<<8|6, uint16(5|partRuns))
	}
	// Covering pieces under the promise: every kind, binary and
	// ternary, with NaN and ±0 (small), sorted so that NaN clusters in
	// the last chunks and the rest are NaN-free, drawn word by word, in
	// runs, and sparse.
	for kind := uint16(0); kind < 8; kind++ {
		f.Add(mixed, uint64(6+kind), kind|partCover|partSmall|partBig)
		f.Add(mixed, uint64(7+kind), kind|partCover|partSmall|partSorted|partBig)
		f.Add(mixed, uint64(8+kind), kind|partCover|partWords|partBig)
		f.Add(tail, uint64(9+kind), kind|partCover|partSmall|partWords)
		f.Add(edge, uint64(10+kind), kind|partCover|partSmall|partRuns)
		for bnd := uint64(1); bnd <= 3; bnd++ {
			f.Add(mixed, bnd<<32|uint64(kind), kind|partCover|partSmall|partBig)
			f.Add(edge, bnd<<32|uint64(kind+1), kind|partCover|partSmall|partSorted|partRuns)
		}
	}
	// Code planes: every kind, exact (small) and equi-depth codes, NaN
	// clustered by sorting, binary cuts and covers, parents drawn word
	// by word and in runs.
	for kind := uint16(0); kind < 8; kind++ {
		f.Add(mixed, uint64(6+kind), kind|partPlanes|partWords|partBig)
		f.Add(mixed, uint64(12+kind), kind|partPlanes|partSmall|partWords|partBig)
		f.Add(mixed, uint64(18+kind), kind|partPlanes|partSmall|partSorted|partBig)
		f.Add(tail, uint64(24+kind), kind|partPlanes|partWords)
		f.Add(tail, uint64(30+kind), kind|partPlanes|partSmall|partWords|partCover)
		f.Add(mixed, uint64(36+kind), kind|partPlanes|partSmall|partWords|partCover|partBig)
		f.Add(edge, uint64(42+kind), kind|partPlanes|partSmall|partRuns|partCover)
	}
	// Dictionaries of 7, 11 and 16 values, whose sets list the wanted
	// or the unwanted codes' minterms, whichever are fewer.
	for _, d := range []uint64{5, 9, 14} {
		f.Add(mixed, d<<8|6, uint16(5|partPlanes|partWords|partBig))
		f.Add(mixed, d<<8|7, uint16(6|partPlanes|partWords|partBig))
		f.Add(tail, d<<8|8, uint16(5|partPlanes|partWords|partCover))
		f.Add(mixed, d<<8|9, uint16(6|partPlanes|partSorted|partWords|partBig))
	}
	f.Fuzz(func(t *testing.T, raw []byte, seed uint64, shape uint16) {
		const chunkRows = 64
		n := min(len(raw)/8, 16*chunkRows)
		words := make([]uint64, n)
		for i := range words {
			for k := 0; k < 8; k++ {
				words[i] |= uint64(raw[8*i+k]) << (8 * k)
			}
		}
		nRows := n
		big := shape&partBig != 0 && n > 0
		if big {
			nRows = 640 * chunkRows
		}
		word := func(r int) uint64 { return words[r%n] }
		sorted, small, planes := shape&partSorted != 0, shape&partSmall != 0, shape&partPlanes != 0
		// past reports whether row r is appended past the outer
		// boundaries in planes mode.
		past := func(r int) bool { return planes && r >= nRows/2 && r%5 == 0 }
		rng := rand.New(rand.NewSource(int64(seed)))
		arity := 2 + int(seed%6)
		ints := func() []int64 {
			vals := make([]int64, nRows)
			for r := range vals {
				vals[r] = int64(word(r))
				if small {
					vals[r] = int64(word(r)%13) - 6
				}
			}
			if sorted {
				slices.Sort(vals)
			}
			for r := range vals {
				if past(r) {
					vals[r] = []int64{math.MinInt64, math.MaxInt64, -7, 7, 1 << 62}[r/5%5]
				}
			}
			return vals
		}
		floats := func() []float64 {
			vals := make([]float64, nRows)
			for r := range vals {
				w := word(r)
				vals[r] = math.Float64frombits(w)
				if small {
					vals[r] = float64(int64(w%13)-6) / 2
					if w%5 == 0 {
						vals[r] = partFloatEdges[(w/5)%uint64(len(partFloatEdges))]
					}
				}
			}
			if sorted {
				// By the bits' order-preserving key: -0 before +0, NaNs
				// outside ±Inf by sign.
				key := func(v float64) uint64 {
					b := math.Float64bits(v)
					return b ^ (uint64(int64(b)>>63) | 1<<63)
				}
				slices.SortFunc(vals, func(a, b float64) int { return cmp.Compare(key(a), key(b)) })
			}
			for r := range vals {
				if past(r) {
					vals[r] = []float64{math.Inf(-1), math.Inf(1), math.NaN(), -4, 4, 1e300}[r/5%6]
				}
			}
			return vals
		}
		var col Column
		var pieces []partPiece
		switch kind := shape & 7; kind {
		case 0, 1:
			var ic IntValued = NewIntColumn("v", ints())
			if kind == 1 {
				ic = NewDateColumn("v", ic.Int64s())
			}
			col = ic
			pieces = rangePieces(ic.Int64s(), []int64{math.MinInt64, math.MaxInt64, 0, -1, 1}, rng, arity,
				func(lo, hi int64, loIncl, hiIncl bool) partPiece {
					return intRangePiece(ic, IntRange{Lo: lo, Hi: hi, LoIncl: loIncl, HiIncl: hiIncl})
				})
		case 2:
			fvals := floats()
			fc := NewFloatColumn("v", slices.Clone(fvals))
			col = fc
			pieces = rangePieces(fvals, partFloatEdges, rng, arity,
				func(lo, hi float64, loIncl, hiIncl bool) partPiece {
					return floatRangePiece(fc, FloatRange{Lo: lo, Hi: hi, LoIncl: loIncl, HiIncl: hiIncl})
				})
		case 3:
			ic := NewIntColumn("v", ints())
			col = ic
			sets := valueSets(ic.Int64s(), []int64{math.MinInt64, 0, 99, math.MaxInt64}, rng, arity)
			pieces = setPieces(sets, func(set []int64) partPiece { return intSetPiece(ic, set) })
		case 4:
			fvals := floats()
			fc := NewFloatColumn("v", slices.Clone(fvals))
			col = fc
			sets := valueSets(fvals, partFloatEdges, rng, arity)
			pieces = setPieces(sets, func(set []float64) partPiece { return floatSetPiece(fc, set) })
		case 5, 6:
			dictLen := 1 + int(seed>>8)%70
			if planes {
				dictLen = 2 + int(seed>>8)%15
			}
			dict := make([]string, dictLen)
			for i := range dict {
				dict[i] = fmt.Sprintf("s%02d", i)
			}
			codes := make([]uint32, nRows)
			for r := range codes {
				codes[r] = uint32(word(r) % uint64(dictLen))
			}
			if sorted {
				slices.Sort(codes)
			}
			sc, err := NewStringColumnFromDict("v", codes, dict)
			if err != nil {
				t.Fatal(err)
			}
			col = sc
			pick := func() string {
				if rng.Intn(4) == 0 {
					return fmt.Sprintf("s%02d~", rng.Intn(dictLen+2)) // between or past the values
				}
				return dict[rng.Intn(dictLen)]
			}
			for i := 0; i < arity; i++ {
				if kind == 5 {
					var values []string
					for k := rng.Intn(5); k > 0; k-- {
						values = append(values, pick())
					}
					pieces = append(pieces, stringSetPiece(sc, values))
					continue
				}
				lo, hi, loIncl, hiIncl := pick(), pick(), rng.Intn(2) == 0, rng.Intn(2) == 0
				pieces = append(pieces, partPiece{
					name: fmt.Sprintf("string range %q..%q %v/%v", lo, hi, loIncl, hiIncl),
					pred: func(s *ChunkSummary) Pred { return StringRangePred(sc, lo, hi, loIncl, hiIncl, s) },
					filter: func(cs *ChunkedSelection, s *ChunkSummary) *ChunkedSelection {
						return FilterChunked(cs, StringRangePred(sc, lo, hi, loIncl, hiIncl, s))
					},
					keep: func(row int32) bool {
						v := sc.Str(int(row))
						return (lo < v || (loIncl && lo == v)) && (v < hi || (hiIncl && v == hi))
					},
				})
			}
		case 7:
			bools := make([]bool, nRows)
			for r := range bools {
				bools[r] = word(r)&1 == 1
			}
			if sorted {
				slices.SortFunc(bools, func(a, b bool) int { return b2i(a) - b2i(b) })
			}
			bc := NewBoolColumn("v", bools)
			col = bc
			for i := 0; i < arity; i++ {
				var values []bool
				for k := rng.Intn(3); k > 0; k-- {
					values = append(values, rng.Intn(2) == 0)
				}
				pieces = append(pieces, boolSetPiece(bc, values))
			}
		}
		layout := chunkRows
		if shape&partRuns != 0 {
			layout = 4 * chunkRows
		}
		tab := MustNewTable("fuzz", col)
		tab.SetChunkRows(layout)
		if planes {
			tab = appendedTable(t, col, nRows/2, layout)
		}
		p := rng.Float64()
		if big {
			p = 0.97
		}
		drop := make([]bool, numChunksFor(nRows, layout))
		for c := range drop {
			drop[c] = (big && c%9 == 4) || (!big && rng.Intn(4) == 0)
		}
		var sel Selection
		bnd := int(seed>>32) & 3
		for c, dropped := range drop {
			lo, hi := c*layout, min((c+1)*layout, nRows)
			if dropped && bnd == 0 {
				continue
			}
			if bnd != 0 {
				k := min(hi-lo, 2*((hi-lo+63)>>6)+bnd-2)
				if shape&partRuns != 0 {
					lo += rng.Intn(hi - lo - k + 1)
					sel = append(sel, AllRows(lo + k)[lo:]...)
					continue
				}
				offs := rng.Perm(hi - lo)[:k]
				slices.Sort(offs)
				for _, o := range offs {
					sel = append(sel, int32(lo+o))
				}
				continue
			}
			if shape&partWords != 0 {
				for w := lo; w < hi; w += 64 {
					end, density := min(w+64, hi), rng.Intn(4)
					for r := w; r < end; r++ {
						if density == 0 || (density == 1 && rng.Intn(5) != 0) || (density == 2 && rng.Intn(16) == 0) {
							sel = append(sel, int32(r))
						}
					}
				}
				continue
			}
			if shape&partRuns != 0 {
				if rng.Intn(3) != 0 {
					lo += rng.Intn(hi - lo)
					hi = lo + 1 + rng.Intn(hi-lo)
				}
				sel = append(sel, AllRows(hi)[lo:]...)
				continue
			}

			for r := lo; r < hi; r++ {
				if rng.Float64() < p {
					sel = append(sel, int32(r))
				}
			}
		}
		cover := shape&partCover != 0
		if cover {
			kind := shape & 7
			pieces = coverPieces(col, sel, kind == 3 || kind == 4, rng, 2+arity%2)
		}
		checkPartition(t, ChunkSelection(sel, nRows, layout), tab.SummaryByName("v"), pieces, cover)
	})
}

// appendedTable is a table of col's first h rows in chunks of
// chunkRows, its summaries built, with the rest of col's rows then
// appended: a table holding col's values whose summaries were coded
// before the append and refreshed after it. A string column keeps its dictionary.
func appendedTable(t testing.TB, col Column, h, chunkRows int) *Table {
	t.Helper()
	var head Column
	switch col := col.(type) {
	case *IntColumn:
		head = NewIntColumn("v", slices.Clone(col.Int64s()[:h]))
	case *DateColumn:
		head = NewDateColumn("v", slices.Clone(col.Int64s()[:h]))
	case *FloatColumn:
		head = NewFloatColumn("v", floatValues(col)[:h])
	case *StringColumn:
		dict := make([]string, col.Cardinality())
		for k := range dict {
			dict[k] = col.DictValue(uint32(k))
		}
		var err error
		if head, err = NewStringColumnFromDict("v", slices.Clone(col.Codes()[:h]), dict); err != nil {
			t.Fatal(err)
		}
	case *BoolColumn:
		head = NewBoolColumn("v", slices.Clone(col.Bools()[:h]))
	}
	tab := MustNewTable("fuzz", head)
	tab.SetChunkRows(chunkRows)
	tab.WarmSummaries()
	rows := make([][]Value, 0, col.Len()-h)
	for r := h; r < col.Len(); r++ {
		rows = append(rows, []Value{col.Value(r)})
	}
	if err := tab.AppendRows(rows...); err != nil {
		t.Fatal(err)
	}
	return tab
}
