package engine

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
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

type (
	rowsFilter   func(cs *ChunkedSelection, sum *ChunkSummary) *ChunkedSelection
	bitmapFilter func(cs *ChunkedSelection, sum *ChunkSummary) *Bitmap
)

// checkKernel holds both drivers of one predicate — row ids and
// bitmap — to the naive reference over cs, with the column's zone map
// (verdicts engaged) and without it (every chunk scanned). It also
// pins the output shapes: every row-id segment is exact-length, and
// a chunk with no match allocates no bitmap words.
func checkKernel(t testing.TB, name string, cs *ChunkedSelection, sum *ChunkSummary, rows rowsFilter, bits bitmapFilter, keep func(row int32) bool) {
	t.Helper()
	want := naiveFilter(cs.Flat(), keep)
	for _, s := range []*ChunkSummary{sum, nil} {
		got := rows(cs, s)
		if !sameRows(got.Flat(), want) || got.Len() != len(want) {
			t.Fatalf("%s (zone map %v): rows %v, want %v", name, s != nil, got.Flat(), want)
		}
		for c := 0; c < got.NumChunks(); c++ {
			if seg := got.Seg(c); cap(seg) != len(seg) {
				t.Fatalf("%s: chunk %d holds %d rows in a %d-row array", name, c, len(seg), cap(seg))
			}
		}
		bm := bits(cs, s)
		if bm.Count() != len(want) || !sameRows(bm.Selection(), want) {
			t.Fatalf("%s (zone map %v): bitmap %v, want %v", name, s != nil, bm.Selection(), want)
		}
		for c, words := range bm.chunks {
			if words != nil && len(got.Seg(c)) == 0 {
				t.Fatalf("%s: chunk %d matched nothing but allocated bitmap words", name, c)
			}
		}
	}
}

func checkIntRange(t testing.TB, col IntValued, sum *ChunkSummary, cs *ChunkedSelection, r IntRange) {
	t.Helper()
	vals := col.Int64s()
	checkKernel(t, fmt.Sprintf("int range %+v", r), cs, sum,
		func(cs *ChunkedSelection, s *ChunkSummary) *ChunkedSelection {
			return FilterIntRangeChunked(col, cs, r, s)
		},
		func(cs *ChunkedSelection, s *ChunkSummary) *Bitmap { return FilterIntRangeChunkedBitmap(col, cs, r, s) },
		func(row int32) bool { return r.Contains(vals[row]) })
}

func checkFloatRange(t testing.TB, col FloatValued, sum *ChunkSummary, cs *ChunkedSelection, r FloatRange) {
	t.Helper()
	vals := col.Float64s()
	checkKernel(t, fmt.Sprintf("float range %+v", r), cs, sum,
		func(cs *ChunkedSelection, s *ChunkSummary) *ChunkedSelection {
			return FilterFloatRangeChunked(col, cs, r, s)
		},
		func(cs *ChunkedSelection, s *ChunkSummary) *Bitmap {
			return FilterChunkedBitmap(cs, FloatRangePred(col, r, s))
		},
		func(row int32) bool { return r.Contains(vals[row]) })
}

func checkIntSet(t testing.TB, col IntValued, sum *ChunkSummary, cs *ChunkedSelection, values []int64) {
	t.Helper()
	vals := col.Int64s()
	checkKernel(t, fmt.Sprintf("int set %v", values), cs, sum,
		func(cs *ChunkedSelection, s *ChunkSummary) *ChunkedSelection {
			return FilterIntSetChunked(col, cs, values, s)
		},
		func(cs *ChunkedSelection, s *ChunkSummary) *Bitmap {
			return FilterChunkedBitmap(cs, IntSetPred(col, values, s))
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

// checkFloatSet's reference is ==, under which NaN matches nothing
// (the set filters' documented convention) and -0 matches +0.
func checkFloatSet(t testing.TB, col FloatValued, sum *ChunkSummary, cs *ChunkedSelection, values []float64) {
	t.Helper()
	vals := col.Float64s()
	checkKernel(t, fmt.Sprintf("float set %v", values), cs, sum,
		func(cs *ChunkedSelection, s *ChunkSummary) *ChunkedSelection {
			return FilterFloatSetChunked(col, cs, values, s)
		},
		func(cs *ChunkedSelection, s *ChunkSummary) *Bitmap {
			return FilterChunkedBitmap(cs, FloatSetPred(col, values, s))
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
		func(cs *ChunkedSelection, s *ChunkSummary) *Bitmap {
			return FilterStringSetChunkedBitmap(col, cs, values, s)
		},
		func(row int32) bool { return want[col.Str(int(row))] })
}

func checkStringRange(t testing.TB, col *StringColumn, sum *ChunkSummary, cs *ChunkedSelection, lo, hi string, loIncl, hiIncl bool) {
	t.Helper()
	checkKernel(t, fmt.Sprintf("string range %q..%q %v/%v (dict %d)", lo, hi, loIncl, hiIncl, col.Cardinality()), cs, sum,
		func(cs *ChunkedSelection, s *ChunkSummary) *ChunkedSelection {
			return FilterStringRangeChunked(col, cs, lo, hi, loIncl, hiIncl, s)
		},
		func(cs *ChunkedSelection, s *ChunkSummary) *Bitmap {
			return FilterChunkedBitmap(cs, StringRangePred(col, lo, hi, loIncl, hiIncl, s))
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
			return FilterBoolSetChunked(col, cs, values, s)
		},
		func(cs *ChunkedSelection, s *ChunkSummary) *Bitmap {
			return FilterChunkedBitmap(cs, BoolSetPred(col, values, s))
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
	tab := MustNewTable("floats", NewFloatColumn("v", vals))
	tab.SetChunkRows(chunkRows)
	col, sum := tab.MustColumn("v").(FloatValued), tab.SummaryByName("v")
	for _, cs := range kernelSelections(nRows, chunkRows, rng) {
		for _, lo := range bounds {
			for _, hi := range bounds {
				for _, in := range inclusivities {
					checkFloatRange(t, col, sum, cs, FloatRange{Lo: lo, Hi: hi, LoIncl: in[0], HiIncl: in[1]})
				}
			}
		}
		checkFloatSet(t, col, sum, cs, []float64{negZero, 1.5, math.NaN()})
		checkFloatSet(t, col, sum, cs, []float64{math.Inf(1), sub})
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
// the bounds and inclusivity bits build every predicate.
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
		tab := MustNewTable("fuzz", NewIntColumn("i", ints), NewFloatColumn("f", floats), strCol, NewBoolColumn("b", bools))
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
		checkFloatRange(t, fcol, fsum, cs, FloatRange{Lo: flo, Hi: fhi, LoIncl: incl&4 != 0, HiIncl: incl&8 != 0})
		checkFloatSet(t, fcol, fsum, cs, []float64{flo, fhi})
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
// partition, and the one-piece filter the partition must agree with.
type partPiece struct {
	name   string
	pred   func(sum *ChunkSummary) Pred
	filter func(cs *ChunkedSelection, sum *ChunkSummary) *ChunkedSelection
}

func countingMetrics() *Metrics {
	return &Metrics{ZoneSkip: &obs.Counter{}, ZoneTake: &obs.Counter{}, ZoneScan: &obs.Counter{},
		VectorKernels: &obs.Counter{}, FusedKernels: &obs.Counter{}}
}

// metricCounts reads a counting hook: skip, take, scan, vector, fused.
func metricCounts(m *Metrics) [5]int64 {
	return [5]int64{m.ZoneSkip.Value(), m.ZoneTake.Value(), m.ZoneScan.Value(), m.VectorKernels.Value(), m.FusedKernels.Value()}
}

// checkPartition holds PartitionChunked over pieces to one filter per
// piece, with the zone map and without it, at scan workers 1 and 4,
// and with the parent as row ids and as words (NewBitmapChunked of
// it). In the packed pass every piece but the one at index unpacked is
// packed: it returns no child, and its bitmap and Count equal
// NewBitmapChunked of its piece's filter (no words for an empty
// chunk). The unpacked piece gets a nil bitmap and a child equal to
// its filter chunk for chunk (exact-length segments), as does every
// piece of the pass with packing off. The metrics hook counts exactly
// what the per-piece filters count.
func checkPartition(t testing.TB, cs *ChunkedSelection, sum *ChunkSummary, pieces []partPiece, unpacked int) {
	t.Helper()
	defer SetScanWorkers(0)
	defer SetMetrics(nil)
	for _, workers := range []int{1, 4} {
		SetScanWorkers(workers)
		for _, parent := range []Source{cs, NewBitmapChunked(cs)} {
			for _, s := range []*ChunkSummary{sum, nil} {
				checkPartitionOf(t, cs, parent, s, pieces, unpacked, workers)
			}
		}
	}
}

// checkPartitionOf is one checkPartition pass: parent is cs in either
// form, and the children are held to the filters of cs.
func checkPartitionOf(t testing.TB, cs *ChunkedSelection, parent Source, s *ChunkSummary, pieces []partPiece, unpacked, workers int) {
	t.Helper()
	_, packedParent := parent.(*Bitmap)
	where := fmt.Sprintf("workers %d, zone map %v, packed parent %v", workers, s != nil, packedParent)
	preds := make([]Pred, len(pieces))
	for i, p := range pieces {
		preds[i] = p.pred(s)
	}
	pack := make([]bool, len(pieces))
	for i := range pack {
		pack[i] = i != unpacked
	}
	m := countingMetrics()
	SetMetrics(m)
	children, bms := PartitionChunked(parent, preds, pack)
	got := metricCounts(m)
	m = countingMetrics()
	SetMetrics(m)
	wants := make([]*ChunkedSelection, len(pieces))
	for i, p := range pieces {
		wants[i] = p.filter(cs, s)
		bm := bms[i]
		if i == unpacked {
			if bm != nil {
				t.Fatalf("%s (%s): piece with packing off got a bitmap", p.name, where)
			}
			checkChild(t, p.name+" ("+where+")", children[i], wants[i])
			continue
		}
		if children[i] != nil {
			t.Fatalf("%s (%s): packed piece returned a row-id child", p.name, where)
		}
		ref := NewBitmapChunked(wants[i])
		if bm.Count() != ref.Count() || bm.NumRows() != ref.NumRows() || bm.ChunkRows() != ref.ChunkRows() || len(bm.chunks) != len(ref.chunks) {
			t.Fatalf("%s (%s): packed bitmap of %d rows, filter %d", p.name, where, bm.Count(), ref.Count())
		}
		for c := range ref.chunks {
			if (bm.chunks[c] == nil) != (ref.chunks[c] == nil) || !slices.Equal(bm.chunks[c], ref.chunks[c]) || bm.counts[c] != ref.counts[c] {
				t.Fatalf("%s (%s): packed chunk %d differs from NewBitmapChunked", p.name, where, c)
			}
		}
	}
	if want := metricCounts(m); got != want {
		t.Fatalf("%s: partition counted skip/take/scan/vector/fused %v, per-piece filters %v", where, got, want)
	}
	plain, none := PartitionChunked(parent, preds, nil)
	if none != nil {
		t.Fatalf("%s: unpacked partition returned bitmaps", where)
	}
	for i, p := range pieces {
		checkChild(t, p.name+" ("+where+", packing off)", plain[i], wants[i])
	}
}

// checkChild holds one partition child to its piece's filter, chunk
// for chunk, with exact-length segments.
func checkChild(t testing.TB, name string, child, want *ChunkedSelection) {
	t.Helper()
	if child == nil {
		t.Fatalf("%s: unpacked piece returned no child", name)
	}
	if child.NumRows() != want.NumRows() || child.NumChunks() != want.NumChunks() || child.Len() != want.Len() {
		t.Fatalf("%s: child holds %d rows in %d chunks, filter %d in %d", name, child.Len(), child.NumChunks(), want.Len(), want.NumChunks())
	}
	for c := 0; c < want.NumChunks(); c++ {
		if g := child.Seg(c); !sameRows(g, want.Seg(c)) || cap(g) != len(g) {
			t.Fatalf("%s: chunk %d holds %v (cap %d), filter %v", name, c, g, cap(g), want.Seg(c))
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

// Shape bits of FuzzPartitionKernels: the low three pick the column
// kind and piece family, the rest transform the column.
const (
	partSorted = 1 << 3 // sort the values, so whole chunks fall to one side of a piece
	partBig    = 1 << 4 // tile the rows past parallelScanMinRows, so workers 4 fans out
	partSmall  = 1 << 5 // fold the values into a small domain holding NaN and ±0
	partRuns   = 1 << 6 // 256-row chunks, the parent one contiguous run in each
	partWords  = 1 << 7 // draw the parent word by word (before partRuns): full, dense, sparse or empty
)

// FuzzPartitionKernels holds the partition driver to one filter per
// piece (checkPartition). raw supplies one 64-bit word per row; shape
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
// not a multiple of 64 ends in a partial word. checkPartition cuts
// every parent both as row ids and as words.
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
	f.Add(mixed, uint64(1), uint8(0))
	f.Add(mixed, uint64(2), uint8(1|partSorted|partSmall))
	f.Add(mixed, uint64(3), uint8(2|partSmall))
	f.Add(mixed, uint64(4), uint8(3|partSmall|partSorted))
	f.Add(mixed, uint64(5), uint8(4|partSmall))
	f.Add(mixed, uint64(6<<8|6), uint8(5|partSorted))
	f.Add(mixed, uint64(40<<8|3), uint8(6))
	f.Add(mixed, uint64(7), uint8(7|partSorted))
	f.Add(mixed, uint64(9), uint8(7))
	f.Add(mixed, uint64(14), uint8(7))
	f.Add(mixed, uint64(8), uint8(2|partBig|partSorted|partSmall))
	f.Add(mixed, uint64(11), uint8(5|partBig))
	// Binary cuts (seed%6 == 0), which scan in the two-piece loops: int,
	// date, float with NaN and ±0, string sets over a one-word and a
	// two-word dictionary, and string ranges.
	f.Add(mixed, uint64(6), uint8(0))
	f.Add(mixed, uint64(12), uint8(1|partSmall))
	f.Add(mixed, uint64(18), uint8(2|partSmall))
	f.Add(mixed, uint64(24), uint8(2|partBig))
	f.Add(mixed, uint64(42<<8|6), uint8(5))
	f.Add(mixed, uint64(66<<8), uint8(5|partBig))
	f.Add(mixed, uint64(66<<8|6), uint8(6))
	// Contiguous parents: whole chunks and sub-runs, every shared test
	// kind, an opaque set kind, and a short table of partial words.
	f.Add(mixed, uint64(6), uint8(0|partRuns|partBig))
	f.Add(mixed, uint64(12), uint8(1|partRuns|partBig|partSorted))
	f.Add(mixed, uint64(18), uint8(2|partRuns|partBig|partSmall))
	f.Add(mixed, uint64(5), uint8(2|partRuns|partBig))
	f.Add(mixed, uint64(7), uint8(3|partRuns|partBig))
	f.Add(mixed, uint64(42<<8|6), uint8(5|partRuns|partBig))
	f.Add(mixed, uint64(66<<8|6), uint8(6|partRuns|partBig))
	f.Add(mixed, uint64(9), uint8(0|partRuns))
	// Parents drawn word by word, cut as words: every test kind, binary
	// cuts in the two-piece word kernels, floats with NaN and ±0, an
	// opaque kind, and a 230-row table ending in a 38-row word.
	long := make([]uint64, 230)
	for i := range long {
		long[i] = uint64(i*7919) ^ uint64(i)<<40
	}
	tail := word(long...)
	f.Add(mixed, uint64(6), uint8(0|partWords|partBig))
	f.Add(mixed, uint64(12), uint8(1|partWords|partBig|partSorted))
	f.Add(mixed, uint64(18), uint8(2|partWords|partBig|partSmall))
	f.Add(mixed, uint64(5), uint8(2|partWords|partBig|partSmall))
	f.Add(mixed, uint64(7), uint8(3|partWords|partBig))
	f.Add(mixed, uint64(42<<8|6), uint8(5|partWords|partBig))
	f.Add(mixed, uint64(66<<8|6), uint8(6|partWords|partBig))
	f.Add(mixed, uint64(9), uint8(7|partWords|partBig))
	f.Add(tail, uint64(7), uint8(0|partWords))
	f.Add(tail, uint64(7), uint8(2|partWords))
	f.Add(tail, uint64(24), uint8(2|partWords|partSmall))
	f.Add(tail, uint64(30<<8|6), uint8(5|partWords|partRuns))
	f.Fuzz(func(t *testing.T, raw []byte, seed uint64, shape uint8) {
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
		sorted, small := shape&partSorted != 0, shape&partSmall != 0
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
				slices.SortFunc(vals, func(a, b float64) int { return cmp.Compare(floatKey(a), floatKey(b)) })
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
					r := IntRange{Lo: lo, Hi: hi, LoIncl: loIncl, HiIncl: hiIncl}
					return partPiece{
						name: fmt.Sprintf("int range %+v", r),
						pred: func(s *ChunkSummary) Pred { return IntRangePred(ic, r, s) },
						filter: func(cs *ChunkedSelection, s *ChunkSummary) *ChunkedSelection {
							return FilterIntRangeChunked(ic, cs, r, s)
						},
					}
				})
		case 2:
			fc := NewFloatColumn("v", floats())
			col = fc
			pieces = rangePieces(fc.Float64s(), partFloatEdges, rng, arity,
				func(lo, hi float64, loIncl, hiIncl bool) partPiece {
					r := FloatRange{Lo: lo, Hi: hi, LoIncl: loIncl, HiIncl: hiIncl}
					return partPiece{
						name: fmt.Sprintf("float range %+v", r),
						pred: func(s *ChunkSummary) Pred { return FloatRangePred(fc, r, s) },
						filter: func(cs *ChunkedSelection, s *ChunkSummary) *ChunkedSelection {
							return FilterFloatRangeChunked(fc, cs, r, s)
						},
					}
				})
		case 3:
			ic := NewIntColumn("v", ints())
			col = ic
			for _, set := range valueSets(ic.Int64s(), []int64{math.MinInt64, 0, 99, math.MaxInt64}, rng, arity) {
				pieces = append(pieces, partPiece{
					name: fmt.Sprintf("int set %v", set),
					pred: func(s *ChunkSummary) Pred { return IntSetPred(ic, set, s) },
					filter: func(cs *ChunkedSelection, s *ChunkSummary) *ChunkedSelection {
						return FilterIntSetChunked(ic, cs, set, s)
					},
				})
			}
		case 4:
			fc := NewFloatColumn("v", floats())
			col = fc
			for _, set := range valueSets(fc.Float64s(), partFloatEdges, rng, arity) {
				pieces = append(pieces, partPiece{
					name: fmt.Sprintf("float set %v", set),
					pred: func(s *ChunkSummary) Pred { return FloatSetPred(fc, set, s) },
					filter: func(cs *ChunkedSelection, s *ChunkSummary) *ChunkedSelection {
						return FilterFloatSetChunked(fc, cs, set, s)
					},
				})
			}
		case 5, 6:
			dictLen := 1 + int(seed>>8)%70
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
					pieces = append(pieces, partPiece{
						name: fmt.Sprintf("string set %q", values),
						pred: func(s *ChunkSummary) Pred { return StringSetPred(sc, values, s) },
						filter: func(cs *ChunkedSelection, s *ChunkSummary) *ChunkedSelection {
							return FilterStringSetChunked(sc, cs, values, s)
						},
					})
					continue
				}
				lo, hi, loIncl, hiIncl := pick(), pick(), rng.Intn(2) == 0, rng.Intn(2) == 0
				pieces = append(pieces, partPiece{
					name: fmt.Sprintf("string range %q..%q %v/%v", lo, hi, loIncl, hiIncl),
					pred: func(s *ChunkSummary) Pred { return StringRangePred(sc, lo, hi, loIncl, hiIncl, s) },
					filter: func(cs *ChunkedSelection, s *ChunkSummary) *ChunkedSelection {
						return FilterStringRangeChunked(sc, cs, lo, hi, loIncl, hiIncl, s)
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
				pieces = append(pieces, partPiece{
					name: fmt.Sprintf("bool set %v", values),
					pred: func(s *ChunkSummary) Pred { return BoolSetPred(bc, values, s) },
					filter: func(cs *ChunkedSelection, s *ChunkSummary) *ChunkedSelection {
						return FilterBoolSetChunked(bc, cs, values, s)
					},
				})
			}
		}
		layout := chunkRows
		if shape&partRuns != 0 {
			layout = 4 * chunkRows
		}
		tab := MustNewTable("fuzz", col)
		tab.SetChunkRows(layout)
		p := rng.Float64()
		if big {
			p = 0.97
		}
		drop := make([]bool, numChunksFor(nRows, layout))
		for c := range drop {
			drop[c] = (big && c%9 == 4) || (!big && rng.Intn(4) == 0)
		}
		var sel Selection
		for c, dropped := range drop {
			lo, hi := c*layout, min((c+1)*layout, nRows)
			if dropped {
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
		checkPartition(t, ChunkSelection(sel, nRows, layout), tab.SummaryByName("v"), pieces, rng.Intn(len(pieces)))
	})
}
