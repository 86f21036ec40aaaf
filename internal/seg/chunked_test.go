package seg

import (
	"math/rand"
	"reflect"
	"testing"

	"charles/internal/dataset"
	"charles/internal/engine"
	"charles/internal/sdl"
)

// vocQueries builds a spread of conjunctive queries over the VOC
// schema: nominal sets, numeric ranges with mixed inclusivity, and
// multi-constraint conjunctions.
func vocQueries() []sdl.Query {
	return []sdl.Query{
		sdl.MustQuery(sdl.SetC("type_of_boat", engine.String_("fluit"))),
		sdl.MustQuery(sdl.ClosedRange("tonnage", engine.Int(200), engine.Int(700))),
		sdl.MustQuery(
			sdl.SetC("type_of_boat", engine.String_("fluit"), engine.String_("jacht")),
			sdl.RangeC("tonnage", engine.Int(100), engine.Int(900), true, false),
		),
		sdl.MustQuery(
			sdl.RangeC("tonnage", engine.Int(0), engine.Int(450), true, true),
			sdl.SetC("departure_harbour", engine.String_("texel")),
		),
	}
}

// TestSelectChunkedMatchesAcrossLayouts is the evaluator-level
// equivalence property: the same query must produce the identical
// flat selection at every chunk width, including widths that leave
// most chunks empty and a partial final chunk.
func TestSelectChunkedMatchesAcrossLayouts(t *testing.T) {
	tab := dataset.VOC(3001, 5) // 3001: partial final chunk at every width
	reference := make(map[string]engine.Selection)
	for _, q := range vocQueries() {
		ev := NewEvaluator(tab) // default layout
		sel, err := ev.Select(q)
		if err != nil {
			t.Fatal(err)
		}
		reference[q.Key()] = sel
	}
	for _, chunkRows := range []int{64, 448, 1 << 12} {
		tab := dataset.VOC(3001, 5)
		tab.SetChunkRows(chunkRows) // 448 normalizes up to 512
		ev := NewEvaluator(tab)
		for _, q := range vocQueries() {
			cs, err := ev.SelectChunked(q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cs.Flat(), reference[q.Key()]) {
				t.Fatalf("chunkRows=%d: selection for %s diverged from default layout", chunkRows, q)
			}
			if cs.ChunkRows() != tab.ChunkRows() {
				t.Fatalf("selection carries chunkRows=%d, want %d", cs.ChunkRows(), tab.ChunkRows())
			}
		}
	}
}

// TestNarrowChunkedTouchesOnlyParentChunks pins the narrow-eval
// skipping: the children of a cut whose parent is confined to the
// first chunk hold rows only there, partition the parent, and equal a
// cold evaluation of each child query.
func TestNarrowChunkedTouchesOnlyParentChunks(t *testing.T) {
	const n = 4000
	ids := make([]int64, n)
	tonnage := make([]int64, n)
	rng := rand.New(rand.NewSource(7))
	for i := range ids {
		ids[i] = int64(i)
		tonnage[i] = rng.Int63n(10000)
	}
	tab := engine.MustNewTable("t", engine.NewIntColumn("id", ids), engine.NewIntColumn("tonnage", tonnage))
	tab.SetChunkRows(256)
	ev := NewEvaluator(tab)
	// A parent confined to the first chunk by construction.
	parent := sdl.MustQuery(sdl.ClosedRange("id", engine.Int(0), engine.Int(199)))
	s, err := Cut(ev, singleton(parent, 200, ""), "tonnage", DefaultCutOptions())
	if err != nil {
		t.Fatal(err)
	}
	if s.Depth() < 2 {
		t.Fatalf("cut did not split: %v", s.Queries)
	}
	cold := NewEvaluator(tab)
	for _, child := range s.Queries {
		childCS, err := ev.SelectChunked(child)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < childCS.NumChunks(); i++ {
			if len(childCS.Seg(i)) != 0 {
				t.Fatalf("chunk %d has rows although the parent was confined to chunk 0", i)
			}
		}
		want, err := cold.SelectChunked(child)
		if err != nil {
			t.Fatal(err)
		}
		if !sameChunked(childCS, want) {
			t.Fatalf("child %s differs from a cold evaluation", child)
		}
	}
	if s.Total() != 200 {
		t.Fatalf("children cover %d rows, want the parent's 200", s.Total())
	}
}

// TestCutMatchesAcrossChunkLayouts runs the full CUT primitive at
// several chunk widths and requires identical pieces and counts —
// the cut-point math must not see chunk boundaries.
func TestCutMatchesAcrossChunkLayouts(t *testing.T) {
	type cutResult struct {
		keys   []string
		counts []int
	}
	run := func(chunkRows int) cutResult {
		tab := dataset.VOC(2777, 3)
		if chunkRows > 0 {
			tab.SetChunkRows(chunkRows)
		}
		ev := NewEvaluator(tab)
		ctx, err := sdl.ContextOn(tab, "type_of_boat", "tonnage", "departure_harbour")
		if err != nil {
			t.Fatal(err)
		}
		s, ok, err := InitialCut(ev, ctx, "tonnage", DefaultCutOptions())
		if err != nil || !ok {
			t.Fatalf("initial cut: %v ok=%v", err, ok)
		}
		s, err = Cut(ev, s, "type_of_boat", DefaultCutOptions())
		if err != nil {
			t.Fatal(err)
		}
		s, err = Cut(ev, s, "departure_harbour", CutOptions{Arity: 3})
		if err != nil {
			t.Fatal(err)
		}
		var res cutResult
		for i, q := range s.Queries {
			res.keys = append(res.keys, q.Key())
			res.counts = append(res.counts, s.Counts[i])
		}
		return res
	}
	want := run(0)
	for _, chunkRows := range []int{64, 1000, 1 << 13} {
		got := run(chunkRows)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunkRows=%d: cut result diverged\n got %+v\nwant %+v", chunkRows, got, want)
		}
	}
}

// TestPairMemoSharesSides pins the satellite reuse claim: with a
// memo in the options, repeated pairwise operator calls over the
// same segmentations stop re-fetching their selections — the
// cache-hit counter stays flat after the first call. The repeats of
// one pair are answered by the pair-table tier before any side is
// needed, so the memo is exercised on table misses: the transposed
// pair is another table over the same two sides.
func TestPairMemoSharesSides(t *testing.T) {
	tab := dataset.VOC(2000, 9)
	ev := NewEvaluator(tab)
	ctx, err := sdl.ContextOn(tab, "type_of_boat", "tonnage", "departure_harbour")
	if err != nil {
		t.Fatal(err)
	}
	var segs []*Segmentation
	for _, attr := range []string{"type_of_boat", "tonnage", "departure_harbour"} {
		s, ok, err := InitialCut(ev, ctx, attr, DefaultCutOptions())
		if err != nil || !ok {
			t.Fatalf("cut %s: %v", attr, err)
		}
		segs = append(segs, s)
	}
	s1, s2, s3 := segs[0], segs[1], segs[2]
	memo := NewPairMemo()
	opt := PairOptions{Workers: 1, Memo: memo}
	base, err := IndepOpt(ev, s1, s2, opt)
	if err != nil {
		t.Fatal(err)
	}
	hitsAfterFirst := ev.Counters()[CacheHits]
	// Product + CellCounts + Indep + ChiSquare over the same pair
	// (tier hits) and over the transposed pair (tier misses): all
	// sides come from the memo, no further selection lookups.
	for _, p := range [][2]*Segmentation{{s1, s2}, {s2, s1}} {
		if _, err := ProductOpt(ev, p[0], p[1], opt); err != nil {
			t.Fatal(err)
		}
		if _, err := CellCountsOpt(ev, p[0], p[1], opt); err != nil {
			t.Fatal(err)
		}
		if _, err := ChiSquareIndependentOpt(ev, p[0], p[1], 0.05, opt); err != nil {
			t.Fatal(err)
		}
	}
	again, err := IndepOpt(ev, s1, s2, opt)
	if err != nil {
		t.Fatal(err)
	}
	c := ev.Counters()
	if c[CacheHits] != hitsAfterFirst {
		t.Fatalf("memoized operator calls still hit the selection cache: %d -> %d", hitsAfterFirst, c[CacheHits])
	}
	if c[PairMemoHits] == 0 {
		t.Fatal("the transposed pair missed the tier but took no side from the memo")
	}
	if c[PairTableHits] == 0 {
		t.Fatal("repeated calls over one pair were not served by the pair-table tier")
	}
	if again != base {
		t.Fatalf("memoized INDEP = %v, want %v", again, base)
	}
	// Without a memo a table miss does re-fetch selections.
	plain := PairOptions{Workers: 1}
	if _, err := IndepOpt(ev, s1, s3, plain); err != nil {
		t.Fatal(err)
	}
	if got := ev.Counters()[CacheHits]; got == hitsAfterFirst {
		t.Fatal("memo-less operator call did not consult the selection cache (test premise broken)")
	}
}

// TestPairMemoMatchesUnmemoized proves the memo is purely a
// performance artifact: INDEP values with and without it agree on
// random segmentation pairs.
func TestPairMemoMatchesUnmemoized(t *testing.T) {
	tab := dataset.VOC(1500, 11)
	ev := NewEvaluator(tab)
	ctx, err := sdl.ContextOn(tab, "type_of_boat", "tonnage", "departure_harbour", "trip")
	if err != nil {
		t.Fatal(err)
	}
	attrs := []string{"type_of_boat", "tonnage", "departure_harbour", "trip"}
	var segs []*Segmentation
	for _, a := range attrs {
		s, ok, err := InitialCut(ev, ctx, a, DefaultCutOptions())
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			segs = append(segs, s)
		}
	}
	memo := NewPairMemo()
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		i, j := rng.Intn(len(segs)), rng.Intn(len(segs))
		with, err := IndepOpt(ev, segs[i], segs[j], PairOptions{Workers: 2, Memo: memo})
		if err != nil {
			t.Fatal(err)
		}
		without, err := IndepOpt(ev, segs[i], segs[j], PairOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if with != without {
			t.Fatalf("INDEP(%d,%d) with memo %v != without %v", i, j, with, without)
		}
	}
}
