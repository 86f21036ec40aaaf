package seg

import (
	"math"
	"slices"
	"strings"
	"testing"

	"charles/internal/dataset"
	"charles/internal/engine"
	"charles/internal/sdl"
)

// bruteCells counts the contingency table of s1 × s2 one row at a
// time from each segment's cold, uncached extent: cell (i, j) is the
// number of table rows in both R(Q1i) and R(Q2j). It assumes nothing
// about either segmentation, so a row in several segments (or none)
// counts exactly as often as it is selected.
func bruteCells(t *testing.T, tab *engine.Table, s1, s2 *Segmentation) [][]int {
	t.Helper()
	cold := NewEvaluator(tab)
	cold.SetCaching(false)
	members := func(s *Segmentation) [][]int {
		in := make([][]int, tab.NumRows())
		for i, q := range s.Queries {
			sel, err := cold.Select(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range sel {
				in[r] = append(in[r], i)
			}
		}
		return in
	}
	in1, in2 := members(s1), members(s2)
	cells := make([][]int, len(s1.Queries))
	for i := range cells {
		cells[i] = make([]int, len(s2.Queries))
	}
	for r := range in1 {
		for _, i := range in1[r] {
			for _, j := range in2[r] {
				cells[i][j]++
			}
		}
	}
	return cells
}

// handBuilt copies s field by field, the way callers outside the cut
// constructors build segmentations: the copy carries no proof.
func handBuilt(s *Segmentation) *Segmentation {
	return &Segmentation{Queries: s.Queries, CutAttrs: s.CutAttrs, Counts: s.Counts}
}

// candidates builds the HB-cuts candidates of context the way the
// advisor does: one InitialCandidate per context attribute, then a
// ComposeCandidate of every ordered pair of them.
func candidates(t *testing.T, ev *Evaluator, context sdl.Query) []*Segmentation {
	t.Helper()
	opt := DefaultCutOptions()
	var initial []*Segmentation
	for _, attr := range context.Attrs() {
		s, ok, err := InitialCandidate(ev, context, attr, opt)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			initial = append(initial, s)
		}
	}
	out := slices.Clone(initial)
	for _, a := range initial {
		for _, b := range initial {
			if a == b {
				continue
			}
			c, err := ComposeCandidate(ev, a, b, opt, 12)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, c)
		}
	}
	return out
}

// checkPairs holds CellCounts of every pair of segs (each with itself
// too) to the brute-force table, and checks that exactly the pairs of
// two proofs of one context at the current fingerprint build the
// derived sides: every segment but the last.
func checkPairs(t *testing.T, ev *Evaluator, segs []*Segmentation) {
	t.Helper()
	tab := ev.Table()
	fp := tab.Fingerprint()
	for _, s1 := range segs {
		for _, s2 := range segs {
			// An empty tier makes every pair build its sides, so the
			// memo's side shapes are checked even for a hand-built copy
			// whose key equals a proven segmentation's.
			dropPairTables(ev)
			memo := NewPairMemo()
			got, err := CellCountsOpt(ev, s1, s2, PairOptions{Workers: 2, Memo: memo})
			if err != nil {
				t.Fatal(err)
			}
			want := bruteCells(t, tab, s1, s2)
			for i := range want {
				if !slices.Equal(got[i], want[i]) {
					t.Fatalf("%s × %s: row %d is %v, brute force %v", s1.Key(), s2.Key(), i, got[i], want[i])
				}
			}
			derived := sameContextAt(s1, s2, fp)
			for key, side := range memo.m {
				n := len(s1.Queries)
				if strings.HasSuffix(key, "\x00"+s2.Key()) {
					n = len(s2.Queries)
				}
				if derived {
					n--
				}
				if len(side.bms) != n {
					t.Fatalf("%s × %s (derived %v): side %q holds %d segments, want %d", s1.Key(), s2.Key(), derived, key, len(side.bms), n)
				}
			}
		}
	}
}

// nanSky is a 3000-row sky survey at 512-row chunks with NaN in
// redshift (every 37th row) and an extra near-constant float column
// "flag" with NaN (every 41st row): the two cases where a cut's
// children do not partition its parent.
func nanSky(t *testing.T) *engine.Table {
	t.Helper()
	sky := dataset.SkySurvey(3000, 5)
	cols := make([]engine.Column, 0, sky.NumCols()+1)
	for i := 0; i < sky.NumCols(); i++ {
		cols = append(cols, sky.Column(i))
	}
	flag := make([]float64, sky.NumRows())
	for r := range flag {
		switch {
		case r%41 == 0:
			flag[r] = math.NaN()
		case r%9 == 0:
			flag[r] = 2.5
		default:
			flag[r] = 1
		}
	}
	sky = engine.MustNewTable("sky", append(cols, engine.NewFloatColumn("flag", flag))...)
	var rows engine.Selection
	var nans []engine.Value
	for r := 0; r < sky.NumRows(); r += 37 {
		rows = append(rows, int32(r))
		nans = append(nans, engine.Float(math.NaN()))
	}
	if err := sky.UpdateRows(rows, "redshift", nans); err != nil {
		t.Fatal(err)
	}
	sky.SetChunkRows(512)
	return sky
}

// TestDerivedCellsMatchFullTable holds the derived contingency table —
// the last row and column taken from the segment counts — to a
// brute-force table on every pair of HB-cuts candidates, initial and
// composed, of a VOC and a sky-survey context. The sky table has NaN
// in redshift (a range cut puts those rows in every child) and a
// near-constant float column with NaN (the nominal fallback puts them
// in none), so its NaN-touched candidates must carry no proof and
// count every cell. Candidates of two different contexts, and
// hand-built copies, count every cell too.
func TestDerivedCellsMatchFullTable(t *testing.T) {
	voc := dataset.VOC(3000, 21)
	voc.SetChunkRows(512)

	sky := nanSky(t)

	for _, tc := range []struct {
		tab   *engine.Table
		attrs []string
	}{
		{voc, []string{"type_of_boat", "tonnage", "departure_harbour", "departure_date"}},
		{sky, []string{"class", "magnitude", "redshift", "flag"}},
	} {
		ctx, err := sdl.ContextOn(tc.tab, tc.attrs...)
		if err != nil {
			t.Fatal(err)
		}
		ev := NewEvaluator(tc.tab)
		segs := candidates(t, ev, ctx)
		fp := tc.tab.Fingerprint()
		var proven, unproven int
		for _, s := range segs {
			nanTouched := slices.Contains(s.CutAttrs, "redshift") || slices.Contains(s.CutAttrs, "flag")
			exact := ValidatePartition(NewEvaluator(tc.tab), ctx, s) == nil
			if nanTouched == exact {
				t.Fatalf("%s: NaN-touched %v but exact partition %v (test premise)", s.Key(), nanTouched, exact)
			}
			if s.provenAt(fp) != exact {
				t.Fatalf("%s: carries a proof %v, exact partition %v", s.Key(), s.provenAt(fp), exact)
			}
			if s.provenAt(fp) {
				proven++
			} else {
				unproven++
			}
			if handBuilt(s).proof != nil {
				t.Fatal("a hand-built segmentation carries a proof")
			}
		}
		if proven == 0 || (tc.tab == sky) != (unproven > 0) {
			t.Fatalf("%s: %d proven and %d unproven candidates", tc.tab.Name(), proven, unproven)
		}
		checkPairs(t, ev, segs)
		checkPairs(t, ev, []*Segmentation{segs[0], handBuilt(segs[1]), segs[1]})
	}

	// Two contexts of one table: every candidate is proven, but only
	// pairs within one context derive.
	wide, err := sdl.ContextOn(voc, "type_of_boat", "tonnage", "departure_harbour")
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := sdl.ParseBound("(type_of_boat:, tonnage:[200,800], departure_harbour:)", voc)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(voc)
	opt := DefaultCutOptions()
	var segs []*Segmentation
	for _, ctx := range []sdl.Query{wide, narrow} {
		for _, attr := range []string{"type_of_boat", "tonnage"} {
			s, ok, err := InitialCandidate(ev, ctx, attr, opt)
			if err != nil || !ok {
				t.Fatalf("cut %s of %s: %v ok=%v", attr, ctx, err, ok)
			}
			segs = append(segs, s)
		}
	}
	if sameContextAt(segs[0], segs[2], voc.Fingerprint()) || !sameContextAt(segs[2], segs[3], voc.Fingerprint()) {
		t.Fatal("context keys of the two contexts' candidates are confused")
	}
	checkPairs(t, ev, segs)

	// A plain Cut of a hand-built segmentation proves nothing either.
	c, err := Cut(ev, handBuilt(segs[0]), "departure_harbour", opt)
	if err != nil {
		t.Fatal(err)
	}
	if c.proof != nil {
		t.Fatal("a cut of a hand-built segmentation carries a proof")
	}
}

// TestDerivedCellsAfterAppend is the mutation guard: candidates cut at
// one version carry proofs naming that version's fingerprint, so after
// an append INDEP — memoized sides and all — counts every cell at the
// new version instead of deriving from stale counts.
func TestDerivedCellsAfterAppend(t *testing.T) {
	tab := dataset.VOC(3000, 7)
	tab.SetChunkRows(512)
	ctx, err := sdl.ContextOn(tab, "type_of_boat", "tonnage", "departure_harbour")
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(tab)
	opt := DefaultCutOptions()
	s1, _, err := InitialCandidate(ev, ctx, "tonnage", opt)
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := InitialCandidate(ev, ctx, "type_of_boat", opt)
	if err != nil {
		t.Fatal(err)
	}
	memo := NewPairMemo()
	popt := PairOptions{Workers: 1, Memo: memo}
	before, err := IndepOpt(ev, s1, s2, popt)
	if err != nil {
		t.Fatal(err)
	}
	if want := IndepFromCells(bruteCells(t, tab, s1, s2)); before != want {
		t.Fatalf("INDEP before the append = %v, full table %v", before, want)
	}
	// Append copies of 600 rows of the lower tonnage half: the
	// dependence between the two cuts shifts.
	sel, err := ev.Select(s1.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]engine.Value
	for _, r := range sel[:600] {
		rows = append(rows, valueRow(tab, int(r)))
	}
	if err := tab.AppendRows(rows...); err != nil {
		t.Fatal(err)
	}
	if s1.provenAt(tab.Fingerprint()) || s2.provenAt(tab.Fingerprint()) {
		t.Fatal("a proof names the fingerprint of a version its counts were not taken at")
	}
	got, err := IndepOpt(ev, s1, s2, popt)
	if err != nil {
		t.Fatal(err)
	}
	want := IndepFromCells(bruteCells(t, tab, s1, s2))
	if got != want {
		t.Fatalf("INDEP after the append = %v, full table at the new version %v", got, want)
	}
	if want == before {
		t.Fatal("the append left INDEP unchanged (test premise)")
	}
}
