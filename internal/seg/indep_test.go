package seg

import (
	"fmt"
	"sync"
	"testing"

	"charles/internal/engine"
	"charles/internal/sdl"
	"charles/internal/stats"
)

// pairFixture builds two multi-segment segmentations over a 4096-row
// table plus a hand-built third whose segments straddle the bitmap
// density crossover: one dense majority segment and two sparse tail
// segments, so its pair side holds both representations and the
// fixture's pairs run every cell path — bitmap×bitmap, bitmap×vector
// and vector×vector.
func pairFixture(t testing.TB) (*Evaluator, *Segmentation, *Segmentation, *Segmentation) {
	const n = 4096
	xs := make([]int64, n)
	ys := make([]int64, n)
	zs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i % 16)
		ys[i] = int64((i / 3) % 11)
		switch {
		case i%409 == 0: // ~10 rows: density ≈ 1/409, well under 1/64
			zs[i] = 1
		case i%487 == 1: // ~8 rows
			zs[i] = 2
		default:
			zs[i] = 0
		}
	}
	tab := engine.MustNewTable("pairs",
		engine.NewIntColumn("x", xs),
		engine.NewIntColumn("y", ys),
		engine.NewIntColumn("z", zs),
	)
	ev := NewEvaluator(tab)
	ctx, err := sdl.ContextOn(tab, "x", "y", "z")
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultCutOptions()
	opt.Arity = 4
	s1, ok, err := InitialCut(ev, ctx, "x", opt)
	if err != nil || !ok {
		t.Fatalf("InitialCut(x): %v ok=%v", err, ok)
	}
	s2, ok, err := InitialCut(ev, ctx, "y", opt)
	if err != nil || !ok {
		t.Fatalf("InitialCut(y): %v ok=%v", err, ok)
	}
	s3 := &Segmentation{CutAttrs: []string{"z"}}
	for v := int64(0); v < 3; v++ {
		q := ctx.WithConstraint(sdl.SetC("z", engine.Int(v)))
		count, err := ev.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		s3.Queries = append(s3.Queries, q)
		s3.Counts = append(s3.Counts, count)
	}
	return ev, s1, s2, s3
}

// TestPairFixtureSidesMixRepresentations pins what makes the pair
// tests cover every cellCount path: the cut sides pack every segment,
// and the hand-built side holds both a bitmap and a row-id vector.
func TestPairFixtureSidesMixRepresentations(t *testing.T) {
	ev, s1, s2, s3 := pairFixture(t)
	fp := ev.Table().Fingerprint()
	for name, s := range map[string]*Segmentation{"s1": s1, "s2": s2, "s3": s3} {
		side, err := buildSide(ev, s, PairOptions{}.normalize(), fp, false)
		if err != nil {
			t.Fatal(err)
		}
		bitmaps, vectors := 0, 0
		for i, bm := range side.bms {
			switch {
			case bm != nil && side.sels[i] != nil:
				t.Fatalf("%s: segment %d is held as both a bitmap and a vector", name, i)
			case bm != nil:
				bitmaps++
			default:
				vectors++
			}
		}
		if name == "s3" && (bitmaps == 0 || vectors == 0) {
			t.Fatalf("s3: side holds %d bitmaps and %d vectors, want both kinds", bitmaps, vectors)
		}
		if name != "s3" && vectors != 0 {
			t.Fatalf("%s: side holds %d vectors, want every segment packed", name, vectors)
		}
	}
}

// pairGrid is the worker sweep every equivalence test runs over.
func pairGrid() []PairOptions {
	var out []PairOptions
	for _, workers := range []int{1, 2, 4, 8} {
		out = append(out, PairOptions{Workers: workers})
	}
	return out
}

// TestCellCountsParallelMatchesSequential pins the tentpole
// guarantee cell-for-cell: the contingency table equals the row-at-a-
// time count at every worker count, on every mix of representations.
// Run with -race, this also exercises the parallel cell loop for data
// races.
func TestCellCountsParallelMatchesSequential(t *testing.T) {
	ev, s1, s2, s3 := pairFixture(t)
	pairs := []struct {
		name string
		a, b *Segmentation
	}{
		{"dense×dense", s1, s2},
		{"dense×mixed", s1, s3},
		{"mixed×dense", s3, s2},
		{"mixed×mixed", s3, s3},
	}
	for _, pair := range pairs {
		want := bruteCells(t, ev.Table(), pair.a, pair.b)
		if len(want) < 2 || len(want[0]) < 2 {
			t.Fatalf("%s: table %dx%d is too small to be meaningful", pair.name, len(want), len(want[0]))
		}
		for _, opt := range pairGrid() {
			got, err := CellCountsOpt(ev, pair.a, pair.b, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s %+v: %d rows, want %d", pair.name, opt, len(got), len(want))
			}
			for i := range want {
				for j := range want[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("%s %+v: cell[%d][%d] = %d, want %d",
							pair.name, opt, i, j, got[i][j], want[i][j])
					}
				}
			}
		}
	}
}

// TestProductParallelMatchesSequential pins that the parallel
// product merges in (i, j) order: its queries and counts are the
// nonempty row-at-a-time cells, conjoined in (i, j) order, at every
// width.
func TestProductParallelMatchesSequential(t *testing.T) {
	ev, s1, _, s3 := pairFixture(t)
	want := &Segmentation{CutAttrs: mergeAttrs(s1.CutAttrs, s3.CutAttrs)}
	for i, row := range bruteCells(t, ev.Table(), s1, s3) {
		for j, count := range row {
			if count == 0 {
				continue
			}
			q, nonEmpty, err := sdl.Conjoin(s1.Queries[i], s3.Queries[j])
			if err != nil || !nonEmpty {
				t.Fatalf("conjoin (%d, %d): %v nonEmpty=%v", i, j, err, nonEmpty)
			}
			want.Queries = append(want.Queries, q)
			want.Counts = append(want.Counts, count)
		}
	}
	if want.Depth() < 4 {
		t.Fatalf("product depth %d is too small to be meaningful", want.Depth())
	}
	for _, opt := range pairGrid() {
		got, err := ProductOpt(ev, s1, s3, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got.Key() != want.Key() {
			t.Fatalf("%+v: product queries differ:\n got %s\nwant %s", opt, got.Key(), want.Key())
		}
		for i := range want.Counts {
			if got.Counts[i] != want.Counts[i] {
				t.Fatalf("%+v: count[%d] = %d, want %d", opt, i, got.Counts[i], want.Counts[i])
			}
		}
	}
}

// TestIndepAndChiSquareInvariantAcrossOptions pins exact float
// equality of INDEP against the row-at-a-time table (counts are
// integers, so entropy inputs are identical) and agreement of the
// chi-squared stopping rule.
func TestIndepAndChiSquareInvariantAcrossOptions(t *testing.T) {
	ev, s1, s2, s3 := pairFixture(t)
	for _, pair := range [][2]*Segmentation{{s1, s2}, {s1, s3}, {s3, s3}} {
		cells := bruteCells(t, ev.Table(), pair[0], pair[1])
		want := IndepFromCells(cells)
		wantChi := stats.ChiSquareIndependent(cells, 0.05)
		for _, opt := range pairGrid() {
			got, err := IndepOpt(ev, pair[0], pair[1], opt)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%+v: INDEP = %v, want exactly %v", opt, got, want)
			}
			gotChi, err := ChiSquareIndependentOpt(ev, pair[0], pair[1], 0.05, opt)
			if err != nil {
				t.Fatal(err)
			}
			if gotChi != wantChi {
				t.Fatalf("%+v: chi-squared verdict %v, want %v", opt, gotChi, wantChi)
			}
		}
	}
}

// TestCellCountsConcurrentCallers drives the parallel cell loop from
// many goroutines sharing one evaluator — the multi-session shape —
// under -race.
func TestCellCountsConcurrentCallers(t *testing.T) {
	ev, s1, s2, s3 := pairFixture(t)
	want := bruteCells(t, ev.Table(), s1, s2)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			opt := PairOptions{Workers: 1 + g%4}
			got, err := CellCountsOpt(ev, s1, s2, opt)
			if err != nil {
				errs <- err
				return
			}
			for i := range want {
				for j := range want[i] {
					if got[i][j] != want[i][j] {
						errs <- fmt.Errorf("goroutine %d: cell[%d][%d] = %d, want %d", g, i, j, got[i][j], want[i][j])
						return
					}
				}
			}
			if _, err := ProductOpt(ev, s1, s3, opt); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
