package seg

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"charles/internal/engine"
	"charles/internal/sdl"
)

func evalFor(t *testing.T, tab *engine.Table) *Evaluator {
	t.Helper()
	return NewEvaluator(tab)
}

func TestCutQueryIntBalanced(t *testing.T) {
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64(i)
	}
	tab := engine.MustNewTable("t", engine.NewIntColumn("v", vals))
	ev := evalFor(t, tab)
	ctx := sdl.ContextAll(tab)
	children, err := CutQuery(ev, ctx, "v", DefaultCutOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(children) != 2 {
		t.Fatalf("children = %d, want 2", len(children))
	}
	left, _ := children[0].Constraint("v")
	right, _ := children[1].Constraint("v")
	if left.Range.Lo.AsInt() != 0 || left.Range.Hi.AsInt() != 50 || left.Range.HiIncl {
		t.Fatalf("left = %+v, want [0, 50)", left.Range)
	}
	if right.Range.Lo.AsInt() != 50 || right.Range.Hi.AsInt() != 99 || !right.Range.HiIncl {
		t.Fatalf("right = %+v, want [50, 99]", right.Range)
	}
}

func TestCutQueryConstantColumn(t *testing.T) {
	tab := engine.MustNewTable("t",
		engine.NewIntColumn("v", []int64{7, 7, 7, 7}),
		engine.NewIntColumn("w", []int64{1, 2, 3, 4}),
	)
	ev := evalFor(t, tab)
	children, err := CutQuery(ev, sdl.ContextAll(tab), "v", DefaultCutOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(children) != 1 {
		t.Fatalf("constant column split into %d pieces", len(children))
	}
}

func TestCutQueryUnknownColumn(t *testing.T) {
	tab := engine.MustNewTable("t", engine.NewIntColumn("v", []int64{1, 2}))
	ev := evalFor(t, tab)
	if _, err := CutQuery(ev, sdl.ContextAll(tab), "ghost", DefaultCutOptions()); err == nil {
		t.Fatal("unknown column accepted")
	}
}

func TestCutQueryTinyExtent(t *testing.T) {
	tab := engine.MustNewTable("t", engine.NewIntColumn("v", []int64{42}))
	ev := evalFor(t, tab)
	children, err := CutQuery(ev, sdl.ContextAll(tab), "v", DefaultCutOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(children) != 1 {
		t.Fatalf("single row split into %d pieces", len(children))
	}
}

func TestCutQueryFloat(t *testing.T) {
	tab := engine.MustNewTable("t", engine.NewFloatColumn("v", []float64{1.5, 2.5, 3.5, 4.5}))
	ev := evalFor(t, tab)
	children, err := CutQuery(ev, sdl.ContextAll(tab), "v", DefaultCutOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(children) != 2 {
		t.Fatalf("children = %d", len(children))
	}
	left, _ := children[0].Constraint("v")
	if left.Range.Hi.AsFloat() != 3.5 {
		t.Fatalf("float median = %v, want 3.5", left.Range.Hi)
	}
}

// TestCutQueryFloatSignedZeroBound pins that a zero bound does not
// depend on row order: -0.0 and +0.0 compare equal, so a min/max scan
// keeps whichever it meets first, and without canonicalization one
// row order rendered the low piece as "[-0, 1)" and another as
// "[0, 1)".
func TestCutQueryFloatSignedZeroBound(t *testing.T) {
	negZero := math.Copysign(0, -1)
	var want string
	for _, vals := range [][]float64{
		{negZero, 0, 1, 2},
		{0, negZero, 1, 2},
		{2, 1, 0, negZero},
		{1, negZero, 2, 0},
	} {
		tab := engine.MustNewTable("t", engine.NewFloatColumn("v", vals))
		children, err := CutQuery(evalFor(t, tab), sdl.ContextAll(tab), "v", DefaultCutOptions())
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprint(children)
		if strings.Contains(got, "-0") {
			t.Fatalf("rows %v: cut rendered a negative zero: %s", vals, got)
		}
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("rows %v: cut %s, want %s (row order moved a bound)", vals, got, want)
		}
	}
}

func TestCutQueryDatePreservesKind(t *testing.T) {
	tab := engine.MustNewTable("t", engine.NewDateColumn("d", []int64{0, 100, 200, 300}))
	ev := evalFor(t, tab)
	children, err := CutQuery(ev, sdl.ContextAll(tab), "d", DefaultCutOptions())
	if err != nil {
		t.Fatal(err)
	}
	left, _ := children[0].Constraint("d")
	if left.Range.Lo.Kind() != engine.KindDate {
		t.Fatalf("date cut produced %v bounds", left.Range.Lo.Kind())
	}
}

func TestCutQueryBool(t *testing.T) {
	tab := engine.MustNewTable("t", engine.NewBoolColumn("armed", []bool{true, false, true, true}))
	ev := evalFor(t, tab)
	children, err := CutQuery(ev, sdl.ContextAll(tab), "armed", DefaultCutOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(children) != 2 {
		t.Fatalf("children = %d", len(children))
	}
	for _, q := range children {
		c, _ := q.Constraint("armed")
		if c.Kind != sdl.KindSet || c.Set[0].Kind() != engine.KindBool {
			t.Fatalf("bool piece constraint = %+v", c)
		}
	}
}

func TestCutQueryNominalFrequencyOrder(t *testing.T) {
	// Low cardinality (≤ threshold): most frequent value first, so
	// the dominant value is isolated in the first piece.
	vals := append(append(append([]string{},
		repeat("fluit", 60)...),
		repeat("jacht", 25)...),
		repeat("pinas", 15)...)
	tab := engine.MustNewTable("t", engine.NewStringColumn("type", vals))
	ev := evalFor(t, tab)
	children, err := CutQuery(ev, sdl.ContextAll(tab), "type", DefaultCutOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(children) != 2 {
		t.Fatalf("children = %d", len(children))
	}
	first, _ := children[0].Constraint("type")
	if len(first.Set) != 1 || first.Set[0].AsString() != "fluit" {
		t.Fatalf("first piece = %v, want {fluit}", first.Set)
	}
	second, _ := children[1].Constraint("type")
	if len(second.Set) != 2 {
		t.Fatalf("second piece = %v, want {jacht, pinas}", second.Set)
	}
}

func TestCutQueryNominalAlphabeticalOrder(t *testing.T) {
	// High cardinality (> threshold): alphabetical order, so pieces
	// are contiguous alphabetical slices.
	var vals []string
	for i := 0; i < 26; i++ {
		vals = append(vals, repeat(fmt.Sprintf("%c-town", 'a'+i), 4)...)
	}
	tab := engine.MustNewTable("t", engine.NewStringColumn("harbour", vals))
	ev := evalFor(t, tab)
	opt := DefaultCutOptions() // threshold 12 < 26 distinct
	children, err := CutQuery(ev, sdl.ContextAll(tab), "harbour", opt)
	if err != nil {
		t.Fatal(err)
	}
	first, _ := children[0].Constraint("harbour")
	second, _ := children[1].Constraint("harbour")
	// All values in the first piece precede all values in the second.
	maxFirst := first.Set[len(first.Set)-1].AsString()
	minSecond := second.Set[0].AsString()
	if maxFirst >= minSecond {
		t.Fatalf("alphabetical pieces overlap: %q vs %q", maxFirst, minSecond)
	}
	if len(first.Set)+len(second.Set) != 26 {
		t.Fatalf("pieces cover %d values, want 26", len(first.Set)+len(second.Set))
	}
}

func TestCutQueryRespectsExistingRange(t *testing.T) {
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64(i)
	}
	tab := engine.MustNewTable("t", engine.NewIntColumn("v", vals))
	ev := evalFor(t, tab)
	ctx := sdl.MustQuery(sdl.RangeC("v", engine.Int(0), engine.Int(50), true, false))
	children, err := CutQuery(ev, ctx, "v", DefaultCutOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Cutting inside [0,50) must stay inside it.
	for _, q := range children {
		c, _ := q.Constraint("v")
		if c.Range.Lo.AsInt() < 0 || c.Range.Hi.AsInt() > 50 {
			t.Fatalf("child range %+v escapes parent [0,50)", c.Range)
		}
	}
	left, _ := children[0].Constraint("v")
	if left.Range.Hi.AsInt() != 25 {
		t.Fatalf("nested median = %d, want 25", left.Range.Hi.AsInt())
	}
}

func TestCutQueryRespectsExistingSet(t *testing.T) {
	// Cut on a numeric attribute already constrained by a set: the
	// children's constraints must not admit values outside the set.
	tab := engine.MustNewTable("t", engine.NewIntColumn("v", []int64{10, 20, 30, 40, 50, 20, 40}))
	ev := evalFor(t, tab)
	ctx := sdl.MustQuery(sdl.SetC("v", engine.Int(20), engine.Int(40)))
	children, err := CutQuery(ev, ctx, "v", DefaultCutOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(children) != 2 {
		t.Fatalf("children = %d", len(children))
	}
	total := 0
	for _, q := range children {
		c, _ := q.Constraint("v")
		if c.Kind != sdl.KindSet {
			t.Fatalf("child constraint kind = %v, want set (intersection)", c.Kind)
		}
		n, err := ev.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if total != 4 { // rows with v in {20, 40}
		t.Fatalf("children cover %d rows, want 4", total)
	}
}

func TestCutQuerySkewedIntNominalFallback(t *testing.T) {
	// 92% of the rows share one value: the upper median equals the
	// minimum, so the range cut degenerates and the nominal fallback
	// must kick in with set constraints.
	vals := make([]int64, 100)
	for i := range vals {
		switch {
		case i < 92:
			vals[i] = 200
		case i < 96:
			vals[i] = 404
		default:
			vals[i] = 500
		}
	}
	tab := engine.MustNewTable("t", engine.NewIntColumn("status", vals))
	ev := evalFor(t, tab)
	ctx := sdl.ContextAll(tab)
	children, err := CutQuery(ev, ctx, "status", DefaultCutOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(children) != 2 {
		t.Fatalf("children = %d, want 2 (nominal fallback)", len(children))
	}
	first, _ := children[0].Constraint("status")
	if first.Kind != sdl.KindSet || len(first.Set) != 1 || first.Set[0].AsInt() != 200 {
		t.Fatalf("first piece = %+v, want {200}", first)
	}
	s := &Segmentation{Queries: children, CutAttrs: []string{"status"}}
	for _, q := range children {
		n, _ := ev.Count(q)
		s.Counts = append(s.Counts, n)
	}
	if err := ValidatePartition(ev, ctx, s); err != nil {
		t.Fatal(err)
	}
}

func TestCutQuerySkewedFloatNominalFallback(t *testing.T) {
	vals := make([]float64, 50)
	for i := range vals {
		if i < 45 {
			vals[i] = 1.5
		} else {
			vals[i] = 9.5
		}
	}
	tab := engine.MustNewTable("t", engine.NewFloatColumn("v", vals))
	ev := evalFor(t, tab)
	children, err := CutQuery(ev, sdl.ContextAll(tab), "v", DefaultCutOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(children) != 2 {
		t.Fatalf("children = %d, want 2", len(children))
	}
	c, _ := children[0].Constraint("v")
	if c.Kind != sdl.KindSet {
		t.Fatalf("fallback kind = %v, want set", c.Kind)
	}
}

func TestCutQueryArity3(t *testing.T) {
	vals := make([]int64, 90)
	for i := range vals {
		vals[i] = int64(i)
	}
	tab := engine.MustNewTable("t", engine.NewIntColumn("v", vals))
	ev := evalFor(t, tab)
	opt := DefaultCutOptions()
	opt.Arity = 3
	children, err := CutQuery(ev, sdl.ContextAll(tab), "v", opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(children) != 3 {
		t.Fatalf("children = %d, want 3 (tertiles)", len(children))
	}
	for _, q := range children {
		n, _ := ev.Count(q)
		if n != 30 {
			t.Fatalf("tertile size = %d, want 30", n)
		}
	}
}

func TestCutQuerySampledStaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]int64, 10000)
	for i := range vals {
		vals[i] = rng.Int63n(1000)
	}
	tab := engine.MustNewTable("t", engine.NewIntColumn("v", vals))
	ev := evalFor(t, tab)
	opt := DefaultCutOptions()
	opt.SampleSize = 256
	ctx := sdl.ContextAll(tab)
	children, err := CutQuery(ev, ctx, "v", opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(children) != 2 {
		t.Fatalf("children = %d", len(children))
	}
	// Sampled cut point may be off-median but the pieces must still
	// partition the context.
	s := &Segmentation{Queries: children, CutAttrs: []string{"v"}}
	for _, q := range children {
		n, _ := ev.Count(q)
		s.Counts = append(s.Counts, n)
	}
	if err := ValidatePartition(ev, ctx, s); err != nil {
		t.Fatal(err)
	}
	// And the split should still be roughly balanced (within 20%).
	if bal := s.Balance(); bal < 0.9 {
		t.Fatalf("sampled cut badly unbalanced: %v", bal)
	}
}

// TestCutQuerySampledFloatIgnoresNaN is the regression test for a NaN
// in a sampled float cut: the sampled points must drop NaN like the
// exact ones, or NaN ranks below every number, no point lies above
// the minimum, and the median cut falls through to the
// numeric-nominal fallback's set pieces.
func TestCutQuerySampledFloatIgnoresNaN(t *testing.T) {
	vals := make([]float64, 4097)
	vals[0] = math.NaN() // row 0 is always in the systematic sample
	for i := 1; i < len(vals); i++ {
		vals[i] = float64((i - 1) % 100)
	}
	tab := engine.MustNewTable("t", engine.NewFloatColumn("v", vals))
	ctx := sdl.ContextAll(tab)
	for _, sample := range []int{0, 512} {
		opt := DefaultCutOptions()
		opt.SampleSize = sample
		children, err := CutQuery(evalFor(t, tab), ctx, "v", opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(children) != 2 {
			t.Fatalf("sample=%d: %d pieces, want 2", sample, len(children))
		}
		for _, q := range children {
			if c, _ := q.Constraint("v"); c.Kind != sdl.KindRange {
				t.Fatalf("sample=%d: piece %v is not a range: the median cut degraded to a nominal one", sample, c)
			}
		}
		lo, _ := children[0].Constraint("v")
		hi, _ := children[1].Constraint("v")
		if lo.Range.Lo.AsFloat() != 0 || hi.Range.Hi.AsFloat() != 99 || lo.Range.Hi.AsFloat() != hi.Range.Lo.AsFloat() {
			t.Fatalf("sample=%d: pieces %v, %v, want [0, p) and [p, 99]", sample, lo, hi)
		}
	}
}

func TestCutSegmentationDoublesDepth(t *testing.T) {
	tab, ev := figure2Table(t)
	ctx := context2(t, tab)
	a := setA(t, ev, ctx)
	cut, err := Cut(ev, a, "date", DefaultCutOptions())
	if err != nil {
		t.Fatal(err)
	}
	if cut.Depth() != 4 {
		t.Fatalf("depth = %d, want 4 (Definition 6 doubles partitions)", cut.Depth())
	}
	if len(cut.CutAttrs) != 2 {
		t.Fatalf("CutAttrs = %v", cut.CutAttrs)
	}
}

func TestCutSegmentationNoOpKeepsAttrs(t *testing.T) {
	tab := engine.MustNewTable("t",
		engine.NewIntColumn("v", []int64{1, 2, 3, 4}),
		engine.NewIntColumn("c", []int64{7, 7, 7, 7}),
	)
	ev := evalFor(t, tab)
	ctx := sdl.ContextAll(tab)
	a, ok, err := InitialCut(ev, ctx, "v", DefaultCutOptions())
	if err != nil || !ok {
		t.Fatal(err)
	}
	noop, err := Cut(ev, a, "c", DefaultCutOptions())
	if err != nil {
		t.Fatal(err)
	}
	if noop.Depth() != a.Depth() {
		t.Fatalf("no-op cut changed depth to %d", noop.Depth())
	}
	if len(noop.CutAttrs) != 1 || noop.CutAttrs[0] != "v" {
		t.Fatalf("no-op cut changed attrs: %v", noop.CutAttrs)
	}
}

func TestInitialCutConstantColumn(t *testing.T) {
	tab := engine.MustNewTable("t", engine.NewIntColumn("c", []int64{7, 7}))
	ev := evalFor(t, tab)
	_, ok, err := InitialCut(ev, sdl.ContextAll(tab), "c", DefaultCutOptions())
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("constant column produced an initial cut")
	}
}

func TestInitialCutEmptyContext(t *testing.T) {
	tab := engine.MustNewTable("t", engine.NewIntColumn("v", []int64{1, 2}))
	ev := evalFor(t, tab)
	ctx := sdl.MustQuery(sdl.ClosedRange("v", engine.Int(100), engine.Int(200)))
	if _, _, err := InitialCut(ev, ctx, "v", DefaultCutOptions()); err == nil {
		t.Fatal("empty context accepted")
	}
}

func TestComposeOnEmptyAttrSetIsIdentity(t *testing.T) {
	tab, ev := figure2Table(t)
	ctx := context2(t, tab)
	a := setA(t, ev, ctx)
	count, _ := ev.Count(ctx)
	id, err := Compose(ev, a, singleton(ctx, count, ""), DefaultCutOptions())
	if err != nil {
		t.Fatal(err)
	}
	if id.Depth() != a.Depth() {
		t.Fatalf("compose with attribute-free segmentation changed depth")
	}
}

func repeat(s string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = s
	}
	return out
}

// TestDegenerateCutSkipsParentEval is the regression test for the
// wasted-evaluation fix: when a query cannot be split (the attribute
// is constant within its extent), Cut must not fetch the parent
// selection it never uses. With caching off, that wasted fetch was a
// full evaluation per degenerate cut, skewing the E6/E7 FullEvals
// counters.
func TestDegenerateCutSkipsParentEval(t *testing.T) {
	tab := engine.MustNewTable("t",
		engine.NewIntColumn("v", []int64{1, 2, 3, 4}),
		engine.NewIntColumn("c", []int64{7, 7, 7, 7}),
	)
	ev := evalFor(t, tab)
	ctx := sdl.ContextAll(tab)
	a, ok, err := InitialCut(ev, ctx, "v", DefaultCutOptions())
	if err != nil || !ok {
		t.Fatal(err)
	}
	// With caching off every Select is a full evaluation, so the
	// counter exposes exactly how many selections the cut fetched.
	ev.SetCaching(false)
	ev.ResetCounters()
	noop, err := Cut(ev, a, "c", DefaultCutOptions())
	if err != nil {
		t.Fatal(err)
	}
	if noop.Depth() != a.Depth() {
		t.Fatalf("no-op cut changed depth to %d", noop.Depth())
	}
	// CutQuery needs one Select per query to find the (degenerate)
	// cut points; the unused parent selection must not add a second.
	if got := ev.Counters().FullEvals; got != a.Depth() {
		t.Fatalf("degenerate cut cost %d full evals, want %d (one per query)", got, a.Depth())
	}
}

// TestMixedCutSkipsParentEvalForDegeneratePieces covers the mixed
// case: one query splits, another is degenerate; only the split one
// may fetch its parent selection a second time.
func TestMixedCutSkipsParentEvalForDegeneratePieces(t *testing.T) {
	// "c" is constant inside the v<=2 half but splits in the other.
	tab := engine.MustNewTable("t",
		engine.NewIntColumn("v", []int64{1, 2, 3, 4}),
		engine.NewIntColumn("c", []int64{7, 7, 8, 9}),
	)
	ev := evalFor(t, tab)
	ctx := sdl.ContextAll(tab)
	a, ok, err := InitialCut(ev, ctx, "v", DefaultCutOptions())
	if err != nil || !ok {
		t.Fatal(err)
	}
	ev.SetCaching(false)
	ev.ResetCounters()
	cut, err := Cut(ev, a, "c", DefaultCutOptions())
	if err != nil {
		t.Fatal(err)
	}
	if cut.Depth() != 3 {
		t.Fatalf("depth = %d, want 3 (one degenerate piece, one split)", cut.Depth())
	}
	// Two CutQuery selects + one parent re-select for the split
	// query only. (Narrow evaluations are counted separately.)
	if got := ev.Counters().FullEvals; got != 3 {
		t.Fatalf("mixed cut cost %d full evals, want 3", got)
	}
}
