package core

import (
	"maps"
	"slices"
	"testing"

	"charles/internal/dataset"
	"charles/internal/engine"
	"charles/internal/sdl"
	"charles/internal/seg"
)

func TestStreamYieldsSameSetAsEager(t *testing.T) {
	tab := dataset.Figure3(5000, 1)
	ctx := sdl.ContextAll(tab)

	eager, err := HBCuts(seg.NewEvaluator(tab), ctx, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStream(seg.NewEvaluator(tab), ctx, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := st.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(lazy) != len(eager.Segmentations) {
		t.Fatalf("lazy yielded %d, eager %d", len(lazy), len(eager.Segmentations))
	}
	eagerKeys := map[string]bool{}
	for _, s := range eager.Segmentations {
		eagerKeys[s.Seg.Key()] = true
	}
	for _, s := range lazy {
		if !eagerKeys[s.Seg.Key()] {
			t.Fatalf("lazy produced %s not in eager output", s.Seg.Key())
		}
	}
}

func TestStreamFirstAnswersAreInitialCuts(t *testing.T) {
	tab := dataset.Figure3(5000, 1)
	ctx := sdl.ContextAll(tab)
	st, err := NewStream(seg.NewEvaluator(tab), ctx, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The first five answers are the single-attribute cuts — the
	// "small set of queries" available immediately.
	for i := 0; i < 5; i++ {
		sc, ok, err := st.Next()
		if err != nil || !ok {
			t.Fatalf("answer %d: ok=%v err=%v", i, ok, err)
		}
		if len(sc.Seg.CutAttrs) != 1 {
			t.Fatalf("answer %d cut on %v, want single attribute", i, sc.Seg.CutAttrs)
		}
	}
	// The sixth answer is the first composition.
	sc, ok, err := st.Next()
	if err != nil || !ok {
		t.Fatal(err)
	}
	if len(sc.Seg.CutAttrs) != 2 {
		t.Fatalf("sixth answer cut on %v, want composed pair", sc.Seg.CutAttrs)
	}
}

func TestStreamExhaustion(t *testing.T) {
	tab := dataset.UniformInts(2000, 2, 100, 3)
	ctx := sdl.ContextAll(tab)
	st, err := NewStream(seg.NewEvaluator(tab), ctx, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, ok, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != 2 {
		t.Fatalf("independent 2-column stream yielded %d answers, want 2", n)
	}
	// Next after exhaustion keeps returning false without error.
	if _, ok, err := st.Next(); ok || err != nil {
		t.Fatalf("post-exhaustion Next: ok=%v err=%v", ok, err)
	}
	if st.Result().StopReason != StopIndependent {
		t.Fatalf("stop reason = %v", st.Result().StopReason)
	}
}

func TestStreamErrorPropagation(t *testing.T) {
	tab := dataset.Figure3(100, 1)
	if _, err := NewStream(seg.NewEvaluator(tab), sdl.Query{}, DefaultConfig()); err == nil {
		t.Fatal("empty context accepted")
	}
}

// TestStreamAcrossAppend runs a stream whose Next calls span an
// append. Its candidates were cut at the first version and carry
// partition proofs and counts from it, so every INDEP the stream
// evaluates after the append must count the full table at the new
// version: equal to INDEP of hand-built copies, which carry no proof.
func TestStreamAcrossAppend(t *testing.T) {
	tab := dataset.VOC(4000, 3)
	tab.SetChunkRows(512)
	ctx, err := sdl.ContextOn(tab, "type_of_boat", "tonnage", "departure_harbour", "built")
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStream(seg.NewEvaluator(tab), ctx, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The initial answers, then one composition at the first version.
	for range len(st.st.cand) + 1 {
		if _, ok, err := st.Next(); err != nil || !ok {
			t.Fatalf("next: ok=%v err=%v", ok, err)
		}
	}
	seen := maps.Clone(st.st.indep)
	cands := slices.Clone(st.st.cand)

	// Append copies of the heaviest boats' rows, which shifts how the
	// context attributes depend on each other.
	heavy, err := sdl.ParseBound("(tonnage:[600,1000])", tab)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := seg.NewEvaluator(tab).Select(heavy)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]engine.Value
	for _, r := range sel {
		row := make([]engine.Value, tab.NumCols())
		for c := range row {
			row[c] = tab.Column(c).Value(int(r))
		}
		rows = append(rows, row)
	}
	if err := tab.AppendRows(rows...); err != nil {
		t.Fatal(err)
	}

	if _, ok, err := st.Next(); err != nil || !ok {
		t.Fatalf("next after the append: ok=%v err=%v", ok, err)
	}
	byID := map[int]*seg.Segmentation{}
	for _, c := range cands {
		byID[c.id] = &seg.Segmentation{Queries: c.seg.Queries, CutAttrs: c.seg.CutAttrs, Counts: c.seg.Counts}
	}
	full := seg.NewEvaluator(tab)
	checked := 0
	for key, got := range st.st.indep {
		if _, ok := seen[key]; ok {
			continue
		}
		want, err := seg.IndepOpt(full, byID[key[0]], byID[key[1]], seg.PairOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("INDEP of candidates %v after the append = %v, full table at the new version %v", key, got, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no INDEP evaluated after the append (test premise)")
	}
}
