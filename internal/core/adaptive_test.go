package core

import (
	"testing"

	"charles/internal/dataset"
	"charles/internal/engine"
	"charles/internal/sdl"
	"charles/internal/seg"
)

func TestAdaptiveCutsPartitions(t *testing.T) {
	tab := dataset.VOC(3000, 5)
	ev := seg.NewEvaluator(tab)
	ctx, err := sdl.ContextOn(tab, "type_of_boat", "tonnage", "trip")
	if err != nil {
		t.Fatal(err)
	}
	out, err := AdaptiveCuts(nil, ev, ctx, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no adaptive segmentations")
	}
	for _, s := range out {
		if err := seg.ValidatePartition(ev, ctx, s.Seg); err != nil {
			t.Fatal(err)
		}
		if s.Metrics.Depth > DefaultConfig().MaxDepth {
			t.Fatalf("depth %d exceeds bound", s.Metrics.Depth)
		}
	}
}

func TestAdaptiveCutsMixedAttributes(t *testing.T) {
	// The whole point of the extension: pieces may be cut on
	// different attributes. On VOC data with a nominal plus numeric
	// context, the deepest segmentation should constrain different
	// attribute sets in different queries.
	tab := dataset.VOC(5000, 6)
	ev := seg.NewEvaluator(tab)
	ctx, err := sdl.ContextOn(tab, "type_of_boat", "tonnage")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxDepth = 6
	out, err := AdaptiveCuts(nil, ev, ctx, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	diverged := false
	for _, s := range out {
		attrSets := map[string]bool{}
		for _, q := range s.Seg.Queries {
			key := ""
			for _, a := range q.ConstrainedAttrs() {
				key += a + "|"
			}
			attrSets[key] = true
		}
		if len(attrSets) >= 2 {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("adaptive cuts never produced pieces with different attribute sets")
	}
}

func TestAdaptiveCutsDegenerateInputs(t *testing.T) {
	tab := dataset.Figure3(100, 1)
	ev := seg.NewEvaluator(tab)
	if _, err := AdaptiveCuts(nil, ev, sdl.Query{}, DefaultConfig(), nil); err == nil {
		t.Fatal("empty context accepted")
	}
	ctx := sdl.MustQuery(sdl.RangeC("att1", engine.Int(-10), engine.Int(-5), true, true))
	if _, err := AdaptiveCuts(nil, ev, ctx, DefaultConfig(), nil); err == nil {
		t.Fatal("empty extent accepted")
	}
}

func TestAdaptiveCutsBalancedSplits(t *testing.T) {
	tab := dataset.UniformInts(4096, 2, 1<<20, 9)
	ev := seg.NewEvaluator(tab)
	ctx := sdl.ContextAll(tab)
	cfg := DefaultConfig()
	cfg.MaxDepth = 8
	out, err := AdaptiveCuts(nil, ev, ctx, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Splitting the largest piece at non-power-of-two depths leaves
	// a structural imbalance (e.g. counts [2n, n, n] at depth 3), so
	// only require near-perfect balance at power-of-two depths and a
	// loose floor elsewhere.
	for _, s := range out {
		if s.Metrics.Balance < 0.9 {
			t.Fatalf("depth %d balance %v", s.Metrics.Depth, s.Metrics.Balance)
		}
		d := s.Metrics.Depth
		if d&(d-1) == 0 && s.Metrics.Balance < 0.99 {
			t.Fatalf("power-of-two depth %d balance %v, want ≈1", d, s.Metrics.Balance)
		}
	}
}
