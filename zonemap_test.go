package charles_test

import (
	"testing"

	"charles"
)

// TestAdviseByteIdenticalAcrossZonePruning is the nominal-pruning
// acceptance matrix: zone-map chunk pruning (numeric min/max and the
// new nominal presence summaries) decides which chunks are scanned,
// never what the scan produces — so the fully rendered ranked answer
// list must be byte-identical with summaries on and off, across
// worker counts and chunk widths, on contexts that exercise string,
// bool-free nominal, and numeric predicates together. The tables are
// warmed, and every summary carries codes, so with summaries on the
// cuts and counts run the plane kernels over rank codes and small
// dictionaries' code planes, and with them off the value kernels.
func TestAdviseByteIdenticalAcrossZonePruning(t *testing.T) {
	const rows = 6000
	contexts := []string{
		"", // all columns
		"(type_of_boat:, tonnage:, departure_harbour:)",
		"(type_of_boat: {fluit, jacht}, tonnage: [100, 900])",
		"(departure_harbour: {Texel, Goeree}, built:)",
	}
	render := func(workers, chunkRows int, pruning bool, context string) string {
		tab := charles.GenerateVOC(rows, 1)
		if err := tab.SetChunkRows(chunkRows); err != nil {
			t.Fatal(err)
		}
		tab.WarmSummaries()
		cfg := charles.DefaultConfig()
		cfg.Workers = workers
		adv := charles.NewAdvisor(tab, cfg)
		adv.Evaluator().SetZonePruning(pruning)
		res, err := adv.AdviseString(context)
		if err != nil {
			t.Fatalf("workers=%d chunkRows=%d pruning=%v: %v", workers, chunkRows, pruning, err)
		}
		return charles.RenderRanked(res, 0)
	}
	for _, context := range contexts {
		// Reference: sequential, summaries off — the pure scan path.
		want := render(1, 512, false, context)
		if want == "" {
			t.Fatalf("empty reference rendering for context %q", context)
		}
		for _, workers := range []int{1, 4} {
			for _, chunkRows := range []int{512, 0} {
				for _, pruning := range []bool{true, false} {
					if workers == 1 && chunkRows == 512 && !pruning {
						continue // the reference itself
					}
					got := render(workers, chunkRows, pruning, context)
					if got != want {
						t.Errorf("context %q: workers=%d chunkRows=%d pruning=%v diverged from unpruned sequential reference",
							context, workers, chunkRows, pruning)
					}
				}
			}
		}
	}
}
