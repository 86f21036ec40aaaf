// Out-of-core acceptance tests: advise output over a table reopened
// from the mmap'd columnar format (internal/colfile, specified in
// docs/FORMAT.md) must be byte-identical to the same table held in
// memory, at every worker count and chunk width, clustered or not.
// The format's value pages (FORMAT.md §5) and dictionary encoding (§6)
// are both on the hot path of these advises, so a mis-encoded page
// surfaces as diverging ranked output here even when the unit
// round-trip tests pass.
package charles_test

import (
	"path/filepath"
	"testing"

	"charles"
)

// adviseChc renders the ranked answer list for a table loaded from
// path with the given knobs; with pruning off the evaluator passes no
// zone map, so the cuts and counts run the value kernels, not the
// codes.
func adviseChc(t *testing.T, path, context string, workers, chunkRows int, pruning bool) string {
	t.Helper()
	tab, err := charles.OpenColumnFile(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer tab.Close()
	if chunkRows > 0 {
		if err := tab.SetChunkRows(chunkRows); err != nil {
			t.Fatal(err)
		}
	}
	cfg := charles.DefaultConfig()
	cfg.Workers = workers
	adv := charles.NewAdvisor(tab, cfg)
	adv.Evaluator().SetZonePruning(pruning)
	res, err := adv.AdviseString(context)
	if err != nil {
		t.Fatalf("advise on %s (workers=%d chunkRows=%d pruning=%v): %v", path, workers, chunkRows, pruning, err)
	}
	return charles.RenderRanked(res, 0)
}

// adviseMem is the in-memory reference rendering.
func adviseMem(t *testing.T, rows int, context string) string {
	t.Helper()
	tab := charles.GenerateVOC(rows, 1)
	adv := charles.NewAdvisor(tab, charles.DefaultConfig())
	res, err := adv.AdviseString(context)
	if err != nil {
		t.Fatal(err)
	}
	return charles.RenderRanked(res, 0)
}

// TestColumnFileAdviseByteIdentical is the thorough small matrix:
// several contexts, both selection-shaping knobs, a source-order and
// a clustered file, zone pruning on and off. Clustering reorders rows
// (FORMAT.md §8 records the column), and advise output is row-order
// independent, so every cell must render the reference bytes. With
// pruning on, the .chc side's cuts and counts run the plane kernels
// over the summaries the table scans, at the file's native width and
// at 512; with it off, the value kernels, which the pruned cells are
// thereby held to.
func TestColumnFileAdviseByteIdentical(t *testing.T) {
	const rows = 20000
	dir := t.TempDir()
	src := charles.GenerateVOC(rows, 1)
	plain := filepath.Join(dir, "voc.chc")
	clustered := filepath.Join(dir, "voc-clustered.chc")
	if err := charles.SaveColumnFile(plain, src, charles.ColumnFileOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := charles.SaveColumnFile(clustered, src, charles.ColumnFileOptions{
		ChunkRows: 1024, ClusterBy: "departure_harbour",
	}); err != nil {
		t.Fatal(err)
	}
	contexts := []string{
		"(type_of_boat:, tonnage:, departure_harbour:)",
		"(type_of_boat: {fluit, jacht}, tonnage: [100, 900])",
	}
	for _, context := range contexts {
		want := adviseMem(t, rows, context)
		if want == "" {
			t.Fatalf("empty reference rendering for context %q", context)
		}
		for _, path := range []string{plain, clustered} {
			for _, workers := range []int{1, 4} {
				for _, chunkRows := range []int{0, 512} {
					for _, pruning := range []bool{true, false} {
						if got := adviseChc(t, path, context, workers, chunkRows, pruning); got != want {
							t.Errorf("context %q file=%s workers=%d chunkRows=%d pruning=%v: output diverged from in-memory reference",
								context, filepath.Base(path), workers, chunkRows, pruning)
						}
					}
				}
			}
		}
	}
}

// TestColumnFileAdvise1M is the acceptance criterion at scale: a
// 1M-row table written to the columnar format and reopened via mmap
// produces byte-identical advise output to the in-memory backend
// across Workers × ChunkRows. chunkRows=0 advises at the file's
// native width and 8192 builds the opened table at another width; at
// either, zone maps are built by scanning the mapping, which must be
// invisible in the output.
func TestColumnFileAdvise1M(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-row acceptance matrix; run without -short")
	}
	const rows = 1_000_000
	const context = "(type_of_boat:, tonnage:, departure_harbour:)"
	path := filepath.Join(t.TempDir(), "voc1m.chc")
	if err := charles.SaveColumnFile(path, charles.GenerateVOC(rows, 1), charles.ColumnFileOptions{}); err != nil {
		t.Fatal(err)
	}
	want := adviseMem(t, rows, context)
	if want == "" {
		t.Fatal("empty reference rendering")
	}
	for _, workers := range []int{1, 4} {
		for _, chunkRows := range []int{0, 8192} {
			if got := adviseChc(t, path, context, workers, chunkRows, true); got != want {
				t.Errorf("workers=%d chunkRows=%d: mmap-backed advise diverged from in-memory reference",
					workers, chunkRows)
			}
		}
	}
}
