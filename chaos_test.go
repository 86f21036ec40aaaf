// Chaos acceptance: graceful degradation of the persisted-summary
// fast path. When the engine cannot consult the column file's
// precomputed zone maps (the engine.backendSummary failpoint), it
// falls back to building summaries from a scan — slower, but the
// ranked advise output must stay byte-identical. A fault in an
// optimization must never change an answer.
package charles_test

import (
	"path/filepath"
	"testing"

	"charles"
	"charles/internal/fault"
)

func TestChaosBackendSummaryFaultKeepsOutputByteIdentical(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)

	const rows = 8000
	path := filepath.Join(t.TempDir(), "voc.chc")
	src := charles.GenerateVOC(rows, 1)
	if err := charles.SaveColumnFile(path, src, charles.ColumnFileOptions{ChunkRows: 1024}); err != nil {
		t.Fatal(err)
	}
	context := "(type_of_boat:, tonnage:, departure_harbour:)"

	pristine := adviseChc(t, path, context, 4, 1024, true)

	if err := fault.Enable("engine.backendSummary", "error(zone maps unreadable)"); err != nil {
		t.Fatal(err)
	}
	degraded := adviseChc(t, path, context, 4, 1024, true)
	if fault.Triggered("engine.backendSummary") == 0 {
		t.Fatal("fault never fired: the degraded advise did not exercise the backend-summary path")
	}
	if degraded != pristine {
		t.Errorf("advise output diverged under a summary fault:\n--- pristine ---\n%s\n--- degraded ---\n%s", pristine, degraded)
	}

	// Disarmed, the fast path is back and the bytes still agree.
	fault.Reset()
	if again := adviseChc(t, path, context, 4, 1024, true); again != pristine {
		t.Error("advise output diverged after the fault was disarmed")
	}
}
