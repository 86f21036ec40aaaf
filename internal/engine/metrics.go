package engine

import (
	"sync/atomic"

	"charles/internal/obs"
)

// Metrics is the engine's instrumentation hook: counters for the
// zone-map verdicts the chunked filter drivers hand down and for
// which driver (row-id selection vs bitmap words) served each
// filter. A partition pass (PartitionChunked: a cut's children in one
// pass) counts as one row-id filter per piece — a VectorKernels per
// piece that can match and one verdict per such piece per non-empty
// chunk — so the counts do not depend on whether children were
// evaluated together; the bitmaps it packs count nothing. Fields are
// nil-safe obs counters, so a partially-populated
// hook records only what it names; the default hook records nothing.
// The hook influences nothing — verdicts and kernels are chosen
// before it is consulted — so installing it can never change output.
type Metrics struct {
	// ZoneSkip / ZoneTake / ZoneScan count per-chunk verdicts:
	// skipped without a scan, passed through whole, scanned row by
	// row.
	ZoneSkip *obs.Counter
	ZoneTake *obs.Counter
	ZoneScan *obs.Counter
	// VectorKernels / FusedKernels count driver invocations by
	// output representation: row-id selections (per predicate) vs
	// bitmaps built by the fused filter→bitmap scan, which no advise
	// runs. FusedKernels is kept only for the per-layer probes until
	// ROADMAP item 4 drops them.
	VectorKernels *obs.Counter
	FusedKernels  *obs.Counter
}

// metricsHook is process-global because the filter kernels are free
// functions with no object to hang per-table state on. It always
// holds a non-nil *Metrics (zero value = all-nil counters = no-op).
var metricsHook atomic.Pointer[Metrics]

func init() { metricsHook.Store(&Metrics{}) }

// SetMetrics installs the instrumentation hook; nil restores the
// no-op default. Call once at process start — it is process-global.
func SetMetrics(m *Metrics) {
	if m == nil {
		m = &Metrics{}
	}
	metricsHook.Store(m)
}

// countVerdict records one chunk verdict on the installed hook.
func (m *Metrics) countVerdict(v chunkVerdict) {
	switch v {
	case chunkSkip:
		m.ZoneSkip.Inc()
	case chunkTake:
		m.ZoneTake.Inc()
	default:
		m.ZoneScan.Inc()
	}
}
