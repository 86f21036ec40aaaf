// Package harness is the advise benchmark's engine room: seeded op
// lists, the four workload runners, raw-sample statistics, output
// checks, child-server management and result files. It drives the
// system only the two ways users do — the charles facade in-process
// and a charles-server child over HTTP — and therefore imports only
// the charles root package; everything that reaches into
// charles/internal lives in ../layers behind the `layers` build tag.
package harness

import "fmt"

// Workload names.
const (
	ColdExplore  = "cold_explore"
	DrillSession = "drill_session"
	ServeHot     = "serve_hot"
	AppendMix    = "append_mix"
)

// Spec names one workload and records why it exists.
type Spec struct {
	Name string
	Why  string
	HTTP bool
}

// Workloads is the benchmark's workload table; BENCHMARK.json and
// README.md repeat it and a unit test keeps the three in step.
var Workloads = []Spec{
	{ColdExplore, "fresh Advisor per advise over unclustered memory tables: every cache is empty, so engine scans, stats order statistics and seg cut/INDEP compute do the work", false},
	{DrillSession, "the Figure 1 zoom loop on one long-lived Advisor over a date-clustered mmap'd .chc: seg caches and PairMemo serve most ops, colfile and zone maps are in the path", false},
	{ServeHot, "charles-server over HTTP, 2 closed-loop clients, 70% result-LRU hits and 30% novel contexts: server parse/LRU/JSON render and the jobs queue with 2 workers on 2 cores", true},
	{AppendMix, "one writer appending 500-row batches beside one reader re-advising over a mutable memory table: epoch clock, delta splices and the server's table-wide lock", true},
}

// SpecFor returns the named workload's spec.
func SpecFor(name string) (Spec, error) {
	for _, s := range Workloads {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("unknown workload %q", name)
}

// DataSeed generates every base table. The tables are the benchmark's
// fixture, like a standard dataset at a fixed scale: HB-cuts decides
// how many compositions to run from the data's dependencies, so
// tables that changed with -seed would change the amount of work and
// bury a 5% regression under input variance. -seed varies what is
// asked of the tables: op order, constraint bounds, novel contexts,
// appended rows.
const DataSeed = 1

// ReferenceSeconds is the run length the op counts below were sized
// for on the 2-core reference box. A run always executes a fixed,
// seed-generated op list — never a fixed duration — so both sides of
// an A/B do identical work; -seconds only scales the list's length.
const ReferenceSeconds = 10

// Sizes fixes how much work one run of each workload does.
type Sizes struct {
	Rows          int // rows in every generated table
	SetupReps     int // set-ups per run; setup_s is their median
	ColdRounds    int // cold_explore: rounds over the 12 contexts
	Sessions      int // drill_session: 4-step sessions
	Clients       int // serve_hot: closed-loop clients
	ClientOps     int // serve_hot: ops per client
	AppendBatches int // append_mix: writer batches on hand (it stops with the reader)
	BatchRows     int // append_mix: rows per batch
	ReaderOps     int // append_mix: reader re-advises
	DeepChecks    int // contexts given the expensive per-segment check (0 = all)
}

// SizesFor scales the reference op counts to a run of the given
// length. The ISSUE's sizing (120 / 1200 / 600 / 200+240 ops, ~25-30 s
// per workload) is cut proportionally in every workload to fit the
// driver's time cap rather than dropping a workload.
func SizesFor(seconds, rows int) Sizes {
	scale := func(n int) int {
		v := (n*seconds + ReferenceSeconds/2) / ReferenceSeconds
		if v < 1 {
			v = 1
		}
		return v
	}
	return Sizes{
		Rows:          rows,
		SetupReps:     3,
		ColdRounds:    scale(5),
		Sessions:      scale(240),
		Clients:       2,
		ClientOps:     scale(427),
		AppendBatches: scale(500),
		BatchRows:     500,
		ReaderOps:     scale(300),
		DeepChecks:    3,
	}
}

// Direction says which way a metric improves.
type Direction string

const (
	Lower  Direction = "lower"
	Higher Direction = "higher"
)

// MetricDef describes one metric the benchmark prints.
type MetricDef struct {
	Name   string
	Unit   string
	Better Direction
	// Bound is the share of the parent's median an end-to-end metric
	// may worsen by before a change is a regression (0 for per-layer
	// metrics and diagnostics, which carry none).
	Bound float64
	// Universal metrics are measured on every workload and are the
	// ones BENCHMARK.json lists (its contract wants every listed
	// metric on every workload). The others exist on some workloads
	// only; they are printed and written to the result files there.
	Universal bool
	Meaning   string
}

// EndToEnd is the end-to-end metric catalogue, in print order.
var EndToEnd = []MetricDef{
	{"setup_s", "s", Lower, 0.25, true, "data generation + .chc ingest + open or boot-to-first-/healthz-200 + warm-up; median of the run's set-ups; excludes go build"},
	{"advise_p50_ms", "ms", Lower, 0.25, true, "median latency of ops that ran an advise (library call, or submit until done is observed)"},
	{"advise_tail_ms", "ms", Lower, 0.25, true, "highest percentile of the same samples with at least 10 samples beyond it"},
	{"advises_per_s", "1/s", Higher, 0.25, true, "completed advise ops (hits included) per second of the client set's busy wall time"},
	{"peak_rss_mb", "MiB", Lower, 0.25, true, "VmHWM of the process under test: the bench process in-process, the server child over HTTP"},
	{"hit_p50_ms", "ms", Lower, 0, false, "serve_hot: median latency of result-LRU hits"},
	{"append_p50_ms", "ms", Lower, 0, false, "append_mix: median POST /append round trip"},
	{"append_tail_ms", "ms", Lower, 0, false, "append_mix: tail percentile of the same"},
	{"append_rows_per_s", "rows/s", Higher, 0, false, "append_mix: rows acknowledged per second of writer busy wall time"},
	{"failed_share", "ratio", Lower, 0, false, "failed, refused, timed-out or check-failing ops over attempted; the driver reads it from the result line's failed/attempted"},
}

// Metric is one measured value.
type Metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	// N is the sample count behind a latency statistic, Pct the
	// percentile a tail metric resolved to (both 0 when not apt).
	N   int     `json:"n,omitempty"`
	Pct float64 `json:"pct,omitempty"`
}
