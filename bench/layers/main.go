//go:build layers

// Command layers is the benchmark's traced run: it re-runs one
// workload's op list with hooks attached, times calls into each
// layer's public functions on the workload's own tables, and prints
// every per-layer metric plus a span file. It is the only part of
// bench/ that imports charles/internal/..., and it sits behind the
// `layers` build tag so that a refactor of those packages — which may
// not edit bench/ — still passes `go build ./...`; README.md lists the
// exact symbols it depends on.
//
//	go run -tags layers ./bench/layers -workload drill_session
//
// End-to-end metrics never come from here: the run does an untraced
// pass first (same binary, same op list) only to measure what tracing
// costs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"

	"charles"
	"charles/bench/harness"
	"charles/internal/engine"
	"charles/internal/obs"
	"charles/internal/seg"
)

func main() {
	workload := flag.String("workload", harness.ColdExplore, "workload to trace")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Int("seconds", harness.ReferenceSeconds, "scales the fixed op lists")
	rows := flag.Int("rows", 1_000_000, "rows per generated table")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *rows); err != nil {
		harness.StopAll()
		fmt.Fprintln(os.Stderr, "bench/layers:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, rows int) error {
	spec, err := harness.SpecFor(workload)
	if err != nil {
		return err
	}
	root, err := harness.FindRoot()
	if err != nil {
		return err
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		harness.StopAll()
		os.Exit(130)
	}()

	build := filepath.Join(root, ".bench_build")
	opt := harness.Options{
		Workload: workload, Seed: seed, Sizes: harness.SizesFor(seconds, rows),
		ServerBin: filepath.Join(build, "charles-server"),
		DataDir:   filepath.Join(build, "data"), OutDir: filepath.Join(root, "bench", "out"),
	}
	opt.Sizes.SetupReps = 1
	if spec.HTTP {
		if err := harness.GoBuild(root, opt.ServerBin, "./cmd/charles-server", ""); err != nil {
			return err
		}
	}

	fmt.Printf("traced run: %s, seed %d, rows %d, NumCPU %d\n", workload, seed, rows, runtime.NumCPU())
	base, err := harness.Execute(opt)
	if err != nil {
		return fmt.Errorf("untraced pass: %w", err)
	}

	tr := harness.NewTracer()
	hooks := installHooks(tr, !spec.HTTP)
	opt.Tracer = tr
	traced, err := harness.Execute(opt)
	hooks.uninstall()
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	traced.Violations = append(traced.Violations, hooks.violations...)

	m := newMetrics()
	fromPasses(m, spec, base, traced, tr, hooks)
	if err := runProbes(m, tr, opt); err != nil {
		return fmt.Errorf("probes: %w", err)
	}

	all := m.list()
	fmt.Printf("== %s per-layer metrics ==\n", workload)
	harness.PrintMetrics(os.Stdout, all)
	fmt.Printf("  attempted %d, failed %d, output check (with seg.ValidatePartition on %d contexts) %s\n",
		traced.Attempted, traced.FailedTotal(), hooks.validated, map[bool]string{true: "passed", false: "FAILED"}[traced.Correct()])
	for _, v := range traced.Violations {
		fmt.Println("  CHECK FAILED:", v)
	}
	for _, e := range traced.OpErrors {
		fmt.Println("  OP FAILED:", e)
	}
	path := filepath.Join(opt.OutDir, "trace-"+workload+".json")
	err = tr.WriteFile(path, map[string]any{
		"env": harness.NewEnv(root, seed, seconds, opt.Sizes), "workload": workload,
		"metrics": all, "server_counters": traced.ServerCounters,
	})
	if err != nil {
		return err
	}
	fmt.Println("spans written to", path)
	fmt.Println(harness.DriverLine(traced.Correct() && base.Correct(), traced.Attempted, traced.FailedTotal(), all, harness.PerLayer))
	return nil
}

// metrics collects per-layer values by catalogue name.
type metrics struct{ byName map[string]harness.Metric }

func newMetrics() *metrics { return &metrics{byName: map[string]harness.Metric{}} }

// set records a value for a catalogue name; an unknown name is a bug
// in this package, caught by the first run.
func (m *metrics) set(name string, value float64, n int) {
	for _, d := range harness.PerLayer {
		if d.Name == name {
			m.byName[name] = harness.Metric{Name: name, Unit: d.Unit, Value: value, N: n}
			return
		}
	}
	panic("bench/layers: metric " + name + " is not in harness.PerLayer")
}

// median records the median of samples.
func (m *metrics) median(name string, samples []float64) {
	m.set(name, harness.Median(harness.Sorted(samples)), len(samples))
}

// list returns what was measured, in catalogue order. Universal
// metrics nothing set read 0: the layer did no work on this workload.
func (m *metrics) list() []harness.Metric {
	var out []harness.Metric
	for _, d := range harness.PerLayer {
		if v, ok := m.byName[d.Name]; ok {
			out = append(out, v)
		} else if d.Universal {
			out = append(out, harness.Metric{Name: d.Name, Unit: d.Unit})
		}
	}
	return out
}

// hooks is what the traced pass attaches to the program: counters on
// the engine and on every evaluator, a stage trace in every advise's
// ctx, and partition validation of what comes back.
type hooks struct {
	engine     engine.Metrics
	eval       seg.EvalMetrics
	validated  int
	violations []string
}

func installHooks(tr *harness.Tracer, inProcess bool) *hooks {
	h := &hooks{
		engine: engine.Metrics{ZoneSkip: new(obs.Counter), ZoneTake: new(obs.Counter), ZoneScan: new(obs.Counter),
			VectorKernels: new(obs.Counter), FusedKernels: new(obs.Counter)},
		eval: seg.EvalMetrics{FullEvals: new(obs.Counter), NarrowEvals: new(obs.Counter), CacheHits: new(obs.Counter),
			CutPointCalcs: new(obs.Counter), DeltaRefreshes: new(obs.Counter), CutRefreshes: new(obs.Counter),
			CutCacheHits: new(obs.Counter), PairMemoHits: new(obs.Counter), PairMemoMisses: new(obs.Counter)},
	}
	if !inProcess {
		return h // over HTTP the same counters come from GET /metrics
	}
	engine.SetMetrics(&h.engine)
	tr.OnAdvisor = func(adv *charles.Advisor) { adv.Evaluator().SetEvalMetrics(&h.eval) }
	tr.PlantTrace = func(ctx context.Context) (context.Context, func() []harness.Stage) {
		t := obs.NewTrace()
		return obs.ContextWithTrace(ctx, t), func() []harness.Stage { return stages(t.Summary()) }
	}
	// Partition validation runs on a fresh evaluator so it cannot warm
	// the caches the pass is counting, once per distinct context, on
	// the first maxValidated of them (it re-evaluates every segment).
	const maxValidated = 16
	seen := map[string]bool{}
	tr.OnResult = func(adv *charles.Advisor, q charles.Query, res *charles.Result) {
		key := adv.Table().Name() + q.Key()
		if seen[key] || h.validated >= maxValidated {
			return
		}
		seen[key] = true
		h.validated++
		ev := seg.NewEvaluator(adv.Table())
		for i, sc := range res.Segmentations {
			if err := seg.ValidatePartition(ev, q, sc.Seg); err != nil {
				h.violations = append(h.violations, fmt.Sprintf("%s segmentation %d: %v", q, i, err))
			}
		}
	}
	return h
}

func (h *hooks) uninstall() { engine.SetMetrics(nil) }

func stages(in []obs.StageSummary) []harness.Stage {
	out := make([]harness.Stage, len(in))
	for i, s := range in {
		out[i] = harness.Stage{Name: s.Name, Count: s.Count, DurationNS: s.DurationNS, Children: stages(s.Children)}
	}
	return out
}

// fromPasses fills in everything the two passes measured: stage
// medians, exact counts, the program's own counters (hooks in-process,
// /metrics deltas over HTTP), the serving plane's round trips and the
// cost of tracing.
func fromPasses(m *metrics, spec harness.Spec, base, traced *harness.Outcome, tr *harness.Tracer, h *hooks) {
	m.median("core.initial_cuts_ms", tr.StageSamples("core.initial_cuts"))
	m.median("core.indep_pairs_ms", tr.StageSamples("core.indep_pairs"))
	m.median("core.compose_ms", tr.StageSamples("core.compose"))
	m.set("core.indep_evals", float64(traced.IndepEvals), len(traced.AdviseMS))
	m.set("core.iterations", float64(traced.Iterations), len(traced.AdviseMS))

	counter := func(c *obs.Counter, family string) float64 {
		if spec.HTTP {
			return traced.ServerCounters[family]
		}
		return float64(c.Value())
	}
	full := counter(h.eval.FullEvals, "charles_seg_full_evals_total")
	narrow := counter(h.eval.NarrowEvals, "charles_seg_narrow_evals_total")
	hits := counter(h.eval.CacheHits, "charles_seg_cache_hits_total")
	m.set("seg.full_evals", full, 0)
	m.set("seg.narrow_evals", narrow, 0)
	m.set("seg.cache_hits", hits, 0)
	m.set("seg.cache_hit_ratio", ratio(hits, hits+full+narrow), 0)
	cutCalcs := counter(h.eval.CutPointCalcs, "charles_seg_cut_point_calcs_total")
	cutHits := counter(h.eval.CutCacheHits, "charles_seg_cut_cache_hits_total")
	m.set("seg.cut_point_calcs", cutCalcs, 0)
	m.set("seg.cut_cache_hits", cutHits, 0)
	m.set("seg.cut_cache_hit_ratio", ratio(cutHits, cutHits+cutCalcs), 0)
	m.set("seg.delta_refreshes", counter(h.eval.DeltaRefreshes, "charles_delta_refreshes_total"), 0)
	m.set("seg.cut_refreshes", counter(h.eval.CutRefreshes, "charles_delta_cut_refreshes_total"), 0)
	m.set("seg.pair_memo_hits", counter(h.eval.PairMemoHits, "charles_seg_pair_memo_hits_total"), 0)
	m.set("seg.pair_memo_misses", counter(h.eval.PairMemoMisses, "charles_seg_pair_memo_misses_total"), 0)
	skip := counter(h.engine.ZoneSkip, "charles_engine_zone_skip_total")
	take := counter(h.engine.ZoneTake, "charles_engine_zone_take_total")
	scan := counter(h.engine.ZoneScan, "charles_engine_zone_scan_total")
	m.set("engine.zone_skip", skip, 0)
	m.set("engine.zone_take", take, 0)
	m.set("engine.zone_scan", scan, 0)
	m.set("engine.zone_pruned_ratio", ratio(skip+take, skip+take+scan), 0)
	m.set("engine.vector_kernels", counter(h.engine.VectorKernels, "charles_engine_vector_kernels_total"), 0)
	m.set("engine.fused_kernels", counter(h.engine.FusedKernels, "charles_engine_fused_kernels_total"), 0)

	baseRate := float64(base.AdviseOps) / base.AdviseBusy.Seconds()
	tracedRate := float64(traced.AdviseOps) / traced.AdviseBusy.Seconds()
	m.set("obs.trace_overhead_pct", 100*(baseRate-tracedRate)/baseRate, traced.AdviseOps)

	if !spec.HTTP {
		m.median("core.hbcuts_ms", traced.AdviseMS)
		return
	}
	m.median("core.hbcuts_ms", tr.StageSamples("jobs.run"))
	m.median("jobs.run_ms", tr.StageSamples("jobs.run"))
	m.median("jobs.queue_wait_ms", tr.StageSamples("jobs.queue_wait"))
	m.set("jobs.submitted", traced.ServerCounters["charles_jobs_submitted_total"], 0)
	m.set("jobs.coalesced", traced.ServerCounters["charles_jobs_coalesced_total"], 0)
	m.set("server.boot_ms", traced.BootMS, 1)
	m.median("server.submit_ms", traced.SubmitMS)
	m.median("server.poll_ms", traced.DonePollMS)
	m.set("server.polls_per_advise", ratio(float64(len(traced.PollMS)), float64(len(traced.AdviseMS))), len(traced.AdviseMS))
	lruHits := traced.ServerCounters["charles_result_cache_hits_total"]
	m.set("server.lru_hit_ratio", ratio(lruHits, lruHits+traced.ServerCounters["charles_result_cache_misses_total"]), 0)
	if len(base.HitMS) > 0 {
		m.median("server.hit_p50_ms", base.HitMS)
	}
	if len(base.AppendMS) > 0 {
		p50, tail := harness.MedianTail("server.append_p50_ms", "server.append_tail_ms", "ms", base.AppendMS)
		m.byName[p50.Name], m.byName[tail.Name] = p50, tail
		m.set("server.append_rows_per_s", float64(base.RowsAcked)/base.AppendBusy.Seconds(), len(base.AppendMS))
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
