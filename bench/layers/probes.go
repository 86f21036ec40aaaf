//go:build layers

package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"charles"
	"charles/bench/harness"
	"charles/internal/colfile"
	"charles/internal/core"
	"charles/internal/engine"
	"charles/internal/jobs"
	"charles/internal/par"
	"charles/internal/sdl"
	"charles/internal/seg"
	"charles/internal/stats"
)

// Probes: timed calls into each layer's public functions, on the
// workload's own VOC table — memory-backed for cold_explore and
// append_mix, the date-clustered mmap'd .chc for drill_session and
// serve_hot — and on the sky survey for the float kernels (VOC has no
// float column). Each probe is a median over reps calls (20 unless
// one call costs a large share of a second) and each call is a span.
// Only forms ROADMAP says survive its consolidation are called:
// chunked kernels and *Opt / *Ctx variants, never Counters(), Select,
// Narrow or the flat Filter* family.

const reps = 20

type prober struct {
	m  *metrics
	tr *harness.Tracer
}

// time records the median of reps timed calls of fn, in unit ("ms" or
// "us"); prep, when not nil, runs untimed before each call.
func (p *prober) time(name string, reps int, unit string, prep, fn func()) {
	samples := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if prep != nil {
			prep()
		}
		d := p.tr.Time(-1, name, -1, fn)
		if unit == "us" {
			samples = append(samples, float64(d.Nanoseconds())/1e3)
		} else {
			samples = append(samples, float64(d.Nanoseconds())/1e6)
		}
	}
	p.m.median(name, samples)
}

// sink keeps results alive so the compiler cannot drop a probed call.
var sink any

func runProbes(m *metrics, tr *harness.Tracer, opt harness.Options) error {
	p := &prober{m: m, tr: tr}
	rows, seed := opt.Sizes.Rows, opt.Seed

	mem := charles.GenerateVOC(rows, harness.DataSeed)
	sky := charles.GenerateSkySurvey(rows, harness.DataSeed)
	mem.WarmSummaries()
	sky.WarmSummaries()

	// colfile first: it produces the file the .chc workloads probe.
	path := filepath.Join(opt.DataDir, fmt.Sprintf("probe-%d.chc", os.Getpid()))
	defer os.Remove(path)
	wopts := colfile.WriteOptions{ClusterBy: "departure_date"}
	var werr error
	p.time("colfile.write_ms", 3, "ms", nil, func() { werr = colfile.Write(path, mem, wopts) })
	if werr != nil {
		return werr
	}
	var f *colfile.File
	var ferr error
	p.time("colfile.open_ms", reps, "ms", func() {
		if f != nil {
			f.Close()
		}
	}, func() { f, ferr = colfile.Open(path) })
	if ferr != nil {
		return ferr
	}
	p.time("colfile.verify_ms", 5, "ms", nil, func() { ferr = f.Verify() })
	if ferr != nil {
		return ferr
	}
	m.set("colfile.bytes_per_row", float64(f.Size())/float64(f.NumRows()), 1)
	f.Close()
	var first *charles.Table
	p.time("colfile.first_touch_advise_ms", 5, "ms", func() {
		if first != nil {
			first.Close()
		}
		if first, ferr = charles.OpenColumnFile(path); ferr != nil {
			return
		}
	}, func() {
		if ferr == nil {
			sink, ferr = charles.NewAdvisor(first, charles.DefaultConfig()).AdviseString(harness.DrillRoots[0])
		}
	})
	if first != nil {
		first.Close()
	}
	if ferr != nil {
		return ferr
	}

	voc := mem
	if opt.Workload == harness.DrillSession || opt.Workload == harness.ServeHot {
		file, err := colfile.OpenTable(path)
		if err != nil {
			return err
		}
		defer file.Close()
		file.WarmSummaries()
		voc = file
	}

	p.engine(voc, sky)
	p.stats(voc, sky)
	if err := p.seg(voc, sky); err != nil {
		return err
	}
	if err := p.mutation(rows, seed, opt.Sizes.BatchRows); err != nil {
		return err
	}
	p.small(voc)
	if err := p.facade(opt.Workload, seed, voc, sky); err != nil {
		return err
	}
	if opt.Workload == harness.AppendMix {
		return p.appendIdle(opt)
	}
	return nil
}

// engine probes the chunked filter kernels and order statistics over
// all rows.
func (p *prober) engine(voc, sky *engine.Table) {
	tonnage := voc.MustColumn("tonnage").(engine.IntValued)
	boat := voc.MustColumn("type_of_boat").(*engine.StringColumn)
	master := voc.MustColumn("master").(*engine.StringColumn)
	mag := sky.MustColumn("magnitude").(engine.FloatValued)
	all, skyAll := voc.AllChunked(), sky.AllChunked()
	ir := engine.IntRange{Lo: 200, Hi: 800, LoIncl: true, HiIncl: true}
	fr := engine.FloatRange{Lo: 10, Hi: 18, LoIncl: true, HiIncl: true}
	tonSum, boatSum, magSum := voc.SummaryByName("tonnage"), voc.SummaryByName("type_of_boat"), sky.SummaryByName("magnitude")

	intFilter := func() { sink = engine.FilterIntRangeChunked(tonnage, all, ir, tonSum) }
	intCuts := func() { sink = engine.IntCutPointsChunked(tonnage, all, 2) }
	p.time("engine.filter_int_range_ms", reps, "ms", nil, intFilter)
	p.time("engine.int_cutpoints_ms", reps, "ms", nil, intCuts)
	engine.SetScanWorkers(1)
	p.time("engine.filter_int_range_w1_ms", reps, "ms", nil, intFilter)
	p.time("engine.int_cutpoints_w1_ms", reps, "ms", nil, intCuts)
	engine.SetScanWorkers(0)
	p.time("engine.filter_float_range_ms", reps, "ms", nil, func() { sink = engine.FilterFloatRangeChunked(mag, skyAll, fr, magSum) })
	p.time("engine.filter_string_set_ms", reps, "ms", nil, func() {
		sink = engine.FilterStringSetChunked(boat, all, []string{"fluit", "jacht", "pinas"}, boatSum)
	})
	var a *engine.Bitmap
	p.time("engine.filter_int_range_bitmap_ms", reps, "ms", nil, func() { a = engine.FilterIntRangeChunkedBitmap(tonnage, all, ir, tonSum) })
	b := engine.FilterStringSetChunkedBitmap(boat, all, []string{"fluit", "jacht"}, boatSum)
	p.time("engine.bitmap_andcount_us", 200, "us", nil, func() { sink = a.AndCount(b) })
	p.time("engine.float_cutpoints_ms", reps, "ms", nil, func() { sink = engine.FloatCutPointsChunked(mag, skyAll, 2) })
	p.time("engine.string_value_counts_ms", reps, "ms", nil, func() { sink = engine.StringValueCountsChunked(master, all) })

	// The cut cache's splice: sorted runs with only the last chunk
	// dirty, which is what a 500-row append leaves behind.
	runs := engine.IntSortedRuns(tonnage, all)
	dirty := make([]bool, all.NumChunks())
	dirty[len(dirty)-1] = true
	p.time("engine.int_sorted_runs_splice_ms", reps, "ms", nil, func() { sink, _ = engine.IntSortedRunsSplice(tonnage, all, runs, dirty) })
}

// stats probes the order statistics on tonnage's and magnitude's
// values, chunked as the table chunks them.
func (p *prober) stats(voc, sky *engine.Table) {
	chunks := engine.GatherIntChunked(voc.MustColumn("tonnage").(engine.IntValued), voc.AllChunked())
	fchunks := engine.GatherFloatChunked(sky.MustColumn("magnitude").(engine.FloatValued), sky.AllChunked())
	var flat []int64
	for _, c := range chunks {
		flat = append(flat, c...)
	}
	workers := runtime.NumCPU()
	// These reorder their input in place, so every call gets a copy.
	var ic [][]int64
	var fc [][]float64
	var iflat []int64
	p.time("stats.equidepth_chunks_ms", reps, "ms", func() { ic = cloneChunks(chunks) },
		func() { sink = stats.EquiDepthPointsChunks(ic, 2, workers) })
	p.time("stats.equidepth_chunks_float_ms", reps, "ms", func() { fc = cloneChunks(fchunks) },
		func() { sink = stats.EquiDepthPointsChunksFloat64(fc, 2, workers) })
	p.time("stats.median_quickselect_ms", reps, "ms", func() { iflat = append(iflat[:0], flat...) },
		func() { sink = stats.MedianInt64(iflat) })
	sorted := cloneChunks(chunks)
	stats.SortInt64Chunks(sorted, workers)
	p.time("stats.kth_sorted_chunks_ms", reps, "ms", nil, func() { sink = stats.KthSortedInt64Chunks(sorted, len(flat)/2) })
}

func cloneChunks[T any](in [][]T) [][]T {
	out := make([][]T, len(in))
	for i, c := range in {
		out[i] = append([]T(nil), c...)
	}
	return out
}

// seg probes the cut, INDEP and compose primitives and the evaluator's
// bitmap cache. "Cold" means a fresh evaluator per call.
func (p *prober) seg(voc, sky *engine.Table) error {
	opt := seg.DefaultCutOptions()
	var err error
	cut := func(name string, tab *engine.Table, attr string) {
		ctx := sdl.ContextAll(tab)
		var ev *seg.Evaluator
		p.time(name, reps, "ms", func() { ev = seg.NewEvaluator(tab) }, func() {
			if _, _, e := seg.InitialCut(ev, ctx, attr, opt); e != nil {
				err = e
			}
		})
	}
	cut("seg.initial_cut_ms.int", voc, "tonnage")
	cut("seg.initial_cut_ms.date", voc, "departure_date")
	cut("seg.initial_cut_ms.string", voc, "type_of_boat")
	cut("seg.initial_cut_ms.float", sky, "magnitude")
	if err != nil {
		return err
	}

	ctx, err := sdl.ContextOn(voc, "tonnage", "type_of_boat", "departure_harbour")
	if err != nil {
		return err
	}
	sides := func(ev *seg.Evaluator) (s1, s2 *seg.Segmentation, err error) {
		if s1, _, err = seg.InitialCut(ev, ctx, "tonnage", opt); err != nil {
			return nil, nil, err
		}
		s2, _, err = seg.InitialCut(ev, ctx, "type_of_boat", opt)
		return s1, s2, err
	}
	ev := seg.NewEvaluator(voc)
	s1, s2, err := sides(ev)
	if err != nil {
		return err
	}
	popt := seg.PairOptions{Memo: seg.NewPairMemo()}
	if _, err := seg.IndepOpt(ev, s1, s2, popt); err != nil { // builds both sides into the memo
		return err
	}
	p.time("seg.indep_ms", reps, "ms", nil, func() { sink, err = seg.IndepOpt(ev, s1, s2, popt) })
	var c1, c2 *seg.Segmentation
	var cev *seg.Evaluator
	p.time("seg.compose_ms", reps, "ms", func() {
		cev = seg.NewEvaluator(voc)
		c1, c2, err = sides(cev)
	}, func() {
		if err == nil {
			sink, err = seg.Compose(cev, c1, c2, opt)
		}
	})
	if err != nil {
		return err
	}

	q, err := sdl.ParseBound("(tonnage:[200,800], type_of_boat:{fluit, jacht})", voc)
	if err != nil {
		return err
	}
	var bev *seg.Evaluator
	p.time("seg.select_bitmap_cold_ms", reps, "ms", func() { bev = seg.NewEvaluator(voc) }, func() { sink, err = bev.SelectBitmap(q) })
	p.time("seg.select_bitmap_warm_us", 200, "us", nil, func() { sink, err = bev.SelectBitmap(q) })
	return err
}

// mutation probes the write path on fresh memory tables: a file-backed
// table is read-only, and the workload's own table must not grow
// under the other probes.
func (p *prober) mutation(rows int, seed int64, batchRows int) error {
	var tab *engine.Table
	p.time("engine.warm_summaries_ms", 5, "ms", func() { tab = charles.GenerateVOC(rows, harness.DataSeed) }, func() { sink = tab.WarmSummaries() })
	plan := harness.NewAppendPlan(seed, reps, batchRows)
	var err error
	i := 0
	p.time("engine.append_rows_ms", reps, "ms", nil, func() {
		if e := tab.AppendRows(plan.Batches[i]...); e != nil {
			err = e
		}
		i++
	})
	return err
}

// small probes the layers whose single calls cost microseconds.
func (p *prober) small(voc *engine.Table) {
	i := 0
	p.time("sdl.parse_bound_us", 400, "us", nil, func() {
		sink, _ = sdl.ParseBound(harness.HotContexts[i%len(harness.HotContexts)], voc)
		i++
	})
	noop := func(int) error { return nil }
	p.time("par.foreach_overhead_us", 1000, "us", nil, func() { _ = par.ForEach(runtime.NumCPU(), 16, noop) }) // no-op tasks cannot fail
	p.time("par.foreach_overhead_w1_us", 1000, "us", nil, func() { _ = par.ForEach(1, 16, noop) })
	if runtime.NumCPU() == 1 {
		fmt.Println("  (NumCPU is 1: the w1 and default-worker timings are the same hardware; no scaling claim can be read off them)")
	}

	mgr := jobs.NewManager(jobs.Options{})
	run := func(context.Context, core.ProgressFunc) (*core.Result, error) { return &core.Result{}, nil }
	n := 0
	p.time("jobs.noop_roundtrip_us", 400, "us", nil, func() {
		n++
		if j, err := mgr.Submit("noop-"+strconv.Itoa(n), run); err == nil {
			<-j.Done()
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = mgr.Shutdown(ctx) // idle queue: nothing to drain
}

// facade measures what one cold advise allocates: a fresh Advisor per
// context over the workload's base contexts, MemStats before and
// after.
func (p *prober) facade(workload string, seed int64, voc, sky *engine.Table) error {
	var ctxs []harness.Context
	switch workload {
	case harness.ColdExplore:
		ctxs = harness.ColdContexts(seed)
	case harness.DrillSession:
		for _, s := range harness.DrillRoots {
			ctxs = append(ctxs, harness.Context{Table: "voc", SDL: s})
		}
	case harness.ServeHot:
		for _, s := range harness.HotContexts {
			ctxs = append(ctxs, harness.Context{Table: "voc", SDL: s})
		}
	default:
		for _, s := range harness.ReaderContexts {
			ctxs = append(ctxs, harness.Context{Table: "voc", SDL: s})
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, c := range ctxs {
		tab := voc
		if c.Table == "sky" {
			tab = sky
		}
		var err error
		p.tr.Time(-1, "charles.cold_advise", -1, func() {
			sink, err = charles.NewAdvisor(tab, charles.DefaultConfig()).AdviseString(c.SDL)
		})
		if err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(len(ctxs))
	p.m.set("charles.allocs_per_advise", float64(after.Mallocs-before.Mallocs)/n, len(ctxs))
	p.m.set("charles.bytes_per_advise", float64(after.TotalAlloc-before.TotalAlloc)/n, len(ctxs))
	p.m.set("charles.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6/n, len(ctxs))
	return nil
}

// appendIdle posts append_mix's first batches to an idle server: the
// round trip with nobody holding the table lock. What the loaded run
// adds on top is the lock wait.
func (p *prober) appendIdle(opt harness.Options) error {
	srv, err := harness.StartServer(opt.ServerBin, filepath.Join(opt.OutDir, "server-append_idle.log"),
		"-dataset", "voc", "-rows", strconv.Itoa(opt.Sizes.Rows), "-seed", strconv.Itoa(harness.DataSeed))
	if err != nil {
		return err
	}
	defer srv.Stop()
	plan := harness.NewAppendPlan(opt.Seed, reps, opt.Sizes.BatchRows)
	c := srv.NewClient(p.tr)
	var samples []float64
	for i := range plan.Batches {
		body, err := plan.Body(i)
		if err != nil {
			return err
		}
		d, err := c.Append(-1-i, body)
		if err != nil {
			return err
		}
		samples = append(samples, float64(d.Nanoseconds())/1e6)
	}
	p.m.median("server.append_idle_ms", samples)
	p.m.set("server.append_wait_ms", p.m.byName["server.append_p50_ms"].Value-p.m.byName["server.append_idle_ms"].Value, len(samples))
	return nil
}
