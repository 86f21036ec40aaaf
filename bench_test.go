// Benchmarks regenerating every figure and quantitative claim of the
// paper. BenchmarkE1–E12 pair with the same-named experiments of the
// internal/harness runners table — `charles-bench` prints their
// tables, these measure the steady-state cost; E13 onward are
// benchmark-only. Engine micro-benchmarks at the bottom isolate the
// two back-end operations Section 5.1 identifies: medians and counts
// over predicates.
package charles_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"charles"
	"charles/internal/baseline"
	"charles/internal/core"
	"charles/internal/dataset"
	"charles/internal/engine"
	"charles/internal/sdl"
	"charles/internal/seg"
)

// memoTable caches generated tables across benchmarks in one run.
var (
	memoMu     sync.Mutex
	memoTables = map[string]*engine.Table{}
)

func table(b *testing.B, name string, n int, seed int64) *engine.Table {
	b.Helper()
	key := fmt.Sprintf("%s/%d/%d", name, n, seed)
	memoMu.Lock()
	defer memoMu.Unlock()
	if t, ok := memoTables[key]; ok {
		return t
	}
	t, err := dataset.Named(name, n, seed)
	if err != nil {
		b.Fatal(err)
	}
	memoTables[key] = t
	return t
}

func contextOn(b *testing.B, tab *engine.Table, cols ...string) sdl.Query {
	b.Helper()
	q, err := sdl.ContextOn(tab, cols...)
	if err != nil {
		b.Fatal(err)
	}
	return q
}

// BenchmarkE1Fig1EndToEnd measures the full Figure 1 advisory
// round: parse-free context over the VOC table, HB-cuts, ranking.
func BenchmarkE1Fig1EndToEnd(b *testing.B) {
	tab := table(b, "voc", 20000, 1)
	ctx := contextOn(b, tab, "type_of_boat", "tonnage", "built", "departure_harbour", "trip")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := seg.NewEvaluator(tab)
		if _, err := core.HBCuts(ev, ctx, core.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2Primitives measures the three Section 4.1 operators in
// isolation on a 10k-row variant of the Figure 2 table.
func BenchmarkE2Primitives(b *testing.B) {
	tab := table(b, "voc", 10000, 2)
	ctx := contextOn(b, tab, "type_of_boat", "tonnage", "departure_date")
	prep := func(b *testing.B) (*seg.Evaluator, *seg.Segmentation, *seg.Segmentation) {
		ev := seg.NewEvaluator(tab)
		a, ok, err := seg.InitialCut(ev, ctx, "type_of_boat", seg.DefaultCutOptions())
		if err != nil || !ok {
			b.Fatal(err)
		}
		d, ok, err := seg.InitialCut(ev, ctx, "departure_date", seg.DefaultCutOptions())
		if err != nil || !ok {
			b.Fatal(err)
		}
		return ev, a, d
	}
	b.Run("Cut", func(b *testing.B) {
		ev, a, _ := prep(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := seg.Cut(ev, a, "tonnage", seg.DefaultCutOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Compose", func(b *testing.B) {
		ev, a, d := prep(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := seg.Compose(ev, a, d, seg.DefaultCutOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Product", func(b *testing.B) {
		ev, a, d := prep(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := seg.Product(ev, a, d); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Indep", func(b *testing.B) {
		ev, a, d := prep(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := seg.Indep(ev, a, d); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE3HBCutsFiveAttrs measures the Figure 3 execution.
func BenchmarkE3HBCutsFiveAttrs(b *testing.B) {
	tab := table(b, "figure3", 20000, 1)
	ctx := sdl.ContextAll(tab)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := seg.NewEvaluator(tab)
		if _, err := core.HBCuts(ev, ctx, core.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4StoppingSweep measures the cost of each stopping
// configuration of Figure 4.
func BenchmarkE4StoppingSweep(b *testing.B) {
	tab := table(b, "voc", 20000, 1)
	ctx := contextOn(b, tab, "type_of_boat", "tonnage", "built", "departure_harbour", "trip")
	for _, maxIndep := range []float64{0.90, 0.99} {
		for _, maxDepth := range []int{8, 16} {
			name := fmt.Sprintf("indep=%.2f/depth=%d", maxIndep, maxDepth)
			b.Run(name, func(b *testing.B) {
				cfg := core.DefaultConfig()
				cfg.MaxIndep = maxIndep
				cfg.MaxDepth = maxDepth
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ev := seg.NewEvaluator(tab)
					if _, err := core.HBCuts(ev, ctx, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE5Independence measures the Proposition 1 INDEP check at
// two dependence levels.
func BenchmarkE5Independence(b *testing.B) {
	for _, rho := range []float64{0, 0.95} {
		b.Run(fmt.Sprintf("rho=%.2f", rho), func(b *testing.B) {
			tab := dataset.CorrelatedPair(50000, rho, 1)
			ev := seg.NewEvaluator(tab)
			ctx := sdl.ContextAll(tab)
			sx, _, err := seg.InitialCut(ev, ctx, "x", seg.DefaultCutOptions())
			if err != nil {
				b.Fatal(err)
			}
			sy, _, err := seg.InitialCut(ev, ctx, "y", seg.DefaultCutOptions())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := seg.Indep(ev, sx, sy); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6Horizontal measures advise time versus attribute count
// on the all-dependent chain workload.
func BenchmarkE6Horizontal(b *testing.B) {
	for _, attrs := range []int{2, 4, 8, 12} {
		b.Run(fmt.Sprintf("attrs=%d", attrs), func(b *testing.B) {
			tab := dataset.Chain(20000, attrs, 150, 1)
			ctx := sdl.ContextAll(tab)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := seg.NewEvaluator(tab)
				if _, err := core.HBCuts(ev, ctx, core.DefaultConfig()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7Vertical measures advise time versus row count.
func BenchmarkE7Vertical(b *testing.B) {
	for _, rows := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			tab := table(b, "voc", rows, 1)
			ctx := contextOn(b, tab, "type_of_boat", "tonnage", "departure_harbour", "trip")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := seg.NewEvaluator(tab)
				if _, err := core.HBCuts(ev, ctx, core.DefaultConfig()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7ColumnVsRow isolates the Section 5.1 claim: the two
// back-end operations on a column store versus a row store.
func BenchmarkE7ColumnVsRow(b *testing.B) {
	tab := table(b, "voc", 100000, 1)
	ton := tab.MustColumn("tonnage").(*engine.IntColumn)
	all, chunked := tab.All(), tab.AllChunked()
	r := engine.IntRange{Lo: 200, Hi: 600, LoIncl: true, HiIncl: true}
	rt := engine.NewRowTable(tab)
	tonIdx := rt.ColumnIndex("tonnage")
	b.Run("CountColumn", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = engine.FilterIntRangeChunked(ton, chunked, r, nil)
		}
	})
	b.Run("CountRow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = rt.CountIntRange(tonIdx, r)
		}
	})
	b.Run("MedianColumn", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := engine.IntMedian(ton, all); !ok {
				b.Fatal("median failed")
			}
		}
	})
	b.Run("MedianRow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := rt.MedianInt(tonIdx); !ok {
				b.Fatal("median failed")
			}
		}
	})
}

// BenchmarkE8Sampling measures the Section 5.2 sampled-median
// strategy.
func BenchmarkE8Sampling(b *testing.B) {
	tab := table(b, "voc", 200000, 1)
	ctx := contextOn(b, tab, "type_of_boat", "tonnage", "built", "trip")
	for _, sample := range []int{0, 16384, 1024} {
		name := "exact"
		if sample > 0 {
			name = fmt.Sprintf("sample=%d", sample)
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Cut.SampleSize = sample
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := seg.NewEvaluator(tab)
				if _, err := core.HBCuts(ev, ctx, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9Baselines measures each Section 6 comparator on the
// same context.
func BenchmarkE9Baselines(b *testing.B) {
	tab := table(b, "voc", 20000, 1)
	ctx := contextOn(b, tab, "type_of_boat", "tonnage", "departure_harbour", "trip")
	b.Run("HBCuts", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ev := seg.NewEvaluator(tab)
			if _, err := core.HBCuts(ev, ctx, core.DefaultConfig()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Adaptive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ev := seg.NewEvaluator(tab)
			if _, err := core.AdaptiveCuts(ev, ctx, core.DefaultConfig()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("RandomComposition", func(b *testing.B) {
		cfg := core.DefaultConfig()
		cfg.Pairing = core.PairRandom
		for i := 0; i < b.N; i++ {
			ev := seg.NewEvaluator(tab)
			if _, err := core.HBCuts(ev, ctx, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Facets", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ev := seg.NewEvaluator(tab)
			if _, err := baseline.Facets(ev, ctx, 12); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("CLIQUE", func(b *testing.B) {
		attrs := []string{"type_of_boat", "tonnage", "departure_harbour", "trip"}
		for i := 0; i < b.N; i++ {
			if _, err := baseline.Clique(tab, tab.All(), attrs, baseline.DefaultCliqueConfig()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("KMeans", func(b *testing.B) {
		gm := table(b, "gaussian", 20000, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := baseline.KMeans(gm, gm.All(), []string{"x0", "x1"}, 8, 50, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE10Quantiles measures cut cost versus arity.
func BenchmarkE10Quantiles(b *testing.B) {
	tab := table(b, "gaussian", 100000, 1)
	ctx := contextOn(b, tab, "x0")
	for _, arity := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("arity=%d", arity), func(b *testing.B) {
			opt := seg.DefaultCutOptions()
			opt.Arity = arity
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := seg.NewEvaluator(tab)
				if _, ok, err := seg.InitialCut(ev, ctx, "x0", opt); err != nil || !ok {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE11Lazy compares eager total cost against time-to-first-
// answer of the lazy stream.
func BenchmarkE11Lazy(b *testing.B) {
	tab := table(b, "voc", 50000, 1)
	ctx := contextOn(b, tab, "type_of_boat", "tonnage", "built", "departure_harbour", "trip")
	b.Run("EagerAll", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ev := seg.NewEvaluator(tab)
			if _, err := core.HBCuts(ev, ctx, core.DefaultConfig()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("LazyFirstAnswer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ev := seg.NewEvaluator(tab)
			st, err := core.NewStream(ev, ctx, core.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			if _, ok, err := st.Next(); err != nil || !ok {
				b.Fatal(err)
			}
		}
	})
}

// --- engine micro-benchmarks: the two Section 5.1 operations ---

func BenchmarkEngineFilterIntRange(b *testing.B) {
	tab := table(b, "voc", 100000, 1)
	ton := tab.MustColumn("tonnage").(*engine.IntColumn)
	all := tab.AllChunked()
	r := engine.IntRange{Lo: 200, Hi: 600, LoIncl: true, HiIncl: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = engine.FilterIntRangeChunked(ton, all, r, nil)
	}
}

func BenchmarkEngineMedianInt(b *testing.B) {
	tab := table(b, "voc", 100000, 1)
	ton := tab.MustColumn("tonnage").(*engine.IntColumn)
	all := tab.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := engine.IntMedian(ton, all); !ok {
			b.Fatal("median failed")
		}
	}
}

func BenchmarkEngineIntersectCount(b *testing.B) {
	n := 200000
	a := make(engine.Selection, 0, n/2)
	c := make(engine.Selection, 0, n/3)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			a = append(a, int32(i))
		}
		if i%3 == 0 {
			c = append(c, int32(i))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = engine.IntersectCount(a, c)
	}
}

func BenchmarkEngineStringFilter(b *testing.B) {
	tab := table(b, "voc", 100000, 1)
	col := tab.MustColumn("type_of_boat").(*engine.StringColumn)
	all := tab.AllChunked()
	want := []string{"fluit", "jacht"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = engine.FilterStringSetChunked(col, all, want, nil)
	}
}

func BenchmarkSDLParse(b *testing.B) {
	input := "(date: [1550-01-01, 1650-12-31], tonnage: [1000, 5000), type: {'jacht', 'fluit', pinas})"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sdl.Parse(input); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12WorkersScaling measures the tentpole claim: advise
// over VOC 50k with the fan-out bounded at 1, 2, 4 and all-CPU
// workers. The ranked output is identical at every width (pinned by
// TestWorkersDeterministic); only the wall-clock should move. On a
// multi-core machine Workers=4 must beat Workers=1 clearly; on a
// single core the widths tie, which is the degenerate check that
// the fan-out adds no meaningful overhead.
func BenchmarkE12WorkersScaling(b *testing.B) {
	tab := table(b, "voc", 50000, 1)
	ctx := contextOn(b, tab, "type_of_boat", "tonnage", "built", "departure_harbour", "trip")
	for _, workers := range []int{1, 2, 4, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=all"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Workers = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := seg.NewEvaluator(tab)
				if _, err := core.HBCuts(ev, ctx, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE13ConcurrentSessions measures the multi-session story:
// b.RunParallel advising goroutines sharing one evaluator, the
// server's deployment shape.
func BenchmarkE13ConcurrentSessions(b *testing.B) {
	tab := table(b, "voc", 50000, 1)
	ctx := contextOn(b, tab, "type_of_boat", "tonnage", "built", "departure_harbour", "trip")
	ev := seg.NewEvaluator(tab)
	cfg := core.DefaultConfig()
	cfg.Workers = 1 // parallelism across sessions, not within one
	engine.SetScanWorkers(1)
	defer engine.SetScanWorkers(0)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := core.HBCuts(ev, ctx, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAdvisorFacade(b *testing.B) {
	tab := charles.GenerateVOC(10000, 1)
	adv := charles.NewAdvisor(tab, charles.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := adv.AdviseString("(type_of_boat:, tonnage:)"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE14BitmapIntersect isolates the word-packed claim: on dense
// selections (≥ 1/8 density here, far above the 1/32 storage rule) a
// chunked selection holds words, and its AND+popcount intersection
// count must beat the sorted-merge IntersectCount by ≥ 5×.
// BitmapBuildAndCount includes the one-time packing cost a selection
// pays when it is written; MixedProbe is a sparse chunk's row ids
// probed against a dense one's words.
func BenchmarkE14BitmapIntersect(b *testing.B) {
	const nRows = 200000
	mk := func(stride int) engine.Selection {
		out := make(engine.Selection, 0, nRows/stride+1)
		for i := 0; i < nRows; i += stride {
			out = append(out, int32(i))
		}
		return out
	}
	dense2, dense3 := mk(2), mk(3) // densities 1/2 and 1/3
	b.Run("SortedMerge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = engine.IntersectCount(dense2, dense3)
		}
	})
	chunked := func(sel engine.Selection) *engine.ChunkedSelection {
		return engine.ChunkSelection(sel, nRows, engine.DefaultChunkRows)
	}
	ba, bc := chunked(dense2), chunked(dense3)
	b.Run("BitmapAndCount", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = ba.AndCount(bc)
		}
	})
	b.Run("BitmapBuildAndCount", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = chunked(dense2).AndCount(chunked(dense3))
		}
	})
	sparse := chunked(mk(1024))
	b.Run("MixedProbe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = ba.AndCount(sparse)
		}
	})
}

// BenchmarkE15ParallelCells measures the parallel contingency-table
// fan-out on an 8×8 cell grid over VOC 100k, one run per worker
// count. The cell values are identical at every width
// (TestCellCountsParallelMatchesSequential pins this); only the
// wall-clock moves. On the single-core CI container the widths tie;
// run on multi-core hardware to see the scaling.
func BenchmarkE15ParallelCells(b *testing.B) {
	tab := table(b, "voc", 100000, 1)
	ctx := contextOn(b, tab, "tonnage", "built")
	ev := seg.NewEvaluator(tab)
	opt := seg.DefaultCutOptions()
	opt.Arity = 8
	s1, ok, err := seg.InitialCut(ev, ctx, "tonnage", opt)
	if err != nil || !ok {
		b.Fatalf("InitialCut(tonnage): %v ok=%v", err, ok)
	}
	s2, ok, err := seg.InitialCut(ev, ctx, "built", opt)
	if err != nil || !ok {
		b.Fatalf("InitialCut(built): %v ok=%v", err, ok)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			po := seg.PairOptions{Workers: workers}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := seg.CellCountsOpt(ev, s1, s2, po); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE16ChunkedScan measures the chunked storage path on a
// 1M-row table: full-selection range filter and median cut point,
// each iterating 64K-row chunks through the scan worker pool. The
// outputs are identical at every width (the chunked equivalence
// property tests pin this); the wall-clock should fall as workers rise
// on multi-core hardware. The single-width flat subbenchmark is the
// pre-chunking baseline for the same pipeline: no zone map, and the
// median over the flat selection.
func BenchmarkE16ChunkedScan(b *testing.B) {
	const nRows = 1_000_000
	tab := table(b, "voc", nRows, 1)
	col, ok := tab.ColumnByName("tonnage")
	if !ok {
		b.Fatal("no tonnage column")
	}
	ton := col.(engine.IntValued)
	sum := tab.SummaryByName("tonnage")
	all := tab.AllChunked()
	r := engine.IntRange{Lo: 150, Hi: 800, LoIncl: true, HiIncl: false}
	b.Run("flat/workers=1", func(b *testing.B) {
		engine.SetScanWorkers(1)
		defer engine.SetScanWorkers(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sel := engine.FilterIntRangeChunked(ton, all, r, nil).Flat()
			if _, ok := engine.IntMedian(ton, sel); !ok {
				b.Fatal("empty selection")
			}
		}
	})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("chunked/workers=%d", workers), func(b *testing.B) {
			engine.SetScanWorkers(workers)
			defer engine.SetScanWorkers(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cs := engine.FilterIntRangeChunked(ton, all, r, sum)
				if _, ok := engine.IntMedianChunked(ton, cs); !ok {
					b.Fatal("empty selection")
				}
			}
		})
	}
}

// BenchmarkE19NominalPrune isolates the nominal zone-map claim: a
// selective string predicate on a 1M-row table whose values are
// clustered by region (the natural shape of time- or load-ordered
// ingest) must run several times faster with the presence summaries
// consulted than with every chunk scanned — the wanted value lives
// in 1 of 16 chunks, so pruning skips ~94% of the rows. The pruned
// and unpruned selections are identical (the nominal equivalence
// property tests pin this); only the chunks touched differ.
func BenchmarkE19NominalPrune(b *testing.B) {
	const nRows = 1_000_000
	const values = 64 // 15625 rows per value, clustered: ~4 values per 64K chunk
	vals := make([]string, nRows)
	for i := range vals {
		vals[i] = fmt.Sprintf("region-%02d", i/(nRows/values))
	}
	tab := engine.MustNewTable("clustered", engine.NewStringColumn("region", vals))
	col := tab.MustColumn("region").(*engine.StringColumn)
	sum := tab.SummaryByName("region")
	if sum == nil {
		b.Fatal("no nominal summary")
	}
	all := tab.AllChunked()
	want := []string{"region-17"}
	b.Run("unpruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if cs := engine.FilterStringSetChunked(col, all, want, nil); cs.Len() == 0 {
				b.Fatal("empty selection")
			}
		}
	})
	b.Run("pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if cs := engine.FilterStringSetChunked(col, all, want, sum); cs.Len() == 0 {
				b.Fatal("empty selection")
			}
		}
	})
}

// BenchmarkE17ScaleAdvise is the 10M-row end-to-end comparison the
// chunked storage layer exists for; it generates a ~10M-row VOC
// table (several hundred MB of columns), so it only runs when
// CHARLES_SCALE=1 — `make bench-scale` sets it. The advise must
// complete without exhausting memory; wall-clock across worker
// counts is the scaling measurement.
func BenchmarkE17ScaleAdvise(b *testing.B) {
	if os.Getenv("CHARLES_SCALE") == "" {
		b.Skip("10M-row scale run; set CHARLES_SCALE=1 (make bench-scale) to enable")
	}
	const nRows = 10_000_000
	tab := table(b, "voc", nRows, 1)
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Workers = workers
			ctx := contextOn(b, tab, "type_of_boat", "tonnage", "departure_harbour")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := seg.NewEvaluator(tab)
				if _, err := core.HBCuts(ev, ctx, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE20ColdStart measures the out-of-core start-up path: open
// a 1M-row .chc columnar file via mmap (docs/FORMAT.md) and warm
// every zone map from the persisted summary regions. This is the
// charles-server boot sequence with -table, and the number the
// format exists for — milliseconds instead of the seconds a CSV
// parse or generator run costs at the same scale.
func BenchmarkE20ColdStart(b *testing.B) {
	const nRows = 1_000_000
	path := filepath.Join(b.TempDir(), "voc1m.chc")
	if err := charles.SaveColumnFile(path, table(b, "voc", nRows, 1), charles.ColumnFileOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := charles.OpenColumnFile(path)
		if err != nil {
			b.Fatal(err)
		}
		if warmed := tab.WarmSummaries(); warmed != tab.NumCols() {
			b.Fatalf("warmed %d zone maps, want %d", warmed, tab.NumCols())
		}
		if err := tab.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE21DeltaAdvise measures the incremental-advise claim
// (chunk-epoch invalidation): after appending 1% more rows to a
// 1M-row table, a warm advisor — selection caches, packed bitmaps
// and cut-point runs all primed and epoch-stamped — re-advises
// faster than a cold advisor over the same mutated data, answering
// byte-identically. The ratio is information, not a gate:
// TestE21DeltaAdviseGate pins the output and bounds the warm work by
// chunk scans, not by the clock.
func BenchmarkE21DeltaAdvise(b *testing.B) {
	const nRows = 1_000_000
	const context = "(type_of_boat:, tonnage:, departure_harbour:)"
	src := table(b, "voc", nRows, 1)
	appendDelta := func(b *testing.B, tab *engine.Table, round int) {
		b.Helper()
		rows := make([][]engine.Value, nRows/100)
		for i := range rows {
			r := (i*97 + round) % nRows
			row := make([]engine.Value, src.NumCols())
			for c := 0; c < src.NumCols(); c++ {
				row[c] = src.Column(c).Value(r)
			}
			rows[i] = row
		}
		if err := tab.AppendRows(rows...); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("cold", func(b *testing.B) {
		tab := cloneTable(b, src)
		appendDelta(b, tab, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			adv := charles.NewAdvisor(tab, charles.DefaultConfig())
			if _, err := adv.AdviseString(context); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		tab := cloneTable(b, src)
		adv := charles.NewAdvisor(tab, charles.DefaultConfig())
		if _, err := adv.AdviseString(context); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			appendDelta(b, tab, i+1)
			b.StartTimer()
			if _, err := adv.AdviseString(context); err != nil {
				b.Fatal(err)
			}
		}
	})
}
