package seg_test

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"charles/internal/core"
	"charles/internal/engine"
	"charles/internal/sdl"
	"charles/internal/seg"
)

// A cut the cut cache serves whole — its children and their counts
// from a version-equal entry, with no extent read and no child looked
// up — must be the cut a fresh evaluator computes. These tests hold
// served cuts against fresh (or unbounded) evaluators over every
// column kind the CUT primitive dispatches on.

const servedRows = 8192

// servedCutAttrs are the cut attributes of servedCutTable, one per
// path through the cut: int, date and string cuts, a float range cut
// whose NaN rows land in every child, a column constant everywhere
// (the degenerate cut), and a skewed int column only the
// numeric-nominal fallback can split.
var servedCutAttrs = []string{"n", "d", "s", "f", "c", "status"}

// servedCutTable is large enough that a mutable table's cut entries
// keep refreshable counts, and chunked finely enough that an append
// dirties one chunk of eight.
func servedCutTable() *engine.Table {
	n := make([]int64, servedRows)
	days := make([]int64, servedRows)
	strs := make([]string, servedRows)
	floats := make([]float64, servedRows)
	constant := make([]int64, servedRows)
	status := make([]int64, servedRows)
	for i := range n {
		n[i] = int64(i * 7 % 997)
		days[i] = int64(i*37%9000) - 3000
		strs[i] = [5]string{"fluit", "jacht", "pinas", "galjoot", "kat"}[i*i%5]
		floats[i] = float64(i%311) / 7
		if i%13 == 0 {
			floats[i] = math.NaN()
		}
		constant[i] = 7
		switch {
		case i%50 == 0:
			status[i] = 500
		case i%17 == 0:
			status[i] = 404
		default:
			status[i] = 200
		}
	}
	tab := engine.MustNewTable("served",
		engine.NewIntColumn("n", n),
		engine.NewDateColumn("d", days),
		engine.NewStringColumn("s", strs),
		engine.NewFloatColumn("f", floats),
		engine.NewIntColumn("c", constant),
		engine.NewIntColumn("status", status),
	)
	tab.SetChunkRows(1024)
	return tab
}

// appendServedRows appends k rows that move the int median, bring a
// new string value and add NaNs.
func appendServedRows(t *testing.T, tab *engine.Table, k int) {
	t.Helper()
	for i := 0; i < k; i++ {
		if err := tab.AppendRows([]engine.Value{
			engine.Int(996), engine.Date(5000), engine.String_("hoeker"),
			engine.Float(math.NaN()), engine.Int(7), engine.Int(302),
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// baseSeg is the segmentation every test cuts again: the table cut
// in four on n, so each query carries a constraint of its own and
// the cut on n itself narrows rather than replaces.
func baseSeg(t *testing.T, ev *seg.Evaluator) *seg.Segmentation {
	t.Helper()
	opt := seg.DefaultCutOptions()
	opt.Arity = 4
	s, ok, err := seg.InitialCut(ev, sdl.ContextAll(ev.Table()), "n", opt)
	if err != nil || !ok {
		t.Fatalf("InitialCut(n): ok=%v err=%v", ok, err)
	}
	return s
}

// cutOn cuts s on attr and renders the result.
func cutOn(t *testing.T, ev *seg.Evaluator, s *seg.Segmentation, attr string) string {
	t.Helper()
	out, err := seg.Cut(ev, s, attr, seg.DefaultCutOptions())
	if err != nil {
		t.Fatalf("Cut(%s): %v", attr, err)
	}
	return renderCut(out)
}

// renderCut renders a cut's attributes, children and counts.
func renderCut(s *seg.Segmentation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v\n", s.CutAttrs)
	for i, q := range s.Queries {
		fmt.Fprintf(&b, "%s = %d\n", q.Key(), s.Counts[i])
	}
	return b.String()
}

// freshCut is attr's cut of the base segmentation on a new evaluator.
func freshCut(t *testing.T, tab *engine.Table, attr string) string {
	t.Helper()
	ev := seg.NewEvaluator(tab)
	return cutOn(t, ev, baseSeg(t, ev), attr)
}

func TestServedCutMatchesFresh(t *testing.T) {
	tab := servedCutTable()
	for _, attr := range servedCutAttrs {
		t.Run(attr, func(t *testing.T) {
			ev := seg.NewEvaluator(tab)
			base := baseSeg(t, ev)
			first := cutOn(t, ev, base, attr)
			before := ev.Counters()
			served := cutOn(t, ev, base, attr)
			after := ev.Counters()
			if want := freshCut(t, tab, attr); first != want || served != want {
				t.Fatalf("cut on %s diverged from a fresh evaluator:\nfirst\n%s\nserved\n%s\nfresh\n%s", attr, first, served, want)
			}
			// Only the constant column's cut degenerates.
			if split := strings.Count(served, "\n")-1 > len(base.Queries); split != (attr != "c") {
				t.Fatalf("cut on %s split=%v:\n%s", attr, split, served)
			}
			if got := after.CutCacheHits - before.CutCacheHits; got != len(base.Queries) {
				t.Fatalf("revisited cut took %d cut-cache hits, want one per query (%d)", got, len(base.Queries))
			}
			// Served whole: no extent fetched, no child looked up,
			// nothing evaluated.
			if after.CacheHits != before.CacheHits || after.NarrowEvals != before.NarrowEvals ||
				after.FullEvals != before.FullEvals || after.CutPointCalcs != before.CutPointCalcs {
				t.Fatalf("revisited cut did work: counters %+v -> %+v", before, after)
			}
		})
	}
}

func TestServedCutNeverStaleAfterAppend(t *testing.T) {
	tab := servedCutTable()
	ev := seg.NewEvaluator(tab)
	base := baseSeg(t, ev)
	for _, attr := range servedCutAttrs {
		cutOn(t, ev, base, attr)
		cutOn(t, ev, base, attr)
	}
	appendServedRows(t, tab, 40)
	// The same queries again: every one has a cut entry, and every
	// entry is one version old.
	before := ev.Counters()
	for _, attr := range servedCutAttrs {
		if got, want := cutOn(t, ev, base, attr), cutOn(t, seg.NewEvaluator(tab), base, attr); got != want {
			t.Fatalf("cut on %s after append diverged from a fresh evaluator:\n%s\nfresh\n%s", attr, got, want)
		}
	}
	after := ev.Counters()
	if after.CutCacheHits != before.CutCacheHits {
		t.Fatalf("%d cut-cache hits right after an append: a stale entry was served", after.CutCacheHits-before.CutCacheHits)
	}
	if after.CutPointCalcs == before.CutPointCalcs {
		t.Fatal("no stale entry recomputed after the append")
	}
	// At the new version the refreshed entries serve again.
	for _, attr := range servedCutAttrs {
		if got, want := cutOn(t, ev, base, attr), cutOn(t, seg.NewEvaluator(tab), base, attr); got != want {
			t.Fatalf("served cut on %s after append diverged:\n%s\nfresh\n%s", attr, got, want)
		}
	}
	if got := ev.Counters().CutCacheHits - after.CutCacheHits; got != len(servedCutAttrs)*len(base.Queries) {
		t.Fatalf("%d cuts served at the new version, want %d", got, len(servedCutAttrs)*len(base.Queries))
	}
	// A segmentation rebuilt at the new version cuts as a fresh one.
	base = baseSeg(t, ev)
	for _, attr := range servedCutAttrs {
		if got, want := cutOn(t, ev, base, attr), freshCut(t, tab, attr); got != want {
			t.Fatalf("cut on %s of the rebuilt base diverged:\n%s\nfresh\n%s", attr, got, want)
		}
	}
}

func TestServedCutBoundedCache(t *testing.T) {
	tab := servedCutTable()
	bounded, unbounded := seg.NewEvaluator(tab), seg.NewEvaluator(tab)
	// A budget well under one cut's entries: the stores evict within
	// every cut.
	const budget = 2 << 10
	bounded.SetCacheBudget(budget)
	bBase, uBase := baseSeg(t, bounded), baseSeg(t, unbounded)
	for round := 0; round < 3; round++ {
		for _, attr := range servedCutAttrs {
			if got, want := cutOn(t, bounded, bBase, attr), cutOn(t, unbounded, uBase, attr); got != want {
				t.Fatalf("round %d: bounded cut on %s diverged:\n%s\nunbounded\n%s", round, attr, got, want)
			}
			if got := bounded.CacheBytes(); got > budget {
				t.Fatalf("round %d: the bounded stores hold %d bytes, budget %d", round, got, budget)
			}
		}
	}
	if bounded.Counters().Evictions == 0 {
		t.Fatal("the bounded evaluator evicted nothing")
	}
}

// TestServedCutConcurrent: goroutines that compute, store counts into
// and serve the same cut entries at once all see the fresh cut.
func TestServedCutConcurrent(t *testing.T) {
	tab := servedCutTable()
	want := map[string]string{}
	for _, attr := range servedCutAttrs {
		want[attr] = freshCut(t, tab, attr)
	}
	ev := seg.NewEvaluator(tab)
	base := baseSeg(t, ev)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for _, attr := range servedCutAttrs {
					out, err := seg.Cut(ev, base, attr, seg.DefaultCutOptions())
					if err != nil {
						t.Error(err)
						return
					}
					if got := renderCut(out); got != want[attr] {
						t.Errorf("concurrent cut on %s diverged:\n%s\nfresh\n%s", attr, got, want[attr])
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestServedCutAdaptive: the adaptive advisor trial-cuts through
// CutQuery, and a warm evaluator must hand it the children and counts
// a cold one computes.
func TestServedCutAdaptive(t *testing.T) {
	tab := servedCutTable()
	ctx, err := sdl.ContextOn(tab, "n", "d", "s", "f", "status")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	render := func(ev *seg.Evaluator) string {
		out, err := core.AdaptiveCuts(nil, ev, ctx, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, sc := range out {
			fmt.Fprintf(&b, "%s %v\n", sc.Seg.Key(), sc.Seg.Counts)
		}
		return b.String()
	}
	warm := seg.NewEvaluator(tab)
	render(warm)
	hits := warm.Counters().CutCacheHits
	if got, want := render(warm), render(seg.NewEvaluator(tab)); got != want {
		t.Fatalf("warm adaptive cuts diverged:\n%s\ncold\n%s", got, want)
	}
	if warm.Counters().CutCacheHits == hits {
		t.Fatal("warm adaptive pass served no cut")
	}
}
