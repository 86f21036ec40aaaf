// Tests for the parallel advisor core: one shared Advisor serving
// many goroutines must produce exactly the ranked output of a
// sequential run, for any worker count. Run with -race.
package charles_test

import (
	"fmt"
	"sync"
	"testing"

	"charles"
)

// rankedFingerprint serializes a result's ranked segmentations so
// runs can be compared exactly: canonical key, score and counts per
// rank.
func rankedFingerprint(res *charles.Result) string {
	out := ""
	for i, sc := range res.Segmentations {
		out += fmt.Sprintf("%d: %s score=%.12f counts=%v\n", i, sc.Seg.Key(), sc.Score, sc.Seg.Counts)
	}
	return out
}

func concurrencyFixture(t *testing.T, workers int) (*charles.Advisor, charles.Query) {
	t.Helper()
	tab := charles.GenerateVOC(5000, 1)
	cfg := charles.DefaultConfig()
	cfg.Workers = workers
	adv := charles.NewAdvisor(tab, cfg)
	ctx, err := charles.ContextOn(tab, "type_of_boat", "tonnage", "built", "departure_harbour", "trip")
	if err != nil {
		t.Fatal(err)
	}
	return adv, ctx
}

// TestWorkersDeterministic pins the tentpole guarantee: the ranked
// output is bit-identical across worker counts.
func TestWorkersDeterministic(t *testing.T) {
	advSeq, ctx := concurrencyFixture(t, 1)
	baseline, err := advSeq.Advise(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline.Segmentations) < 2 {
		t.Fatalf("baseline produced only %d segmentations, test is vacuous", len(baseline.Segmentations))
	}
	want := rankedFingerprint(baseline)
	for _, workers := range []int{2, 4, 8} {
		adv, ctx := concurrencyFixture(t, workers)
		res, err := adv.Advise(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got := rankedFingerprint(res); got != want {
			t.Fatalf("Workers=%d ranked output differs from sequential:\n--- got ---\n%s--- want ---\n%s", workers, got, want)
		}
		// The instrumentation counters must match too: parallelism
		// reorders work, it must not change how much is done.
		if res.IndepEvals != baseline.IndepEvals || res.IndepCacheHits != baseline.IndepCacheHits {
			t.Fatalf("Workers=%d INDEP counters (%d evals, %d hits) differ from sequential (%d, %d)",
				workers, res.IndepEvals, res.IndepCacheHits, baseline.IndepEvals, baseline.IndepCacheHits)
		}
	}
}

// TestConcurrentAdviseOnSharedAdvisor exercises the sharded caches:
// N goroutines advise, count and stream on one Advisor at once, each
// getting the sequential answer.
func TestConcurrentAdviseOnSharedAdvisor(t *testing.T) {
	advSeq, _ := concurrencyFixture(t, 1)
	_, ctx := concurrencyFixture(t, 1)
	baseline, err := advSeq.Advise(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := rankedFingerprint(baseline)
	wantCount, err := advSeq.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}

	adv, ctx := concurrencyFixture(t, 4)
	const goroutines = 8
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			defer wg.Done()
			res, err := adv.Advise(ctx)
			if err != nil {
				t.Errorf("goroutine %d: advise: %v", g, err)
				return
			}
			if got := rankedFingerprint(res); got != want {
				t.Errorf("goroutine %d: ranked output differs from sequential run", g)
			}
			n, err := adv.Count(ctx)
			if err != nil || n != wantCount {
				t.Errorf("goroutine %d: count = %d (%v), want %d", g, n, err, wantCount)
			}
			// Streams are per-caller cursors over the shared advisor.
			st, err := adv.Stream(ctx)
			if err != nil {
				t.Errorf("goroutine %d: stream: %v", g, err)
				return
			}
			drained, err := st.Drain()
			if err != nil {
				t.Errorf("goroutine %d: drain: %v", g, err)
				return
			}
			if len(drained) != len(baseline.Segmentations) {
				t.Errorf("goroutine %d: stream drained %d segmentations, want %d",
					g, len(drained), len(baseline.Segmentations))
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentAdaptive covers the AdaptiveCuts fan-out under
// shared-advisor concurrency.
func TestConcurrentAdaptive(t *testing.T) {
	advSeq, ctx := concurrencyFixture(t, 1)
	baseline, err := advSeq.Adaptive(ctx)
	if err != nil {
		t.Fatal(err)
	}
	adv, ctx := concurrencyFixture(t, 4)
	const goroutines = 4
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			defer wg.Done()
			got, err := adv.Adaptive(ctx)
			if err != nil {
				t.Errorf("goroutine %d: adaptive: %v", g, err)
				return
			}
			if len(got) != len(baseline) {
				t.Errorf("goroutine %d: %d segmentations, want %d", g, len(got), len(baseline))
				return
			}
			for i := range got {
				if got[i].Seg.Key() != baseline[i].Seg.Key() {
					t.Errorf("goroutine %d: rank %d = %s, want %s", g, i, got[i].Seg.Key(), baseline[i].Seg.Key())
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRevisitedAdviseIdentical pins the pair-table tier end to end:
// advising a context again on the same Advisor — the second run's
// contingency tables all come from the evaluator's tier — renders
// byte-identically and does exactly the same INDEP and composition
// work, sequentially and with 4 goroutines re-advising at once.
func TestRevisitedAdviseIdentical(t *testing.T) {
	adv, ctx := concurrencyFixture(t, 2)
	first, err := adv.Advise(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := charles.RenderRanked(first, len(first.Segmentations)) + rankedFingerprint(first)
	check := func(res *charles.Result) error {
		if got := charles.RenderRanked(res, len(res.Segmentations)) + rankedFingerprint(res); got != want {
			return fmt.Errorf("revisited advise differs:\n--- got ---\n%s--- want ---\n%s", got, want)
		}
		if res.IndepEvals != first.IndepEvals || res.Iterations != first.Iterations {
			return fmt.Errorf("revisited advise did %d INDEP evals in %d iterations, first %d in %d",
				res.IndepEvals, res.Iterations, first.IndepEvals, first.Iterations)
		}
		return nil
	}
	hits := adv.Evaluator().Counters().PairTableHits
	second, err := adv.Advise(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := check(second); err != nil {
		t.Fatal(err)
	}
	if adv.Evaluator().Counters().PairTableHits == hits {
		t.Fatal("the revisited advise took no table from the pair-table tier (test premise)")
	}
	const goroutines = 4
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			defer wg.Done()
			res, err := adv.Advise(ctx)
			if err == nil {
				err = check(res)
			}
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
			}
		}()
	}
	wg.Wait()
}
