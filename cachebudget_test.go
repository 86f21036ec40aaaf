package charles_test

import (
	"testing"

	"charles"
)

// TestBudgetedAdviseByteIdentical: an advisor whose evaluator budget is
// small enough to evict in the middle of every advise renders every
// answer byte-identically to an unbounded advisor over the same data,
// on VOC and the sky survey, with appends between the rounds.
func TestBudgetedAdviseByteIdentical(t *testing.T) {
	const budget = 16 << 10
	for _, tc := range []struct {
		name     string
		src      *charles.Table
		contexts []string
	}{
		{"voc", charles.GenerateVOC(20000, 7), []string{
			"(type_of_boat:, tonnage:, departure_harbour:)",
			"(departure_date:, tonnage:, type_of_boat:)",
		}},
		{"sky", charles.GenerateSkySurvey(20000, 7), []string{
			"(magnitude:, redshift:, class:)",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.src.SetChunkRows(1 << 11); err != nil {
				t.Fatal(err)
			}
			cfg := charles.DefaultConfig()
			bounded := charles.NewAdvisor(cloneTable(t, tc.src), cfg)
			unbounded := charles.NewAdvisor(cloneTable(t, tc.src), cfg)
			bounded.Evaluator().SetCacheBudget(budget)
			for round := 0; round < 3; round++ {
				for _, ctx := range tc.contexts {
					evicted := bounded.Evaluator().Counters().Evictions
					if got, want := adviseRendered(t, bounded, ctx), adviseRendered(t, unbounded, ctx); got != want {
						t.Fatalf("round %d %s: budgeted advise diverged:\n--- budgeted ---\n%s\n--- unbounded ---\n%s", round, ctx, got, want)
					}
					if bounded.Evaluator().Counters().Evictions == evicted {
						t.Fatalf("round %d %s: the advise evicted nothing under a %d-byte budget", round, ctx, budget)
					}
					if got := bounded.Evaluator().CacheBytes(); got > budget {
						t.Fatalf("round %d %s: the stores hold %d bytes, budget %d", round, ctx, got, budget)
					}
				}
				var rows [][]charles.Value
				for i := 0; i < 100; i++ {
					rows = append(rows, valueRow(tc.src, (round*7919+i*131)%tc.src.NumRows()))
				}
				for _, adv := range []*charles.Advisor{bounded, unbounded} {
					if err := adv.Table().AppendRows(rows...); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}
