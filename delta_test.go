// Incremental-advise acceptance tests: advise on a mutated table
// must be byte-identical to a cold advise over the same data — the
// chunk-epoch invalidation may only change what is recomputed, never
// what is answered — and the warm path must actually be cheap
// (TestE21DeltaAdviseGate pins the ratio BenchmarkE21DeltaAdvise
// measures).
package charles_test

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"charles"
	"charles/internal/engine"
)

// cloneTable deep-copies a memory-backed table's columns into a
// fresh table with the same chunk width: the from-scratch rebuild
// every delta test compares against, and the way benchmarks avoid
// mutating the memoized source tables.
func cloneTable(tb testing.TB, t *engine.Table) *engine.Table {
	tb.Helper()
	cols := make([]engine.Column, t.NumCols())
	for i := 0; i < t.NumCols(); i++ {
		switch c := t.Column(i).(type) {
		case *engine.IntColumn:
			cols[i] = engine.NewIntColumn(c.Name(), append([]int64(nil), c.Int64s()...))
		case *engine.DateColumn:
			cols[i] = engine.NewDateColumn(c.Name(), append([]int64(nil), c.Int64s()...))
		case *engine.FloatColumn:
			cols[i] = engine.NewFloatColumn(c.Name(), append([]float64(nil), c.Float64s()...))
		case *engine.BoolColumn:
			cols[i] = engine.NewBoolColumn(c.Name(), append([]bool(nil), c.Bools()...))
		case *engine.StringColumn:
			codes := append([]uint32(nil), c.Codes()...)
			dict := make([]string, c.Cardinality())
			for j := range dict {
				dict[j] = c.DictValue(uint32(j))
			}
			col, err := engine.NewStringColumnFromDict(c.Name(), codes, dict)
			if err != nil {
				tb.Fatal(err)
			}
			cols[i] = col
		default:
			tb.Fatalf("cloneTable: unsupported column type %T", c)
		}
	}
	out, err := engine.NewTable(t.Name(), cols...)
	if err != nil {
		tb.Fatal(err)
	}
	out.SetChunkRows(t.ChunkRows())
	return out
}

// valueRow reads row r of tab as a Value row AppendRows accepts.
func valueRow(tab *engine.Table, r int) []charles.Value {
	row := make([]charles.Value, tab.NumCols())
	for i := 0; i < tab.NumCols(); i++ {
		row[i] = tab.Column(i).Value(r)
	}
	return row
}

// adviseRendered runs one advise and renders the full ranked answer
// list — the byte-comparison form all equivalence tests use.
func adviseRendered(tb testing.TB, adv *charles.Advisor, context string) string {
	tb.Helper()
	res, err := adv.AdviseString(context)
	if err != nil {
		tb.Fatal(err)
	}
	return charles.RenderRanked(res, 0)
}

// TestDeltaAdviseByteIdentical is the always-on core guarantee: after
// appends and updates, a warm advisor (epoch-keyed caches primed
// before the mutations) answers byte-identically to a cold advisor
// over a from-scratch rebuild of the same data.
func TestDeltaAdviseByteIdentical(t *testing.T) {
	src := charles.GenerateVOC(20000, 7)
	src.SetChunkRows(1 << 10)
	const context = "(type_of_boat:, tonnage:, departure_harbour:)"

	tab := cloneTable(t, src)
	cfg := charles.DefaultConfig()
	cfg.ChunkRows = 1 << 10
	warm := charles.NewAdvisor(tab, cfg)
	_ = adviseRendered(t, warm, context) // prime every cache

	// Append 1%: rows sampled from the source so value distributions
	// stay realistic, plus one unseen harbour to grow a dictionary.
	var delta [][]charles.Value
	for i := 0; i < 200; i++ {
		delta = append(delta, valueRow(src, (i*97)%src.NumRows()))
	}
	novel := valueRow(src, 0)
	hIdx := -1
	for i := 0; i < src.NumCols(); i++ {
		if src.Column(i).Name() == "departure_harbour" {
			hIdx = i
		}
	}
	novel[hIdx] = charles.Str("Nieuw-Hoorn")
	delta = append(delta, novel)
	if err := tab.AppendRows(delta...); err != nil {
		t.Fatal(err)
	}
	// Update a scattering of tonnage values in-place.
	sel := charles.Selection{5, 1029, 2048, 9999}
	vals := []charles.Value{charles.Int(123), charles.Int(456), charles.Int(789), charles.Int(1011)}
	if err := tab.UpdateRows(sel, "tonnage", vals); err != nil {
		t.Fatal(err)
	}

	got := adviseRendered(t, warm, context)
	cold := charles.NewAdvisor(cloneTable(t, tab), cfg)
	want := adviseRendered(t, cold, context)
	if got != want {
		t.Fatalf("warm advise diverged from cold rebuild after mutation:\n--- warm ---\n%s\n--- cold ---\n%s", got, want)
	}
	if ctr := warm.Evaluator().Counters(); ctr.DeltaRefreshes == 0 {
		t.Fatal("warm advise took no delta-refresh path; the incremental machinery never engaged")
	}
}

// TestDeltaAdviseProperty drives randomized append/update sequences
// against a from-scratch rebuild at every step, across worker counts
// and chunk widths — the advise output must never diverge. Run under
// -race it also shakes out unsynchronized mutation of derived state.
// The context holds a narrow int (tonnage, whose cut entries retain
// per-chunk value counts when they fit) and a wide date
// (departure_date, whose entries retain nothing), and some tonnage
// updates land outside the counted window, forcing a full recompute.
func TestDeltaAdviseProperty(t *testing.T) {
	const context = "(type_of_boat:, tonnage:, departure_harbour:, departure_date:)"
	for _, workers := range []int{1, 4} {
		for _, chunkRows := range []int{1 << 10, 1 << 16} {
			t.Run(fmt.Sprintf("workers=%d/chunkRows=%d", workers, chunkRows), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(workers)*1000 + int64(chunkRows)))
				src := charles.GenerateVOC(8000, 3)
				tab := cloneTable(t, src)
				tab.SetChunkRows(chunkRows)
				cfg := charles.DefaultConfig()
				cfg.Workers = workers
				cfg.ChunkRows = chunkRows
				warm := charles.NewAdvisor(tab, cfg)
				_ = adviseRendered(t, warm, context)
				for step := 0; step < 6; step++ {
					if rng.Intn(2) == 0 {
						// Append a random batch; occasionally invent a
						// new string value to force dictionary growth.
						var rows [][]charles.Value
						for i := 0; i < 1+rng.Intn(64); i++ {
							row := valueRow(src, rng.Intn(src.NumRows()))
							if rng.Intn(8) == 0 {
								for ci := 0; ci < src.NumCols(); ci++ {
									if src.Column(ci).Name() == "type_of_boat" {
										row[ci] = charles.Str(fmt.Sprintf("prototype-%d", step))
									}
								}
							}
							rows = append(rows, row)
						}
						if err := tab.AppendRows(rows...); err != nil {
							t.Fatal(err)
						}
					} else {
						// Update a random scattering of one column.
						col := [2]string{"tonnage", "type_of_boat"}[rng.Intn(2)]
						n := 1 + rng.Intn(16)
						seen := map[int32]bool{}
						var sel charles.Selection
						for len(sel) < n {
							r := int32(rng.Intn(tab.NumRows()))
							if !seen[r] {
								seen[r] = true
								sel = append(sel, r)
							}
						}
						// UpdateRows does not require sorted rows, but
						// sorted keeps the test's intent obvious.
						for i := 1; i < len(sel); i++ {
							for j := i; j > 0 && sel[j] < sel[j-1]; j-- {
								sel[j], sel[j-1] = sel[j-1], sel[j]
							}
						}
						vals := make([]charles.Value, len(sel))
						for i := range vals {
							if col == "tonnage" {
								vals[i] = charles.Int(int64(100 + rng.Intn(900)))
								if rng.Intn(8) == 0 {
									vals[i] = charles.Int(int64(5000 + rng.Intn(5000))) // outside any window
								}
							} else {
								vals[i] = charles.Str([3]string{"fluit", "jacht", "pinas"}[rng.Intn(3)])
							}
						}
						if err := tab.UpdateRows(sel, col, vals); err != nil {
							t.Fatal(err)
						}
					}
					got := adviseRendered(t, warm, context)
					cold := charles.NewAdvisor(cloneTable(t, tab), cfg)
					want := adviseRendered(t, cold, context)
					if got != want {
						t.Fatalf("step %d: warm advise diverged from rebuild:\n--- warm ---\n%s\n--- cold ---\n%s", step, got, want)
					}
				}
			})
		}
	}
}

// TestE21DeltaAdviseGate is the CI regression gate for the E21
// claim: on a 1M-row table, a warm re-advise after a 1% append must
// be at least 5× faster than a cold advise over the same mutated
// data (half the ≥10× the benchmark pins, so noise on shared CI
// hardware does not flake the gate), and byte-identical to it. It
// costs a 1M-row generation plus three advises, so it only runs when
// CHARLES_DELTA_GATE=1 — `make bench-delta` sets it.
func TestE21DeltaAdviseGate(t *testing.T) {
	gateEnv := os.Getenv("CHARLES_DELTA_GATE")
	if gateEnv == "" {
		t.Skip("1M-row delta gate; set CHARLES_DELTA_GATE=1 (make bench-delta) to enable")
	}
	// The CI-safe floor is 5×: shared runners are noisy and a flaky
	// perf gate trains people to ignore it. A numeric value >1 sets a
	// stricter multiplier — CHARLES_DELTA_GATE=10 checks the
	// paper-facing claim on a quiet machine.
	gate := int64(5)
	if v, err := strconv.ParseInt(gateEnv, 10, 64); err == nil && v > 1 {
		gate = v
	}
	const nRows = 1_000_000
	const context = "(type_of_boat:, tonnage:, departure_harbour:)"
	src := charles.GenerateVOC(nRows, 1)
	tab := cloneTable(t, src)
	cfg := charles.DefaultConfig()
	warm := charles.NewAdvisor(tab, cfg)
	_ = adviseRendered(t, warm, context) // prime

	delta := make([][]charles.Value, nRows/100)
	for i := range delta {
		delta[i] = valueRow(src, (i*97)%nRows)
	}
	if err := tab.AppendRows(delta...); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	got := adviseRendered(t, warm, context)
	warmDur := time.Since(start)

	coldDur := time.Duration(1 << 62)
	var want string
	for i := 0; i < 3; i++ {
		cold := charles.NewAdvisor(tab, cfg)
		start = time.Now()
		want = adviseRendered(t, cold, context)
		if d := time.Since(start); d < coldDur {
			coldDur = d
		}
	}
	if got != want {
		t.Fatalf("warm advise diverged from cold advise on mutated table:\n--- warm ---\n%s\n--- cold ---\n%s", got, want)
	}
	if warmDur*time.Duration(gate) > coldDur {
		t.Fatalf("warm re-advise after 1%% append not ≥%d× faster than cold: warm=%v cold=%v (ratio %.1fx)", gate, warmDur, coldDur, float64(coldDur)/float64(warmDur))
	}
	if ctr := warm.Evaluator().Counters(); ctr.DeltaRefreshes == 0 || ctr.CutRefreshes == 0 {
		t.Fatalf("incremental machinery did not engage: %+v", ctr)
	}
	t.Logf("delta advise: warm=%v cold=%v ratio=%.1fx", warmDur, coldDur, float64(coldDur)/float64(warmDur))
}
