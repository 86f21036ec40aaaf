// Incremental-advise acceptance tests: advise on a mutated table
// must be byte-identical to a cold advise over the same data — the
// chunk-epoch invalidation may only change what is recomputed, never
// what is answered — and the warm path must actually be cheap
// (TestE21DeltaAdviseGate bounds its chunk scans by the dirty share;
// BenchmarkE21DeltaAdvise times it).
package charles_test

import (
	"fmt"
	"math/rand"
	"testing"

	"charles"
	"charles/internal/engine"
	"charles/internal/obs"
	"charles/internal/seg"
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
			vals := make([]float64, c.Len())
			for r := range vals {
				vals[r] = c.Float64(r)
			}
			cols[i] = engine.NewFloatColumn(c.Name(), vals)
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
	if err := out.SetChunkRows(t.ChunkRows()); err != nil {
		tb.Fatal(err)
	}
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
	if err := src.SetChunkRows(1 << 10); err != nil {
		t.Fatal(err)
	}
	const context = "(type_of_boat:, tonnage:, departure_harbour:)"

	tab := cloneTable(t, src)
	warm := charles.NewAdvisor(tab, charles.DefaultConfig())
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
	cold := charles.NewAdvisor(cloneTable(t, tab), charles.DefaultConfig())
	want := adviseRendered(t, cold, context)
	if got != want {
		t.Fatalf("warm advise diverged from cold rebuild after mutation:\n--- warm ---\n%s\n--- cold ---\n%s", got, want)
	}
	if ctr := warm.Evaluator().Counters(); ctr[seg.DeltaRefreshes] == 0 {
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
				if err := tab.SetChunkRows(chunkRows); err != nil {
					t.Fatal(err)
				}
				cfg := charles.DefaultConfig()
				cfg.Workers = workers
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

// TestE21DeltaAdviseGate is the regression gate for the E21 claim,
// held by counting work rather than reading the clock: on a 1M-row
// table, a warm re-advise after a 1% append must scan no larger a
// share of its chunks than the share the append dirtied — warm zone
// scans × chunks ≤ cold zone scans × dirty chunks — and must answer
// byte-identically to a cold advise over the same mutated data. Every
// cached selection is spliced (no full or narrowed re-evaluation) and
// every cut-point set is refreshed from its clean chunks' counts,
// never recomputed in full.
func TestE21DeltaAdviseGate(t *testing.T) {
	const nRows = 1_000_000
	const context = "(type_of_boat:, tonnage:, departure_harbour:)"
	src := charles.GenerateVOC(nRows, 1)
	tab := cloneTable(t, src)
	// One earlier append: cut counts are retained only past version 0.
	if err := tab.AppendRows(valueRow(src, 0)); err != nil {
		t.Fatal(err)
	}
	cfg := charles.DefaultConfig()
	warm := charles.NewAdvisor(tab, cfg)
	_ = adviseRendered(t, warm, context) // prime

	before := tab.Stamp()
	delta := make([][]charles.Value, nRows/100)
	for i := range delta {
		delta[i] = valueRow(src, (i*97)%nRows)
	}
	if err := tab.AppendRows(delta...); err != nil {
		t.Fatal(err)
	}
	dirtySet, ok := tab.Stamp().DirtyVs(before)
	if !ok {
		t.Fatal("append left the stamps chunk-incomparable")
	}
	dirty := 0
	for _, d := range dirtySet {
		if d {
			dirty++
		}
	}

	defer engine.SetMetrics(nil)
	zoneScans := func(advise func() string) (string, int64) {
		m := &engine.Metrics{ZoneScan: &obs.Counter{}, ZoneTake: &obs.Counter{}, ZoneSkip: &obs.Counter{}}
		engine.SetMetrics(m)
		return advise(), m.ZoneScan.Value()
	}
	c0 := warm.Evaluator().Counters()
	got, warmScans := zoneScans(func() string { return adviseRendered(t, warm, context) })
	c1 := warm.Evaluator().Counters()
	want, coldScans := zoneScans(func() string { return adviseRendered(t, charles.NewAdvisor(tab, cfg), context) })

	if got != want {
		t.Fatalf("warm advise diverged from cold advise on mutated table:\n--- warm ---\n%s\n--- cold ---\n%s", got, want)
	}
	if n := int64(tab.NumChunks()); warmScans*n > coldScans*int64(dirty) {
		t.Errorf("warm re-advise scanned %d chunks, cold %d: more than the dirty share %d/%d", warmScans, coldScans, dirty, n)
	}
	if c1[seg.FullEvals] != c0[seg.FullEvals] || c1[seg.NarrowEvals] != c0[seg.NarrowEvals] {
		t.Errorf("warm re-advise re-evaluated selections: full %d→%d, narrow %d→%d", c0[seg.FullEvals], c1[seg.FullEvals], c0[seg.NarrowEvals], c1[seg.NarrowEvals])
	}
	if cuts, refreshed := c1[seg.CutPointCalcs]-c0[seg.CutPointCalcs], c1[seg.CutRefreshes]-c0[seg.CutRefreshes]; cuts == 0 || refreshed != cuts {
		t.Errorf("warm re-advise computed %d cut-point sets, refreshed %d: every cut must be spliced", cuts, refreshed)
	}
	if c1[seg.DeltaRefreshes] == c0[seg.DeltaRefreshes] {
		t.Errorf("warm re-advise spliced no cached selection: %+v", c1)
	}
	t.Logf("delta advise: warm scanned %d chunks, cold %d; %d of %d chunks dirty", warmScans, coldScans, dirty, tab.NumChunks())
}
