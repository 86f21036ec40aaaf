package seg

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"charles/internal/dataset"
	"charles/internal/engine"
	"charles/internal/sdl"
)

// walkStore sums the bytes s's entries are charged, checking each
// entry's charge against charge and that each is on the clock ring.
// The caller makes sure no store runs concurrently.
func walkStore[K comparable, V any](t *testing.T, name string, s *store[K, V], charge func(K, V) int64) (int64, int) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	var sum int64
	for key, en := range s.m {
		if want := charge(key, en.val); en.bytes != want {
			t.Errorf("%s entry %v charged %d bytes, holds %d", name, key, en.bytes, want)
		}
		if en.next == nil {
			t.Errorf("%s entry %v is held but off the clock ring", name, key)
		}
		sum += en.bytes
	}
	if sum != s.bytes {
		t.Errorf("%s store charged %d bytes, its entries %d", name, s.bytes, sum)
	}
	return sum, len(s.m)
}

// walkBudget walks every store of ev and checks the budget's total,
// and the ring's length, against what the stores hold. It returns the
// total. Call it at quiescence.
func walkBudget(t *testing.T, ev *Evaluator) int64 {
	t.Helper()
	var total int64
	entries := 0
	for i := range ev.shards {
		b, n := walkStore(t, "selection", &ev.shards[i], selBytes)
		total, entries = total+b, entries+n
	}
	b, n := walkStore(t, "cut", &ev.cuts, cutBytes)
	total, entries = total+b, entries+n
	b, n = walkStore(t, "pair-table", &ev.pairs, pairBytes)
	total, entries = total+b, entries+n
	if got := ev.CacheBytes(); got != total {
		t.Errorf("budget total %d bytes, the stores hold %d", got, total)
	}
	ev.clock.mu.Lock()
	ring := ev.clock.n
	ev.clock.mu.Unlock()
	if ring != entries {
		t.Errorf("%d links on the clock ring, %d entries held", ring, entries)
	}
	return total
}

// adviseOps runs what one advise runs against ev — every initial cut
// of ctx, every COMPOSE of two of them, and INDEP of every pair of the
// lot — returning the first error, so goroutines can call it.
func adviseOps(ev *Evaluator, ctx sdl.Query) error {
	opt := DefaultCutOptions()
	var initial []*Segmentation
	for _, attr := range ctx.Attrs() {
		s, ok, err := InitialCut(ev, ctx, attr, opt)
		if err != nil {
			return err
		}
		if ok {
			initial = append(initial, s)
		}
	}
	segs := slices.Clone(initial)
	for _, a := range initial {
		for _, b := range initial {
			if a != b {
				c, err := Compose(ev, a, b, opt)
				if err != nil {
					return err
				}
				segs = append(segs, c)
			}
		}
	}
	for _, s1 := range segs {
		for _, s2 := range segs {
			if _, err := IndepOpt(ev, s1, s2, PairOptions{Workers: 1}); err != nil {
				return err
			}
		}
	}
	return nil
}

// tonnageContext is ctx restricted to the tonnage range holding the
// rows between quantiles lo and hi of sorted, the column's values.
func tonnageContext(ctx sdl.Query, sorted []int64, lo, hi float64) sdl.Query {
	a, b := sorted[int(lo*float64(len(sorted)-1))], sorted[int(hi*float64(len(sorted)-1))]
	return ctx.WithConstraint(sdl.ClosedRange("tonnage", engine.Int(a), engine.Int(b)))
}

// sortedInts returns a sorted copy of tab's int column attr.
func sortedInts(tab *engine.Table, attr string) []int64 {
	vals := slices.Clone(tab.MustColumn(attr).(engine.IntValued).Int64s())
	slices.Sort(vals)
	return vals
}

// tableRow reads row r of tab as a row AppendRows accepts.
func tableRow(tab *engine.Table, r int) []engine.Value {
	row := make([]engine.Value, tab.NumCols())
	for i := range row {
		row[i] = tab.Column(i).Value(r)
	}
	return row
}

// TestBudgetAccountingRandomSequences drives an evaluator through
// random stores, re-stores, budget changes (which evict), cuts with
// their counts, pair tables, appends (each starting a new pair-table
// generation) and whole advises: after every step the budget's
// total equals a walk of every store, every held entry is charged what
// it holds and is on the ring, and a bounded total is within its
// budget.
func TestBudgetAccountingRandomSequences(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := dataset.VOC(3000, seed)
		tab.SetChunkRows(1 << 10)
		ctx, err := sdl.ContextOn(tab, "type_of_boat", "tonnage", "departure_harbour")
		if err != nil {
			t.Fatal(err)
		}
		ev := NewEvaluator(tab)
		segs := candidates(t, ev, ctx)
		sorted := sortedInts(tab, "tonnage")
		randomContext := func() sdl.Query {
			lo := rng.Float64() * 0.8
			return tonnageContext(ctx, sorted, lo, lo+0.05+rng.Float64()*0.15)
		}
		keys := []string{"k0", "k1", "k2", "k3"}
		for step := 0; step < 150; step++ {
			switch op := rng.Intn(7); op {
			case 0, 1: // a selection, stored or re-stored
				if _, err := ev.Count(randomContext()); err != nil {
					t.Fatal(err)
				}
				q := segs[rng.Intn(len(segs))]
				sel, err := ev.SelectChunked(q.Queries[rng.Intn(len(q.Queries))])
				if err != nil {
					t.Fatal(err)
				}
				ev.store(keys[rng.Intn(len(keys))], cachedSel{sel: sel, stamp: tab.Stamp()})
			case 2: // a cut entry and, through Cut, its counts
				attr := ctx.Attrs()[rng.Intn(len(ctx.Attrs()))]
				if _, err := Cut(ev, segs[rng.Intn(len(segs))], attr, DefaultCutOptions()); err != nil {
					t.Fatal(err)
				}
			case 3: // a pair table
				if _, err := IndepOpt(ev, segs[rng.Intn(len(segs))], segs[rng.Intn(len(segs))], PairOptions{Workers: 1}); err != nil {
					t.Fatal(err)
				}
			case 4: // a new budget, unbounded or below what is held
				if rng.Intn(3) == 0 {
					ev.SetCacheBudget(0)
				} else {
					ev.SetCacheBudget(1 + rng.Int63n(ev.CacheBytes()+1))
				}
			case 5: // an append: a new version, and a new pair-table generation
				if err := tab.AppendRows(tableRow(tab, rng.Intn(tab.NumRows()))); err != nil {
					t.Fatal(err)
				}
				if _, err := IndepOpt(ev, segs[0], segs[len(segs)-1], PairOptions{Workers: 1}); err != nil {
					t.Fatal(err)
				}
				if fp, _ := pairTables(ev); fp != "" && fp != tab.Fingerprint() {
					t.Fatalf("the tier kept fingerprint %s after an append", fp)
				}
			case 6: // a whole advise
				if err := adviseOps(ev, randomContext()); err != nil {
					t.Fatal(err)
				}
			}
			total := walkBudget(t, ev)
			if t.Failed() {
				t.Fatalf("seed %d step %d: the budget's accounting diverged from the stores", seed, step)
			}
			if limit := ev.clock.limit.Load(); limit > 0 && total > limit {
				t.Fatalf("seed %d step %d: the stores hold %d bytes, budget %d", seed, step, total, limit)
			}
		}
		if ev.Counters()[Evictions] == 0 {
			t.Fatalf("seed %d: no step evicted", seed)
		}
	}
}

// TestBudgetAccountingConcurrentAdvises runs advises from several
// goroutines on one evaluator under a budget that evicts throughout;
// at quiescence the accounted total equals a walk of the stores and is
// within the budget. Run under -race it also checks that the stores,
// the ring and the hand share no unguarded state.
func TestBudgetAccountingConcurrentAdvises(t *testing.T) {
	tab := dataset.VOC(5000, 3)
	tab.SetChunkRows(1 << 10)
	ctx, err := sdl.ContextOn(tab, "type_of_boat", "tonnage", "departure_harbour")
	if err != nil {
		t.Fatal(err)
	}
	sorted := sortedInts(tab, "tonnage")
	ev := NewEvaluator(tab)
	const budget = 48 << 10
	ev.SetCacheBudget(budget)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				// Two goroutines share each context, so entries are read,
				// re-stored and evicted concurrently.
				lo := 0.1 * float64((g/2)*3+r)
				if err := adviseOps(ev, tonnageContext(ctx, sorted, lo, lo+0.3)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if total := walkBudget(t, ev); total > budget {
		t.Fatalf("the stores hold %d bytes, budget %d", total, budget)
	}
	if ev.Counters()[Evictions] == 0 {
		t.Fatal("no eviction under the budget")
	}
}

// TestClockSparesReadEntries: under a budget of three entries, each
// new entry evicts the next entry in the hand's sweep not read since
// the hand last passed it; a read entry is spared once, and evicted in
// its turn when it is not read again.
func TestClockSparesReadEntries(t *testing.T) {
	tab, ev := figure2Table(t)
	sel := cachedSel{sel: tab.AllChunked(), stamp: tab.Stamp()}
	ev.SetCacheBudget(3 * selBytes("a", sel))
	for _, k := range []string{"a", "b", "c"} {
		ev.store(k, sel)
	}
	if _, ok := ev.cached("a"); !ok {
		t.Fatal("a was not stored")
	}
	steps := []struct {
		store, evicted string
		kept           []string
	}{
		{"d", "b", []string{"a", "c", "d"}}, // a was read: spared, its bit cleared
		{"e", "c", []string{"a", "d", "e"}},
		// d joined behind the hand before it passed a, so d comes first.
		{"f", "d", []string{"a", "e", "f"}},
		{"g", "a", []string{"e", "f", "g"}}, // a was not read again
	}
	for _, st := range steps {
		ev.store(st.store, sel)
		if held(ev, st.evicted) {
			t.Fatalf("storing %s kept %s", st.store, st.evicted)
		}
		for _, k := range st.kept {
			if !held(ev, k) {
				t.Fatalf("storing %s evicted %s, want %s evicted", st.store, k, st.evicted)
			}
		}
	}
	if got := ev.Counters()[Evictions]; got != len(steps) {
		t.Fatalf("%d evictions for %d stores at the budget", got, len(steps))
	}
}

// heapHeld returns the live heap after two collections.
func heapHeld() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestCacheBytesTrackRetainedHeap is the gate the byte budget stands
// on: what the stores are charged is the memory they hold. On an
// unclustered 100K-row memory VOC, advises over novel tonnage ranges
// fill an unbounded evaluator; the bytes accounted must be within 10%
// of the heap the stores retain, measured as the live heap before and
// after a one-byte budget evicts them. (Clustered tables share whole chunks between
// selections, so there the accounting over-counts; see
// engine.ChunkedSelection.Bytes.)
func TestCacheBytesTrackRetainedHeap(t *testing.T) {
	tab := dataset.VOC(100000, 11)
	ctx, err := sdl.ContextOn(tab, "type_of_boat", "tonnage", "departure_harbour")
	if err != nil {
		t.Fatal(err)
	}
	sorted := sortedInts(tab, "tonnage")
	ev := NewEvaluator(tab)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		lo := rng.Float64() * 0.6
		if err := adviseOps(ev, tonnageContext(ctx, sorted, lo, lo+0.1+rng.Float64()*0.3)); err != nil {
			t.Fatal(err)
		}
	}
	full := heapHeld()
	accounted, entries := ev.CacheBytes(), ev.CacheLen()
	ev.SetCacheBudget(1)
	retained := full - heapHeld()
	runtime.KeepAlive(ev)
	t.Logf("accounted %d bytes, retained %d bytes (%d selections)", accounted, retained, entries)
	if retained <= 0 {
		t.Fatalf("evicting the stores freed %d bytes", retained)
	}
	if diff := accounted - retained; 10*max(diff, -diff) > retained {
		t.Fatalf("accounted %d bytes, the stores retained %d: off by more than 10%%", accounted, retained)
	}
}
