// Package seg implements segmentations (Definition 3) and everything
// that operates on them: an evaluator that turns SDL queries into
// row selections with caching, the three primitives CUT, COMPOSE and
// PRODUCT of Section 4.1, and the quality metrics of Section 3 —
// entropy, simplicity, breadth — plus the INDEP dependence quotient
// of Proposition 1.
package seg

import (
	"fmt"
	"hash/maphash"
	"slices"
	"sync"
	"sync/atomic"

	"charles/internal/engine"
	"charles/internal/obs"
	"charles/internal/sdl"
)

// Counters instruments the evaluator for the scalability experiments
// (E6/E7): how often work was reused versus recomputed.
type Counters struct {
	// FullEvals counts constraint-by-constraint query evaluations.
	FullEvals int
	// NarrowEvals counts child evaluations from a parent's selection
	// (the parent narrowed by one new constraint), the cheap path cuts
	// take: one per child a cut's partition pass evaluates.
	NarrowEvals int
	// CacheHits counts selections served from the query cache.
	CacheHits int
	// CutPointCalcs counts median/quantile computations, the
	// operation Section 5.1 calls the vertical-scalability
	// bottleneck.
	CutPointCalcs int
	// DeltaRefreshes counts cached selections brought up to date by
	// re-evaluating only the mutation-dirtied chunks and splicing
	// them into the cached clean segments — the incremental-advise
	// path, neither a full eval nor a plain hit.
	DeltaRefreshes int
	// CutRefreshes counts cached cut points brought up to date the
	// same way: dirty chunks recounted, clean chunks' count vectors
	// reused.
	CutRefreshes int
	// CutCacheHits counts cut-point sets served straight from the cut
	// cache without recomputation.
	CutCacheHits int
	// PairMemoHits / PairMemoMisses count pairwise-operand sides
	// served from (or built into) a PairMemo.
	PairMemoHits   int
	PairMemoMisses int
	// PairTableHits counts contingency tables served from the
	// evaluator's pair-table tier without building either side.
	PairTableHits int
	// RowMaterializations counts flat row-id views built from
	// selections holding words chunks: by Select, a sampled cut, or a
	// re-layout. The advise path builds none.
	RowMaterializations int
}

// EvalMetrics is the evaluator's external instrumentation hook:
// nil-safe obs counters mirroring the Counters fields, bumped at the
// same sites, so a server can expose live totals without polling.
// Cache misses are the evaluations themselves — FullEvals and
// NarrowEvals count exactly the lookups that missed. The default
// hook (all-nil fields) records nothing and costs one atomic load.
type EvalMetrics struct {
	FullEvals           *obs.Counter
	NarrowEvals         *obs.Counter
	CacheHits           *obs.Counter
	CutPointCalcs       *obs.Counter
	DeltaRefreshes      *obs.Counter
	CutRefreshes        *obs.Counter
	CutCacheHits        *obs.Counter
	PairMemoHits        *obs.Counter
	PairMemoMisses      *obs.Counter
	PairTableHits       *obs.Counter
	RowMaterializations *obs.Counter
}

// cacheShards is the number of independent lock stripes of the
// selection cache. 32 keeps contention negligible for any realistic
// worker count while the per-shard maps stay dense.
const cacheShards = 32

// cachedSel is one selection cache entry: the result plus the table
// epoch stamp it was evaluated under. The stamp is what keeps a
// cache correct across table mutation — equal versions mean the
// entry is exact, and a moved version tells the evaluator precisely
// which chunks to re-evaluate (DirtyVs) before serving it again.
// Never cache a bare selection: without its stamp a stale entry is
// indistinguishable from a fresh one. Each chunk of the selection is
// in the smaller of its two forms, picked by the engine as the chunk
// is written, so the entry is never rewritten in another form.
type cachedSel struct {
	sel   *engine.ChunkedSelection
	stamp *engine.EpochStamp
}

// cacheShard is one lock stripe of the selection cache.
type cacheShard struct {
	mu sync.RWMutex
	m  map[string]cachedSel
}

// cacheSeed keys the shard hash; shared by all evaluators so shard
// assignment is stable within a process.
var cacheSeed = maphash.MakeSeed()

// Evaluator binds SDL queries to a table and caches the resulting
// selections by canonical query string, implementing the reuse
// opportunity Section 5.1 points out ("the calculations ... can be
// reused from one iteration to the next"). Selections are evaluated
// and cached chunk-at-a-time over the table's row-range layout:
// every predicate narrows the per-chunk segments independently
// across the scan worker pool, zone maps skip chunks a range cannot
// match, and a cut's children are partitioned from the parent's
// selection in one pass that touches only the chunks where the parent
// has rows. The cache is sharded behind
// fine-grained reader/writer locks and the counters are atomic, so
// one Evaluator safely serves many goroutines — the foundation of
// the parallel advisor core and the multi-session server.
type Evaluator struct {
	tab    *engine.Table
	shards [cacheShards]cacheShard
	// cutMu guards cuts, the cut-point cache (cutcache.go). Cut
	// entries are far fewer than selections — pieces, plus per-chunk
	// value counts where a refresh can splice them — so one stripe
	// suffices.
	cutMu sync.RWMutex
	cuts  map[string]cachedCut
	// pairMu guards the pair-table tier: the contingency tables of
	// segmentation pairs (keyed by the two segmentation keys) counted
	// at table fingerprint pairFP, and only those. A store at another
	// fingerprint drops the whole map first, so the tier never holds
	// two table versions.
	pairMu  sync.RWMutex
	pairFP  string
	pairs   map[[2]string][]int
	caching atomic.Bool
	// zonePruning gates the zone-map verdicts (numeric bounds and
	// nominal presence alike). On by default; the off position is the
	// equivalence ablation — output must be byte-identical either
	// way, only chunks scanned may differ.
	zonePruning atomic.Bool
	// identity is the lazily built chunked all-rows selection every
	// full evaluation starts from; building it once per evaluator
	// keeps cold full evaluations from each allocating an
	// |table|-sized identity vector.
	identity atomic.Pointer[engine.ChunkedSelection]
	// limit bounds the total cached selections (0 = unbounded).
	// Long-lived shared evaluators — the multi-session server — set
	// it so user-supplied contexts cannot grow memory without bound.
	limit atomic.Int64

	fullEvals           atomic.Int64
	narrowEvals         atomic.Int64
	cacheHits           atomic.Int64
	cutPointCalcs       atomic.Int64
	deltaRefreshes      atomic.Int64
	cutRefreshes        atomic.Int64
	cutCacheHits        atomic.Int64
	pairMemoHits        atomic.Int64
	pairMemoMisses      atomic.Int64
	pairTableHits       atomic.Int64
	rowMaterializations atomic.Int64

	// em is the installed EvalMetrics hook; always non-nil (zero
	// value = no-op), swapped atomically by SetEvalMetrics.
	em atomic.Pointer[EvalMetrics]
}

// NewEvaluator returns a caching evaluator over t.
func NewEvaluator(t *engine.Table) *Evaluator {
	e := &Evaluator{tab: t, cuts: make(map[string]cachedCut), pairs: make(map[[2]string][]int)}
	for i := range e.shards {
		e.shards[i].m = make(map[string]cachedSel)
	}
	e.caching.Store(true)
	e.zonePruning.Store(true)
	e.em.Store(&EvalMetrics{})
	return e
}

// SetEvalMetrics installs the instrumentation hook; nil restores the
// no-op default. Hook counters only ever accumulate — they never
// influence evaluation — so installing one cannot change results.
func (e *Evaluator) SetEvalMetrics(m *EvalMetrics) {
	if m == nil {
		m = &EvalMetrics{}
	}
	e.em.Store(m)
}

// The count* helpers bump an internal counter and its hook mirror
// together, so Counters() snapshots and live obs totals cannot
// drift. All are alloc-free: two atomic adds and a pointer load.
func (e *Evaluator) countFullEval()     { e.fullEvals.Add(1); e.em.Load().FullEvals.Inc() }
func (e *Evaluator) countNarrowEval()   { e.narrowEvals.Add(1); e.em.Load().NarrowEvals.Inc() }
func (e *Evaluator) countCacheHit()     { e.cacheHits.Add(1); e.em.Load().CacheHits.Inc() }
func (e *Evaluator) countCutPointCalc() { e.cutPointCalcs.Add(1); e.em.Load().CutPointCalcs.Inc() }
func (e *Evaluator) countDeltaRefresh() { e.deltaRefreshes.Add(1); e.em.Load().DeltaRefreshes.Inc() }
func (e *Evaluator) countCutRefresh()   { e.cutRefreshes.Add(1); e.em.Load().CutRefreshes.Inc() }
func (e *Evaluator) countCutCacheHit()  { e.cutCacheHits.Add(1); e.em.Load().CutCacheHits.Inc() }
func (e *Evaluator) countPairMemoHit()  { e.pairMemoHits.Add(1); e.em.Load().PairMemoHits.Inc() }
func (e *Evaluator) countPairMemoMiss() { e.pairMemoMisses.Add(1); e.em.Load().PairMemoMisses.Inc() }
func (e *Evaluator) countPairTableHit() { e.pairTableHits.Add(1); e.em.Load().PairTableHits.Inc() }
func (e *Evaluator) countRowMaterialization() {
	e.rowMaterializations.Add(1)
	e.em.Load().RowMaterializations.Inc()
}

// SetZonePruning toggles zone-map chunk pruning (numeric min/max and
// nominal presence verdicts). Pruning never changes results — only
// which chunks are scanned — so the off position exists for the
// equivalence property tests and for measuring the pruning win.
func (e *Evaluator) SetZonePruning(on bool) { e.zonePruning.Store(on) }

// Table returns the relation the evaluator is bound to.
func (e *Evaluator) Table() *engine.Table { return e.tab }

// allRows returns the shared chunked identity selection, rebuilding
// it when the table was re-sharded — or grew — since it was built.
func (e *Evaluator) allRows() *engine.ChunkedSelection {
	if cs := e.identity.Load(); cs != nil && cs.ChunkRows() == e.tab.ChunkRows() && cs.NumRows() == e.tab.NumRows() {
		return cs
	}
	cs := e.tab.AllChunked()
	e.identity.Store(cs)
	return cs
}

// SetCacheLimit bounds each of the evaluator's stores — selections,
// cut points and pair tables — to n entries; at the
// limit an arbitrary entry is evicted to make room (per shard for the
// sharded selection stores). n <= 0 means unbounded (the default,
// right for one-shot advisory runs and the paper experiments).
func (e *Evaluator) SetCacheLimit(n int) {
	if n < 0 {
		n = 0
	}
	e.limit.Store(int64(n))
}

// SetCaching toggles the selection cache (the E6 ablation). Turning
// caching off also drops the current cache. The toggle applies to
// evaluations that start afterwards; flip it while the evaluator is
// quiescent when exact ablation counters matter.
func (e *Evaluator) SetCaching(on bool) {
	e.caching.Store(on)
	if !on {
		for i := range e.shards {
			s := &e.shards[i]
			s.mu.Lock()
			s.m = make(map[string]cachedSel)
			s.mu.Unlock()
		}
		e.cutMu.Lock()
		e.cuts = make(map[string]cachedCut)
		e.cutMu.Unlock()
		e.pairMu.Lock()
		e.pairs = make(map[[2]string][]int)
		e.pairMu.Unlock()
	}
}

// Counters returns a snapshot of the instrumentation counters.
func (e *Evaluator) Counters() Counters {
	return Counters{
		FullEvals:           int(e.fullEvals.Load()),
		NarrowEvals:         int(e.narrowEvals.Load()),
		CacheHits:           int(e.cacheHits.Load()),
		CutPointCalcs:       int(e.cutPointCalcs.Load()),
		DeltaRefreshes:      int(e.deltaRefreshes.Load()),
		CutRefreshes:        int(e.cutRefreshes.Load()),
		CutCacheHits:        int(e.cutCacheHits.Load()),
		PairMemoHits:        int(e.pairMemoHits.Load()),
		PairMemoMisses:      int(e.pairMemoMisses.Load()),
		PairTableHits:       int(e.pairTableHits.Load()),
		RowMaterializations: int(e.rowMaterializations.Load()),
	}
}

// ResetCounters zeroes the instrumentation counters.
func (e *Evaluator) ResetCounters() {
	e.fullEvals.Store(0)
	e.narrowEvals.Store(0)
	e.cacheHits.Store(0)
	e.cutPointCalcs.Store(0)
	e.deltaRefreshes.Store(0)
	e.cutRefreshes.Store(0)
	e.cutCacheHits.Store(0)
	e.pairMemoHits.Store(0)
	e.pairMemoMisses.Store(0)
	e.pairTableHits.Store(0)
	e.rowMaterializations.Store(0)
}

// CacheLen returns the number of cached selections.
func (e *Evaluator) CacheLen() int {
	n := 0
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// shard returns the lock stripe responsible for key.
func (e *Evaluator) shard(key string) *cacheShard {
	return &e.shards[maphash.String(cacheSeed, key)%cacheShards]
}

// cached looks key up in its shard. The caller must check the
// entry's stamp against the table's before serving it.
func (e *Evaluator) cached(key string) (cachedSel, bool) {
	s := e.shard(key)
	s.mu.RLock()
	ent, ok := s.m[key]
	s.mu.RUnlock()
	return ent, ok
}

// boundedPut is the one eviction policy of every evaluator store:
// m[key] = v, and when m already holds limit entries and key is new,
// one arbitrary entry makes room first. Random replacement is crude
// but keeps the hot path lock-cheap and bounds memory. Overwriting a
// key that is already present never evicts: the store does not grow
// m, so there is nothing to make room for (evicting anyway would
// shrink the store by one on every re-store at the limit). limit <= 0
// means unbounded. The caller holds m's write lock.
func boundedPut[K comparable, V any](m map[K]V, key K, v V, limit int) {
	if limit > 0 && len(m) >= limit {
		if _, exists := m[key]; !exists {
			//lint:deterministic random-replacement eviction is deliberately arbitrary: cache contents affect reuse, never results
			for k := range m {
				delete(m, k)
				break
			}
		}
	}
	m[key] = v
}

// shardLimit is the cache limit's share of one selection-store shard
// (0 = unbounded).
func (e *Evaluator) shardLimit() int {
	limit := e.limit.Load()
	return int((limit + cacheShards - 1) / cacheShards)
}

// store records key → ent. Concurrent evaluators may compute the
// same selection twice; the results are identical, so last write
// wins and both callers' values stay valid (selections are
// immutable by contract).
func (e *Evaluator) store(key string, ent cachedSel) {
	s := e.shard(key)
	s.mu.Lock()
	boundedPut(s.m, key, ent, e.shardLimit())
	s.mu.Unlock()
}

// flat returns cs's rows as one sorted vector, counting a row
// materialization when some of them are decoded from words.
func (e *Evaluator) flat(cs *engine.ChunkedSelection) engine.Selection {
	for c := range cs.NumChunks() {
		if cs.Words(c) != nil {
			e.countRowMaterialization()
			break
		}
	}
	return cs.Flat()
}

// pairTable copies the contingency table of the segmentation pair key
// into flat when the tier holds it at fingerprint fp.
func (e *Evaluator) pairTable(fp string, key [2]string, flat []int) bool {
	e.pairMu.RLock()
	t, ok := e.pairs[key]
	ok = ok && e.pairFP == fp && len(t) == len(flat)
	if ok {
		copy(flat, t)
	}
	e.pairMu.RUnlock()
	return ok
}

// storePairTable records a copy of the contingency table flat, counted
// at fingerprint fp, under the segmentation pair key. A table counted
// across a mutation is not stored: its cells may mix two versions.
func (e *Evaluator) storePairTable(fp string, key [2]string, flat []int) {
	if e.tab.Fingerprint() != fp {
		return
	}
	t := slices.Clone(flat)
	e.pairMu.Lock()
	if e.pairFP != fp {
		e.pairFP, e.pairs = fp, make(map[[2]string][]int)
	}
	boundedPut(e.pairs, key, t, int(e.limit.Load()))
	e.pairMu.Unlock()
}

// SelectBitmap is SelectChunked under the name the
// seg.select_bitmap_cold_ms and seg.select_bitmap_warm_us probes call.
func (e *Evaluator) SelectBitmap(q sdl.Query) (*engine.Bitmap, error) { return e.SelectChunked(q) }

// deltaDirty decides whether a stale cache entry qualifies for a
// chunk-granular refresh against stamp cur: the stamps must be
// chunk-comparable and the cached result must structurally match the
// stamp it claims to be from and the current layout. Anything else —
// a re-shard, a shrink, a foreign layout — returns nil and the
// caller re-evaluates in full.
func (e *Evaluator) deltaDirty(old *engine.EpochStamp, nRows, chunkRows int, cur *engine.EpochStamp) []bool {
	if old == nil || nRows != old.NumRows() || chunkRows != cur.ChunkRows() {
		return nil
	}
	dirty, ok := cur.DirtyVs(old)
	if !ok {
		return nil
	}
	return dirty
}

// refreshChunked brings a stale cached selection up to stamp cur by
// running q's constraint chain over only the dirty chunks — the
// partial identity's empty clean segments are skipped by every
// filter kernel, so the work is proportional to the mutated rows —
// and splicing the result into the cached clean segments. This is
// sound because SDL constraints are per-row predicates: R(Q)
// restricted to a chunk depends on that chunk's rows alone, so a
// clean chunk's cached container is still exact.
func (e *Evaluator) refreshChunked(q sdl.Query, old cachedSel, cur *engine.EpochStamp) (cachedSel, bool) {
	dirty := e.deltaDirty(old.stamp, old.sel.NumRows(), old.sel.ChunkRows(), cur)
	if dirty == nil {
		return cachedSel{}, false
	}
	cs := engine.PartialIdentity(cur.NumRows(), cur.ChunkRows(), dirty)
	for _, c := range q.Constraints() {
		if c.IsAny() {
			continue
		}
		var err error
		cs, err = e.applyConstraint(cs, c)
		if err != nil {
			return cachedSel{}, false
		}
	}
	return cachedSel{sel: engine.Splice(old.sel, cs, dirty), stamp: cur}, true
}

// Select returns the sorted row selection R(Q) as a flat vector —
// the lazily materialized view of the chunked evaluation. The
// returned selection must not be mutated.
func (e *Evaluator) Select(q sdl.Query) (engine.Selection, error) {
	cs, err := e.SelectChunked(q)
	if err != nil {
		return nil, err
	}
	return e.flat(cs), nil
}

// SelectChunked returns R(Q) sharded by the table's row-range
// chunks, as the cache holds it. Results are cached under the query's
// canonical key. The returned selection must not be mutated.
func (e *Evaluator) SelectChunked(q sdl.Query) (*engine.ChunkedSelection, error) {
	ent, err := e.extent(q)
	if err != nil {
		return nil, err
	}
	return ent.sel, nil
}

// extent returns R(Q) as the cache holds it at the current version,
// evaluating it in full or refreshing a stale entry's dirty chunks
// first. With caching off it evaluates in full.
func (e *Evaluator) extent(q sdl.Query) (cachedSel, error) {
	key := q.Key()
	// One snapshot per evaluation: a concurrent SetCaching flip
	// cannot make lookup and store disagree within one call.
	caching := e.caching.Load()
	cur := e.tab.Stamp()
	if caching {
		if ent, ok := e.cached(key); ok {
			if ent.stamp.Version() == cur.Version() {
				e.countCacheHit()
				return ent, nil
			}
			if ent, ok := e.refreshChunked(q, ent, cur); ok {
				e.countDeltaRefresh()
				e.store(key, ent)
				return ent, nil
			}
		}
	}
	cs := e.allRows()
	for _, c := range q.Constraints() {
		if c.IsAny() {
			continue
		}
		var err error
		cs, err = e.applyConstraint(cs, c)
		if err != nil {
			return cachedSel{}, err
		}
	}
	e.countFullEval()
	ent := cachedSel{sel: cs, stamp: cur}
	if caching {
		e.store(key, ent)
	}
	return ent, nil
}

// Count returns |R(Q)|.
func (e *Evaluator) Count(q sdl.Query) (int, error) {
	ent, err := e.extent(q)
	if err != nil {
		return 0, err
	}
	return ent.sel.Len(), nil
}

// cutChildren evaluates the children of one cut of parent, caches
// each under its own key and returns their counts. children[i] is the
// parent query with attr's constraint replaced by its piece (Cut's
// childQuery), so child i is the parent's extent narrowed by that one
// constraint, and only chunks where the parent has rows are touched.
// The children share engine partition passes
// (engine.PartitionChunked), while counters and caching stay per
// child: a child cached at the current version is served as is
// (CacheHits); children stale with the same dirty chunks share one
// pass over just those chunks of the parent and are spliced into
// their cached chunks (DeltaRefreshes); the rest share one pass over
// the whole parent (NarrowEvals). The parent's extent is fetched only
// when some child needs a pass, and each of its chunks is cut in the
// form it is held in: a words chunk from its words, its row ids never
// built.
func (e *Evaluator) cutChildren(parent sdl.Query, children []sdl.Query, attr string) ([]int, error) {
	keys := make([]string, len(children))
	cons := make([]sdl.Constraint, len(children))
	for i, child := range children {
		c, ok := child.Constraint(attr)
		if !ok {
			return nil, fmt.Errorf("seg: cut child lost its %q constraint", attr)
		}
		keys[i], cons[i] = child.Key(), c
	}
	counts := make([]int, len(children))
	caching := e.caching.Load()
	cur := e.tab.Stamp()
	olds := make([]cachedSel, len(children))
	var stale, full []int
	var dirty []bool
	for i, key := range keys {
		if !caching {
			full = append(full, i)
			continue
		}
		ent, ok := e.cached(key)
		if ok && ent.stamp.Version() == cur.Version() {
			e.countCacheHit()
			counts[i] = ent.sel.Len()
			continue
		}
		var d []bool
		if ok {
			d = e.deltaDirty(ent.stamp, ent.sel.NumRows(), ent.sel.ChunkRows(), cur)
		}
		if d != nil && (dirty == nil || slices.Equal(d, dirty)) {
			dirty, olds[i] = d, ent
			stale = append(stale, i)
		} else {
			full = append(full, i)
		}
	}
	if len(stale)+len(full) == 0 {
		return counts, nil
	}
	pent, err := e.extent(parent)
	if err != nil {
		return nil, err
	}
	src := pent.sel
	if src.NumRows() != cur.NumRows() || src.ChunkRows() != cur.ChunkRows() {
		full, stale = append(full, stale...), nil
	}
	if len(stale) > 0 {
		if err := e.partitionInto(engine.Restrict(src, dirty), attr, cons, stale, func(i int, cs *engine.ChunkedSelection) {
			ent := cachedSel{sel: engine.Splice(olds[i].sel, cs, dirty), stamp: cur}
			e.countDeltaRefresh()
			e.store(keys[i], ent)
			counts[i] = ent.sel.Len()
		}); err != nil {
			return nil, err
		}
	}
	if len(full) > 0 {
		if err := e.partitionInto(src, attr, cons, full, func(i int, cs *engine.ChunkedSelection) {
			e.countNarrowEval()
			if caching {
				e.store(keys[i], cachedSel{sel: cs, stamp: cur})
			}
			counts[i] = cs.Len()
		}); err != nil {
			return nil, err
		}
	}
	return counts, nil
}

// partitionInto runs one partition pass over src for the constraints
// cons[i], i in which, handing each child to done.
func (e *Evaluator) partitionInto(src *engine.ChunkedSelection, attr string, cons []sdl.Constraint, which []int, done func(i int, cs *engine.ChunkedSelection)) error {
	src, col, sum, err := e.resolveConstraint(src, attr)
	if err != nil {
		return err
	}
	preds := make([]engine.Pred, len(which))
	for j, i := range which {
		if preds[j], err = constraintPred(col, cons[i], sum); err != nil {
			return err
		}
	}
	for j, cs := range engine.PartitionChunked(src, preds) {
		done(which[j], cs)
	}
	return nil
}

// resolveConstraint prepares one predicate application: it takes a
// consistent layout snapshot, re-chunks a selection cached under an
// older layout (zone maps index the snapshot layout's chunks, so a
// verdict must never see mismatched addressing), resolves the
// column, and fetches its zone map when pruning is on.
func (e *Evaluator) resolveConstraint(src *engine.ChunkedSelection, attr string) (*engine.ChunkedSelection, engine.Column, *engine.ChunkSummary, error) {
	// One layout snapshot per constraint: the selection's chunking
	// and the zone map consulted for it must describe the same
	// layout, even while another advisor concurrently re-shards the
	// table.
	layout := e.tab.Layout()
	if src.ChunkRows() != layout.ChunkRows() {
		// The selection was built (and possibly cached) under an
		// older layout — the table has been re-sharded since. Its row
		// ids are layout-independent, making this a pure
		// re-addressing.
		src = engine.ChunkSelection(e.flat(src), e.tab.NumRows(), layout.ChunkRows())
	}
	col, ok := e.tab.ColumnByName(attr)
	if !ok {
		return nil, nil, nil, fmt.Errorf("seg: no column %q in table %q", attr, e.tab.Name())
	}
	var sum *engine.ChunkSummary
	if e.zonePruning.Load() {
		sum = layout.SummaryByName(attr)
	}
	return src, col, sum, nil
}

// constraintPred resolves one constraint over col into the engine's
// chunked predicate, sum being the column's zone map (nil when pruning
// is off). It is the one dispatch behind both evaluation forms — row-id
// filters and cut partitions — so they agree on every constraint by
// construction.
func constraintPred(col engine.Column, c sdl.Constraint, sum *engine.ChunkSummary) (engine.Pred, error) {
	switch col := col.(type) {
	case *engine.StringColumn:
		switch c.Kind {
		case sdl.KindSet:
			vals := make([]string, len(c.Set))
			for i, v := range c.Set {
				vals[i] = v.AsString()
			}
			return engine.StringSetPred(col, vals, sum), nil
		case sdl.KindRange:
			return engine.StringRangePred(col,
				c.Range.Lo.AsString(), c.Range.Hi.AsString(),
				c.Range.LoIncl, c.Range.HiIncl, sum), nil
		}
	case *engine.BoolColumn:
		if c.Kind == sdl.KindSet {
			vals := make([]bool, len(c.Set))
			for i, v := range c.Set {
				vals[i] = v.AsBool()
			}
			return engine.BoolSetPred(col, vals, sum), nil
		}
		return engine.Pred{}, fmt.Errorf("seg: %s: range constraint on bool column", c.Attr)
	case *engine.FloatColumn:
		switch c.Kind {
		case sdl.KindRange:
			return engine.FloatRangePred(col, engine.FloatRange{
				Lo: c.Range.Lo.AsFloat(), Hi: c.Range.Hi.AsFloat(),
				LoIncl: c.Range.LoIncl, HiIncl: c.Range.HiIncl,
			}, sum), nil
		case sdl.KindSet:
			vals := make([]float64, len(c.Set))
			for i, v := range c.Set {
				vals[i] = v.AsFloat()
			}
			return engine.FloatSetPred(col, vals, sum), nil
		}
	case engine.IntValued: // IntColumn and DateColumn
		switch c.Kind {
		case sdl.KindRange:
			return engine.IntRangePred(col, engine.IntRange{
				Lo: c.Range.Lo.AsInt(), Hi: c.Range.Hi.AsInt(),
				LoIncl: c.Range.LoIncl, HiIncl: c.Range.HiIncl,
			}, sum), nil
		case sdl.KindSet:
			vals := make([]int64, len(c.Set))
			for i, v := range c.Set {
				vals[i] = v.AsInt()
			}
			return engine.IntSetPred(col, vals, sum), nil
		}
	}
	return engine.Pred{}, fmt.Errorf("seg: %s: unsupported %v constraint on %v column", c.Attr, c.Kind, col.Kind())
}

// applyConstraint narrows cs by one predicate, handing it the
// column's zone map so provably disjoint chunks are skipped and
// provably covered ones pass through untouched — numeric bounds for
// ranges, nominal presence sets for string/bool predicates.
func (e *Evaluator) applyConstraint(cs *engine.ChunkedSelection, c sdl.Constraint) (*engine.ChunkedSelection, error) {
	if c.IsAny() {
		return cs, nil
	}
	src, col, sum, err := e.resolveConstraint(cs, c.Attr)
	if err != nil {
		return nil, err
	}
	p, err := constraintPred(col, c, sum)
	if err != nil {
		return nil, err
	}
	return engine.FilterChunked(src, p), nil
}
