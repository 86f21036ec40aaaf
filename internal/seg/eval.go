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
	// NarrowEvals counts incremental child evaluations (filtering a
	// parent's selection by one new constraint), the cheap path cuts
	// take.
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
}

// EvalMetrics is the evaluator's external instrumentation hook:
// nil-safe obs counters mirroring the Counters fields, bumped at the
// same sites, so a server can expose live totals without polling.
// Cache misses are the evaluations themselves — FullEvals and
// NarrowEvals count exactly the lookups that missed. The default
// hook (all-nil fields) records nothing and costs one atomic load.
type EvalMetrics struct {
	FullEvals      *obs.Counter
	NarrowEvals    *obs.Counter
	CacheHits      *obs.Counter
	CutPointCalcs  *obs.Counter
	DeltaRefreshes *obs.Counter
	CutRefreshes   *obs.Counter
	CutCacheHits   *obs.Counter
	PairMemoHits   *obs.Counter
	PairMemoMisses *obs.Counter
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
// indistinguishable from a fresh one.
type cachedSel struct {
	cs    *engine.ChunkedSelection
	stamp *engine.EpochStamp
}

// cachedBitmap is cachedSel for the word-packed form.
type cachedBitmap struct {
	bm    *engine.Bitmap
	stamp *engine.EpochStamp
}

// cacheShard is one lock stripe of the selection cache. Selections
// are cached in their chunked form; the flat view every chunked
// selection lazily carries means vector consumers share the same
// cache entries.
type cacheShard struct {
	mu sync.RWMutex
	m  map[string]cachedSel
}

// bitmapShard is one lock stripe of the packed-selection cache.
type bitmapShard struct {
	mu sync.RWMutex
	m  map[string]cachedBitmap
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
// match, and narrow (parent→child) evaluations touch only the chunks
// where the parent selection has rows. The cache is sharded behind
// fine-grained reader/writer locks and the counters are atomic, so
// one Evaluator safely serves many goroutines — the foundation of
// the parallel advisor core and the multi-session server.
type Evaluator struct {
	tab      *engine.Table
	shards   [cacheShards]cacheShard
	bmShards [cacheShards]bitmapShard
	// cutMu guards cuts, the cut-point cache (cutcache.go). Cut
	// entries are far fewer and far larger than selections — sorted
	// value runs, not row ids — so one stripe suffices.
	cutMu   sync.RWMutex
	cuts    map[string]cachedCut
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

	fullEvals      atomic.Int64
	narrowEvals    atomic.Int64
	cacheHits      atomic.Int64
	cutPointCalcs  atomic.Int64
	deltaRefreshes atomic.Int64
	cutRefreshes   atomic.Int64
	cutCacheHits   atomic.Int64
	pairMemoHits   atomic.Int64
	pairMemoMisses atomic.Int64

	// em is the installed EvalMetrics hook; always non-nil (zero
	// value = no-op), swapped atomically by SetEvalMetrics.
	em atomic.Pointer[EvalMetrics]
}

// NewEvaluator returns a caching evaluator over t.
func NewEvaluator(t *engine.Table) *Evaluator {
	e := &Evaluator{tab: t, cuts: make(map[string]cachedCut)}
	for i := range e.shards {
		e.shards[i].m = make(map[string]cachedSel)
	}
	for i := range e.bmShards {
		e.bmShards[i].m = make(map[string]cachedBitmap)
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

// SetCacheLimit bounds the number of cached selections; at the
// limit an arbitrary entry per shard is evicted to make room.
// n <= 0 means unbounded (the default, right for one-shot advisory
// runs and the paper experiments).
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
		for i := range e.bmShards {
			s := &e.bmShards[i]
			s.mu.Lock()
			s.m = make(map[string]cachedBitmap)
			s.mu.Unlock()
		}
		e.cutMu.Lock()
		e.cuts = make(map[string]cachedCut)
		e.cutMu.Unlock()
	}
}

// Counters returns a snapshot of the instrumentation counters.
func (e *Evaluator) Counters() Counters {
	return Counters{
		FullEvals:      int(e.fullEvals.Load()),
		NarrowEvals:    int(e.narrowEvals.Load()),
		CacheHits:      int(e.cacheHits.Load()),
		CutPointCalcs:  int(e.cutPointCalcs.Load()),
		DeltaRefreshes: int(e.deltaRefreshes.Load()),
		CutRefreshes:   int(e.cutRefreshes.Load()),
		CutCacheHits:   int(e.cutCacheHits.Load()),
		PairMemoHits:   int(e.pairMemoHits.Load()),
		PairMemoMisses: int(e.pairMemoMisses.Load()),
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

// store records key → sel. Concurrent evaluators may compute the
// same selection twice; the results are identical, so last write
// wins and both callers' values stay valid (selections are
// immutable by contract). Over the cache limit, one arbitrary entry
// of the shard makes room — random-replacement is crude but keeps
// the hot path lock-cheap and bounds memory. Overwriting a key that
// is already present never evicts: the store does not grow the
// shard, so there is nothing to make room for (evicting anyway
// would shrink the cache by one on every re-store at the limit).
func (e *Evaluator) store(key string, sel *engine.ChunkedSelection, stamp *engine.EpochStamp) {
	perShard := 0
	if limit := e.limit.Load(); limit > 0 {
		perShard = int((limit + cacheShards - 1) / cacheShards)
	}
	s := e.shard(key)
	s.mu.Lock()
	if perShard > 0 && len(s.m) >= perShard {
		if _, exists := s.m[key]; !exists {
			//lint:deterministic random-replacement eviction is deliberately arbitrary: cache contents affect reuse, never results
			for k := range s.m {
				delete(s.m, k)
				break
			}
		}
	}
	s.m[key] = cachedSel{cs: sel, stamp: stamp}
	s.mu.Unlock()
}

// cachedPacked looks key up in the packed-selection cache. The
// caller must check the entry's stamp against the table's before
// serving it.
func (e *Evaluator) cachedPacked(key string) (cachedBitmap, bool) {
	s := &e.bmShards[maphash.String(cacheSeed, key)%cacheShards]
	s.mu.RLock()
	ent, ok := s.m[key]
	s.mu.RUnlock()
	return ent, ok
}

// storeBitmap records key → bm in the packed-selection cache, with
// the same bounded random-replacement policy as the selection store.
func (e *Evaluator) storeBitmap(key string, bm *engine.Bitmap, stamp *engine.EpochStamp) {
	perShard := 0
	if limit := e.limit.Load(); limit > 0 {
		perShard = int((limit + cacheShards - 1) / cacheShards)
	}
	s := &e.bmShards[maphash.String(cacheSeed, key)%cacheShards]
	s.mu.Lock()
	if perShard > 0 && len(s.m) >= perShard {
		if _, exists := s.m[key]; !exists {
			//lint:deterministic random-replacement eviction is deliberately arbitrary: cache contents affect reuse, never results
			for k := range s.m {
				delete(s.m, k)
				break
			}
		}
	}
	s.m[key] = cachedBitmap{bm: bm, stamp: stamp}
	s.mu.Unlock()
}

// packedSelection returns the word-packed form of q's selection,
// serving repeats from a per-query cache: HB-cuts evaluates each
// candidate against O(n) partners per step, and without the cache
// every pairwise operator call would re-pack the same bitmaps. The
// caller decides whether packing pays (the representation knob and
// density heuristic live in the pairwise operators); this only
// memoizes the result of that decision, so cached and uncached runs
// take identical code paths. Bitmaps inherit the table's chunk
// layout — chunks with no selected rows are never allocated — and
// are immutable by contract, like selections.
func (e *Evaluator) packedSelection(q sdl.Query, cs *engine.ChunkedSelection) *engine.Bitmap {
	if !e.caching.Load() {
		return engine.NewBitmapChunked(cs)
	}
	key := q.Key()
	cur := e.tab.Stamp()
	if ent, ok := e.cachedPacked(key); ok {
		if ent.stamp.Version() == cur.Version() {
			return ent.bm
		}
		// Stale after mutation: cs is the query's current selection,
		// so only the dirty chunks need re-packing — splice their
		// fresh words into the cached clean ones.
		if dirty, ok := cur.DirtyVs(ent.stamp); ok &&
			ent.bm.NumRows() == ent.stamp.NumRows() && ent.bm.ChunkRows() == cur.ChunkRows() &&
			cs.NumRows() == cur.NumRows() && cs.ChunkRows() == cur.ChunkRows() {
			bm := engine.SpliceBitmap(ent.bm, engine.NewBitmapChunked(engine.RestrictChunked(cs, dirty)), dirty)
			e.countDeltaRefresh()
			e.storeBitmap(key, bm, cur)
			return bm
		}
	}
	bm := engine.NewBitmapChunked(cs)
	e.storeBitmap(key, bm, cur)
	return bm
}

// SelectBitmap returns R(Q) word-packed, the form the dense side of
// the pairwise operators consumes. Cached forms are served in
// cheapest-first order: the packed cache directly, then the chunked
// selection cache (one packing pass). Only when neither holds the
// query does it evaluate — and then the final predicate runs as a
// fused filter→bitmap scan (engine.Filter*ChunkedBitmap) that writes
// the bitmap words straight from the typed comparison loop, never
// materializing the row-id selection it would otherwise build and
// immediately discard. The returned bitmap must not be mutated.
func (e *Evaluator) SelectBitmap(q sdl.Query) (*engine.Bitmap, error) {
	key := q.Key()
	caching := e.caching.Load()
	cur := e.tab.Stamp()
	if caching {
		if ent, ok := e.cachedPacked(key); ok {
			if ent.stamp.Version() == cur.Version() {
				e.countCacheHit()
				return ent.bm, nil
			}
			if bm, ok := e.refreshBitmap(q, ent, cur); ok {
				e.countDeltaRefresh()
				e.storeBitmap(key, bm, cur)
				return bm, nil
			}
		}
		if ent, ok := e.cached(key); ok {
			if ent.stamp.Version() == cur.Version() {
				e.countCacheHit()
				bm := engine.NewBitmapChunked(ent.cs)
				e.storeBitmap(key, bm, ent.stamp)
				return bm, nil
			}
			if cs, ok := e.refreshChunked(q, ent, cur); ok {
				e.countDeltaRefresh()
				e.store(key, cs, cur)
				bm := engine.NewBitmapChunked(cs)
				e.storeBitmap(key, bm, cur)
				return bm, nil
			}
		}
	}
	cs := e.allRows()
	last := -1
	cons := q.Constraints()
	for i, c := range cons {
		if !c.IsAny() {
			last = i
		}
	}
	if last < 0 {
		// Unconstrained context: pack the identity selection.
		bm := engine.NewBitmapChunked(cs)
		e.countFullEval()
		if caching {
			e.storeBitmap(key, bm, cur)
		}
		return bm, nil
	}
	for _, c := range cons[:last] {
		if c.IsAny() {
			continue
		}
		var err error
		cs, err = e.applyConstraint(cs, c)
		if err != nil {
			return nil, err
		}
	}
	bm, err := e.applyConstraintBitmap(cs, cons[last])
	if err != nil {
		return nil, err
	}
	e.countFullEval()
	if caching {
		e.storeBitmap(key, bm, cur)
	}
	return bm, nil
}

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
// clean chunk's cached segment is still exact.
func (e *Evaluator) refreshChunked(q sdl.Query, old cachedSel, cur *engine.EpochStamp) (*engine.ChunkedSelection, bool) {
	dirty := e.deltaDirty(old.stamp, old.cs.NumRows(), old.cs.ChunkRows(), cur)
	if dirty == nil {
		return nil, false
	}
	cs := engine.PartialIdentity(cur.NumRows(), cur.ChunkRows(), dirty)
	for _, c := range q.Constraints() {
		if c.IsAny() {
			continue
		}
		var err error
		cs, err = e.applyConstraint(cs, c)
		if err != nil {
			return nil, false
		}
	}
	return engine.SpliceChunked(old.cs, cs, dirty), true
}

// refreshBitmap is refreshChunked for the packed cache: the dirty
// chunks re-evaluate with the final predicate fused into bitmap
// construction, then splice word-slices with the cached clean
// chunks.
func (e *Evaluator) refreshBitmap(q sdl.Query, old cachedBitmap, cur *engine.EpochStamp) (*engine.Bitmap, bool) {
	dirty := e.deltaDirty(old.stamp, old.bm.NumRows(), old.bm.ChunkRows(), cur)
	if dirty == nil {
		return nil, false
	}
	cs := engine.PartialIdentity(cur.NumRows(), cur.ChunkRows(), dirty)
	cons := q.Constraints()
	last := -1
	for i, c := range cons {
		if !c.IsAny() {
			last = i
		}
	}
	var fresh *engine.Bitmap
	if last < 0 {
		fresh = engine.NewBitmapChunked(cs)
	} else {
		for _, c := range cons[:last] {
			if c.IsAny() {
				continue
			}
			var err error
			cs, err = e.applyConstraint(cs, c)
			if err != nil {
				return nil, false
			}
		}
		var err error
		fresh, err = e.applyConstraintBitmap(cs, cons[last])
		if err != nil {
			return nil, false
		}
	}
	return engine.SpliceBitmap(old.bm, fresh, dirty), true
}

// Select returns the sorted row selection R(Q) as a flat vector —
// the lazily materialized view of the chunked evaluation. The
// returned selection must not be mutated.
func (e *Evaluator) Select(q sdl.Query) (engine.Selection, error) {
	cs, err := e.SelectChunked(q)
	if err != nil {
		return nil, err
	}
	return cs.Flat(), nil
}

// SelectChunked returns R(Q) sharded by the table's row-range
// chunks. Results are cached under the query's canonical key. The
// returned selection must not be mutated.
func (e *Evaluator) SelectChunked(q sdl.Query) (*engine.ChunkedSelection, error) {
	key := q.Key()
	// One snapshot per evaluation: a concurrent SetCaching flip
	// cannot make lookup and store disagree within one call.
	caching := e.caching.Load()
	cur := e.tab.Stamp()
	if caching {
		if ent, ok := e.cached(key); ok {
			if ent.stamp.Version() == cur.Version() {
				e.countCacheHit()
				return ent.cs, nil
			}
			if cs, ok := e.refreshChunked(q, ent, cur); ok {
				e.countDeltaRefresh()
				e.store(key, cs, cur)
				return cs, nil
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
			return nil, err
		}
	}
	e.countFullEval()
	if caching {
		e.store(key, cs, cur)
	}
	return cs, nil
}

// Count returns |R(Q)|.
func (e *Evaluator) Count(q sdl.Query) (int, error) {
	cs, err := e.SelectChunked(q)
	if err != nil {
		return 0, err
	}
	return cs.Len(), nil
}

// Narrow filters a parent query's selection by one additional (or
// refined) constraint and caches the result under the child query's
// key. child must equal parent.WithConstraint(c). It is the flat
// compatibility form of NarrowChunked.
func (e *Evaluator) Narrow(parentSel engine.Selection, child sdl.Query, c sdl.Constraint) (engine.Selection, error) {
	cs, err := e.NarrowChunked(engine.ChunkSelection(parentSel, e.tab.NumRows(), e.tab.ChunkRows()), child, c)
	if err != nil {
		return nil, err
	}
	return cs.Flat(), nil
}

// NarrowChunked filters a parent query's chunked selection by one
// additional (or refined) constraint and caches the result under the
// child query's key. It is the incremental path CUT takes: the
// child's extent is a subset of the parent's, so only the changed
// predicate is applied — and only over the chunks where the parent
// has rows, since empty parent segments are skipped outright.
func (e *Evaluator) NarrowChunked(parentCS *engine.ChunkedSelection, child sdl.Query, c sdl.Constraint) (*engine.ChunkedSelection, error) {
	key := child.Key()
	caching := e.caching.Load()
	cur := e.tab.Stamp()
	if caching {
		if ent, ok := e.cached(key); ok {
			if ent.stamp.Version() == cur.Version() {
				e.countCacheHit()
				return ent.cs, nil
			}
			// Stale after mutation: parentCS is the child's current
			// parent selection, so re-filtering just its dirty-chunk
			// segments and splicing reproduces the child exactly —
			// cheaper than refreshChunked's full constraint chain.
			if dirty := e.deltaDirty(ent.stamp, ent.cs.NumRows(), ent.cs.ChunkRows(), cur); dirty != nil &&
				parentCS.NumRows() == cur.NumRows() && parentCS.ChunkRows() == cur.ChunkRows() {
				fresh, err := e.applyConstraint(engine.RestrictChunked(parentCS, dirty), c)
				if err != nil {
					return nil, err
				}
				cs := engine.SpliceChunked(ent.cs, fresh, dirty)
				e.countDeltaRefresh()
				e.store(key, cs, cur)
				return cs, nil
			}
		}
	}
	cs, err := e.applyConstraint(parentCS, c)
	if err != nil {
		return nil, err
	}
	e.countNarrowEval()
	if caching {
		e.store(key, cs, cur)
	}
	return cs, nil
}

// resolveConstraint prepares one predicate application: it takes a
// consistent layout snapshot, re-chunks a selection cached under an
// older layout (zone maps index the snapshot layout's chunks, so a
// verdict must never see mismatched addressing), resolves the
// column, and fetches its zone map when pruning is on.
func (e *Evaluator) resolveConstraint(cs *engine.ChunkedSelection, attr string) (*engine.ChunkedSelection, engine.Column, *engine.ChunkSummary, error) {
	// One layout snapshot per constraint: the selection's chunking
	// and the zone map consulted for it must describe the same
	// layout, even while another advisor concurrently re-shards the
	// table.
	layout := e.tab.Layout()
	if cs.ChunkRows() != layout.ChunkRows() {
		// The selection was built (and possibly cached) under an
		// older layout — the table has been re-sharded since. The
		// flat row ids are layout-independent, making this a pure
		// re-addressing.
		cs = engine.ChunkSelection(cs.Flat(), e.tab.NumRows(), layout.ChunkRows())
	}
	col, ok := e.tab.ColumnByName(attr)
	if !ok {
		return nil, nil, nil, fmt.Errorf("seg: no column %q in table %q", attr, e.tab.Name())
	}
	var sum *engine.ChunkSummary
	if e.zonePruning.Load() {
		sum = layout.SummaryByName(attr)
	}
	return cs, col, sum, nil
}

// applyConstraint dispatches one predicate to the engine's typed
// chunked column filters, handing every predicate the column's zone
// map so provably disjoint chunks are skipped and provably covered
// ones pass through untouched — numeric bounds for ranges, nominal
// presence sets for string/bool predicates.
func (e *Evaluator) applyConstraint(cs *engine.ChunkedSelection, c sdl.Constraint) (*engine.ChunkedSelection, error) {
	if c.IsAny() {
		return cs, nil
	}
	cs, col, sum, err := e.resolveConstraint(cs, c.Attr)
	if err != nil {
		return nil, err
	}
	switch col := col.(type) {
	case *engine.StringColumn:
		switch c.Kind {
		case sdl.KindSet:
			vals := make([]string, len(c.Set))
			for i, v := range c.Set {
				vals[i] = v.AsString()
			}
			return engine.FilterStringSetChunked(col, cs, vals, sum), nil
		case sdl.KindRange:
			return engine.FilterStringRangeChunked(col, cs,
				c.Range.Lo.AsString(), c.Range.Hi.AsString(),
				c.Range.LoIncl, c.Range.HiIncl, sum), nil
		}
	case *engine.BoolColumn:
		if c.Kind == sdl.KindSet {
			vals := make([]bool, len(c.Set))
			for i, v := range c.Set {
				vals[i] = v.AsBool()
			}
			return engine.FilterBoolSetChunked(col, cs, vals, sum), nil
		}
		return nil, fmt.Errorf("seg: %s: range constraint on bool column", c.Attr)
	case *engine.FloatColumn:
		switch c.Kind {
		case sdl.KindRange:
			return engine.FilterFloatRangeChunked(col, cs, engine.FloatRange{
				Lo: c.Range.Lo.AsFloat(), Hi: c.Range.Hi.AsFloat(),
				LoIncl: c.Range.LoIncl, HiIncl: c.Range.HiIncl,
			}, sum), nil
		case sdl.KindSet:
			vals := make([]float64, len(c.Set))
			for i, v := range c.Set {
				vals[i] = v.AsFloat()
			}
			return engine.FilterFloatSetChunked(col, cs, vals, sum), nil
		}
	case engine.IntValued: // IntColumn and DateColumn
		switch c.Kind {
		case sdl.KindRange:
			return engine.FilterIntRangeChunked(col, cs, engine.IntRange{
				Lo: c.Range.Lo.AsInt(), Hi: c.Range.Hi.AsInt(),
				LoIncl: c.Range.LoIncl, HiIncl: c.Range.HiIncl,
			}, sum), nil
		case sdl.KindSet:
			vals := make([]int64, len(c.Set))
			for i, v := range c.Set {
				vals[i] = v.AsInt()
			}
			return engine.FilterIntSetChunked(col, cs, vals, sum), nil
		}
	}
	return nil, fmt.Errorf("seg: %s: unsupported %v constraint on %v column", c.Attr, c.Kind, col.Kind())
}

// applyConstraintBitmap is applyConstraint fused into bitmap
// construction: the same verdicts and typed kernels, but the
// predicate loop writes the word-packed bitmap directly instead of
// materializing a selection that would only be packed and dropped.
// The dispatch must mirror applyConstraint case for case — the two
// are the vector and bitmap forms of one evaluation.
func (e *Evaluator) applyConstraintBitmap(cs *engine.ChunkedSelection, c sdl.Constraint) (*engine.Bitmap, error) {
	if c.IsAny() {
		return engine.NewBitmapChunked(cs), nil
	}
	cs, col, sum, err := e.resolveConstraint(cs, c.Attr)
	if err != nil {
		return nil, err
	}
	switch col := col.(type) {
	case *engine.StringColumn:
		switch c.Kind {
		case sdl.KindSet:
			vals := make([]string, len(c.Set))
			for i, v := range c.Set {
				vals[i] = v.AsString()
			}
			return engine.FilterStringSetChunkedBitmap(col, cs, vals, sum), nil
		case sdl.KindRange:
			return engine.FilterStringRangeChunkedBitmap(col, cs,
				c.Range.Lo.AsString(), c.Range.Hi.AsString(),
				c.Range.LoIncl, c.Range.HiIncl, sum), nil
		}
	case *engine.BoolColumn:
		if c.Kind == sdl.KindSet {
			vals := make([]bool, len(c.Set))
			for i, v := range c.Set {
				vals[i] = v.AsBool()
			}
			return engine.FilterBoolSetChunkedBitmap(col, cs, vals, sum), nil
		}
		return nil, fmt.Errorf("seg: %s: range constraint on bool column", c.Attr)
	case *engine.FloatColumn:
		switch c.Kind {
		case sdl.KindRange:
			return engine.FilterFloatRangeChunkedBitmap(col, cs, engine.FloatRange{
				Lo: c.Range.Lo.AsFloat(), Hi: c.Range.Hi.AsFloat(),
				LoIncl: c.Range.LoIncl, HiIncl: c.Range.HiIncl,
			}, sum), nil
		case sdl.KindSet:
			vals := make([]float64, len(c.Set))
			for i, v := range c.Set {
				vals[i] = v.AsFloat()
			}
			return engine.FilterFloatSetChunkedBitmap(col, cs, vals, sum), nil
		}
	case engine.IntValued: // IntColumn and DateColumn
		switch c.Kind {
		case sdl.KindRange:
			return engine.FilterIntRangeChunkedBitmap(col, cs, engine.IntRange{
				Lo: c.Range.Lo.AsInt(), Hi: c.Range.Hi.AsInt(),
				LoIncl: c.Range.LoIncl, HiIncl: c.Range.HiIncl,
			}, sum), nil
		case sdl.KindSet:
			vals := make([]int64, len(c.Set))
			for i, v := range c.Set {
				vals[i] = v.AsInt()
			}
			return engine.FilterIntSetChunkedBitmap(col, cs, vals, sum), nil
		}
	}
	return nil, fmt.Errorf("seg: %s: unsupported %v constraint on %v column", c.Attr, c.Kind, col.Kind())
}
