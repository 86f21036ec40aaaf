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
	"sync/atomic"

	"charles/internal/engine"
	"charles/internal/obs"
	"charles/internal/sdl"
)

// Counter names one of the evaluator's instrumentation counters, which
// count how often work was reused versus recomputed. Each is a
// monotonic total: Counters snapshots them all, and RegisterCounters
// exposes each as one metric family.
type Counter int

const (
	// FullEvals counts constraint-by-constraint query evaluations.
	FullEvals Counter = iota
	// NarrowEvals counts child evaluations from a parent's selection
	// (the parent narrowed by one new constraint), the cheap path cuts
	// take: one per child a cut's partition pass evaluates.
	NarrowEvals
	// CacheHits counts selections served from the query cache.
	CacheHits
	// CutPointCalcs counts median/quantile computations, the
	// operation Section 5.1 calls the vertical-scalability
	// bottleneck.
	CutPointCalcs
	// DeltaRefreshes counts cached selections brought up to date by
	// re-evaluating only the mutation-dirtied chunks and splicing
	// them into the cached clean segments — the incremental-advise
	// path, neither a full eval nor a plain hit.
	DeltaRefreshes
	// CutRefreshes counts cached cut points brought up to date the
	// same way: dirty chunks recounted, clean chunks' count vectors
	// reused.
	CutRefreshes
	// CutCacheHits counts cuts served whole from a version-equal
	// cut-cache entry: its children, and their counts once counted,
	// with no cut points computed and no child rebuilt.
	CutCacheHits
	// PairMemoHits counts pairwise-operand sides served from a
	// PairMemo.
	PairMemoHits
	// PairMemoMisses counts pairwise-operand sides built into a
	// PairMemo.
	PairMemoMisses
	// PairTableHits counts contingency tables served from the
	// evaluator's pair-table tier without building either side.
	PairTableHits
	// RowMaterializations counts flat row-id views decoded from
	// non-empty selections, by Select. The advise path builds none.
	RowMaterializations
	// Evictions counts entries the clock evicted to keep the stores
	// within their byte budget (SetCacheBudget).
	Evictions

	numCounters
)

// RegisterCounters registers one counter family per Counter in reg,
// read from the evaluator's live total at scrape time. The family
// names are an external API (docs/OBSERVABILITY.md); cache misses are
// the evaluations themselves — full_evals and narrow_evals count
// exactly the lookups that missed.
func (e *Evaluator) RegisterCounters(reg *obs.Registry) {
	c := &e.counts
	reg.NewCounterFunc("charles_seg_full_evals_total", "full constraint-chain query evaluations (selection cache misses)", c[FullEvals].Load)
	reg.NewCounterFunc("charles_seg_narrow_evals_total", "cut children evaluated from their parent's selection", c[NarrowEvals].Load)
	reg.NewCounterFunc("charles_seg_cache_hits_total", "selections served from the evaluator cache (a cut served from the cut cache looks none up)", c[CacheHits].Load)
	reg.NewCounterFunc("charles_seg_cut_point_calcs_total", "median/quantile cut-point computations", c[CutPointCalcs].Load)
	reg.NewCounterFunc("charles_seg_cut_cache_hits_total", "cuts served whole (children and counts) from a version-equal cut-cache entry", c[CutCacheHits].Load)
	reg.NewCounterFunc("charles_delta_refreshes_total", "cached selections spliced up to date after a mutation", c[DeltaRefreshes].Load)
	reg.NewCounterFunc("charles_delta_cut_refreshes_total", "cached cut points spliced up to date after a mutation", c[CutRefreshes].Load)
	reg.NewCounterFunc("charles_seg_pair_memo_hits_total", "pairwise operand sides reused from a PairMemo", c[PairMemoHits].Load)
	reg.NewCounterFunc("charles_seg_pair_memo_misses_total", "pairwise operand sides built fresh", c[PairMemoMisses].Load)
	reg.NewCounterFunc("charles_seg_pair_table_hits_total", "contingency tables served from the evaluator's pair-table tier", c[PairTableHits].Load)
	reg.NewCounterFunc("charles_seg_row_materializations_total", "flat row-id views decoded from non-empty selections", c[RowMaterializations].Load)
	reg.NewCounterFunc("charles_seg_cache_evictions_total", "evaluator cache entries the clock evicted to stay within the byte budget", c[Evictions].Load)
}

// EvalMetrics is a shim kept for bench/layers until ROADMAP item 4:
// obs counters that SetEvalMetrics makes mirror nine of the
// evaluator's counters. Do not add fields; RegisterCounters is how the
// counters are exposed.
type EvalMetrics struct {
	FullEvals, NarrowEvals, CacheHits, CutPointCalcs, DeltaRefreshes,
	CutRefreshes, CutCacheHits, PairMemoHits, PairMemoMisses *obs.Counter
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
// indistinguishable from a fresh one. Each non-empty chunk of the
// selection is held as words, so the entry is never rewritten.
type cachedSel struct {
	sel   *engine.ChunkedSelection
	stamp *engine.EpochStamp
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
	tab *engine.Table
	// shards are the lock stripes of the selection store.
	shards [cacheShards]store[string, cachedSel]
	// cuts is the cut-point cache (cutcache.go). Cut entries are far
	// fewer than selections — children, plus per-chunk value counts
	// where a refresh can splice them — so one stripe suffices.
	cuts store[string, cachedCut]
	// pairs is the pair-table tier: the contingency tables of
	// segmentation pairs (keyed by the two segmentation keys) counted
	// at table fingerprint pairFP (guarded by pairs.mu), and only
	// those. A store at another fingerprint drops the whole generation
	// first, so the tier never holds two table versions.
	pairs  store[[2]string, []int]
	pairFP string
	// clock is the byte budget the three stores share and the ring
	// they evict from (budget.go).
	clock clock
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

	// counts holds one total per Counter.
	counts [numCounters]atomic.Int64
	// mirror is the obs counter per Counter that SetEvalMetrics
	// installed, or nil.
	mirror atomic.Pointer[[numCounters]*obs.Counter]
}

// NewEvaluator returns a caching evaluator over t.
func NewEvaluator(t *engine.Table) *Evaluator {
	e := &Evaluator{tab: t, cuts: newStore[string, cachedCut](), pairs: newStore[[2]string, []int]()}
	for i := range e.shards {
		e.shards[i] = newStore[string, cachedSel]()
	}
	e.zonePruning.Store(true)
	return e
}

// SetEvalMetrics installs m's counters as mirrors that count bumps
// beside the evaluator's own; nil removes them. Kept with EvalMetrics
// for bench/layers until ROADMAP item 4.
func (e *Evaluator) SetEvalMetrics(m *EvalMetrics) {
	if m == nil {
		e.mirror.Store(nil)
		return
	}
	e.mirror.Store(&[numCounters]*obs.Counter{
		FullEvals: m.FullEvals, NarrowEvals: m.NarrowEvals, CacheHits: m.CacheHits,
		CutPointCalcs: m.CutPointCalcs, DeltaRefreshes: m.DeltaRefreshes, CutRefreshes: m.CutRefreshes,
		CutCacheHits: m.CutCacheHits, PairMemoHits: m.PairMemoHits, PairMemoMisses: m.PairMemoMisses,
	})
}

// count bumps counter c, and its mirror when one is installed. It is
// alloc-free: one atomic add and a nil check.
func (e *Evaluator) count(c Counter) {
	e.counts[c].Add(1)
	if m := e.mirror.Load(); m != nil {
		m[c].Inc()
	}
}

// SetZonePruning toggles zone-map chunk pruning (numeric min/max and
// nominal presence verdicts). Pruning never changes results — only
// which chunks are scanned — so the off position exists for the
// equivalence property tests and for measuring the pruning win.
func (e *Evaluator) SetZonePruning(on bool) { e.zonePruning.Store(on) }

// Table returns the relation the evaluator is bound to.
func (e *Evaluator) Table() *engine.Table { return e.tab }

// allRows returns the shared chunked identity selection, rebuilding
// it when the table grew since it was built.
func (e *Evaluator) allRows() *engine.ChunkedSelection {
	if cs := e.identity.Load(); cs != nil && cs.NumRows() == e.tab.NumRows() {
		return cs
	}
	cs := e.tab.AllChunked()
	e.identity.Store(cs)
	return cs
}

// Counters returns a snapshot of the instrumentation counters,
// indexed by Counter.
func (e *Evaluator) Counters() [numCounters]int {
	var out [numCounters]int
	for c := range out {
		out[c] = int(e.counts[c].Load())
	}
	return out
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
func (e *Evaluator) shard(key string) *store[string, cachedSel] {
	return &e.shards[maphash.String(cacheSeed, key)%cacheShards]
}

// cached looks key up in its shard. The caller must check the
// entry's stamp against the table's before serving it.
func (e *Evaluator) cached(key string) (cachedSel, bool) {
	return e.shard(key).get(key)
}

// store records key → ent. Concurrent evaluators may compute the
// same selection twice; the results are identical, so last write
// wins and both callers' values stay valid (selections are
// immutable by contract).
func (e *Evaluator) store(key string, ent cachedSel) {
	e.shard(key).put(&e.clock, key, ent, selBytes(key, ent))
	e.shrink()
}

// flat returns cs's rows as one sorted vector, counting a row
// materialization when it holds any: they are decoded from words.
func (e *Evaluator) flat(cs *engine.ChunkedSelection) engine.Selection {
	if cs.Len() > 0 {
		e.count(RowMaterializations)
	}
	return cs.Flat()
}

// pairTable copies the contingency table of the segmentation pair key
// into flat when the tier holds it at fingerprint fp.
func (e *Evaluator) pairTable(fp string, key [2]string, flat []int) bool {
	s := &e.pairs
	s.mu.RLock()
	en, ok := s.m[key]
	ok = ok && e.pairFP == fp && len(en.val) == len(flat)
	if ok {
		copy(flat, en.val)
	}
	s.mu.RUnlock()
	if ok {
		en.touch()
	}
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
	s := &e.pairs
	s.mu.Lock()
	if e.pairFP != fp {
		s.dropLocked(&e.clock)
		e.pairFP = fp
	}
	s.putLocked(&e.clock, key, t, pairBytes(key, t))
	s.mu.Unlock()
	e.shrink()
}

// SelectBitmap is SelectChunked under the name the
// seg.select_bitmap_cold_ms and seg.select_bitmap_warm_us probes call.
func (e *Evaluator) SelectBitmap(q sdl.Query) (*engine.Bitmap, error) { return e.SelectChunked(q) }

// deltaDirty decides whether a stale cache entry qualifies for a
// chunk-granular refresh against stamp cur: the stamps must be
// chunk-comparable and the cached result, over nRows rows, must
// structurally match the stamp it claims to be from. Anything else — a
// shrink, a foreign stamp — returns nil and the caller re-evaluates in
// full.
func (e *Evaluator) deltaDirty(old *engine.EpochStamp, nRows int, cur *engine.EpochStamp) []bool {
	if old == nil || nRows != old.NumRows() {
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
	dirty := e.deltaDirty(old.stamp, old.sel.NumRows(), cur)
	if dirty == nil {
		return cachedSel{}, false
	}
	cs := engine.PartialIdentity(cur.NumRows(), e.tab.ChunkRows(), dirty)
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
// first.
func (e *Evaluator) extent(q sdl.Query) (cachedSel, error) {
	key := q.Key()
	cur := e.tab.Stamp()
	if ent, ok := e.cached(key); ok {
		if ent.stamp.Version() == cur.Version() {
			e.count(CacheHits)
			return ent, nil
		}
		if ent, ok := e.refreshChunked(q, ent, cur); ok {
			e.count(DeltaRefreshes)
			e.store(key, ent)
			return ent, nil
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
	e.count(FullEvals)
	ent := cachedSel{sel: cs, stamp: cur}
	e.store(key, ent)
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
// when some child needs a pass, and each of its chunks is cut from
// its words, its row ids never built. The children are the pieces of one cut computed at table
// version v, so they partition the parent's extent at v: a pass over
// that extent at v holding every child derives one of them (the cover
// rule) rather than testing it.
func (e *Evaluator) cutChildren(parent sdl.Query, children []sdl.Query, attr string, v uint64) ([]int, error) {
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
	cur := e.tab.Stamp()
	olds := make([]cachedSel, len(children))
	var stale, full []int
	var dirty []bool
	for i, key := range keys {
		ent, ok := e.cached(key)
		if ok && ent.stamp.Version() == cur.Version() {
			e.count(CacheHits)
			counts[i] = ent.sel.Len()
			continue
		}
		var d []bool
		if ok {
			d = e.deltaDirty(ent.stamp, ent.sel.NumRows(), cur)
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
	if src.NumRows() != cur.NumRows() {
		full, stale = append(full, stale...), nil
	}
	covered := v == cur.Version() && pent.stamp.Version() == v
	if len(stale) > 0 {
		if err := e.partitionInto(engine.Restrict(src, dirty), attr, cons, stale, covered, func(i int, cs *engine.ChunkedSelection) {
			ent := cachedSel{sel: engine.Splice(olds[i].sel, cs, dirty), stamp: cur}
			e.count(DeltaRefreshes)
			e.store(keys[i], ent)
			counts[i] = ent.sel.Len()
		}); err != nil {
			return nil, err
		}
	}
	if len(full) > 0 {
		if err := e.partitionInto(src, attr, cons, full, covered, func(i int, cs *engine.ChunkedSelection) {
			e.count(NarrowEvals)
			e.store(keys[i], cachedSel{sel: cs, stamp: cur})
			counts[i] = cs.Len()
		}); err != nil {
			return nil, err
		}
	}
	return counts, nil
}

// partitionInto runs one partition pass over src for the constraints
// cons[i], i in which, handing each child to done. covered says that
// cons, all of them, partition src (engine.PartitionChunked's cover
// rule); the pass is promised so only when it holds every one of
// them. A Restricted src keeps the cover: its clean chunks are empty.
func (e *Evaluator) partitionInto(src *engine.ChunkedSelection, attr string, cons []sdl.Constraint, which []int, covered bool, done func(i int, cs *engine.ChunkedSelection)) error {
	col, sum, err := e.resolveConstraint(attr)
	if err != nil {
		return err
	}
	preds := make([]engine.Pred, len(which))
	for j, i := range which {
		if preds[j], err = constraintPred(col, cons[i], sum); err != nil {
			return err
		}
	}
	for j, cs := range engine.PartitionChunked(src, preds, covered && len(which) == len(cons)) {
		done(which[j], cs)
	}
	return nil
}

// resolveConstraint resolves attr's column for one predicate
// application, with its zone map when pruning is on.
func (e *Evaluator) resolveConstraint(attr string) (engine.Column, *engine.ChunkSummary, error) {
	col, ok := e.tab.ColumnByName(attr)
	if !ok {
		return nil, nil, fmt.Errorf("seg: no column %q in table %q", attr, e.tab.Name())
	}
	return col, e.zoneMap(attr), nil
}

// zoneMap returns attr's zone map, nil with zone pruning off.
func (e *Evaluator) zoneMap(attr string) *engine.ChunkSummary {
	if !e.zonePruning.Load() {
		return nil
	}
	return e.tab.SummaryByName(attr)
}

// constraintPred resolves one constraint over col into the engine's
// chunked predicate, sum being the column's zone map (nil when pruning
// is off). It is the one dispatch behind both evaluation forms —
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
	col, sum, err := e.resolveConstraint(c.Attr)
	if err != nil {
		return nil, err
	}
	p, err := constraintPred(col, c, sum)
	if err != nil {
		return nil, err
	}
	return engine.FilterChunked(cs, p), nil
}
