package engine

import (
	"sort"
	"sync/atomic"

	"charles/internal/fault"
	"charles/internal/par"
)

// DefaultChunkRows is the automatic row-range chunk width: 64K rows
// per chunk. Chunks are the unit of parallelism (one chunk scans on
// one goroutine) and of skipping (per-chunk min/max summaries prune
// chunks a range predicate cannot match), so the width trades
// scheduling granularity against summary overhead. 64K keeps a
// chunk's row ids within one L2-sized working set while a 10M-row
// table still splits into ~150 independently schedulable pieces.
const DefaultChunkRows = 1 << 16

// minChunkRows is the smallest permitted chunk width: one bitmap
// word's worth of rows.
const minChunkRows = 64

// maxChunkRows caps the chunk width at 2^30 rows: wider chunks are
// indistinguishable from "one chunk" for any table the engine can
// address with int32 row ids, and the cap keeps the power-of-two
// rounding below from overflowing on absurd configured values.
const maxChunkRows = 1 << 30

// NormalizeChunkRows resolves a configured chunk width the way
// SetChunkRows does: values < 1 mean the automatic default,
// everything else is clamped to [64, 2^30] and rounded up to the
// next power of two. Storage backends that persist per-chunk state
// use it to agree with the table on the width before writing.
func NormalizeChunkRows(n int) int { return normalizeChunkRows(n) }

// normalizeChunkRows resolves a configured chunk width: values < 1
// mean the automatic default, everything else is clamped to
// [64, 2^30] and rounded up to the next power of two. Power-of-two
// widths keep per-row chunk addressing a shift+mask instead of a
// hardware divide.
func normalizeChunkRows(n int) int {
	if n < 1 {
		return DefaultChunkRows
	}
	if n > maxChunkRows {
		return maxChunkRows
	}
	p := minChunkRows
	for p < n {
		p <<= 1
	}
	return p
}

// tableLayout bundles a chunk width with the zone maps built for it.
// The table swaps the whole bundle atomically on re-shard, so a
// reader holding one snapshot can never pair one layout's width with
// another layout's summaries.
type tableLayout struct {
	chunkRows int
	summaries []atomic.Pointer[ChunkSummary]
}

func newTableLayout(chunkRows, numCols int) *tableLayout {
	return &tableLayout{
		chunkRows: chunkRows,
		summaries: make([]atomic.Pointer[ChunkSummary], numCols),
	}
}

// SetChunkRows fixes the table's row-range chunk width. n < 1
// restores the automatic default; other values are rounded up to a
// power of two (minimum 64, the bitmap word size). Setting a width
// the table already has is a no-op, so advisors sharing a table with
// the same configuration never churn its zone maps. Re-sharding
// swaps the layout and its zone maps as one atomic unit, and
// evaluators re-chunk selections cached under the old layout on use
// — but a re-shard concurrent with serving still wastes the caches
// it obsoletes, so fix the layout before the table serves queries.
func (t *Table) SetChunkRows(n int) {
	n = normalizeChunkRows(n)
	if cur := t.layout.Load(); cur != nil && cur.chunkRows == n {
		return
	}
	t.layout.Store(newTableLayout(n, len(t.cols)))
	// Epoch history is addressed by chunk, so it restarts at the new
	// width; the version carries over (the data did not change).
	t.resetStamp(n)
}

// ChunkRows returns the table's row-range chunk width.
func (t *Table) ChunkRows() int { return t.layout.Load().chunkRows }

// NumChunks returns the number of row-range chunks the table splits
// into: ceil(rows / chunkRows), 0 for an empty table.
func (t *Table) NumChunks() int { return numChunksFor(t.rows, t.ChunkRows()) }

// numChunksFor is the chunk count for an nRows universe at the given
// chunk width.
func numChunksFor(nRows, chunkRows int) int {
	if nRows <= 0 {
		return 0
	}
	return (nRows + chunkRows - 1) / chunkRows
}

// ChunkBounds returns chunk c's half-open global row interval
// [lo, hi) under the current layout.
func (t *Table) ChunkBounds(c int) (lo, hi int) {
	return t.chunkBounds(t.layout.Load(), c)
}

func (t *Table) chunkBounds(lay *tableLayout, c int) (lo, hi int) {
	lo = c * lay.chunkRows
	hi = lo + lay.chunkRows
	if hi > t.rows {
		hi = t.rows
	}
	return lo, hi
}

// AllChunked returns the identity selection over the table in
// chunked form.
func (t *Table) AllChunked() *ChunkedSelection {
	return AllRowsChunked(t.rows, t.ChunkRows())
}

// Layout returns a consistent snapshot of the table's chunk design:
// its width and the zone maps built for that width. Callers that
// consult both — the evaluator pairing re-chunked selections with
// zone-map verdicts — must read them through one snapshot, so a
// concurrent re-shard can never mix layouts.
func (t *Table) Layout() Layout { return Layout{t: t, lay: t.layout.Load()} }

// Layout is one immutable chunk-design snapshot of a table.
type Layout struct {
	t   *Table
	lay *tableLayout
}

// ChunkRows returns the snapshot's chunk width.
func (l Layout) ChunkRows() int { return l.lay.chunkRows }

// Summary returns the snapshot's lazily built zone map for column i,
// or nil for column kinds that have none.
func (l Layout) Summary(i int) *ChunkSummary { return l.t.summaryIn(l.lay, i) }

// SummaryByName is Summary addressed by column name; nil when the
// column does not exist or has no zone map.
func (l Layout) SummaryByName(name string) *ChunkSummary {
	i, ok := l.t.byName[name]
	if !ok {
		return nil
	}
	return l.t.summaryIn(l.lay, i)
}

// denseCodeDictMax is the dictionary cardinality at or below which a
// string column's presence summary is a dense per-chunk code bitset:
// dictLen bits per chunk, at most 512 bytes at this cap. Above it
// the bitset would cost more to scan than it saves, so chunks record
// a short sorted distinct-code list instead.
const denseCodeDictMax = 4096

// maxCodeListLen caps the sparse per-chunk code list. A chunk of a
// high-cardinality column that holds more distinct codes than this
// is marked overflowed and always scans: a presence list approaching
// the wanted-set size would make the verdict as expensive as the
// scan it tries to avoid.
const maxCodeListLen = 128

// ChunkSummary is one column's per-chunk zone map, computed over the
// raw column (not a selection). Numeric columns (int, date, float)
// record the min/max ordinal of every row-range chunk: range filters
// consult them to skip chunks no row of which can match, and to pass
// chunks wholesale when every row must. Nominal columns (string, bool)
// record per-chunk value presence — which dictionary codes occur in
// the chunk — so set predicates get the same skip/take/scan verdicts
// from set algebra: skip when the chunk holds none of the wanted
// codes, take when every code it holds is wanted.
type ChunkSummary struct {
	intMin, intMax []int64
	// nan[c] is true when chunk c holds a NaN, and nan is nil unless
	// the column is a float column. A float chunk's bounds leave NaN
	// out (an all-NaN chunk's are nanOrdinal), so a range disjoint from
	// them may skip the chunk only where nan[c] is false: NaN rows
	// match every range (FloatRange.Contains(NaN) is true).
	nan []bool

	// String-column presence, in exactly one of two forms. dictLen is
	// the dictionary cardinality the summary was built for (the
	// column is immutable, so it cannot drift).
	dictLen int
	// codeBits[c] is chunk c's dense presence bitset over dictionary
	// codes; used when dictLen ≤ denseCodeDictMax.
	codeBits [][]uint64
	// codeList[c] is chunk c's sorted distinct-code list for larger
	// dictionaries; meaningless when codeOverflow[c] is set (the
	// chunk held more than maxCodeListLen distinct codes and must
	// scan).
	codeList     [][]uint32
	codeOverflow []bool

	// Bool-column presence: which of the two values each chunk holds.
	boolHasTrue, boolHasFalse []bool

	// stamp is the table epoch stamp the summary was built under; nil
	// marks a backend-persisted summary, which describes the unmutated
	// file contents (version 0). A summary is fresh while its stamp's
	// version matches the table's; after a mutation only the chunks
	// whose epochs moved are recomputed.
	stamp *EpochStamp
}

// IntBounds returns chunk c's [min, max] ordinal over the raw column,
// NaN left out.
func (s *ChunkSummary) IntBounds(c int) (lo, hi int64) {
	return s.intMin[c], s.intMax[c]
}

// hasNaN reports whether chunk c holds a NaN.
func (s *ChunkSummary) hasNaN(c int) bool { return s.nan != nil && s.nan[c] }

// HasNominal reports whether the summary carries nominal presence
// information (built over a string or bool column).
func (s *ChunkSummary) HasNominal() bool {
	return s.codeBits != nil || s.codeList != nil || s.boolHasTrue != nil
}

// BoolPresence returns which boolean values chunk c holds.
func (s *ChunkSummary) BoolPresence(c int) (hasTrue, hasFalse bool) {
	return s.boolHasTrue[c], s.boolHasFalse[c]
}

// canPruneCodes reports whether the code-presence summary can give a
// non-scan verdict for at least one chunk: always for the dense
// bitset form, and for the sparse form only when some chunk stayed
// under the list cap. Callers that must pay to translate a predicate
// into code space (string ranges resolving the dictionary interval)
// consult this first — against an all-overflowed summary that
// translation buys nothing.
func (s *ChunkSummary) canPruneCodes() bool {
	if s.codeBits != nil {
		return true
	}
	if s.codeList == nil {
		return false
	}
	for _, overflowed := range s.codeOverflow {
		if !overflowed {
			return true
		}
	}
	return false
}

// Summary returns the current layout's lazily built zone map of
// column i, or nil for column kinds that have none. Building fans
// the chunks out across the scan worker pool; concurrent first calls
// may build twice, and the identical results make either winner
// correct.
func (t *Table) Summary(i int) *ChunkSummary {
	return t.summaryIn(t.layout.Load(), i)
}

// SummaryByName is Summary addressed by column name; nil when the
// column does not exist or has no zone map.
func (t *Table) SummaryByName(name string) *ChunkSummary {
	i, ok := t.byName[name]
	if !ok {
		return nil
	}
	return t.Summary(i)
}

func (t *Table) summaryIn(lay *tableLayout, i int) *ChunkSummary {
	switch t.cols[i].(type) {
	case Numeric, *StringColumn, *BoolColumn:
	default:
		return nil
	}
	cur := t.stamp.Load()
	if s := lay.summaries[i].Load(); s != nil {
		if summaryFresh(s, cur) {
			return s
		}
		// Stale: recompute only the chunks whose epochs moved, keeping
		// the clean chunks' entries. Store, not CAS — a fresher summary
		// must replace the stale one even though a slot is occupied.
		s = t.refreshSummary(lay, t.cols[i], s, cur)
		lay.summaries[i].Store(s)
		return s
	}
	// Precomputed summaries first: a file-backed table ships zone
	// maps for its native chunk width, which beats re-scanning the
	// column (and faulting its pages in) just to rediscover them.
	// They describe the file's contents, so only an unmutated table
	// (version 0 — the only version a file-backed table can have) may
	// serve them.
	// The failpoint models a backend whose persisted summaries are
	// unreadable: the consult is skipped and the lazy scan-time build
	// below serves instead — same answers, just slower. Degradation,
	// not failure, is the contract chaos tests pin here.
	if t.backend != nil && cur.version == 0 && fault.Inject("engine.backendSummary") == nil {
		if s, ok := t.backend.ChunkSummary(i, lay.chunkRows); ok && s != nil {
			lay.summaries[i].CompareAndSwap(nil, s)
			return lay.summaries[i].Load()
		}
	}
	s := t.buildSummary(lay, t.cols[i])
	s.stamp = cur
	lay.summaries[i].CompareAndSwap(nil, s)
	return lay.summaries[i].Load()
}

// summaryFresh reports whether a cached summary still describes the
// table at stamp cur. Equal versions mean identical data; a nil
// summary stamp marks a backend-persisted summary, which is the
// version-0 contents.
func summaryFresh(s *ChunkSummary, cur *EpochStamp) bool {
	if s.stamp == nil {
		return cur.version == 0
	}
	return s.stamp.version == cur.version
}

// WarmSummaries eagerly builds every column's zone map under the
// current layout — numeric min/max bounds and nominal presence sets
// alike — so a server's first queries never pay the lazy build.
// It returns the number of summarized columns.
func (t *Table) WarmSummaries() int {
	n := 0
	for i := range t.cols {
		if t.Summary(i) != nil {
			n++
		}
	}
	return n
}

// numChunkBounds scans one chunk's ordinals for their [min, max].
// With nan set (a float column) NaN's ordinal, the smallest, is left
// out of both, so an all-NaN chunk's bounds are nanOrdinal, and hasNaN
// reports whether the chunk holds one; only a chunk that does pays a
// second pass.
func numChunkBounds(vals []int64, nan bool) (mn, mx int64, hasNaN bool) {
	mn, mx = vals[0], vals[0]
	for _, v := range vals[1:] {
		mn, mx = min(mn, v), max(mx, v)
	}
	if nan && mn == nanOrdinal {
		mn = mx
		for _, v := range vals {
			if v != nanOrdinal {
				mn = min(mn, v)
			}
		}
		return mn, mx, true
	}
	return mn, mx, false
}

// boolChunkPresence scans one chunk for which boolean values occur.
func boolChunkPresence(col *BoolColumn, lo, hi int) (hasTrue, hasFalse bool) {
	for r := lo; r < hi; r++ {
		if col.Bool(r) {
			hasTrue = true
		} else {
			hasFalse = true
		}
		if hasTrue && hasFalse {
			break
		}
	}
	return hasTrue, hasFalse
}

// stringChunkBits builds one chunk's dense code-presence bitset.
func stringChunkBits(codes []uint32, lo, hi, words int) []uint64 {
	bits := make([]uint64, words)
	for r := lo; r < hi; r++ {
		code := codes[r]
		bits[code>>6] |= 1 << (code & 63)
	}
	return bits
}

// stringChunkList builds one chunk's sorted distinct-code list, or
// reports overflow past the list cap.
func stringChunkList(codes []uint32, lo, hi int) (list []uint32, overflow bool) {
	seen := make(map[uint32]struct{}, maxCodeListLen+1)
	for r := lo; r < hi; r++ {
		if _, ok := seen[codes[r]]; ok {
			continue
		}
		if len(seen) == maxCodeListLen {
			return nil, true
		}
		seen[codes[r]] = struct{}{}
	}
	list = make([]uint32, 0, len(seen))
	for code := range seen {
		list = append(list, code)
	}
	sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
	return list, false
}

// buildSummary computes the zone map, one chunk per worker-pool
// task. The caller stamps the result.
func (t *Table) buildSummary(lay *tableLayout, col Column) *ChunkSummary {
	nc := numChunksFor(t.rows, lay.chunkRows)
	s := &ChunkSummary{}
	switch col := col.(type) {
	case Numeric:
		t.buildNumSummary(lay, s, col, nc, nil, nil)
	case *StringColumn:
		t.buildNominalSummary(lay, s, col, nc)
	case *BoolColumn:
		s.boolHasTrue = make([]bool, nc)
		s.boolHasFalse = make([]bool, nc)
		_ = par.ForEach(ScanWorkers(), nc, func(c int) error {
			lo, hi := t.chunkBounds(lay, c)
			s.boolHasTrue[c], s.boolHasFalse[c] = boolChunkPresence(col, lo, hi)
			return nil
		})
	}
	return s
}

// buildNumSummary computes a numeric column's per-chunk bounds, and a
// float column's NaN bits, into s: for every chunk, or with dirty set
// for the dirty ones only, the others' copied from old.
func (t *Table) buildNumSummary(lay *tableLayout, s *ChunkSummary, col Numeric, nc int, old *ChunkSummary, dirty []bool) {
	vals, nan := col.Int64s(), col.Kind() == KindFloat
	s.intMin = make([]int64, nc)
	s.intMax = make([]int64, nc)
	if nan {
		s.nan = make([]bool, nc)
	}
	_ = par.ForEach(ScanWorkers(), nc, func(c int) error {
		var hasNaN bool
		if dirty != nil && !dirty[c] {
			s.intMin[c], s.intMax[c], hasNaN = old.intMin[c], old.intMax[c], old.hasNaN(c)
		} else {
			lo, hi := t.chunkBounds(lay, c)
			s.intMin[c], s.intMax[c], hasNaN = numChunkBounds(vals[lo:hi], nan)
		}
		if nan {
			s.nan[c] = hasNaN
		}
		return nil
	})
}

// buildNominalSummary computes a string column's per-chunk presence
// summary: a dense code bitset for small dictionaries, a short
// sorted distinct-code list (or an overflow mark) for large ones.
func (t *Table) buildNominalSummary(lay *tableLayout, s *ChunkSummary, col *StringColumn, nc int) {
	s.dictLen = col.Cardinality()
	codes := col.Codes()
	if s.dictLen <= denseCodeDictMax {
		s.codeBits = make([][]uint64, nc)
		words := (s.dictLen + 63) / 64
		_ = par.ForEach(ScanWorkers(), nc, func(c int) error {
			lo, hi := t.chunkBounds(lay, c)
			s.codeBits[c] = stringChunkBits(codes, lo, hi, words)
			return nil
		})
		return
	}
	s.codeList = make([][]uint32, nc)
	s.codeOverflow = make([]bool, nc)
	_ = par.ForEach(ScanWorkers(), nc, func(c int) error {
		lo, hi := t.chunkBounds(lay, c)
		s.codeList[c], s.codeOverflow[c] = stringChunkList(codes, lo, hi)
		return nil
	})
}

// refreshSummary brings a stale summary up to stamp cur, rescanning
// only the chunks whose epochs moved and keeping the clean chunks'
// entries. It falls back to a full rebuild when the stamps are not
// chunk-comparable (width change, backend summary after mutation) or
// when a string column's dictionary grew — the presence encoding is
// sized and shaped by the dictionary, so clean chunks' bitsets would
// not line up with the new code space.
func (t *Table) refreshSummary(lay *tableLayout, col Column, old *ChunkSummary, cur *EpochStamp) *ChunkSummary {
	var dirty []bool
	if cur.chunkRows == lay.chunkRows {
		if d, ok := cur.DirtyVs(old.stamp); ok {
			dirty = d
		}
	}
	if sc, isStr := col.(*StringColumn); isStr && sc.Cardinality() != old.dictLen {
		dirty = nil
	}
	if dirty == nil {
		s := t.buildSummary(lay, col)
		s.stamp = cur
		return s
	}
	nc := numChunksFor(t.rows, lay.chunkRows)
	s := &ChunkSummary{stamp: cur}
	switch col := col.(type) {
	case Numeric:
		t.buildNumSummary(lay, s, col, nc, old, dirty)
	case *StringColumn:
		s.dictLen = old.dictLen
		codes := col.Codes()
		if old.codeBits != nil {
			s.codeBits = make([][]uint64, nc)
			words := (s.dictLen + 63) / 64
			_ = par.ForEach(ScanWorkers(), nc, func(c int) error {
				if !dirty[c] {
					s.codeBits[c] = old.codeBits[c]
					return nil
				}
				lo, hi := t.chunkBounds(lay, c)
				s.codeBits[c] = stringChunkBits(codes, lo, hi, words)
				return nil
			})
		} else {
			s.codeList = make([][]uint32, nc)
			s.codeOverflow = make([]bool, nc)
			_ = par.ForEach(ScanWorkers(), nc, func(c int) error {
				if !dirty[c] {
					s.codeList[c], s.codeOverflow[c] = old.codeList[c], old.codeOverflow[c]
					return nil
				}
				lo, hi := t.chunkBounds(lay, c)
				s.codeList[c], s.codeOverflow[c] = stringChunkList(codes, lo, hi)
				return nil
			})
		}
	case *BoolColumn:
		s.boolHasTrue = make([]bool, nc)
		s.boolHasFalse = make([]bool, nc)
		_ = par.ForEach(ScanWorkers(), nc, func(c int) error {
			if !dirty[c] {
				s.boolHasTrue[c], s.boolHasFalse[c] = old.boolHasTrue[c], old.boolHasFalse[c]
				return nil
			}
			lo, hi := t.chunkBounds(lay, c)
			s.boolHasTrue[c], s.boolHasFalse[c] = boolChunkPresence(col, lo, hi)
			return nil
		})
	}
	return s
}
