package engine

import (
	"fmt"
	"sort"
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
// next power of two. Power-of-two widths keep per-row chunk
// addressing a shift+mask instead of a hardware divide. Storage
// backends that persist per-chunk state use it to agree with the
// table on the width before writing.
func NormalizeChunkRows(n int) int {
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

// SetChunkRows fixes the table's row-range chunk width, a build step
// like choosing its columns. n < 1 means the automatic default; other
// values are rounded up to a power of two (minimum 64, the bitmap word
// size). A call at the table's current width is a no-op. Once the
// table is sealed — its first AllChunked or zone-map build has handed
// out state addressed by the width — a different width is refused with
// an error and the table is left as it was. Call it before the table
// serves, never concurrently with its readers.
func (t *Table) SetChunkRows(n int) error {
	n = NormalizeChunkRows(n)
	if n == t.chunkRows {
		return nil
	}
	if t.sealed.Load() {
		return fmt.Errorf("engine: table %q is sealed at chunk width %d, refusing width %d", t.name, t.chunkRows, n)
	}
	t.chunkRows = n
	t.resetStamp()
	return nil
}

// seal fixes the chunk width for good. It runs wherever state
// addressed by the width is first handed out; once sealed it is a
// load, so a hot caller pays no store.
func (t *Table) seal() {
	if !t.sealed.Load() {
		t.sealed.Store(true)
	}
}

// ChunkRows returns the table's row-range chunk width.
func (t *Table) ChunkRows() int { return t.chunkRows }

// NumChunks returns the number of row-range chunks the table splits
// into: ceil(rows / chunkRows), 0 for an empty table.
func (t *Table) NumChunks() int { return numChunksFor(t.rows, t.chunkRows) }

// numChunksFor is the chunk count for an nRows universe at the given
// chunk width.
func numChunksFor(nRows, chunkRows int) int {
	if nRows <= 0 {
		return 0
	}
	return (nRows + chunkRows - 1) / chunkRows
}

// ChunkBounds returns chunk c's half-open global row interval
// [lo, hi).
func (t *Table) ChunkBounds(c int) (lo, hi int) {
	lo = c * t.chunkRows
	return lo, min(lo+t.chunkRows, t.rows)
}

// AllChunked returns the identity selection over the table in
// chunked form. It seals the table.
func (t *Table) AllChunked() *ChunkedSelection {
	t.seal()
	return AllRowsChunked(t.rows, t.chunkRows)
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
// chunks wholesale when every row must. A numeric chunk whose bounds
// span at most vcountCells values and that holds no NaN also records
// how many of its rows hold each value, which a narrow cut adds up for
// the chunks its extent selects whole (countCut), after
// small materialized aggregates (Moerkotte, VLDB 1998). Nominal columns
// (string, bool) record per-chunk value presence — which dictionary
// codes occur in the chunk — so set predicates get the same
// skip/take/scan verdicts from set algebra: skip when the chunk holds
// none of the wanted codes, take when every code it holds is wanted.
type ChunkSummary struct {
	intMin, intMax []int64
	// nan[c] is true when chunk c holds a NaN, and nan is nil unless
	// the column is a float column. A float chunk's bounds leave NaN
	// out (an all-NaN chunk's are nanOrdinal). A NaN row matches no
	// range, so a range takes a chunk only where nan[c] is false, and
	// it matches a set listing NaN, so such a set skips a chunk only
	// where nan[c] is false.
	nan []bool
	// vcounts[c][i] is how many rows of chunk c hold the ordinal
	// intMin[c]+i, over [intMin[c], intMax[c]]: at most vcountCells
	// four-byte cells a chunk, and no more cells than the chunk has
	// rows. It is nil for a chunk whose bounds span more values or that
	// holds a NaN.
	vcounts [][]uint32
	// chunkRows is the chunk width the summary was built at.
	chunkRows int

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

	// rank is a numeric column's rank codes (rank.go), and codePlanes
	// a small dictionary's code planes (planes.go), both set by
	// buildSummary on every summary the table serves.
	rank       *rankCodes
	codePlanes *bitPlanes

	// stamp is the table epoch stamp the summary was built under. A
	// summary is fresh while its stamp's version matches the table's;
	// after a mutation only the chunks whose epochs moved are
	// recomputed.
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

// Summary returns the lazily built zone map of column i, or nil for
// column kinds that have none. Building fans the chunks out across the
// scan worker pool; concurrent first calls may build twice, and the
// identical results make either winner correct. The first build seals
// the table.
func (t *Table) Summary(i int) *ChunkSummary {
	switch t.cols[i].(type) {
	case Numeric, *StringColumn, *BoolColumn:
	default:
		return nil
	}
	cur := t.stamp.Load()
	if s := t.summaries[i].Load(); s != nil {
		if summaryFresh(s, cur) {
			return s
		}
		// Stale: recompute only the chunks whose epochs moved, keeping
		// the clean chunks' entries. Store, not CAS — a fresher summary
		// must replace the stale one even though a slot is occupied.
		s = t.refreshSummary(t.cols[i], s, cur)
		t.summaries[i].Store(s)
		return s
	}
	t.seal()
	s := t.buildSummary(t.cols[i], nil, nil)
	s.stamp = cur
	t.summaries[i].CompareAndSwap(nil, s)
	return t.summaries[i].Load()
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

// summaryFresh reports whether a cached summary still describes the
// table at stamp cur: equal versions mean identical data.
func summaryFresh(s *ChunkSummary, cur *EpochStamp) bool {
	return s.stamp.version == cur.version
}

// WarmSummaries eagerly builds every column's zone map — numeric
// min/max bounds, nominal presence sets and the codes every summary
// carries — so a server's first queries never pay the lazy build. It
// returns the number of summarized columns.
func (t *Table) WarmSummaries() int {
	n := 0
	for i := range t.cols {
		if t.Summary(i) != nil {
			n++
		}
	}
	return n
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

// buildSummary computes col's zone map and codes: for every chunk, or
// with dirty set for the dirty ones only, the others' entries copied
// from old. The chunks fan out over the scan pool (ForEachTask). A
// numeric chunk is read once (scanNumChunk) for its bounds, value
// counts and rank codes. The caller stamps the result.
func (t *Table) buildSummary(col Column, old *ChunkSummary, dirty []bool) *ChunkSummary {
	nc := t.NumChunks()
	clean := func(c int) bool { return dirty != nil && !dirty[c] }
	s := &ChunkSummary{chunkRows: t.chunkRows}
	switch col := col.(type) {
	case Numeric:
		// A refresh keeps old's rank boundaries and recodes the dirty
		// chunks against them; without old rank codes every chunk is
		// read again.
		vals, nan := col.Int64s(), col.Kind() == KindFloat
		var rc *rankCodes
		if old != nil && dirty != nil && old.rank != nil {
			kept := *old.rank // the boundaries; every chunk is set below
			rc = &kept
		} else {
			old, dirty = nil, nil
			rc = newRankCodes(vals, nan)
		}
		if rc != nil {
			rc.codes, rc.planes.words, rc.counts = make([][]uint8, nc), make([][]uint64, nc), make([][rankCells]uint32, nc)
		}
		s.rank = rc
		s.intMin, s.intMax, s.vcounts = make([]int64, nc), make([]int64, nc), make([][]uint32, nc)
		if nan {
			s.nan = make([]bool, nc)
		}
		ForEachTask(nc, t.rows, func(c int) {
			if clean(c) {
				s.intMin[c], s.intMax[c], s.vcounts[c] = old.intMin[c], old.intMax[c], old.vcounts[c]
				if nan {
					s.nan[c] = old.hasNaN(c)
				}
				if rc != nil {
					rc.codes[c], rc.planes.words[c], rc.counts[c] = old.rank.codes[c], old.rank.planes.words[c], old.rank.counts[c]
				}
				return
			}
			lo, hi := t.ChunkBounds(c)
			ch := scanNumChunk(rc, vals[lo:hi], nan)
			s.intMin[c], s.intMax[c], s.vcounts[c] = ch.lo, ch.hi, ch.vcounts
			if nan {
				s.nan[c] = ch.nan
			}
			if rc != nil {
				rc.codes[c], rc.planes.words[c], rc.counts[c] = ch.codes, ch.planes, ch.counts
			}
		})
	case *StringColumn:
		// A string column's presence is a dense code bitset for a small
		// dictionary, a short sorted distinct-code list (or an overflow
		// mark) for a large one. Both are sized and shaped by the
		// dictionary, so a clean chunk keeps its entry only while the
		// dictionary has not grown (its code planes, only while they
		// have as many bits: dictPlanesFor).
		s.dictLen = col.Cardinality()
		codes := col.Codes()
		if p := dictPlaneBits(s.dictLen); p > 0 {
			var oldPlanes *bitPlanes
			if old != nil {
				oldPlanes = old.codePlanes
			}
			s.codePlanes = t.dictPlanesFor(codes, p, oldPlanes, dirty)
		}
		if old != nil && old.dictLen != s.dictLen {
			old, dirty = nil, nil
		}
		if s.dictLen <= denseCodeDictMax {
			s.codeBits = make([][]uint64, nc)
			words := (s.dictLen + 63) / 64
			ForEachTask(nc, t.rows, func(c int) {
				if clean(c) {
					s.codeBits[c] = old.codeBits[c]
					return
				}
				lo, hi := t.ChunkBounds(c)
				s.codeBits[c] = stringChunkBits(codes, lo, hi, words)
			})
			break
		}
		s.codeList = make([][]uint32, nc)
		s.codeOverflow = make([]bool, nc)
		ForEachTask(nc, t.rows, func(c int) {
			if clean(c) {
				s.codeList[c], s.codeOverflow[c] = old.codeList[c], old.codeOverflow[c]
				return
			}
			lo, hi := t.ChunkBounds(c)
			s.codeList[c], s.codeOverflow[c] = stringChunkList(codes, lo, hi)
		})
	case *BoolColumn:
		s.boolHasTrue = make([]bool, nc)
		s.boolHasFalse = make([]bool, nc)
		ForEachTask(nc, t.rows, func(c int) {
			if clean(c) {
				s.boolHasTrue[c], s.boolHasFalse[c] = old.boolHasTrue[c], old.boolHasFalse[c]
				return
			}
			lo, hi := t.ChunkBounds(c)
			s.boolHasTrue[c], s.boolHasFalse[c] = boolChunkPresence(col, lo, hi)
		})
	}
	return s
}

// refreshSummary brings a stale summary up to stamp cur, rescanning
// only the chunks whose epochs moved and keeping the clean chunks'
// entries. It builds in full when the stamps are not chunk-comparable;
// a string column whose dictionary grew rebuilds its presence in full
// (buildSummary).
func (t *Table) refreshSummary(col Column, old *ChunkSummary, cur *EpochStamp) *ChunkSummary {
	dirty, _ := cur.DirtyVs(old.stamp)
	if dirty == nil {
		old = nil
	}
	s := t.buildSummary(col, old, dirty)
	s.stamp = cur
	return s
}
