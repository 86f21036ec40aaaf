package engine

import (
	"math/bits"
	"sort"
	"sync/atomic"
)

// ChunkedSelection is a selection sharded by the table's row-range
// chunks, each chunk held in the smaller of two forms — the Roaring
// container split (Chambi, Lemire, Kaser, Godin, "Better bitmap
// performance with Roaring bitmaps", arXiv:1402.6407): the chunk's
// selected row ids, still as global sorted int32 ids, or its 64-row
// words, bit j of word i set when row base+64i+j is selected. A chunk
// with no selected row holds neither. The form is picked once, when
// the chunk is written (set), by its row count alone (denseEnough), so
// no writer and no reader chooses one: every chunked operator — the
// filters and partitions, the key gathers and value counts, AndCount —
// dispatches on the form per chunk, never per row, and concatenating
// the chunks in order reproduces the flat sorted selection, which is
// why every chunked operator is deterministic at any worker count.
//
// The flat view is materialized lazily (Flat): operators that only
// need per-chunk work never pay for it. Like Selection, a
// ChunkedSelection is immutable once built.
type ChunkedSelection struct {
	nRows     int
	chunkRows int
	count     int
	chunks    []container
	flat      atomic.Pointer[Selection]
}

// container is one chunk of a selection: n rows as sorted row ids, or
// as words (exactly one of them non-nil when n > 0).
type container struct {
	rows  Selection
	words []uint64
	n     int
}

// Bitmap is the name the bench/layers probes still use for a
// selection (engine.filter_int_range_bitmap_ms,
// engine.bitmap_andcount_us, seg.select_bitmap_*).
type Bitmap = ChunkedSelection

// denseEnough is the storage rule: a chunk of lenC table rows holding
// n of them is stored as words iff its words take no more memory than
// its row ids, 4·n ≥ 8·⌈lenC/64⌉ bytes — about 1/32 of the chunk.
func denseEnough(n, lenC int) bool {
	return n > 0 && n >= 2*((lenC+63)>>6)
}

// newSelection returns the all-empty selection in the given layout;
// its writers fill chunks through set and then seal it.
func newSelection(nRows, chunkRows int) *ChunkedSelection {
	return &ChunkedSelection{nRows: nRows, chunkRows: chunkRows, chunks: make([]container, numChunksFor(nRows, chunkRows))}
}

// emptyLike returns the all-empty selection in cs's layout.
func emptyLike(cs *ChunkedSelection) *ChunkedSelection {
	return newSelection(cs.nRows, cs.chunkRows)
}

// chunkLen returns the number of table rows chunk c covers (the last
// chunk may cover fewer than chunkRows).
func (cs *ChunkedSelection) chunkLen(c int) int {
	return min(cs.chunkRows, cs.nRows-c*cs.chunkRows)
}

// set stores chunk c's n rows, handed over as sorted row ids or as
// words (the other nil), in the form denseEnough picks: row ids are
// packed into fresh words when dense, words are decoded into exact-
// length row ids when sparse. Input already in the picked form is kept
// when keep is set — a parent's container, a caller's segment — and
// copied otherwise (pooled scratch). This is the one place a form is
// chosen. Chunks are set from concurrent per-chunk tasks, so the total
// is summed afterwards (seal).
func (cs *ChunkedSelection) set(c int, rows Selection, words []uint64, n int, keep bool) {
	lenC := cs.chunkLen(c)
	base := int32(c * cs.chunkRows)
	switch {
	case n == 0:
		cs.chunks[c] = container{}
	case !denseEnough(n, lenC):
		if words != nil {
			rows = decodeSeg(words, n, base)
		} else if !keep {
			// make+copy of one named slice compiles to a single
			// non-zeroing allocation, so a child never pins its
			// parent-sized scratch.
			own := make(Selection, n)
			copy(own, rows)
			rows = own
		}
		cs.chunks[c] = container{rows: rows, n: n}
	default:
		if words == nil {
			words = make([]uint64, (lenC+63)>>6)
			setSegBits(words, rows, base)
		} else if !keep {
			own := make([]uint64, len(words))
			copy(own, words)
			words = own
		}
		cs.chunks[c] = container{words: words, n: n}
	}
}

// take stores the parent's chunk c as chunk c, shared as it is.
func (cs *ChunkedSelection) take(c int, parent container) {
	cs.set(c, parent.rows, parent.words, parent.n, true)
}

// seal sums the chunk counts once every chunk is set.
func (cs *ChunkedSelection) seal() *ChunkedSelection {
	cs.count = 0
	for _, ct := range cs.chunks {
		cs.count += ct.n
	}
	return cs
}

// ChunkSelection shards a flat sorted selection by chunk boundaries.
// Sparse chunks alias sel.
func ChunkSelection(sel Selection, nRows, chunkRows int) *ChunkedSelection {
	cs := newSelection(nRows, chunkRows)
	rest := sel
	for c := 0; c < len(cs.chunks) && len(rest) > 0; c++ {
		// The boundary is compared in int: converting it to int32
		// would overflow for tables within one chunk of the 2^31
		// row-id ceiling and silently file the tail rows nowhere.
		bound := (c + 1) * chunkRows
		cut := sort.Search(len(rest), func(i int) bool { return int(rest[i]) >= bound })
		cs.set(c, rest[:cut:cut], nil, cut, true)
		rest = rest[cut:]
	}
	return cs.seal()
}

// AllRowsChunked returns the chunked identity selection 0..nRows−1:
// every chunk full, so words.
func AllRowsChunked(nRows, chunkRows int) *ChunkedSelection {
	dirty := make([]bool, numChunksFor(nRows, chunkRows))
	for c := range dirty {
		dirty[c] = true
	}
	return PartialIdentity(nRows, chunkRows, dirty)
}

// PartialIdentity returns the chunked selection holding every row of
// the dirty chunks and none of the clean ones: the starting universe
// for re-evaluating a cached query over only the chunks a mutation
// touched. The full chunks share one run of all-ones words. len(dirty)
// must be ceil(nRows/chunkRows).
func PartialIdentity(nRows, chunkRows int, dirty []bool) *ChunkedSelection {
	cs := newSelection(nRows, chunkRows)
	var full []uint64
	for c, d := range dirty {
		if !d {
			continue
		}
		lenC := cs.chunkLen(c)
		nw := (lenC + 63) >> 6
		words := full
		if lenC != chunkRows || full == nil {
			words = make([]uint64, nw)
			for i := range words {
				words[i] = ^uint64(0)
			}
			if tail := lenC & 63; tail != 0 {
				words[nw-1] = 1<<tail - 1
			}
			if lenC == chunkRows {
				full = words
			}
		}
		cs.set(c, nil, words, lenC, true)
	}
	return cs.seal()
}

// Splice merges a partial re-evaluation into a cached result: dirty
// chunks take fresh's containers, clean chunks keep old's. fresh must
// cover the current universe (its nRows may exceed old's after
// appends); a clean chunk is by construction one that existed in old
// at full width with unchanged data, so old's container for it is
// still exact. A splice costs the chunk count, not the rows.
func Splice(old, fresh *ChunkedSelection, dirty []bool) *ChunkedSelection {
	out := emptyLike(fresh)
	for c := range out.chunks {
		if dirty[c] || c >= len(old.chunks) {
			out.chunks[c] = fresh.chunks[c]
		} else {
			out.chunks[c] = old.chunks[c]
		}
	}
	return out.seal()
}

// Restrict returns cs with every clean chunk emptied: the dirty-chunk
// portion of a parent, for narrowing a re-evaluation or a recount to
// the rows a mutation could have affected. len(dirty) must be
// cs.NumChunks().
func Restrict(cs *ChunkedSelection, dirty []bool) *ChunkedSelection {
	out := emptyLike(cs)
	for c, d := range dirty {
		if d {
			out.chunks[c] = cs.chunks[c]
		}
	}
	return out.seal()
}

// NumRows returns the universe size the selection is over.
func (cs *ChunkedSelection) NumRows() int { return cs.nRows }

// ChunkRows returns the chunk width of the layout.
func (cs *ChunkedSelection) ChunkRows() int { return cs.chunkRows }

// NumChunks returns the number of chunks in the layout (including
// empty ones).
func (cs *ChunkedSelection) NumChunks() int { return len(cs.chunks) }

// Len returns the total number of selected rows.
func (cs *ChunkedSelection) Len() int { return cs.count }

// chunk returns chunk c in its own form — its row ids, or its words —
// and the number of rows it selects. A chunk without rows has neither.
func (cs *ChunkedSelection) chunk(c int) (Selection, []uint64, int) {
	ct := &cs.chunks[c]
	return ct.rows, ct.words, ct.n
}

// chunkCount returns the number of rows chunk c selects.
func (cs *ChunkedSelection) chunkCount(c int) int { return cs.chunks[c].n }

// Seg returns chunk c's row ids: the stored segment of a sparse chunk
// (must not be mutated), or a dense chunk's words decoded afresh.
func (cs *ChunkedSelection) Seg(c int) Selection {
	ct := &cs.chunks[c]
	if ct.words != nil {
		return decodeSeg(ct.words, ct.n, int32(c*cs.chunkRows))
	}
	return ct.rows
}

// Words returns chunk c's words, nil when the chunk holds row ids or
// nothing. Must not be mutated.
func (cs *ChunkedSelection) Words(c int) []uint64 { return cs.chunks[c].words }

// Flat materializes (once) and returns the selection's flat sorted
// view — the chunks' rows in chunk order, a dense chunk's decoded from
// its words. Must not be mutated. Concurrent first calls may both
// build it; the results are identical and either pointer wins.
func (cs *ChunkedSelection) Flat() Selection {
	if p := cs.flat.Load(); p != nil {
		return *p
	}
	var out Selection
	switch {
	case cs.count == 0:
		out = Selection{}
	case len(cs.chunks) == 1 && cs.chunks[0].words == nil:
		out = cs.chunks[0].rows
	default:
		out = make(Selection, cs.count)
		at := 0
		for c, ct := range cs.chunks {
			if ct.words != nil {
				decodeWords(out[at:at+ct.n], ct.words, int32(c*cs.chunkRows))
			} else {
				copy(out[at:], ct.rows)
			}
			at += ct.n
		}
	}
	cs.flat.CompareAndSwap(nil, &out)
	return *cs.flat.Load()
}

// AndCount returns |cs ∩ o| chunk pair by chunk pair, without
// materializing the intersection: words ∧ words by AND + popcount,
// words × row ids by probing each row's bit, row ids × row ids by a
// sorted merge, and a chunk empty on either side costs nothing.
// Universes may differ in size; the count is over the shared prefix.
func (cs *ChunkedSelection) AndCount(o *ChunkedSelection) int {
	if cs.chunkRows != o.chunkRows {
		return andCountMismatched(cs, o)
	}
	n := 0
	for c := range min(len(cs.chunks), len(o.chunks)) {
		a, b := &cs.chunks[c], &o.chunks[c]
		switch {
		case a.n == 0 || b.n == 0:
		case a.words != nil && b.words != nil:
			n += andWords(a.words, b.words)
		case a.words != nil:
			n += probeWords(a.words, b.rows, int32(c*cs.chunkRows))
		case b.words != nil:
			n += probeWords(b.words, a.rows, int32(c*cs.chunkRows))
		default:
			n += IntersectCount(a.rows, b.rows)
		}
	}
	return n
}

// andCountMismatched handles the off-path case of selections sharded
// at different chunk widths (never produced by one evaluator): their
// flat views are merged.
func andCountMismatched(a, b *ChunkedSelection) int {
	return IntersectCount(a.Flat(), b.Flat())
}

// andWords returns the popcount of a ∧ b over their common words.
func andWords(a, b []uint64) int {
	if len(b) < len(a) {
		a, b = b, a
	}
	b = b[:len(a)]
	n := 0
	for i, x := range a {
		n += bits.OnesCount64(x & b[i])
	}
	return n
}

// probeWords returns how many of rows (global ids, base the first row
// of words) have their bit set in words; a row past the words is not
// set.
func probeWords(words []uint64, rows Selection, base int32) int {
	n := 0
	for _, row := range rows {
		local := uint32(row - base)
		if wi := int(local >> 6); wi < len(words) {
			n += int(words[wi] >> (local & 63) & 1)
		}
	}
	return n
}

// setSegBits sets every row of seg in the zeroed words (rows local to
// base) and returns the count set. seg is sorted, so the rows of one
// word arrive together: the word accumulates in a register, is
// cleared by mask (not by branch) when a row lands in the next word,
// and is stored after every row without being read back. That avoids
// both a load-OR-store chain through memory and a word-boundary
// branch, which at the ≈50% density of a median child mispredicts
// about once per word; storing only at boundaries measured slower at
// every density but a fully contiguous run.
func setSegBits(words []uint64, seg Selection, base int32) int {
	if n := len(seg); n > 0 && int(seg[n-1]-seg[0]) == n-1 {
		// A sorted, duplicate-free run this long is contiguous, so
		// whole words are filled at once.
		for lo, hi := int(seg[0]-base), int(seg[n-1]-base)+1; lo < hi; {
			span := min(64-lo&63, hi-lo)
			words[lo>>6] |= ^uint64(0) >> (64 - span) << (lo & 63)
			lo += span
		}
		return n
	}
	var w uint64
	cur := uint32(0)
	for _, row := range seg {
		local := uint32(row - base)
		wi := local >> 6
		w &= -uint64(b2i(wi == cur))
		cur = wi
		w |= 1 << (local & 63)
		words[wi] = w
	}
	return len(seg)
}

// batchWords is the number of words a dense chunk is decoded by at a
// time: 1 024 rows, 4 KiB of row ids, which stay in L1 between the
// decode and the loop that reads them.
const batchWords = 16

// eachRows is the one per-chunk loop shape of the gathers and counts:
// it hands fn chunk c's rows, ascending, in batches — a row-id chunk
// whole, a words chunk batchWords words at a time, decoded by set-bit
// iteration into pooled scratch. fn is called once per batch, so the
// row loop inside it makes no call per row; it must not retain rows.
func eachRows(cs *ChunkedSelection, c int, fn func(rows Selection)) {
	rows, words, _ := cs.chunk(c)
	if words == nil {
		if len(rows) > 0 {
			fn(rows)
		}
		return
	}
	buf := int32Scratch.Get(batchWords << 6)
	base := int32(c * cs.chunkRows)
	for lo := 0; lo < len(words); lo += batchWords {
		hi := min(lo+batchWords, len(words))
		if n := decodeWords(*buf, words[lo:hi], base+int32(lo)<<6); n > 0 {
			fn((*buf)[:n])
		}
	}
	int32Scratch.Put(buf)
}

// RowBatches hands fn every row cs selects, ascending, chunk by chunk
// in eachRows' batches, on the calling goroutine. fn must not retain
// rows.
func RowBatches(cs *ChunkedSelection, fn func(rows Selection)) {
	for c := range cs.chunks {
		eachRows(cs, c, fn)
	}
}

// decodeWords writes the rows of words' set bits to rows, ascending —
// bit j of words[i] is row base+64i+j — and returns their count. rows
// must hold every set bit.
func decodeWords(rows Selection, words []uint64, base int32) int {
	k := 0
	for wi, w := range words {
		at := base + int32(wi)<<6
		if w == ^uint64(0) {
			// A full word — a third of a drill-down's parent rows sit
			// in one — is a run, written without bit iteration.
			run := rows[k : k+64 : k+64]
			for j := range run {
				run[j] = at + int32(j)
			}
			k += 64
			continue
		}
		for ; w != 0; w &= w - 1 {
			rows[k] = at + int32(bits.TrailingZeros64(w))
			k++
		}
	}
	return k
}

// decodeSeg returns the rows of one chunk's words, n of them, base
// its first row, as an exact-length selection: nil when n is 0.
func decodeSeg(words []uint64, n int, base int32) Selection {
	if n == 0 {
		return nil
	}
	seg := make(Selection, n)
	decodeWords(seg, words, base)
	return seg
}
