package engine

import (
	"math/bits"
	"sort"
	"sync/atomic"
)

// ChunkedSelection is a selection sharded by the table's row-range
// chunks, each chunk held as its 64-row words: bit j of word i is set
// when row base+64i+j is selected, base the chunk's first row. A chunk
// with no selected row holds no words. Every chunked operator — the
// filters and partitions, the key gathers and value counts, AndCount —
// reads a chunk word by word, and concatenating the chunks' rows in
// order reproduces the flat sorted selection, which is why every
// chunked operator is deterministic at any worker count.
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

// container is one chunk of a selection: n rows as words, nil when n
// is 0.
type container struct {
	words []uint64
	n     int
}

// Bitmap is the name the bench/layers probes still use for a
// selection (engine.filter_int_range_bitmap_ms,
// engine.bitmap_andcount_us, seg.select_bitmap_*).
type Bitmap = ChunkedSelection

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

// set stores chunk c's n rows, handed over as words in pooled
// scratch, as a copy. Chunks are set from concurrent per-chunk tasks,
// so the total is summed afterwards (seal).
func (cs *ChunkedSelection) set(c int, words []uint64, n int) {
	if n == 0 {
		cs.chunks[c] = container{}
		return
	}
	// make+copy of one named slice compiles to a single non-zeroing
	// allocation, so a child never pins its parent-sized scratch.
	own := make([]uint64, len(words))
	copy(own, words)
	cs.chunks[c] = container{words: own, n: n}
}

// setRows stores chunk c's rows, handed over as sorted row ids, packed
// into fresh words.
func (cs *ChunkedSelection) setRows(c int, rows Selection) {
	if len(rows) == 0 {
		cs.chunks[c] = container{}
		return
	}
	words := make([]uint64, (cs.chunkLen(c)+63)>>6)
	cs.chunks[c] = container{words: words, n: setSegBits(words, rows, int32(c*cs.chunkRows))}
}

// take stores the parent's chunk c as chunk c, shared as it is.
func (cs *ChunkedSelection) take(c int, parent container) { cs.chunks[c] = parent }

// seal sums the chunk counts once every chunk is set.
func (cs *ChunkedSelection) seal() *ChunkedSelection {
	cs.count = 0
	for _, ct := range cs.chunks {
		cs.count += ct.n
	}
	return cs
}

// ChunkSelection shards a flat sorted selection by chunk boundaries,
// packing each chunk's rows into words.
func ChunkSelection(sel Selection, nRows, chunkRows int) *ChunkedSelection {
	cs := newSelection(nRows, chunkRows)
	rest := sel
	for c := 0; c < len(cs.chunks) && len(rest) > 0; c++ {
		// The boundary is compared in int: converting it to int32
		// would overflow for tables within one chunk of the 2^31
		// row-id ceiling and silently file the tail rows nowhere.
		bound := (c + 1) * chunkRows
		cut := sort.Search(len(rest), func(i int) bool { return int(rest[i]) >= bound })
		cs.setRows(c, rest[:cut])
		rest = rest[cut:]
	}
	return cs.seal()
}

// AllRowsChunked returns the chunked identity selection 0..nRows−1:
// every chunk full.
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
		cs.chunks[c] = container{words: words, n: lenC}
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

// Bytes returns the memory the selection's containers hold: 8 B per
// word. A chunk taken whole from a parent or a
// cached selection (a covered chunk, a clean chunk of a splice, the
// all-rows identity) shares that container rather than copying it, so
// summing Bytes over selections that share containers — common on
// clustered tables, where zone maps take whole chunks — over-counts
// the memory they hold together.
func (cs *ChunkedSelection) Bytes() int64 {
	var n int64
	for _, ct := range cs.chunks {
		n += 8 * int64(len(ct.words))
	}
	return n
}

// chunkCount returns the number of rows chunk c selects.
func (cs *ChunkedSelection) chunkCount(c int) int { return cs.chunks[c].n }

// Flat materializes (once) and returns the selection's flat sorted
// view — the chunks' rows in chunk order, decoded from their words.
// Must not be mutated. Concurrent first calls may both build it; the
// results are identical and either pointer wins.
func (cs *ChunkedSelection) Flat() Selection {
	if p := cs.flat.Load(); p != nil {
		return *p
	}
	out := make(Selection, cs.count)
	at := 0
	for c, ct := range cs.chunks {
		at += decodeWords(out[at:at+ct.n], ct.words, int32(c*cs.chunkRows))
	}
	cs.flat.CompareAndSwap(nil, &out)
	return *cs.flat.Load()
}

// AndCount returns |cs ∩ o| chunk pair by chunk pair, by AND and
// popcount over their words, without materializing the intersection;
// a chunk empty on either side costs nothing. Universes may differ in
// size; the count is over the shared prefix. Both selections must
// share a chunk width, as any two over one table do.
func (cs *ChunkedSelection) AndCount(o *ChunkedSelection) int {
	n := 0
	for c := range min(len(cs.chunks), len(o.chunks)) {
		n += andWords(cs.chunks[c].words, o.chunks[c].words)
	}
	return n
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
