package engine

import "math/bits"

// Bitmap is the word-packed alternative to the sorted row-id
// Selection: one bit per table row, set when the row is selected.
// For dense selections it turns the sorted-merge intersection —
// the hot operation behind SDL products and INDEP — into word-wise
// AND + popcount, touching 1/64th of the memory per element and no
// branches. Sparse selections stay cheaper as row-id vectors; see
// DenseEnough for the crossover heuristic.
//
// The words are sharded by the same row-range chunks as the rest of
// the storage layer: chunks[c] holds chunk c's bits, and a chunk
// with no selected rows stays nil — never allocated, skipped by
// every operation. An extent confined to one region of a 10M-row
// table therefore costs words proportional to the region, not the
// table, and AndCount skips disjoint regions chunk-at-a-time.
//
// A Bitmap is immutable after construction and therefore safe for
// concurrent readers, matching the Selection contract.
type Bitmap struct {
	chunks [][]uint64
	// counts[c] is the number of bits set in chunks[c]: the chunk's
	// row count, which the chunked readers and splices would otherwise
	// popcount from its words.
	counts    []int32
	nRows     int
	chunkRows int
	// chunkShift/chunkMask hold the shift+mask form of the chunk
	// addressing when chunkRows is a power of two (every table
	// layout; Contains is a per-row hot path under the mixed
	// sparse-probe-dense intersection). chunkMask is 0 for the
	// off-path non-power-of-two widths, which divide instead.
	chunkShift uint
	chunkMask  int
	ones       int
}

// bitmapDensityDen is the density crossover denominator: at
// |sel|/nRows ≥ 1/64 the bitmap's nRows/64 words cost no more to
// scan than the selection's row ids, and the word-parallel AND wins.
const bitmapDensityDen = 64

// DenseEnough reports whether a selection of selLen rows out of
// nRows is dense enough (≥ 1/64) for the bitmap representation to
// beat the sorted row-id vector.
func DenseEnough(selLen, nRows int) bool {
	return selLen > 0 && int64(selLen)*bitmapDensityDen >= int64(nRows)
}

// NewBitmap packs a sorted selection over an nRows universe into a
// bitmap chunked at the default width. Every row id must be in
// [0, nRows).
func NewBitmap(sel Selection, nRows int) *Bitmap {
	return NewBitmapChunked(ChunkSelection(sel, nRows, DefaultChunkRows))
}

// newBitmapShell returns an all-empty bitmap in the given layout,
// with the shift+mask addressing precomputed. Callers fill chunks
// through setChunk and the ones count.
func newBitmapShell(nRows, chunkRows, nc int) *Bitmap {
	b := &Bitmap{
		chunks:    make([][]uint64, nc),
		counts:    make([]int32, nc),
		nRows:     nRows,
		chunkRows: chunkRows,
	}
	if b.chunkRows&(b.chunkRows-1) == 0 {
		b.chunkMask = b.chunkRows - 1
		for 1<<b.chunkShift < b.chunkRows {
			b.chunkShift++
		}
	}
	return b
}

// setChunk stores words, holding n set bits, as chunk c. A chunk
// without a set bit stays nil.
func (b *Bitmap) setChunk(c int, words []uint64, n int) {
	b.chunks[c], b.counts[c] = words, int32(n)
}

// chunkWordCount returns the number of words chunk c's bitset needs
// (the final chunk may cover fewer than chunkRows rows).
func (b *Bitmap) chunkWordCount(c int) int {
	top := b.chunkRows
	if rest := b.nRows - c*b.chunkRows; rest < top {
		top = rest
	}
	return (top + 63) / 64
}

// packChunk sets chunk c's words from seg, a non-empty sorted run of
// rows inside chunk c, and returns the count set.
func (b *Bitmap) packChunk(c int, seg Selection) int {
	words := make([]uint64, b.chunkWordCount(c))
	n := setSegBits(words, seg, int32(c*b.chunkRows))
	b.setChunk(c, words, n)
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
		// A sorted, duplicate-free run this long is contiguous — a
		// chunk taken whole from a parent that holds all its rows —
		// so whole words are filled at once.
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

// NewBitmapChunked packs a chunked selection into a bitmap with the
// same chunk layout, one chunk per worker-pool task. Empty chunks
// stay nil.
func NewBitmapChunked(cs *ChunkedSelection) *Bitmap {
	b := newBitmapShell(cs.NumRows(), cs.ChunkRows(), cs.NumChunks())
	b.ones = cs.Len()
	forEachSeg(cs, func(c int) {
		if seg := cs.Seg(c); len(seg) > 0 {
			b.packChunk(c, seg)
		}
	})
	return b
}

// SpliceBitmap merges a partial re-evaluation into a cached bitmap:
// dirty chunks take fresh's words, clean chunks keep old's. The
// result lives in fresh's layout (whose universe may have grown past
// old's after appends — a clean chunk always existed in old at full
// width, so its word slice carries over unchanged). The popcount is
// old's, corrected by the replaced chunks' counts alone, so a splice
// costs the chunk count, not the table.
func SpliceBitmap(old, fresh *Bitmap, dirty []bool) *Bitmap {
	out := newBitmapShell(fresh.nRows, fresh.chunkRows, len(fresh.chunks))
	out.ones = old.ones
	for c := range old.chunks {
		if c >= len(out.chunks) || dirty[c] {
			out.ones -= int(old.counts[c])
		} else {
			out.setChunk(c, old.chunks[c], int(old.counts[c]))
		}
	}
	for c := range out.chunks {
		if c >= len(old.chunks) || dirty[c] {
			out.setChunk(c, fresh.chunks[c], int(fresh.counts[c]))
			out.ones += int(fresh.counts[c])
		}
	}
	return out
}

// popcount returns the number of bits set in words.
func popcount(words []uint64) int {
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	return n
}

// NumRows returns the universe size the bitmap was built over.
func (b *Bitmap) NumRows() int { return b.nRows }

// ChunkRows returns the chunk width the bitmap's words are sharded
// by.
func (b *Bitmap) ChunkRows() int { return b.chunkRows }

// Count returns the number of selected rows (the popcount).
func (b *Bitmap) Count() int { return b.ones }

// Len is Count, as a Source reads it.
func (b *Bitmap) Len() int { return b.ones }

// NumChunks returns the number of chunks the words are sharded by.
func (b *Bitmap) NumChunks() int { return len(b.chunks) }

// Contains reports whether row is selected. Rows outside the
// universe are never selected.
func (b *Bitmap) Contains(row int32) bool {
	if row < 0 || int(row) >= b.nRows {
		return false
	}
	var c, local int
	if b.chunkMask != 0 {
		c = int(row) >> b.chunkShift
		local = int(row) & b.chunkMask
	} else {
		c = int(row) / b.chunkRows
		local = int(row) - c*b.chunkRows
	}
	words := b.chunks[c]
	if words == nil {
		return false
	}
	return words[local>>6]&(1<<(uint(local)&63)) != 0
}

// sameLayout reports whether two bitmaps shard their words
// identically, making word-wise operations chunk-aligned.
func sameLayout(a, o *Bitmap) bool { return a.chunkRows == o.chunkRows }

// AndCount returns |b ∩ o| by chunk-wise word AND + popcount,
// skipping every chunk either side leaves empty, without
// materializing the intersection — the bitmap counterpart of
// IntersectCount. Universes may differ in size; the count is over
// the shared prefix, as with the row-id merge.
func (b *Bitmap) AndCount(o *Bitmap) int {
	if !sameLayout(b, o) {
		return andCountMismatched(b, o)
	}
	nc := len(b.chunks)
	if len(o.chunks) < nc {
		nc = len(o.chunks)
	}
	n := 0
	for c := 0; c < nc; c++ {
		wa, wb := b.chunks[c], o.chunks[c]
		if wa == nil || wb == nil {
			continue
		}
		if len(wb) < len(wa) {
			wa, wb = wb, wa
		}
		for i, x := range wa {
			n += bits.OnesCount64(x & wb[i])
		}
	}
	return n
}

// andCountMismatched handles the off-path case of bitmaps packed at
// different chunk widths (never produced by one evaluator): probe
// the sparser side's rows against the other.
func andCountMismatched(a, o *Bitmap) int {
	if o.ones < a.ones {
		a, o = o, a
	}
	return AndCountSelection(o, a.Selection())
}

// And returns the materialized intersection b ∩ o as a fresh bitmap
// over the smaller universe. Chunks empty on either side stay nil in
// the result.
func (b *Bitmap) And(o *Bitmap) *Bitmap {
	small, big := b, o
	if big.nRows < small.nRows {
		small, big = big, small
	}
	if !sameLayout(small, big) {
		sel := Intersect(small.Selection(), big.Selection())
		return NewBitmapChunked(ChunkSelection(sel, small.nRows, small.chunkRows))
	}
	out := newBitmapShell(small.nRows, small.chunkRows, len(small.chunks))
	for c := range small.chunks {
		wa, wb := small.chunks[c], big.chunks[c]
		if wa == nil || wb == nil {
			continue
		}
		if len(wb) < len(wa) {
			wa, wb = wb, wa
		}
		words := make([]uint64, len(wa))
		n := 0
		for i, x := range wa {
			w := x & wb[i]
			words[i] = w
			n += bits.OnesCount64(w)
		}
		if n > 0 {
			out.setChunk(c, words, n)
			out.ones += n
		}
	}
	return out
}

// Selection materializes the bitmap back into a sorted row-id
// vector, the exact inverse of NewBitmap, skipping empty chunks.
func (b *Bitmap) Selection() Selection {
	out := make(Selection, 0, b.ones)
	for c, words := range b.chunks {
		if words == nil {
			continue
		}
		chunkBase := int32(c * b.chunkRows)
		for wi, w := range words {
			base := chunkBase + int32(wi)<<6
			for w != 0 {
				out = append(out, base+int32(bits.TrailingZeros64(w)))
				w &= w - 1
			}
		}
	}
	return out
}

// Chunked materializes the bitmap's row ids as a chunked selection
// in the bitmap's own layout — the inverse of NewBitmapChunked — one
// chunk per scan-pool task, each decoded at exact length; a chunk
// without words stays empty.
func (b *Bitmap) Chunked() *ChunkedSelection {
	segs := make([]Selection, len(b.chunks))
	forEachChunk(len(b.chunks), b.ones, func(c int) {
		segs[c] = decodeSeg(b.chunks[c], int(b.counts[c]), int32(c*b.chunkRows))
	})
	return &ChunkedSelection{nRows: b.nRows, chunkRows: b.chunkRows, count: b.ones, segs: segs}
}

// AndCountSelection returns |b ∩ sel| by probing the bitmap with
// each row id — the mixed-representation path a sparse selection
// takes against a dense one: O(|sel|) probes beat both a full merge
// and packing the sparse side.
func AndCountSelection(b *Bitmap, sel Selection) int {
	n := 0
	for _, row := range sel {
		if b.Contains(row) {
			n++
		}
	}
	return n
}
