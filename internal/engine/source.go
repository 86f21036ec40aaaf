package engine

import "math/bits"

// Source is a selection in either of its two forms, as the chunked
// readers take it: sorted row ids (*ChunkedSelection) or 64-row words
// (*Bitmap), sharded by one chunk layout. The partition driver, the
// key gathers and the value counts dispatch on the form once per
// chunk, never per row: a row-id chunk is read as its rows, a packed
// chunk by set-bit iteration over its words. Nothing on the way
// builds the packed form's row ids.
type Source interface {
	NumRows() int
	ChunkRows() int
	NumChunks() int
	Len() int
	// chunk returns chunk c in the source's own form — its row ids, or
	// its words — and the number of rows it selects. A chunk without
	// rows has neither.
	chunk(c int) (rows Selection, words []uint64, n int)
}

func (cs *ChunkedSelection) chunk(c int) (Selection, []uint64, int) {
	return cs.segs[c], nil, len(cs.segs[c])
}

func (b *Bitmap) chunk(c int) (Selection, []uint64, int) { return nil, b.chunks[c], int(b.counts[c]) }

// chunkLen returns the number of rows chunk c of src selects.
func chunkLen(src Source, c int) int {
	_, _, n := src.chunk(c)
	return n
}

// batchWords is the number of words a packed chunk is decoded by at a
// time: 1 024 rows, 4 KiB of row ids, which stay in L1 between the
// decode and the loop that reads them.
const batchWords = 16

// eachRows is the one per-chunk loop shape of the gathers and counts:
// it hands fn chunk c's rows, ascending, in batches — a row-id chunk
// whole, a packed chunk batchWords words at a time, decoded by set-bit
// iteration into pooled scratch. fn is called once per batch, so the
// row loop inside it makes no call per row; it must not retain rows.
func eachRows(src Source, c int, fn func(rows Selection)) {
	rows, words, _ := src.chunk(c)
	if words == nil {
		if len(rows) > 0 {
			fn(rows)
		}
		return
	}
	buf := int32Scratch.Get(batchWords << 6)
	base := int32(c * src.ChunkRows())
	for lo := 0; lo < len(words); lo += batchWords {
		hi := min(lo+batchWords, len(words))
		if n := decodeWords(*buf, words[lo:hi], base+int32(lo)<<6); n > 0 {
			fn((*buf)[:n])
		}
	}
	int32Scratch.Put(buf)
}

// RowBatches hands fn every row src selects, ascending, chunk by chunk
// in eachRows' batches, on the calling goroutine. fn must not retain
// rows.
func RowBatches(src Source, fn func(rows Selection)) {
	for c := 0; c < src.NumChunks(); c++ {
		eachRows(src, c, fn)
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

// Restrict returns src with every clean chunk emptied, in src's own
// form: the dirty-chunk portion of a parent, for narrowing a
// re-evaluation or a recount to the rows a mutation could have
// affected. len(dirty) must be src.NumChunks().
func Restrict(src Source, dirty []bool) Source {
	b, ok := src.(*Bitmap)
	if !ok {
		return RestrictChunked(src.(*ChunkedSelection), dirty)
	}
	out := newBitmapShell(b.nRows, b.chunkRows, len(b.chunks))
	for c, words := range b.chunks {
		if dirty[c] {
			out.setChunk(c, words, int(b.counts[c]))
			out.ones += int(b.counts[c])
		}
	}
	return out
}
