package engine

import (
	"math/bits"
	"sync/atomic"
)

// The partition driver. A CUT's children are its parent's selection
// narrowed by one piece each, all on the cut's column; filtering the
// parent once per piece costs a driver call, a verdict pass and a
// scratch round trip per piece. The partition driver makes one pass.
// Per chunk it runs every piece's zone verdict, hands a piece the
// chunk by reference when its verdict takes it and nothing when it
// skips, and scans the pieces left into one scratch buffer. A piece
// the caller wants only word-packed has its taken chunk or its
// matches packed into bitmap words instead, and never gets row ids.
// A binary cut's two pieces share one row loop: each row and its
// value are loaded once, then each piece stores the row at its own
// cursor and advances the cursor by its own 0/1 test. Any other scan
// runs each piece's own kernel in turn (a loop over k pieces' tests
// per row runs slower than k separate kernels). Each piece keeps its
// own test — nothing assumes the pieces are disjoint or cover the
// parent — so child i is exactly FilterChunked(parent, preds[i]), NaN
// rows included: they match every float range and no float set.

// testKind names the form of a Pred's row test the two-piece
// partition kernels share. testOpaque has only its own scan kernel:
// int/float/bool sets, a range no int64 satisfies, and the
// summary-less string range.
type testKind uint8

const (
	testOpaque testKind = iota
	testIntRange
	testFloatRange
	testCodeSet
)

// rowTest is a Pred's row test in shared form: the column's backing
// slice plus the operand its kind resolves to.
type rowTest struct {
	kind   testKind
	ints   []int64
	floats []float64
	codes  []uint32
	ispan  intSpan
	fspan  floatSpan
	want   codeSet
}

// partInline is the piece count whose per-chunk bookkeeping stays on
// the stack; wider partitions spill it to the heap.
const partInline = 8

// PartitionChunked narrows cs by each of preds — predicates over one
// column — in one pass, returning child i equal to FilterChunked(cs,
// preds[i]): exact-length segments, or cs's own segment by reference
// where every row matched. pack, when non-nil, is aligned with preds
// and marks the pieces wanted only word-packed: for each pack[i] set,
// the returned bitmaps hold child i's bitmap, equal to
// NewBitmapChunked of the child and carrying its Count, and the
// returned children hold nil — a packed piece's matches go from the
// scratch buffer (or, for a taken chunk, the parent segment) straight
// into words, with no exact-length copy. Every other piece has a
// child and a nil bitmap. Bitmap.Chunked builds a packed child's row
// ids when a caller needs them. The metrics hook counts what one
// filter per pred would: a VectorKernels per pred that can match, and
// one verdict per such pred per non-empty chunk.
func PartitionChunked(cs *ChunkedSelection, preds []Pred, pack []bool) ([]*ChunkedSelection, []*Bitmap) {
	nc := cs.NumChunks()
	m := metricsHook.Load()
	var bms []*Bitmap
	var ones []atomic.Int64
	if pack != nil {
		bms = make([]*Bitmap, len(preds))
		ones = make([]atomic.Int64, len(preds))
		for i := range bms {
			if pack[i] {
				bms[i] = newBitmapShell(cs.nRows, cs.chunkRows, nc)
			}
		}
	}
	segs := make([][]Selection, len(preds))
	live := make([]int, 0, len(preds))
	for i, p := range preds {
		if p.none {
			continue
		}
		m.VectorKernels.Inc()
		if bms == nil || bms[i] == nil {
			segs[i] = make([]Selection, nc)
		}
		live = append(live, i)
	}
	if len(live) > 0 {
		forEachSeg(cs, func(c int) { partitionChunk(cs.Seg(c), c, preds, live, segs, bms, ones, m) })
	}
	out := make([]*ChunkedSelection, len(preds))
	for i := range preds {
		switch {
		case bms != nil && bms[i] != nil:
			bms[i].ones = int(ones[i].Load())
		case segs[i] == nil:
			out[i] = emptyLike(cs)
		default:
			out[i] = NewChunkedSelection(cs.nRows, cs.chunkRows, segs[i])
		}
	}
	return out, bms
}

// partitionChunk is one chunk's task: the verdicts, one scratch buffer
// holding every scanning piece's output, the shared row loop, and each
// piece's matches either copied out at exact length or, for a piece
// with a bitmap in bms, packed into its words (the count added to
// ones[i]) — straight from the values when the parent segment is one
// contiguous run.
func partitionChunk(seg Selection, c int, preds []Pred, live []int, segs [][]Selection, bms []*Bitmap, ones []atomic.Int64, m *Metrics) {
	if len(seg) == 0 {
		return
	}
	keep := func(i int, s, matched Selection) {
		if bms == nil || bms[i] == nil {
			segs[i][c] = exactSeg(s, matched)
		} else if len(matched) > 0 {
			ones[i].Add(int64(bms[i].packChunk(c, matched)))
		}
	}
	// A contiguous parent segment — a whole chunk of an unconstrained
	// context, or a range on the column the table is clustered by —
	// lets a packed piece with a shared row test set its words straight
	// from the values (packRun), with no row ids in between.
	run := bms != nil && int(seg[len(seg)-1]-seg[0]) == len(seg)-1
	var scanArr [partInline]int
	scan := scanArr[:0]
	for _, i := range live {
		v := preds[i].verdict(c)
		m.countVerdict(v)
		switch {
		case v == chunkTake:
			keep(i, seg, seg)
		case v != chunkScan:
		case run && bms[i] != nil && preds[i].test.kind != testOpaque:
			ones[i].Add(int64(bms[i].packRun(c, &preds[i].test, seg)))
		default:
			scan = append(scan, i)
		}
	}
	if len(scan) > 0 {
		n := len(seg)
		buf := int32Scratch.Get(len(scan) * n)
		var outArr [partInline]Selection
		var nsArr [partInline]int
		outs, ns := outArr[:0], nsArr[:0]
		for j := range scan {
			outs = append(outs, (*buf)[j*n:(j+1)*n:(j+1)*n])
			ns = append(ns, 0)
		}
		scanPieces(preds, scan, seg, outs, ns)
		for j, i := range scan {
			keep(i, seg, outs[j][:ns[j]])
		}
		int32Scratch.Put(buf)
	}
}

// packRun sets chunk c's words to the rows of run, a contiguous run of
// rows inside chunk c, that t matches, and returns their count; it
// allocates no words when none matches. Each 64-row word the run covers
// whole is computed in registers by a word kernel and stored once; the
// run's partial words at either end test row by row.
func (b *Bitmap) packRun(c int, t *rowTest, run Selection) int {
	words := make([]uint64, b.chunkWordCount(c))
	base := c * b.chunkRows
	n := 0
	for lo, hi := int(run[0]), int(run[len(run)-1])+1; lo < hi; {
		wi := (lo - base) >> 6
		end := min(base+(wi+1)<<6, hi)
		var w uint64
		if end-lo == 64 {
			w = t.word(lo)
		} else {
			for r := lo; r < end; r++ {
				w |= uint64(b2i(t.match(r))) << ((r - base) & 63)
			}
		}
		words[wi] = w
		n += bits.OnesCount64(w)
		lo = end
	}
	if n > 0 {
		b.chunks[c] = words
	}
	return n
}

// match is t's test of one row.
func (t *rowTest) match(r int) bool {
	switch t.kind {
	case testIntRange:
		return uint64(t.ints[r]-t.ispan.lo) <= t.ispan.span
	case testFloatRange:
		v := t.floats[r]
		return floatKey(v)-t.fspan.lo <= t.fspan.span || v != v
	default:
		code := t.codes[r]
		return t.want[code>>6]>>(code&63)&1 != 0
	}
}

// word returns t's matches among the 64 rows from lo as one word, bit
// j for row lo+j.
func (t *rowTest) word(lo int) uint64 {
	switch t.kind {
	case testIntRange:
		return intRangeWord(t.ints[lo:lo+64:lo+64], t.ispan)
	case testFloatRange:
		return floatRangeWord(t.floats[lo:lo+64:lo+64], t.fspan)
	default:
		return codeSetWord(t.codes[lo:lo+64:lo+64], t.want)
	}
}

// The word kernels test eight rows per step and shift each outcome to
// a constant position, so the word is built in registers without a
// variable shift or a store per row.

func intRangeWord(vals []int64, s intSpan) uint64 {
	lo, span := s.lo, s.span
	var w uint64
	for j := 0; j < 64; j += 8 {
		x := vals[j : j+8 : j+8]
		w |= (uint64(b2i(uint64(x[0]-lo) <= span)) |
			uint64(b2i(uint64(x[1]-lo) <= span))<<1 |
			uint64(b2i(uint64(x[2]-lo) <= span))<<2 |
			uint64(b2i(uint64(x[3]-lo) <= span))<<3 |
			uint64(b2i(uint64(x[4]-lo) <= span))<<4 |
			uint64(b2i(uint64(x[5]-lo) <= span))<<5 |
			uint64(b2i(uint64(x[6]-lo) <= span))<<6 |
			uint64(b2i(uint64(x[7]-lo) <= span))<<7) << j
	}
	return w
}

func floatRangeWord(vals []float64, s floatSpan) uint64 {
	lo, span := s.lo, s.span
	var w uint64
	for j := 0; j < 64; j += 8 {
		x := vals[j : j+8 : j+8]
		w |= (uint64(b2i(floatKey(x[0])-lo <= span)|b2i(x[0] != x[0])) |
			uint64(b2i(floatKey(x[1])-lo <= span)|b2i(x[1] != x[1]))<<1 |
			uint64(b2i(floatKey(x[2])-lo <= span)|b2i(x[2] != x[2]))<<2 |
			uint64(b2i(floatKey(x[3])-lo <= span)|b2i(x[3] != x[3]))<<3 |
			uint64(b2i(floatKey(x[4])-lo <= span)|b2i(x[4] != x[4]))<<4 |
			uint64(b2i(floatKey(x[5])-lo <= span)|b2i(x[5] != x[5]))<<5 |
			uint64(b2i(floatKey(x[6])-lo <= span)|b2i(x[6] != x[6]))<<6 |
			uint64(b2i(floatKey(x[7])-lo <= span)|b2i(x[7] != x[7]))<<7) << j
	}
	return w
}

func codeSetWord(codes []uint32, want codeSet) uint64 {
	var w uint64
	for j := 0; j < 64; j += 8 {
		x := codes[j : j+8 : j+8]
		w |= (want[x[0]>>6]>>(x[0]&63)&1 |
			want[x[1]>>6]>>(x[1]&63)&1<<1 |
			want[x[2]>>6]>>(x[2]&63)&1<<2 |
			want[x[3]>>6]>>(x[3]&63)&1<<3 |
			want[x[4]>>6]>>(x[4]&63)&1<<4 |
			want[x[5]>>6]>>(x[5]&63)&1<<5 |
			want[x[6]>>6]>>(x[6]&63)&1<<6 |
			want[x[7]>>6]>>(x[7]&63)&1<<7) << j
	}
	return w
}

// scanPieces runs one chunk's row loop for the pieces in scan
// (indices into preds), writing piece scan[j]'s matches into outs[j]
// and their count into ns[j]. Two pieces of one shared test kind —
// every binary cut of an int, date, float or string column — share
// one row loop; anything else (one scanning piece, wider cuts, set
// and bool pieces, opaque tests) runs each piece's own kernel in turn.
func scanPieces(preds []Pred, scan []int, seg Selection, outs []Selection, ns []int) {
	if len(scan) == 2 {
		a, b := &preds[scan[0]].test, &preds[scan[1]].test
		if a.kind == b.kind {
			switch a.kind {
			case testIntRange:
				ns[0], ns[1] = partIntRange2(a.ints, a.ispan, b.ispan, seg, outs[0], outs[1])
				return
			case testFloatRange:
				ns[0], ns[1] = partFloatRange2(a.floats, a.fspan, b.fspan, seg, outs[0], outs[1])
				return
			case testCodeSet:
				ns[0], ns[1] = partCodeSet2(a.codes, a.want, b.want, seg, outs[0], outs[1])
				return
			}
		}
	}
	for j, i := range scan {
		ns[j] = preds[i].scan(seg, outs[j])
	}
}

// partIntRange2 is the two-piece int range loop: every binary cut of
// an int or date column. The two-piece loops keep both cursors in
// registers — the loop-carried values — so they stay out of line (an
// inlined copy shares scanPieces' registers and spills the cursors)
// and copy the operands to locals and cut the outputs to len(seg),
// which lets one length serve every output bounds check.
//
//go:noinline
func partIntRange2(vals []int64, a, b intSpan, seg, outA, outB Selection) (na, nb int) {
	aLo, aSpan, bLo, bSpan := a.lo, a.span, b.lo, b.span
	outA, outB = outA[:len(seg)], outB[:len(seg)]
	for _, row := range seg {
		v := vals[row]
		outA[na] = row
		outB[nb] = row
		na += b2i(uint64(v-aLo) <= aSpan)
		nb += b2i(uint64(v-bLo) <= bSpan)
	}
	return na, nb
}

// partFloatRange2 is the two-piece float range loop; the key and the
// NaN test are computed once per row.
//
//go:noinline
func partFloatRange2(vals []float64, a, b floatSpan, seg, outA, outB Selection) (na, nb int) {
	aLo, aSpan, bLo, bSpan := a.lo, a.span, b.lo, b.span
	outA, outB = outA[:len(seg)], outB[:len(seg)]
	for _, row := range seg {
		v := vals[row]
		k, nan := floatKey(v), b2i(v != v)
		outA[na] = row
		outB[nb] = row
		na += b2i(k-aLo <= aSpan) | nan
		nb += b2i(k-bLo <= bSpan) | nan
	}
	return na, nb
}

// partCodeSet2 is the two-piece code-set loop: every binary cut of a
// string column. Both sets are sized to the dictionary, so one word
// index serves both; a dictionary of at most 64 codes — the common
// nominal column — keeps both sets in registers.
//
//go:noinline
func partCodeSet2(codes []uint32, a, b codeSet, seg, outA, outB Selection) (na, nb int) {
	b = b[:len(a)]
	outA, outB = outA[:len(seg)], outB[:len(seg)]
	if len(a) == 1 {
		a0, b0 := a[0], b[0]
		for _, row := range seg {
			code := codes[row] & 63
			outA[na] = row
			outB[nb] = row
			na += int(a0 >> code & 1)
			nb += int(b0 >> code & 1)
		}
		return na, nb
	}
	for _, row := range seg {
		code := codes[row]
		w, bit := code>>6, code&63
		outA[na] = row
		outB[nb] = row
		na += int(a[w] >> bit & 1)
		nb += int(b[w] >> bit & 1)
	}
	return na, nb
}
