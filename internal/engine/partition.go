package engine

// The partition driver. A CUT's children are its parent's selection
// narrowed by one piece each, all on the cut's column; filtering the
// parent once per piece costs a driver call, a verdict pass and a
// scratch round trip per piece. The partition driver makes one pass.
// Per chunk it runs every piece's zone verdict, hands a piece the
// chunk by reference when its verdict takes it and nothing when it
// skips, and scans the pieces left into one scratch buffer. A binary
// cut's two pieces share one row loop: each row and its value are
// loaded once, then each piece stores the row at its own cursor and
// advances the cursor by its own 0/1 test. Any other scan runs each
// piece's own kernel in turn (a loop over k pieces' tests per row
// runs slower than k separate kernels). Each piece keeps its own test
// — nothing assumes the pieces are disjoint or cover the parent — so
// child i is exactly FilterChunked(parent, preds[i]), NaN rows
// included: they match every float range and no float set.

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
// where every row matched. pack, when non-nil, is aligned with preds:
// the returned bitmaps then hold, for each pack[i] set, child i's
// bitmap, equal to NewBitmapChunked of the child, and nil for every
// other piece. A chunk's words are packed in the chunk's own task,
// right after the kernel wrote its matches and while they are still
// in cache. The metrics hook counts what one filter per pred would: a
// VectorKernels per pred that can match, and one verdict per such
// pred per non-empty chunk.
func PartitionChunked(cs *ChunkedSelection, preds []Pred, pack []bool) ([]*ChunkedSelection, []*Bitmap) {
	nc := cs.NumChunks()
	m := metricsHook.Load()
	segs := make([][]Selection, len(preds))
	live := make([]int, 0, len(preds))
	for i, p := range preds {
		if p.none {
			continue
		}
		m.VectorKernels.Inc()
		segs[i] = make([]Selection, nc)
		live = append(live, i)
	}
	var bms []*Bitmap
	if pack != nil {
		bms = make([]*Bitmap, len(preds))
		for i := range bms {
			if pack[i] {
				bms[i] = newBitmapShell(cs.nRows, cs.chunkRows, nc)
			}
		}
	}
	if len(live) > 0 {
		forEachSeg(cs, func(c int) { partitionChunk(cs.Seg(c), c, preds, live, segs, bms, m) })
	}
	out := make([]*ChunkedSelection, len(preds))
	for i := range preds {
		if segs[i] == nil {
			out[i] = emptyLike(cs)
		} else {
			out[i] = NewChunkedSelection(cs.nRows, cs.chunkRows, segs[i])
		}
		if bms != nil && bms[i] != nil {
			bms[i].ones = out[i].Len()
		}
	}
	return out, bms
}

// partitionChunk is one chunk's task: the verdicts, one scratch buffer
// holding every scanning piece's output, the shared row loop, the
// exact-length copies and the words of every bitmap in bms.
func partitionChunk(seg Selection, c int, preds []Pred, live []int, segs [][]Selection, bms []*Bitmap, m *Metrics) {
	if len(seg) == 0 {
		return
	}
	var scanArr [partInline]int
	scan := scanArr[:0]
	for _, i := range live {
		v := preds[i].verdict(c)
		m.countVerdict(v)
		switch v {
		case chunkTake:
			segs[i][c] = seg
		case chunkScan:
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
			segs[i][c] = exactSeg(seg, outs[j][:ns[j]])
		}
		int32Scratch.Put(buf)
	}
	if bms != nil {
		for _, i := range live {
			if s := segs[i][c]; len(s) > 0 && bms[i] != nil {
				bms[i].packChunk(c, s)
			}
		}
	}
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
