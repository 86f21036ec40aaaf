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
//
// The parent is a Source in either form, dispatched once per chunk. A
// packed parent chunk is cut from its words and its row ids are never
// built: a taken piece shares the parent's words, a scanned piece
// builds its child words from them word by word (packPieces), and a
// piece wanted as row ids decodes them from its own child words.

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

// PartitionChunked narrows src by each of preds — predicates over one
// column — in one pass, returning child i equal to FilterChunked(src,
// preds[i]): exact-length segments, or a row-id parent's own segment
// by reference where every row matched. pack, when non-nil, is aligned
// with preds and marks the pieces wanted only word-packed: for each
// pack[i] set, the returned bitmaps hold child i's bitmap, equal to
// NewBitmapChunked of the child and carrying its Count, and the
// returned children hold nil — a packed piece's matches go from the
// scratch buffer (or, for a taken chunk, the parent's segment or
// words) straight into words, with no exact-length copy. Every other
// piece has a child and a nil bitmap. Bitmap.Chunked builds a packed
// child's row ids when a caller needs them. A packed parent is cut
// from its words (partition.words) and its row ids are never built. The
// metrics hook counts what one filter per pred would: a VectorKernels
// per pred that can match, and one verdict per such pred per non-empty
// chunk.
func PartitionChunked(src Source, preds []Pred, pack []bool) ([]*ChunkedSelection, []*Bitmap) {
	nRows, chunkRows, nc := src.NumRows(), src.ChunkRows(), src.NumChunks()
	m := metricsHook.Load()
	var bms []*Bitmap
	var ones []atomic.Int64
	if pack != nil {
		bms = make([]*Bitmap, len(preds))
		ones = make([]atomic.Int64, len(preds))
		for i := range bms {
			if pack[i] {
				bms[i] = newBitmapShell(nRows, chunkRows, nc)
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
		part := &partition{preds: preds, live: live, segs: segs, bms: bms, ones: ones, m: m, nRows: nRows, chunkRows: chunkRows}
		forEachSeg(src, func(c int) {
			if rows, words, n := src.chunk(c); words != nil {
				part.words(words, n, c)
			} else {
				part.rows(rows, c)
			}
		})
	}
	out := make([]*ChunkedSelection, len(preds))
	for i := range preds {
		switch {
		case bms != nil && bms[i] != nil:
			bms[i].ones = int(ones[i].Load())
		case segs[i] == nil:
			out[i] = emptyLike(src)
		default:
			out[i] = NewChunkedSelection(nRows, chunkRows, segs[i])
		}
	}
	return out, bms
}

// partition is one PartitionChunked pass: the pieces, the outputs
// every chunk's task fills — row-id children in segs, packed children
// in bms with their counts in ones — and the metrics hook.
type partition struct {
	preds            []Pred
	live             []int
	segs             [][]Selection
	bms              []*Bitmap
	ones             []atomic.Int64
	m                *Metrics
	nRows, chunkRows int
}

// packed reports whether piece i is wanted only word-packed.
func (p *partition) packed(i int) bool { return p.bms != nil && p.bms[i] != nil }

// rows is one row-id parent chunk's task: the verdicts, one scratch buffer
// holding every scanning piece's output, the shared row loop, and each
// piece's matches either copied out at exact length or, for a piece
// with a bitmap in bms, packed into its words (the count added to
// ones[i]). A contiguous parent segment — a whole chunk of an
// unconstrained context, or a range on the column the table is
// clustered by — is cut as the run of words it fills when a piece is
// packed, so the word kernels test it 64 rows at a time and a taken
// packed piece shares its words.
func (p *partition) rows(seg Selection, c int) {
	if len(seg) == 0 {
		return
	}
	preds, segs, bms, ones := p.preds, p.segs, p.bms, p.ones
	if bms != nil && int(seg[len(seg)-1]-seg[0]) == len(seg)-1 {
		words := make([]uint64, (min(p.chunkRows, p.nRows-c*p.chunkRows)+63)>>6)
		p.words(words, setSegBits(words, seg, int32(c*p.chunkRows)), c)
		return
	}
	keep := func(i int, s, matched Selection) {
		if !p.packed(i) {
			segs[i][c] = exactSeg(s, matched)
		} else if len(matched) > 0 {
			ones[i].Add(int64(bms[i].packChunk(c, matched)))
		}
	}
	var scanArr [partInline]int
	scan := scanArr[:0]
	for _, i := range p.live {
		v := preds[i].verdict(c)
		p.m.countVerdict(v)
		switch v {
		case chunkTake:
			keep(i, seg, seg)
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
			keep(i, seg, outs[j][:ns[j]])
		}
		int32Scratch.Put(buf)
	}
}

// denseWordBits is the popcount from which a scanned piece tests a
// packed parent word's 64 rows at once — the word kernel's result
// masked by the parent word — rather than iterating its set bits. Half
// the parent words of a drill-down hold at most 8 bits while a third of
// its parent rows sit in full words, so neither kernel alone serves
// both; BenchmarkPartitionSource measures the crossover.
const denseWordBits = 32

// words is the task of a chunk the parent holds as words — a packed
// parent's, or a contiguous row-id segment's run — pw chunk c's words,
// holding n rows. A taken piece shares pw when packed and decodes it
// when not. A scanned piece with a shared row test builds its child
// words from pw word by word (packPieces) into one scratch buffer; a
// packed piece's are copied out, an unpacked piece's decoded at exact
// length, so its rows come from its own words only. An opaque piece
// runs its row kernel over the chunk's rows, decoded into scratch once
// for all of them.
func (p *partition) words(pw []uint64, n, c int) {
	preds := p.preds
	base := c * p.chunkRows
	// The words a scanned piece may test 64 at a time: those whose 64
	// rows are all in the chunk and the table.
	full := min(p.chunkRows, p.nRows-base) >> 6
	var scanArr, opaqueArr [partInline]int
	scan, opaque := scanArr[:0], opaqueArr[:0]
	for _, i := range p.live {
		v := preds[i].verdict(c)
		p.m.countVerdict(v)
		switch {
		case v == chunkTake:
			p.keepWords(i, c, base, pw, n, true)
		case v != chunkScan:
		case preds[i].test.kind == testOpaque:
			opaque = append(opaque, i)
		default:
			scan = append(scan, i)
		}
	}
	if len(scan) > 0 {
		nw := len(pw)
		buf := uint64Scratch.Get(len(scan) * nw)
		var outArr [partInline][]uint64
		var nsArr [partInline]int
		outs, ns := outArr[:0], nsArr[:0]
		for j := range scan {
			outs = append(outs, (*buf)[j*nw:(j+1)*nw:(j+1)*nw])
			ns = append(ns, 0)
		}
		packPieces(preds, scan, pw, base, full, outs, ns)
		for j, i := range scan {
			p.keepWords(i, c, base, outs[j], ns[j], false)
		}
		uint64Scratch.Put(buf)
	}
	if len(opaque) > 0 {
		buf := int32Scratch.Get((1 + len(opaque)) * n)
		rows := (*buf)[:n:n]
		decodeWords(rows, pw, int32(base))
		for j, i := range opaque {
			out := (*buf)[(j+1)*n : (j+2)*n : (j+2)*n]
			matched := out[:preds[i].scan(rows, out)]
			switch {
			case len(matched) == 0:
			case p.packed(i):
				p.ones[i].Add(int64(p.bms[i].packChunk(c, matched)))
			default:
				p.segs[i][c] = exactSeg(nil, matched)
			}
		}
		int32Scratch.Put(buf)
	}
}

// keepWords stores piece i's child words of chunk c, n of their bits
// set: a packed piece keeps the words — its own copy unless shared, the
// parent's words a taken chunk shares — and an unpacked piece their
// rows at exact length. A piece with no row in the chunk keeps nothing.
func (p *partition) keepWords(i, c, base int, words []uint64, n int, shared bool) {
	switch {
	case n == 0:
	case !p.packed(i):
		p.segs[i][c] = decodeSeg(words, n, int32(base))
	default:
		if !shared {
			own := make([]uint64, len(words))
			copy(own, words)
			words = own
		}
		p.bms[i].setChunk(c, words, n)
		p.ones[i].Add(int64(n))
	}
}

// packPieces builds the child words of the pieces in scan (indices
// into preds) from a packed parent chunk's words pw, writing piece
// scan[j]'s to outs[j] and their count to ns[j]. The pieces of one cut
// share a column, so every scanned piece has the one shared test kind,
// and they run two at a time through the two-piece word kernels: each
// loads a row's value once and builds both child words in registers. A
// lone last piece runs paired with itself. Each parent word picks its
// kernel by density (isDense): a dense word is tested whole, eight
// rows per step, and masked by the parent word; a sparser word tests
// its set bits one by one.
func packPieces(preds []Pred, scan []int, pw []uint64, base, full int, outs [][]uint64, ns []int) {
	for j := 0; j < len(scan); j += 2 {
		k := min(j+1, len(scan)-1)
		a, b := &preds[scan[j]].test, &preds[scan[k]].test
		switch a.kind {
		case testIntRange:
			ns[j], ns[k] = packIntRange2(a.ints, a.ispan, b.ispan, pw, base, full, outs[j], outs[k])
		case testFloatRange:
			ns[j], ns[k] = packFloatRange2(a.floats, a.fspan, b.fspan, pw, base, full, outs[j], outs[k])
		default:
			ns[j], ns[k] = packCodeSet2(a.codes, a.want, b.want, pw, base, full, outs[j], outs[k])
		}
	}
}

// isDense reports whether parent word wi, holding w, is tested whole:
// it has at least denseWordBits bits and all its rows are in the table
// (wi < full).
func isDense(wi, full int, w uint64) bool {
	return wi < full && ones(w) >= denseWordBits
}

// ones is bits.OnesCount64 as a branch-free SWAR sum: without the
// intrinsic's fallback call the word kernels make no call, so their
// loop state stays in registers.
func ones(w uint64) int {
	w -= w >> 1 & 0x5555555555555555
	w = w&0x3333333333333333 + w>>2&0x3333333333333333
	w = (w + w>>4) & 0x0f0f0f0f0f0f0f0f
	return int(w * 0x0101010101010101 >> 56)
}

// The two-piece word kernels build the child words of pieces a and b
// from the parent words pw — word i of each is pw[i] narrowed to the
// rows its test matches, the first of them row base — and return their
// counts; outA and outB may be the same slice when a and b are the
// same test. They make no call, so their loop state stays in
// registers, and like the two-piece row loops they stay out of line.

//go:noinline
func packIntRange2(vals []int64, a, b intSpan, pw []uint64, base, full int, outA, outB []uint64) (na, nb int) {
	aLo, aSpan, bLo, bSpan := a.lo, a.span, b.lo, b.span
	outA, outB = outA[:len(pw)], outB[:len(pw)]
	for wi, w := range pw {
		lo := base + wi<<6
		var xa, xb uint64
		if isDense(wi, full, w) {
			for j := 0; j < 64; j += 8 {
				x := vals[lo+j : lo+j+8 : lo+j+8]
				xa |= (uint64(b2i(uint64(x[0]-aLo) <= aSpan)) |
					uint64(b2i(uint64(x[1]-aLo) <= aSpan))<<1 |
					uint64(b2i(uint64(x[2]-aLo) <= aSpan))<<2 |
					uint64(b2i(uint64(x[3]-aLo) <= aSpan))<<3 |
					uint64(b2i(uint64(x[4]-aLo) <= aSpan))<<4 |
					uint64(b2i(uint64(x[5]-aLo) <= aSpan))<<5 |
					uint64(b2i(uint64(x[6]-aLo) <= aSpan))<<6 |
					uint64(b2i(uint64(x[7]-aLo) <= aSpan))<<7) << j
				xb |= (uint64(b2i(uint64(x[0]-bLo) <= bSpan)) |
					uint64(b2i(uint64(x[1]-bLo) <= bSpan))<<1 |
					uint64(b2i(uint64(x[2]-bLo) <= bSpan))<<2 |
					uint64(b2i(uint64(x[3]-bLo) <= bSpan))<<3 |
					uint64(b2i(uint64(x[4]-bLo) <= bSpan))<<4 |
					uint64(b2i(uint64(x[5]-bLo) <= bSpan))<<5 |
					uint64(b2i(uint64(x[6]-bLo) <= bSpan))<<6 |
					uint64(b2i(uint64(x[7]-bLo) <= bSpan))<<7) << j
			}
			xa &= w
			xb &= w
			na += ones(xa)
			nb += ones(xb)
		} else {
			for ; w != 0; w &= w - 1 {
				j := bits.TrailingZeros64(w)
				v := vals[lo+j]
				ha, hb := b2i(uint64(v-aLo) <= aSpan), b2i(uint64(v-bLo) <= bSpan)
				xa |= uint64(ha) << j
				xb |= uint64(hb) << j
				na += ha
				nb += hb
			}
		}
		outA[wi], outB[wi] = xa, xb
	}
	return na, nb
}

// packFloatRange2 keeps a NaN row in both pieces, as partFloatRange2
// does.
//
//go:noinline
func packFloatRange2(vals []float64, a, b floatSpan, pw []uint64, base, full int, outA, outB []uint64) (na, nb int) {
	aLo, aSpan, bLo, bSpan := a.lo, a.span, b.lo, b.span
	outA, outB = outA[:len(pw)], outB[:len(pw)]
	for wi, w := range pw {
		lo := base + wi<<6
		var xa, xb uint64
		if isDense(wi, full, w) {
			for j := 0; j < 64; j += 8 {
				x := vals[lo+j : lo+j+8 : lo+j+8]
				k0, k1, k2, k3 := floatKey(x[0]), floatKey(x[1]), floatKey(x[2]), floatKey(x[3])
				k4, k5, k6, k7 := floatKey(x[4]), floatKey(x[5]), floatKey(x[6]), floatKey(x[7])
				nan := uint64(b2i(x[0] != x[0]) | b2i(x[1] != x[1])<<1 | b2i(x[2] != x[2])<<2 | b2i(x[3] != x[3])<<3 |
					b2i(x[4] != x[4])<<4 | b2i(x[5] != x[5])<<5 | b2i(x[6] != x[6])<<6 | b2i(x[7] != x[7])<<7)
				xa |= (nan | uint64(b2i(k0-aLo <= aSpan)) |
					uint64(b2i(k1-aLo <= aSpan))<<1 |
					uint64(b2i(k2-aLo <= aSpan))<<2 |
					uint64(b2i(k3-aLo <= aSpan))<<3 |
					uint64(b2i(k4-aLo <= aSpan))<<4 |
					uint64(b2i(k5-aLo <= aSpan))<<5 |
					uint64(b2i(k6-aLo <= aSpan))<<6 |
					uint64(b2i(k7-aLo <= aSpan))<<7) << j
				xb |= (nan | uint64(b2i(k0-bLo <= bSpan)) |
					uint64(b2i(k1-bLo <= bSpan))<<1 |
					uint64(b2i(k2-bLo <= bSpan))<<2 |
					uint64(b2i(k3-bLo <= bSpan))<<3 |
					uint64(b2i(k4-bLo <= bSpan))<<4 |
					uint64(b2i(k5-bLo <= bSpan))<<5 |
					uint64(b2i(k6-bLo <= bSpan))<<6 |
					uint64(b2i(k7-bLo <= bSpan))<<7) << j
			}
			xa &= w
			xb &= w
			na += ones(xa)
			nb += ones(xb)
		} else {
			for ; w != 0; w &= w - 1 {
				j := bits.TrailingZeros64(w)
				v := vals[lo+j]
				k, nan := floatKey(v), b2i(v != v)
				ha, hb := b2i(k-aLo <= aSpan)|nan, b2i(k-bLo <= bSpan)|nan
				xa |= uint64(ha) << j
				xb |= uint64(hb) << j
				na += ha
				nb += hb
			}
		}
		outA[wi], outB[wi] = xa, xb
	}
	return na, nb
}

//go:noinline
func packCodeSet2(codes []uint32, a, b codeSet, pw []uint64, base, full int, outA, outB []uint64) (na, nb int) {
	b = b[:len(a)]
	outA, outB = outA[:len(pw)], outB[:len(pw)]
	for wi, w := range pw {
		lo := base + wi<<6
		var xa, xb uint64
		if isDense(wi, full, w) {
			for j := 0; j < 64; j += 8 {
				x := codes[lo+j : lo+j+8 : lo+j+8]
				w0, w1, w2, w3, w4, w5, w6, w7 := x[0]>>6, x[1]>>6, x[2]>>6, x[3]>>6, x[4]>>6, x[5]>>6, x[6]>>6, x[7]>>6
				xa |= (a[w0]>>(x[0]&63)&1 |
					a[w1]>>(x[1]&63)&1<<1 |
					a[w2]>>(x[2]&63)&1<<2 |
					a[w3]>>(x[3]&63)&1<<3 |
					a[w4]>>(x[4]&63)&1<<4 |
					a[w5]>>(x[5]&63)&1<<5 |
					a[w6]>>(x[6]&63)&1<<6 |
					a[w7]>>(x[7]&63)&1<<7) << j
				xb |= (b[w0]>>(x[0]&63)&1 |
					b[w1]>>(x[1]&63)&1<<1 |
					b[w2]>>(x[2]&63)&1<<2 |
					b[w3]>>(x[3]&63)&1<<3 |
					b[w4]>>(x[4]&63)&1<<4 |
					b[w5]>>(x[5]&63)&1<<5 |
					b[w6]>>(x[6]&63)&1<<6 |
					b[w7]>>(x[7]&63)&1<<7) << j
			}
			xa &= w
			xb &= w
			na += ones(xa)
			nb += ones(xb)
		} else {
			for ; w != 0; w &= w - 1 {
				j := bits.TrailingZeros64(w)
				code := codes[lo+j]
				cw, bit := code>>6, code&63
				ha, hb := a[cw]>>bit&1, b[cw]>>bit&1
				xa |= ha << j
				xb |= hb << j
				na += int(ha)
				nb += int(hb)
			}
		}
		outA[wi], outB[wi] = xa, xb
	}
	return na, nb
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
