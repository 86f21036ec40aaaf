package engine

import "math/bits"

// The partition driver. A CUT's children are its parent's selection
// narrowed by one piece each, all on the cut's column; filtering the
// parent once per piece costs a driver call, a verdict pass and a
// scratch round trip per piece. The partition driver makes one pass.
// Per chunk it runs every piece's zone verdict, hands a piece the
// parent's chunk as it is when its verdict takes it and nothing when it
// skips, and scans the pieces left in the parent chunk's own form: a
// row-id chunk through each piece's row kernel into one scratch buffer,
// a words chunk through each piece's word kernel (packPiece), which
// builds the child words word by word and never the chunk's row ids.
// Each child chunk is stored by the one chunk setter, which picks its
// form from its count.
//
// The cover rule. Without a promise every piece keeps its own test, so
// child i is exactly FilterChunked(parent, preds[i]), NaN rows
// included: they match every float range and no float set. A caller
// may promise that the pieces partition the parent — every parent row
// lies in exactly one piece. seg makes that promise for a pass that
// holds every child of one cut: the pieces of rangePieces span the
// extent's exact [min, max] with adjacent half-open ranges, and
// nominal pieces split the list of every value the extent holds. Under
// the promise, in each chunk where it holds, the last scanned piece is
// derived instead of tested: parent &^ others per word, or the
// parent's row ids minus the others' by one merge that loads no value;
// a lone scanned piece is the parent chunk, and a piece whose verdict
// takes the chunk settles it for every other piece. The promise holds
// in a chunk when every piece's test is shared there (rowTest.shared):
// an int/date range or a code set anywhere, a float range only over a
// chunk the zone map marks NaN-free — a NaN row matches every float
// range, so in a chunk holding one the pieces overlap and each keeps
// its test. Opaque tests — numeric and bool sets (the numeric-nominal
// fallback's pieces among them, which match no NaN row) and the
// summary-less string range — never derive, so a pass holding one
// scans every piece. Verdicts are computed and counted for every piece
// either way.

// testKind names the form of a Pred's row test the word kernels read.
// testOpaque has only its own row kernel: numeric and bool sets, a
// range no int64 satisfies, and the summary-less string range.
type testKind uint8

const (
	testOpaque testKind = iota
	testIntRange
	testCodeSet
)

// rowTest is a Pred's row test in shared form: the column's backing
// slice plus the operand its kind resolves to. For a float range
// (ispan.nan), which keeps NaN rows, chunkNaN is the zone map's NaN bit
// per chunk (nil without a zone map).
type rowTest struct {
	kind     testKind
	ints     []int64
	codes    []uint32
	ispan    intSpan
	want     codeSet
	chunkNaN []bool
}

// shared reports whether the test runs as a word kernel in chunk c,
// and so whether a promised cover may derive its rows there: always
// for int/date ranges and code sets; for a float range only in a chunk
// the zone map proves NaN-free, because the word kernel does not test
// for NaN's ordinal — in a chunk that may hold NaN a float range runs
// its row kernel, which does; never for an opaque test.
func (t *rowTest) shared(c int) bool {
	switch t.kind {
	case testIntRange:
		return !t.ispan.nan || t.chunkNaN != nil && !t.chunkNaN[c]
	case testCodeSet:
		return true
	}
	return false
}

// partInline is the piece count whose per-chunk bookkeeping stays on
// the stack; wider partitions spill it to the heap.
const partInline = 8

// PartitionChunked narrows src by each of preds — predicates over one
// column — in one pass, returning child i equal to FilterChunked(src,
// preds[i]), each chunk in the form its count picks (denseEnough). A
// chunk every row of which a piece keeps is the parent's container,
// shared. cover is the caller's promise that preds partition src (the
// cover rule above); with it the pass derives a piece in every chunk
// where the rule holds, and without it tests every piece. The metrics
// hook counts what one filter per pred would: a VectorKernels per pred
// that can match, and one verdict per such pred per non-empty chunk.
func PartitionChunked(src *ChunkedSelection, preds []Pred, cover bool) []*ChunkedSelection {
	m := metricsHook.Load()
	out := make([]*ChunkedSelection, len(preds))
	live := make([]int, 0, len(preds))
	for i, p := range preds {
		out[i] = emptyLike(src)
		if !p.none {
			m.VectorKernels.Inc()
			live = append(live, i)
		}
	}
	if len(live) > 0 {
		part := &partition{src: src, preds: preds, live: live, out: out, m: m, cover: cover}
		forEachSeg(src, part.chunk)
	}
	for _, cs := range out {
		cs.seal()
	}
	return out
}

// partition is one PartitionChunked pass: the parent, the pieces, the
// children every chunk's task fills, the metrics hook and the cover
// promise.
type partition struct {
	src   *ChunkedSelection
	preds []Pred
	live  []int
	out   []*ChunkedSelection
	m     *Metrics
	cover bool
}

// chunk is one parent chunk's task: the verdicts, then the scan of the
// pieces left — the last of them derived where the cover rule holds.
func (p *partition) chunk(c int) {
	ct := p.src.chunks[c]
	if ct.n == 0 {
		return
	}
	derive := p.cover
	for _, i := range p.live {
		derive = derive && p.preds[i].test.shared(c)
	}
	var scanArr [partInline]int
	scan, took := scanArr[:0], false
	for _, i := range p.live {
		v := p.preds[i].verdict(c)
		p.m.countVerdict(v)
		switch v {
		case chunkTake:
			p.out[i].take(c, ct)
			took = true
		case chunkScan:
			scan = append(scan, i)
		}
	}
	switch {
	case len(scan) == 0 || derive && took:
	case derive && len(scan) == 1:
		p.out[scan[0]].take(c, ct)
	case ct.words != nil:
		p.words(ct, c, scan, derive)
	default:
		p.rows(ct, c, scan, derive)
	}
}

// rows scans a row-id parent chunk: every piece in scan runs its row
// kernel into one scratch buffer — but the last, when derive is set,
// which keeps the parent's rows no other piece kept — and each piece's
// matches are stored, the parent's container where every row matched.
func (p *partition) rows(ct container, c int, scan []int, derive bool) {
	seg, n := ct.rows, ct.n
	buf := int32Scratch.Get(len(scan) * n)
	var outArr [partInline]Selection
	var nsArr [partInline]int
	outs, ns := outArr[:0], nsArr[:0]
	for j := range scan {
		outs = append(outs, (*buf)[j*n:(j+1)*n:(j+1)*n])
		ns = append(ns, 0)
	}
	tested := len(scan) - b2i(derive)
	for j, i := range scan[:tested] {
		ns[j] = p.preds[i].scan(seg, outs[j])
	}
	if derive {
		rest := seg
		for j := range tested {
			rest = outs[tested][:exceptRows(rest, outs[j][:ns[j]], outs[tested])]
		}
		ns[tested] = len(rest)
	}
	for j, i := range scan {
		if ns[j] == n {
			p.out[i].take(c, ct)
		} else {
			p.out[i].set(c, outs[j][:ns[j]], nil, ns[j], false)
		}
	}
	int32Scratch.Put(buf)
}

// exceptRows writes the rows of seg that are not in other — a sorted
// subset of seg — to out and returns their count: one merge that loads
// no value. out may be seg itself. The merge holds other's next two
// rows and loads the one after them a row ahead, so no load sits on
// the loop's chain of compare and select. An index past other's end
// reads its last row, which a strictly ascending seg never meets again.
func exceptRows(seg, other, out Selection) int {
	if len(other) == 0 {
		return copy(out, seg)
	}
	last := len(other) - 1
	next, after := other[0], other[min(1, last)]
	n, j := 0, 0
	for _, row := range seg {
		ahead := other[min(j+2, last)]
		out[n] = row
		hit := b2i(row == next)
		n += 1 - hit
		j += hit
		if hit != 0 {
			next, after = after, ahead
		}
	}
	return n
}

// denseWordBits is the popcount from which a scanned piece tests a
// parent word's 64 rows at once — the word kernel's result
// masked by the parent word — rather than iterating its set bits. Half
// the parent words of a drill-down hold at most 8 bits while a third of
// its parent rows sit in full words, so neither kernel alone serves
// both; BenchmarkPartitionSource measures the crossover.
const denseWordBits = 32

// words scans a chunk the parent holds as words: a piece whose row
// test is shared in the chunk builds its child words from the parent's
// word by word (packPiece) into one scratch buffer, which the chunk
// setter copies or decodes; when derive is set the last piece's words
// are the parent's less the others' (every piece is then shared). Any
// other piece runs its row kernel over the chunk's rows, decoded into
// scratch once for all of them.
func (p *partition) words(ct container, c int, scan []int, derive bool) {
	pw, n := ct.words, ct.n
	base := p.src.chunkRows * c
	// The words a scanned piece may test 64 at a time: those whose 64
	// rows are all in the chunk and the table.
	full := p.src.chunkLen(c) >> 6
	var sharedArr, opaqueArr [partInline]int
	shared, opaque := sharedArr[:0], opaqueArr[:0]
	for _, i := range scan {
		if p.preds[i].test.shared(c) {
			shared = append(shared, i)
		} else {
			opaque = append(opaque, i)
		}
	}
	if len(shared) > 0 {
		nw := len(pw)
		buf := uint64Scratch.Get(len(shared) * nw)
		var outArr [partInline][]uint64
		var nsArr [partInline]int
		outs, ns := outArr[:0], nsArr[:0]
		for j := range shared {
			outs = append(outs, (*buf)[j*nw:(j+1)*nw:(j+1)*nw])
			ns = append(ns, 0)
		}
		tested := len(shared) - b2i(derive)
		for j, i := range shared[:tested] {
			ns[j] = packPiece(&p.preds[i].test, pw, base, full, outs[j])
		}
		if derive {
			// The last piece is the parent's words less the tested
			// pieces'. Under the cover the pieces are disjoint subsets
			// of the parent, so its rows number the parent's less theirs.
			rest, from := outs[tested], pw
			ns[tested] = n
			for j := range tested {
				o := outs[j][:len(from)]
				for wi, x := range from {
					rest[wi] = x &^ o[wi]
				}
				from = rest
				ns[tested] -= ns[j]
			}
		}
		for j, i := range shared {
			if ns[j] == n {
				p.out[i].take(c, ct)
			} else {
				p.out[i].set(c, nil, outs[j], ns[j], false)
			}
		}
		uint64Scratch.Put(buf)
	}
	if len(opaque) > 0 {
		buf := int32Scratch.Get((1 + len(opaque)) * n)
		rows := (*buf)[:n:n]
		decodeWords(rows, pw, int32(base))
		for j, i := range opaque {
			out := (*buf)[(j+1)*n : (j+2)*n : (j+2)*n]
			k := p.preds[i].scan(rows, out)
			if k == n {
				p.out[i].take(c, ct)
			} else {
				p.out[i].set(c, out[:k], nil, k, false)
			}
		}
		int32Scratch.Put(buf)
	}
}

// packPiece builds the child words of one piece with a shared row test
// from a words parent chunk's words pw into out, and returns their
// count. Each parent word picks its kernel by density (isDense): a
// dense word is tested whole, eight rows per step, and masked by the
// parent word; a sparser word tests its set bits one by one.
func packPiece(t *rowTest, pw []uint64, base, full int, out []uint64) int {
	switch t.kind {
	case testIntRange:
		return packIntRange(t.ints, t.ispan, pw, base, full, out)
	default:
		return packCodeSet(t.codes, t.want, pw, base, full, out)
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

// The word kernels build the child words of one piece from the
// parent words pw — word i is pw[i] narrowed to the rows its
// test matches, the first of them row base — and return their count.
// They make no call, so their loop state stays in registers, and they
// stay out of line.

//go:noinline
func packIntRange(vals []int64, a intSpan, pw []uint64, base, full int, out []uint64) (n int) {
	lo, span := a.lo, a.span
	out = out[:len(pw)]
	for wi, w := range pw {
		at := base + wi<<6
		var x uint64
		if isDense(wi, full, w) {
			for j := 0; j < 64; j += 8 {
				v := vals[at+j : at+j+8 : at+j+8]
				x |= (uint64(b2i(uint64(v[0]-lo) <= span)) |
					uint64(b2i(uint64(v[1]-lo) <= span))<<1 |
					uint64(b2i(uint64(v[2]-lo) <= span))<<2 |
					uint64(b2i(uint64(v[3]-lo) <= span))<<3 |
					uint64(b2i(uint64(v[4]-lo) <= span))<<4 |
					uint64(b2i(uint64(v[5]-lo) <= span))<<5 |
					uint64(b2i(uint64(v[6]-lo) <= span))<<6 |
					uint64(b2i(uint64(v[7]-lo) <= span))<<7) << j
			}
			x &= w
			n += ones(x)
		} else {
			for ; w != 0; w &= w - 1 {
				j := bits.TrailingZeros64(w)
				hit := b2i(uint64(vals[at+j]-lo) <= span)
				x |= uint64(hit) << j
				n += hit
			}
		}
		out[wi] = x
	}
	return n
}

//go:noinline
func packCodeSet(codes []uint32, a codeSet, pw []uint64, base, full int, out []uint64) (n int) {
	out = out[:len(pw)]
	for wi, w := range pw {
		at := base + wi<<6
		var x uint64
		if isDense(wi, full, w) {
			for j := 0; j < 64; j += 8 {
				v := codes[at+j : at+j+8 : at+j+8]
				x |= (a[v[0]>>6]>>(v[0]&63)&1 |
					a[v[1]>>6]>>(v[1]&63)&1<<1 |
					a[v[2]>>6]>>(v[2]&63)&1<<2 |
					a[v[3]>>6]>>(v[3]&63)&1<<3 |
					a[v[4]>>6]>>(v[4]&63)&1<<4 |
					a[v[5]>>6]>>(v[5]&63)&1<<5 |
					a[v[6]>>6]>>(v[6]&63)&1<<6 |
					a[v[7]>>6]>>(v[7]&63)&1<<7) << j
			}
			x &= w
			n += ones(x)
		} else {
			for ; w != 0; w &= w - 1 {
				j := bits.TrailingZeros64(w)
				code := codes[at+j]
				hit := a[code>>6] >> (code & 63) & 1
				x |= hit << j
				n += int(hit)
			}
		}
		out[wi] = x
	}
	return n
}
