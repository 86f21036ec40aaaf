package engine

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// Bit planes: a coded column's codes stored vertically, after
// BitWeaving/V (Li and Patel, "BitWeaving: fast scans for main memory
// data processing", SIGMOD 2013). Bit b of the codes of 64 rows is one
// word, so a range or set test over the codes costs a few word
// operations per code bit for all 64 rows at once, whatever the
// parent word's density, and counting a code's rows under a parent
// word is one popcount of the word and the code's minterm.
//
// Two kinds of column carry planes in every summary the table serves
// (buildSummary), refreshed per dirty chunk with the rest of the summary
// and never persisted:
//   - every numeric column, 8 planes of its rank codes (rank.go) per
//     word, beside the code bytes the cut's gather reads;
//   - a string column whose dictionary holds 2 to maxPlaneDict values,
//     P = bits.Len(dictLen−1) planes of its dictionary codes. A
//     dictionary that outgrows 2^P values rebuilds them, and one past
//     maxPlaneDict values drops them.
//
// The plane kernels serve every chunk of a parent (partition.go, the
// string value counts); a column without planes, and a cut or filter
// given no summary (zone pruning off), keep the value kernels.

// maxPlaneDict is the largest dictionary whose codes get planes: four
// planes a word.
const maxPlaneDict = 16

// bitPlanes is one column's codes, p bits each, bit-sliced: words[c]
// holds chunk c's, p words per 64-row word of the chunk, bit j of word
// wi*p+b being bit b of the code of the chunk's row 64·wi+j. Rows past
// the chunk's end hold a code no value has (rankNaN or 0) and are never
// selected.
type bitPlanes struct {
	p     int
	words [][]uint64
}

// chunk returns chunk c's planes when they cover nw words, nil when
// there are none: no planes, or planes of another layout than the
// selection read through them.
func (pl *bitPlanes) chunk(c, nw int) []uint64 {
	if pl == nil || c >= len(pl.words) || len(pl.words[c]) < nw*pl.p {
		return nil
	}
	return pl.words[c]
}

// transpose8 transposes the 8×8 bit matrix x whose byte i is row i:
// bit i of byte b of the result is bit b of byte i of x — eight codes
// in, their eight planes' eight bits out. Three rounds of block swaps
// (Warren, "Hacker's Delight", §7-3).
func transpose8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00aa00aa00aa00aa
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000cccc0000cccc
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000f0f0f0f0
	return x ^ t ^ t<<28
}

// wordPlanes returns the 8 planes of one word's 64 codes, given a byte
// each in eight groups, group i holding rows 8i to 8i+7: each group's
// 8×8 bit matrix is transposed, so that its byte b holds its eight
// rows' bit b, and then the 8×8 matrix of those bytes, so that word b
// gathers every group's byte b — plane b. Both transposes are three
// rounds of block swaps.
func wordPlanes(g *[8]uint64) [8]uint64 {
	w0, w1, w2, w3 := transpose8(g[0]), transpose8(g[1]), transpose8(g[2]), transpose8(g[3])
	w4, w5, w6, w7 := transpose8(g[4]), transpose8(g[5]), transpose8(g[6]), transpose8(g[7])
	w0, w1 = swapBlocks(w0, w1, 8, 0x00ff00ff00ff00ff)
	w2, w3 = swapBlocks(w2, w3, 8, 0x00ff00ff00ff00ff)
	w4, w5 = swapBlocks(w4, w5, 8, 0x00ff00ff00ff00ff)
	w6, w7 = swapBlocks(w6, w7, 8, 0x00ff00ff00ff00ff)
	w0, w2 = swapBlocks(w0, w2, 16, 0x0000ffff0000ffff)
	w1, w3 = swapBlocks(w1, w3, 16, 0x0000ffff0000ffff)
	w4, w6 = swapBlocks(w4, w6, 16, 0x0000ffff0000ffff)
	w5, w7 = swapBlocks(w5, w7, 16, 0x0000ffff0000ffff)
	w0, w4 = swapBlocks(w0, w4, 32, 0x00000000ffffffff)
	w1, w5 = swapBlocks(w1, w5, 32, 0x00000000ffffffff)
	w2, w6 = swapBlocks(w2, w6, 32, 0x00000000ffffffff)
	w3, w7 = swapBlocks(w3, w7, 32, 0x00000000ffffffff)
	return [8]uint64{w0, w1, w2, w3, w4, w5, w6, w7}
}

// swapBlocks exchanges, in every 2s-bit unit, the upper s-bit block of
// a with the lower s-bit block of b; mask holds the lower blocks.
func swapBlocks(a, b uint64, s uint, mask uint64) (uint64, uint64) {
	t := (a>>s ^ b) & mask
	return a ^ t<<s, b ^ t
}

// bytePlanes slices one chunk's rank codes, padded to whole words, into
// 8 planes per word.
func bytePlanes(codes []uint8) []uint64 {
	out := make([]uint64, len(codes)/8)
	for wi := range len(codes) / 64 {
		var g [8]uint64
		for i := range g {
			g[i] = binary.LittleEndian.Uint64(codes[wi*64+8*i:])
		}
		*(*[8]uint64)(out[wi*8:]) = wordPlanes(&g)
	}
	return out
}

// dictPlanes slices one chunk's dictionary codes, each below 2^p ≤ 16,
// into p planes per word, the codes packed a byte each.
func dictPlanes(codes []uint32, p int) []uint64 {
	out := make([]uint64, paddedLen(len(codes))/64*p)
	var tail [64]uint32
	for wi := range len(out) / p {
		word := codes[wi*64 : min(wi*64+64, len(codes))]
		if len(word) < 64 {
			copy(tail[:], word)
			word = tail[:]
		}
		var g [8]uint64
		for i := range g {
			c := word[8*i : 8*i+8 : 8*i+8]
			g[i] = uint64(c[0]) | uint64(c[1])<<8 | uint64(c[2])<<16 | uint64(c[3])<<24 |
				uint64(c[4])<<32 | uint64(c[5])<<40 | uint64(c[6])<<48 | uint64(c[7])<<56
		}
		planes := wordPlanes(&g)
		copy(out[wi*p:wi*p+p], planes[:p])
	}
	return out
}

// dictPlaneBits is the plane count of a dictionary of dictLen values,
// 0 when it gets none.
func dictPlaneBits(dictLen int) int {
	if dictLen < 2 || dictLen > maxPlaneDict {
		return 0
	}
	return bits.Len(uint(dictLen - 1))
}

// dictPlanesFor slices codes into planes of p bits, one task per chunk
// of the table: with old set and of p bits, a refresh, which keeps its
// planes for every chunk dirty leaves clean.
func (t *Table) dictPlanesFor(codes []uint32, p int, old *bitPlanes, dirty []bool) *bitPlanes {
	if old != nil && (old.p != p || dirty == nil) {
		old = nil
	}
	nc := t.NumChunks()
	pl := &bitPlanes{p: p, words: make([][]uint64, nc)}
	ForEachTask(nc, t.rows, func(c int) {
		if old != nil && !dirty[c] && c < len(old.words) {
			pl.words[c] = old.words[c]
			return
		}
		lo, hi := t.ChunkBounds(c)
		pl.words[c] = dictPlanes(codes[lo:hi], p)
	})
	return pl
}

// planeRange is a range over ordinals resolved against a column's rank
// codes. A code whose value interval lies inside the range is in, one
// outside it is out, and a code whose interval straddles a bound — the
// lower code lo or the upper code hi, unless exact on that side — is a
// boundary code, whose rows alone are tested by value. A side no
// number of the parent's chunk lies beyond is open: its compare is
// skipped. NaN's code, rankNaN, lies above every number's, so the
// upper compare, which drops it, stays in a chunk holding NaN.
type planeRange struct {
	// lo and hi hold bit b of the lower and the upper code at index b,
	// broadcast to a word.
	lo, hi [8]uint64
	// loExact (hiExact) is all ones when every number of code lo (hi)
	// lies inside the range on its lower (upper) side.
	loExact, hiExact uint64
	loOpen, hiOpen   bool
}

// newPlaneRange resolves s over rc's boundaries. Code k holds the
// numbers in [bounds[k−1], bounds[k]) — from the floor for code 0, to
// the ceiling for code rankBounds — so the codes of the range's bounds
// lo and hi are its lower and upper codes, exact when that interval
// starts at lo (ends just past hi) or the bound is the column's floor
// (ceiling), and open when, besides, it is code 0 (rankBounds).
func newPlaneRange(rc *rankCodes, s intSpan) planeRange {
	var pr planeRange
	floor, ceil := int64(math.MinInt64), int64(math.MaxInt64)
	if rc.nan {
		floor, ceil = floatOrdinal(math.Inf(-1)), floatOrdinal(math.Inf(1))
	}
	lo, hi := s.lo, s.hi()
	kl, kh := rc.rank(lo), rc.rank(hi)
	loExact := lo <= floor || kl > 0 && rc.bounds[kl-1] == lo
	hiExact := hi >= ceil || kh < rankBounds && rc.bounds[kh] == hi+1
	for b := range 8 {
		pr.lo[b], pr.hi[b] = -uint64(kl>>b&1), -uint64(kh>>b&1)
	}
	pr.loExact, pr.hiExact = -uint64(b2i(loExact)), -uint64(b2i(hiExact))
	pr.loOpen, pr.hiOpen = kl == 0 && loExact, kh == rankBounds && hiExact
	return pr
}

// inChunk returns the range as tested over chunk c, whose zone-map
// bounds are lo and hi and which holds NaN when nan is set: a side the
// chunk's numbers do not reach past is open there, but the upper side
// only in a chunk free of NaN.
func (pr planeRange) inChunk(s intSpan, lo, hi int64, nan bool) planeRange {
	pr.loOpen = pr.loOpen || s.lo <= lo
	pr.hiOpen = (pr.hiOpen || s.hi() >= hi) && !nan
	return pr
}

// planeLess compares 64 rows' codes, as their 8 planes p, with the code
// whose bits c holds, from the top plane down as BitWeaving/V does: a
// row stays equal to the code until the first bit where they differ,
// which decides its order. It returns the rows below the code and the
// rows equal to it. The planes are written out: a loop over them
// measured half as fast.
func planeLess(p, c *[8]uint64) (lt, eq uint64) {
	lt, eq = c[7]&^p[7], ^(p[7] ^ c[7])
	lt, eq = lt|eq&c[6]&^p[6], eq&^(p[6]^c[6])
	lt, eq = lt|eq&c[5]&^p[5], eq&^(p[5]^c[5])
	lt, eq = lt|eq&c[4]&^p[4], eq&^(p[4]^c[4])
	lt, eq = lt|eq&c[3]&^p[3], eq&^(p[3]^c[3])
	lt, eq = lt|eq&c[2]&^p[2], eq&^(p[2]^c[2])
	lt, eq = lt|eq&c[1]&^p[1], eq&^(p[1]^c[1])
	return lt | eq&c[0]&^p[0], eq &^ (p[0] ^ c[0])
}

// packPlaneRange is packIntRange over a chunk's rank-code planes pl:
// per nonzero parent word, the codes are compared with the lower code
// and the upper code, each unless its side is open, giving the rows
// inside and the rows of a boundary code; only the latter load their
// value. vals and s are the range's value test, the first row of pw
// base.
//
//go:noinline
func packPlaneRange(pl []uint64, t *planeRange, vals []int64, s intSpan, pw []uint64, base int, out []uint64) (n int) {
	out = out[:len(pw)]
	for wi, w := range pw {
		var x uint64
		if w != 0 {
			p := (*[8]uint64)(pl[wi*8:])
			var bnd uint64
			x = w
			if !t.loOpen {
				lt, eq := planeLess(p, &t.lo)
				bnd = eq &^ t.loExact
				x &^= lt | bnd
			}
			if !t.hiOpen {
				lt, eq := planeLess(p, &t.hi)
				x &= lt | eq&t.hiExact
				bnd |= eq &^ t.hiExact
			}
			at := base + wi<<6
			for bnd &= w; bnd != 0; bnd &= bnd - 1 {
				j := bits.TrailingZeros64(bnd)
				x |= uint64(b2i(uint64(vals[at+j]-s.lo) <= s.span)) << j
			}
			n += bits.OnesCount64(x)
		}
		out[wi] = x
	}
	return n
}

// planeSet is a code set resolved against dictionary-code planes: the
// OR of the listed codes' minterms, or its complement when the list
// holds the unwanted codes — whichever list is shorter. terms[i][b] is
// all ones where listed code i has bit b clear, so plane b XOR it is
// set exactly where a row agrees with the code in bit b; the bits past
// the column's planes are all ones, against a plane of zeros.
type planeSet struct {
	terms [][4]uint64
	flip  uint64
}

// newPlaneSet resolves want over a dictionary of dictLen values.
func newPlaneSet(want codeSet, dictLen int) planeSet {
	var in, out [][4]uint64
	for k := range uint32(dictLen) {
		var term [4]uint64
		for b := range term {
			term[b] = -uint64(k>>b&1 ^ 1)
		}
		if want.has(k) {
			in = append(in, term)
		} else {
			out = append(out, term)
		}
	}
	if len(out) < len(in) {
		return planeSet{terms: out, flip: ^uint64(0)}
	}
	return planeSet{terms: in}
}

// packPlaneSet is packCodeSet over a chunk's p dictionary-code planes
// pl: per nonzero parent word, the OR of the listed minterms.
//
//go:noinline
func packPlaneSet(pl []uint64, p int, t *planeSet, pw []uint64, out []uint64) (n int) {
	out = out[:len(pw)]
	for wi, w := range pw {
		var x uint64
		if w != 0 {
			var v [4]uint64
			copy(v[:], pl[wi*p:wi*p+p])
			var acc uint64
			for i := range t.terms {
				m := &t.terms[i]
				acc |= (v[0] ^ m[0]) & (v[1] ^ m[1]) & (v[2] ^ m[2]) & (v[3] ^ m[3])
			}
			x = (acc ^ t.flip) & w
			n += ones(x)
		}
		out[wi] = x
	}
	return n
}

// countPlanes adds to counts[k] the rows of code k under the words of a
// chunk whose p dictionary-code planes are pl, for every code k <
// len(counts) ≤ 2^p: per nonzero word, the minterms of every code are
// built a plane at a time, each splitting the terms so far in two, and
// counted by popcount. The splits are written out: loops over the terms
// measured twice as slow as counting each row's code.
func countPlanes(counts []int, pl []uint64, p int, words []uint64) {
	var sums [maxPlaneDict]int
	k := min(len(counts), 1<<p)
	for wi, w := range words {
		if w == 0 {
			continue
		}
		var t [maxPlaneDict]uint64
		v := pl[wi*p : wi*p+p]
		t[0], t[1] = w&^v[0], w&v[0]
		if p > 1 {
			t[0], t[1], t[2], t[3] = t[0]&^v[1], t[1]&^v[1], t[0]&v[1], t[1]&v[1]
		}
		if p > 2 {
			x := v[2]
			t[4], t[5], t[6], t[7] = t[0]&x, t[1]&x, t[2]&x, t[3]&x
			t[0], t[1], t[2], t[3] = t[0]&^x, t[1]&^x, t[2]&^x, t[3]&^x
		}
		if p > 3 {
			x := v[3]
			t[8], t[9], t[10], t[11], t[12], t[13], t[14], t[15] = t[0]&x, t[1]&x, t[2]&x, t[3]&x, t[4]&x, t[5]&x, t[6]&x, t[7]&x
			t[0], t[1], t[2], t[3], t[4], t[5], t[6], t[7] = t[0]&^x, t[1]&^x, t[2]&^x, t[3]&^x, t[4]&^x, t[5]&^x, t[6]&^x, t[7]&^x
		}
		for i, x := range t[:k] {
			sums[i] += bits.OnesCount64(x)
		}
	}
	for i := range k {
		counts[i] += sums[i]
	}
}
