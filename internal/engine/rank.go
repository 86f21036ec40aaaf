package engine

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"

	"charles/internal/stats"
)

// Rank codes are a numeric column's secondary index in rank space,
// after column imprints (Sidirourgos and Kersten, "Column imprints: a
// secondary index structure", SIGMOD 2013). Every summary of a
// numeric column (buildSummary) carries four things beside its zone map:
// rankBounds ascending boundaries in ordinal space, drawn from a
// strided sample of the column — the sample's distinct numbers
// themselves when it holds at most rankBounds+1 of them, so that each
// of those numbers starts a code of its own, and its equi-depth
// quantiles otherwise; one byte per row, the row's code — how many
// boundaries lie at or below its ordinal, or rankNaN for a float NaN;
// the same codes as 8 bit planes per 64-row word (planes.go), which
// the range kernels test; and per chunk, how many of its rows hold
// each code. A code is monotone in the value, so the rows of one
// code are one contiguous stretch of any extent's sorted order. Coding
// a number inside the sample's span reads a rank table of at most
// rankLUTBuckets buckets, which holds a narrow column's codes outright
// and leaves a wide one's at most a boundary or two to compare; only
// numbers past the span search the boundaries.
//
// A wide cut (rankKeys) adds up the extent's code counts — a chunk the
// extent takes whole from its stored counts, any other by counting its
// selected rows' codes — finds the codes holding the wanted ranks and,
// unless the zone map bounds the extent (every chunk it selects in is
// taken whole), the smallest number and the largest, and gathers keys
// for the rows of those codes only, testing eight codes per load. The
// ranks are selected exactly among the gathered keys, shifted by the
// rows of the codes below that were not gathered: the points are the
// full gather's, by the same order-statistic argument that lets counts
// stand in for values. The boundaries set only how many rows are
// gathered, never the answer. When the wanted codes hold more than
// rankShareMax of the extent (heavy duplicates, or a subset that lives
// in a code or two) the cut gathers every key instead, as a cut over
// no summary does. A narrow column's cut counts its values (countCut)
// before it would reach the codes.
//
// Codes cost two bytes per row per numeric column, the byte and its
// planes, and are derived, never persisted: they are built with the
// zone map, in the one read of each chunk that also yields its bounds
// and value counts (scanNumChunk), over a .chc file as over memory. A
// refresh
// after a mutation keeps the clean chunks' codes, planes and counts
// and recodes the dirty chunks against the fixed boundaries; values
// appended beyond the outer boundaries take code 0 or rankBounds.
const (
	// rankBounds is the number of boundaries: codes 0..rankBounds
	// are numbers, rankNaN is NaN.
	rankBounds = 254
	rankNaN    = 255
	// rankCells is the number of codes a byte holds, and the padded
	// length of the boundary table.
	rankCells = 256
	// rankSample is the most rows the boundaries are drawn from.
	rankSample = 1 << 14
	// rankLUTBuckets is the most buckets of the rank table.
	rankLUTBuckets = 1 << 12
)

// rankShareMax is the share of the extent's numbers past which the
// wanted codes' rows are gathered no faster than every row: a cut over
// more gathers every key instead. Binary cuts of 2^18 rows, one code
// holding a duplicated value, measured the rank path faster up to a
// share of 0.95, as fast at 0.99 over all rows, and 15% slower at 0.99
// over half of them. A variable only so that tests can hold the rank
// path to every extent (1: no share exceeds it).
var rankShareMax = 0.9

// rankCodes is one column's rank index: its boundaries, and its codes,
// their planes and code counts per chunk. It is immutable once built: a
// refresh shares the clean chunks' codes, planes and counts with the
// index it replaces.
type rankCodes struct {
	// bounds holds the rankBounds boundaries, ascending, then
	// MaxInt64 up to rankCells entries for the branch-free search.
	bounds [rankCells]int64
	// nan is set for a float column, whose nanOrdinal codes to rankNaN.
	nan bool
	// lut is the rank table over the sample's span [lutLo, lutLo +
	// lutSpan], cut into buckets of 2^lutShift numbers: lut[i] is the
	// rank of bucket i's first number.
	lut      []uint8
	lutLo    int64
	lutSpan  uint64
	lutShift uint
	// codes[c] holds chunk c's codes, row base+i at i, padded with
	// rankNaN to whole 64-row words.
	codes [][]uint8
	// planes holds the codes as 8 bit planes per word.
	planes bitPlanes
	// counts[c][k] is how many rows of chunk c hold code k.
	counts [][rankCells]uint32
}

// newRankCodes draws the boundaries from every ⌈n/rankSample⌉-th value
// of vals, NaN left out — its distinct numbers but the smallest when
// there are at most rankBounds+1 of them, the rest of the table
// MaxInt64, and its equi-depth quantiles otherwise — and a rank table
// over the sample's span, and returns an index with no chunk coded
// yet; nil when no value is a number.
func newRankCodes(vals []int64, nan bool) *rankCodes {
	step := max(len(vals)/rankSample, 1)
	sample := make([]int64, 0, len(vals)/step+1)
	for r := 0; r < len(vals); r += step {
		if v := vals[r]; !nan || v != nanOrdinal {
			sample = append(sample, v)
		}
	}
	if len(sample) == 0 {
		return nil
	}
	slices.Sort(sample)
	rc := &rankCodes{nan: nan, planes: bitPlanes{p: 8}}
	k := 0
	for i := 1; i < len(sample) && k <= rankBounds; i++ {
		if sample[i] != sample[i-1] {
			if k < rankBounds {
				rc.bounds[k] = sample[i]
			}
			k++
		}
	}
	if k > rankBounds {
		for i := range rankBounds {
			rc.bounds[i] = sample[(i+1)*len(sample)/(rankBounds+1)]
		}
		k = rankBounds
	}
	for ; k < rankCells; k++ {
		rc.bounds[k] = math.MaxInt64
	}
	rc.lutLo, rc.lutSpan = sample[0], uint64(sample[len(sample)-1])-uint64(sample[0])
	for rc.lutSpan>>rc.lutShift >= rankLUTBuckets {
		rc.lutShift++
	}
	rc.lut = make([]uint8, rc.lutSpan>>rc.lutShift+1)
	for i := range rc.lut {
		rc.lut[i] = rc.rank(int64(uint64(rc.lutLo) + uint64(i)<<rc.lutShift))
	}
	return rc
}

// code returns v's code: rankNaN for a float NaN, otherwise its rank
// (lutRank or, for a number outside the rank table's span, rank).
func (rc *rankCodes) code(v int64) uint8 {
	if u := uint64(v - rc.lutLo); u <= rc.lutSpan {
		return rc.lutRank(v, u>>rc.lutShift)
	}
	if rc.nan && v == nanOrdinal {
		return rankNaN
	}
	return rc.rank(v)
}

// lutRank returns the rank of v, a number in bucket i of the rank
// table: the bucket's own when it holds one number, otherwise at least
// the bucket's first number's and at most the next bucket's, found by
// halving the boundaries between the two — at most one in most
// buckets, which takes one flag and no branch.
func (rc *rankCodes) lutRank(v int64, i uint64) uint8 {
	lo := int(rc.lut[i])
	if rc.lutShift == 0 {
		return uint8(lo)
	}
	hi := rankBounds
	if i+1 < uint64(len(rc.lut)) {
		hi = int(rc.lut[i+1])
	}
	for hi-lo > 1 {
		if h := int(uint(lo+hi) >> 1); rc.bounds[h] <= v {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return uint8(lo + b2i(lo < hi && rc.bounds[lo] <= v))
}

// rank returns the number of boundaries at or below v, found by eight
// halvings of the padded table (a MaxInt64 v passes the padding too,
// hence the cap). The halvings are written out and add flags rather
// than branch: a branch on each comparison, taken half the time at
// random, measured five times slower.
func (rc *rankCodes) rank(v int64) uint8 {
	b, i := &rc.bounds, 0
	i += 128 * b2i(b[127] <= v)
	i += 64 * b2i(b[i+63] <= v)
	i += 32 * b2i(b[i+31] <= v)
	i += 16 * b2i(b[i+15] <= v)
	i += 8 * b2i(b[i+7] <= v)
	i += 4 * b2i(b[i+3] <= v)
	i += 2 * b2i(b[i+1] <= v)
	i += b2i(b[i] <= v)
	return uint8(min(i, rankBounds))
}

// vcountCells is the widest span whose per-value counts a chunk's
// summary keeps: the most cells stats.CountCells passes.
const vcountCells = 2048

// numChunk is what one read of a numeric chunk's ordinals yields
// (scanNumChunk): its bounds, NaN left out, whether it holds a NaN, its
// per-value counts over the bounds, and with rank codes its codes,
// padded with rankNaN to whole 64-row words, their planes and their
// counts.
type numChunk struct {
	lo, hi  int64
	nan     bool
	vcounts []uint32
	codes   []uint8
	planes  []uint64
	counts  [rankCells]uint32
}

// scanNumChunk reads one chunk's ordinals once, coding them when rc is
// set. The bounds leave NaN, the smallest ordinal, out, so an all-NaN
// chunk's are nanOrdinal, and only a chunk holding NaN (nan set: a
// float column) pays a second pass for its smallest number. Every value
// within vcountCells−1 of the chunk's first is counted as it is read:
// when the bounds span at most vcountCells values, and no more than the
// chunk has rows, and the chunk holds no NaN, those counts, cut to the
// bounds, are vcounts; otherwise vcounts is nil. A rank table of one
// number per bucket is read here directly, as code does not inline.
func scanNumChunk(rc *rankCodes, vals []int64, nan bool) (ch numChunk) {
	var win [2*vcountCells - 1]uint32
	base := vals[0] - (vcountCells - 1)
	lo, hi := vals[0], vals[0]
	if rc == nil {
		for _, v := range vals {
			lo, hi = min(lo, v), max(hi, v)
			if d := uint64(v - base); d < uint64(len(win)) {
				win[d]++
			}
		}
	} else {
		codes := make([]uint8, paddedLen(len(vals)))
		lut, llo := rc.lut, rc.lutLo
		if rc.lutShift != 0 {
			lut = nil
		}
		for i, v := range vals {
			lo, hi = min(lo, v), max(hi, v)
			if d := uint64(v - base); d < uint64(len(win)) {
				win[d]++
			}
			if u := uint64(v - llo); u < uint64(len(lut)) {
				codes[i] = lut[u]
			} else {
				codes[i] = rc.code(v)
			}
		}
		for i := len(vals); i < len(codes); i++ {
			codes[i] = rankNaN
		}
		ch.codes, ch.planes, ch.counts = codes, bytePlanes(codes), countRanks(codes[:len(vals)])
	}
	if nan && lo == nanOrdinal {
		ch.nan, lo = true, hi
		for _, v := range vals {
			if v != nanOrdinal {
				lo = min(lo, v)
			}
		}
	}
	ch.lo, ch.hi = lo, hi
	if cells, ok := stats.CountCells(stats.Int64Key(lo), stats.Int64Key(hi)); ok && cells <= min(vcountCells, len(vals)) && !ch.nan {
		ch.vcounts = slices.Clone(win[lo-base : lo-base+int64(cells)])
	}
	return ch
}

// countRanks counts each code of codes, in two sets of counters taken
// in turn, so that an increment does not wait on the one before, as a
// run of equal codes would make it.
func countRanks(codes []uint8) (counts [rankCells]uint32) {
	var odd [rankCells]uint32
	i := 0
	for ; i+1 < len(codes); i += 2 {
		counts[codes[i]]++
		odd[codes[i+1]]++
	}
	for ; i < len(codes); i++ {
		counts[codes[i]]++
	}
	for k, m := range odd {
		counts[k] += m
	}
	return counts
}

// paddedLen rounds a chunk's row count up to whole 64-row words.
func paddedLen(n int) int { return (n + 63) &^ 63 }

// rankKeys is IntCutChunked's gather over sum's rank codes: the keys of
// the rows whose codes hold the extent's equi-depth ranks, per chunk in
// pooled scratch, and the ranks the quantiles have among them (nil
// below arity 2), with the extent's bounds — the zone map's when the
// extent takes every chunk it selects in whole, otherwise gathered
// too, from the codes holding its smallest and its largest number —
// and whether it holds NaN (code rankNaN). An extent of NaN alone
// gathers nothing. ok is false,
// and nothing is gathered, when sum has no rank codes, when they do not
// describe src's chunks, or when the wanted codes hold more than
// rankShareMax of the extent. Callers must not retain any shard past
// release.
func rankKeys(col Numeric, src *ChunkedSelection, sum *ChunkSummary, arity int) (keys [][]uint64, lo, hi uint64, ranks []int, nan bool, release func(), ok bool) {
	if sum == nil || sum.rank == nil || len(sum.rank.codes) != src.NumChunks() {
		return nil, 0, 0, nil, false, nil, false
	}
	rc := sum.rank
	for c := range rc.codes {
		if len(rc.codes[c]) != paddedLen(src.chunkLen(c)) {
			return nil, 0, 0, nil, false, nil, false
		}
	}
	hists := rankHists(src, rc)
	var total [rankCells]int
	for _, h := range hists {
		if h != nil {
			for k, n := range h {
				total[k] += int(n)
			}
		}
	}
	nan = total[rankNaN] > 0
	var want [rankCells]bool
	first, last, n := -1, 0, 0
	for k, m := range total[:rankNaN] {
		if m > 0 {
			if first < 0 {
				first = k
			}
			last = k
		}
		n += m
	}
	if n == 0 {
		// NaN alone: nothing to bound or rank.
		return nil, math.MaxUint64, 0, nil, nan, func() {}, true
	}
	// An extent of whole chunks takes its bounds from the zone map;
	// any other gathers the codes holding its smallest and its largest
	// number.
	zlo, zhi, whole := wholeBounds(sum, src)
	if !whole {
		want[first], want[last] = true, true
	}
	// Each quantile rank r falls in the code k whose rows hold ranks
	// [below, below+total[k]); it is the rank r−below within k.
	var inCode []int
	if arity >= 2 {
		ranks = stats.EquiDepthRanks(n, arity)
		inCode = make([]int, len(ranks))
		k, below := 0, 0
		for i, r := range ranks {
			for below+total[k] <= r {
				below += total[k]
				k++
			}
			want[k], inCode[i], ranks[i] = true, k, r-below
		}
	}
	// wantedBelow[k] is how many gathered keys the codes below k hold.
	var wantedBelow [rankCells]int
	m := 0
	for k := range rankNaN {
		wantedBelow[k] = m
		if want[k] {
			m += total[k]
		}
	}
	if float64(m) > rankShareMax*float64(n) {
		return nil, 0, 0, nil, false, nil, false
	}
	for i, k := range inCode {
		ranks[i] += wantedBelow[k]
	}
	match := newCodeMatch(&want)
	vals := col.Int64s()
	keys, lo, hi, release = gatherKeyShards(src, func(ks []uint64, c int) (int, uint64, uint64) {
		for k, w := range want {
			if w && hists[c][k] > 0 {
				return gatherCoded(ks, vals, rc.codes[c], match, src.chunks[c].words, src.chunkRows*c)
			}
		}
		return 0, math.MaxUint64, 0 // no wanted row in the chunk
	})
	if whole {
		lo, hi = zlo, zhi
	}
	return keys, lo, hi, ranks, nan, release, true
}

// wholeBounds returns the union of sum's bounds over the chunks src
// selects rows in, as keys, all-NaN chunks left out, and whether src
// takes every one of those chunks whole: the bounds are then exactly
// the extent's.
func wholeBounds(sum *ChunkSummary, src *ChunkedSelection) (lo, hi uint64, ok bool) {
	lo = math.MaxUint64
	for c, ct := range src.chunks {
		switch {
		case ct.n == 0, sum.hasNaN(c) && sum.intMax[c] == nanOrdinal:
		case ct.n != src.chunkLen(c):
			return 0, 0, false
		default:
			lo, hi = min(lo, stats.Int64Key(sum.intMin[c])), max(hi, stats.Int64Key(sum.intMax[c]))
		}
	}
	return lo, hi, true
}

// rankHists returns each chunk's code counts over the rows src selects
// in it: the stored counts for a chunk src takes whole, a count of the
// selected rows' codes for any other with a selected row, nil for the
// rest.
func rankHists(src *ChunkedSelection, rc *rankCodes) []*[rankCells]uint32 {
	nc := src.NumChunks()
	hists := make([]*[rankCells]uint32, nc)
	var own [][rankCells]uint32
	for c := range nc {
		switch n := src.chunks[c].n; {
		case n == src.chunkLen(c):
			hists[c] = &rc.counts[c]
		case n > 0:
			if own == nil {
				own = make([][rankCells]uint32, nc)
			}
			hists[c] = &own[c]
		}
	}
	if own != nil {
		forEachSeg(src, func(c int) {
			if hists[c] == &own[c] {
				countCodesRank(hists[c], rc.codes[c], src.chunks[c].words)
			}
		})
	}
	return hists
}

// countCodesRank adds one to h[k] for the code k of every row the
// words of a chunk select, codes being the chunk's. Rows alternate
// between h and a second set of counters folded in at the end: the
// increments then do not wait on each other's stores, which measured
// more than twice as fast.
func countCodesRank(h *[rankCells]uint32, codes []uint8, words []uint64) {
	var h2 [rankCells]uint32
	for wi, w := range words {
		at := wi << 6
		if w == ^uint64(0) {
			for i := at; i < at+64; i += 2 {
				h[codes[i]]++
				h2[codes[i+1]]++
			}
			continue
		}
		for w != 0 {
			h[codes[at+bits.TrailingZeros64(w)]]++
			if w &= w - 1; w == 0 {
				break
			}
			h2[codes[at+bits.TrailingZeros64(w)]]++
			w &= w - 1
		}
	}
	for k, n := range h2 {
		h[k] += n
	}
}

// gatherCoded stores the key of every row the words of a chunk select
// (its first table row base) whose code match wants into ks, returning
// how many and their smallest and largest key. It tests a word's 64
// codes eight per load and visits only the selected rows that match.
func gatherCoded(ks []uint64, vals []int64, codes []uint8, match codeMatch, words []uint64, base int) (m int, lo, hi uint64) {
	lo = math.MaxUint64
	for wi, w := range words {
		if w == 0 {
			continue
		}
		at := wi << 6
		for w &= match.mask(codes[at : at+64 : at+64]); w != 0; w &= w - 1 {
			m, lo, hi = putIntKey(ks, m, vals[base+at+bits.TrailingZeros64(w)], lo, hi)
		}
	}
	return m, lo, hi
}

// codeMatch tests eight codes at a time against the wanted codes, each
// held broadcast to every byte of a word: a lone code by itself (the
// median's, in a binary cut of whole chunks), more four to a group, a
// short group repeating its first code. Fixed codes per call, not a
// loop over them, measured twice as fast.
type codeMatch struct {
	one   uint64
	fours [][4]uint64 // nil when one code is wanted
}

const (
	lowBits7  = 0x7f7f7f7f7f7f7f7f
	byteOnes  = 0x0101010101010101
	packBytes = 0x0102040810204080 // gathers each byte's bit 0 into the top byte
)

// newCodeMatch broadcasts every wanted code.
func newCodeMatch(want *[rankCells]bool) codeMatch {
	var cm codeMatch
	n := 0
	for k, w := range want {
		if !w {
			continue
		}
		p := uint64(k) * byteOnes
		if n%4 == 0 {
			cm.fours = append(cm.fours, [4]uint64{p, p, p, p})
		}
		cm.fours[n/4][n%4] = p
		cm.one = cm.fours[0][0]
		n++
	}
	if n == 1 {
		cm.fours = nil
	}
	return cm
}

// mask returns the 64 codes' matches as a word: bit i set when codes[i]
// is wanted.
func (cm codeMatch) mask(codes []uint8) uint64 {
	if cm.fours == nil {
		return matchOne(cm.one, codes)
	}
	var out uint64
	for i := range cm.fours {
		out |= matchFour(&cm.fours[i], codes)
	}
	return out
}

// matchOne is mask for one wanted code p, as matchFour tests it.
func matchOne(p uint64, codes []uint8) uint64 {
	var out uint64
	for j := 0; j < 64; j += 8 {
		z := binary.LittleEndian.Uint64(codes[j:j+8]) ^ p
		if (z-byteOnes)&^z&^lowBits7 == 0 {
			continue
		}
		out |= ((zeroBytes(z) >> 7) * packBytes >> 56) << j
	}
	return out
}

// matchFour is mask over one group. A byte of z = x^p is zero exactly
// where x holds p's code. (z−0x01…) &^ z has a high bit set in some
// byte iff z has a zero byte, which rejects most eight-code loads in
// four operations a code; the others take the exact test,
// ^((z&0x7f…)+0x7f… | z | 0x7f…), which sets the high bit of exactly
// the zero bytes (no carry crosses a byte), and a multiply packs the
// eight high bits into one byte.
func matchFour(p *[4]uint64, codes []uint8) uint64 {
	var out uint64
	p0, p1, p2, p3 := p[0], p[1], p[2], p[3]
	for j := 0; j < 64; j += 8 {
		x := binary.LittleEndian.Uint64(codes[j : j+8])
		z0, z1, z2, z3 := x^p0, x^p1, x^p2, x^p3
		if ((z0-byteOnes)&^z0|(z1-byteOnes)&^z1|(z2-byteOnes)&^z2|(z3-byteOnes)&^z3)&^lowBits7 == 0 {
			continue
		}
		hit := zeroBytes(z0) | zeroBytes(z1) | zeroBytes(z2) | zeroBytes(z3)
		out |= ((hit >> 7) * packBytes >> 56) << j
	}
	return out
}

// zeroBytes sets the high bit of exactly the zero bytes of z.
func zeroBytes(z uint64) uint64 {
	return ^(((z & lowBits7) + lowBits7) | z | lowBits7)
}
