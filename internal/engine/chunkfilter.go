package engine

import "charles/internal/par"

// The chunked filters: every predicate resolves once into a Pred — a
// zone-map verdict per chunk plus its row test, as a single-predicate
// kernel (filter.go) and, for ranges and code sets, in the operand
// form a binary cut's shared row loop reads (partition.go) — and
// a driver fans the chunks out across the scan workers. A skipped
// chunk costs nothing, a taken chunk passes its parent segment
// through by reference, and a scanned chunk costs a load, some
// arithmetic and a store per row (no call, hash or data-dependent
// branch except in the int/float set and summary-less string range
// kernels: a string set is a bitset over dictionary codes precisely so
// its test is a bit extract). Scanned rows are compacted into pooled
// scratch and copied out at exact length, so a cached child selection
// holds exactly its rows. The partition driver (the row-id filter is
// its one-predicate case) and the bitmap driver (bitmapfilter.go)
// consume the same Preds.

// reserveSegSlots reserves extra scan-pool goroutines for a
// per-chunk fan-out over src: nothing for selections too small to
// parallelize, and never more than chunks−1 — slots beyond that
// would idle while starving concurrent scans. The paired release
// must always be called. This is the single reservation policy for
// every chunked operation (filters, partitions, bitmap packing and
// unpacking, key gathers, reductions and value counts), so the
// sequential-threshold and cap rules cannot drift between them.
func reserveSegSlots(src Source) (extra int, release func()) {
	return reserveChunkSlots(src.NumChunks(), src.Len())
}

// reserveChunkSlots is reserveSegSlots for nc chunks holding rows
// selected rows in any representation.
func reserveChunkSlots(nc, rows int) (extra int, release func()) {
	workers := ScanWorkers()
	if workers <= 1 || nc <= 1 || rows < parallelScanMinRows {
		return 0, func() {}
	}
	want := workers - 1
	if want > nc-1 {
		want = nc - 1
	}
	extra = grabScanSlots(want, workers)
	return extra, func() { releaseScanSlots(extra) }
}

// forEachSeg runs fn(c) once per chunk of src, fanning chunks out
// across the scan worker pool. Unlike the flat statChunks splitter —
// which cuts a selection into exactly worker-count pieces — a
// chunked selection usually has far more chunks than workers, so the
// chunks stream through par.ForEach's shared work queue. Small
// selections and slot-exhausted processes stay on the calling
// goroutine, exactly like the flat path. Callers assemble results by
// chunk index, so scheduling never influences output.
func forEachSeg(src Source, fn func(c int)) {
	forEachChunk(src.NumChunks(), src.Len(), fn)
}

// forEachChunk is forEachSeg over nc chunks holding rows selected
// rows in any representation.
func forEachChunk(nc, rows int, fn func(c int)) {
	if nc == 0 {
		return
	}
	extra, release := reserveChunkSlots(nc, rows)
	defer release()
	if extra == 0 {
		for c := 0; c < nc; c++ {
			fn(c)
		}
		return
	}
	_ = par.ForEach(extra+1, nc, func(c int) error {
		fn(c)
		return nil
	})
}

// chunkVerdict is a zone-map decision for one chunk.
type chunkVerdict uint8

const (
	// chunkScan: the predicate must be evaluated row by row.
	chunkScan chunkVerdict = iota
	// chunkSkip: no row of the chunk can match; the segment is
	// dropped without a scan.
	chunkSkip
	// chunkTake: every row of the chunk matches; the parent segment
	// passes through by reference without a scan.
	chunkTake
)

// Pred is one predicate over one column, resolved for a chunked
// scan: the zone-map verdict per chunk, the single-predicate row
// kernel, for a range or code set the same test in the form the
// two-piece partition kernels share, and none when no row can match (the
// drivers then return the empty result without visiting a chunk).
// Every driver — row ids, bitmap, partition — consumes the same Pred,
// so the output representations share every decision. Build one with
// a *Pred constructor; the zero Pred is not valid.
type Pred struct {
	verdict func(c int) chunkVerdict
	scan    scanKernel
	test    rowTest
	none    bool
}

// FilterChunked is the row-id chunked-filter driver: it narrows src to
// the rows p keeps, chunk by chunk — the verdict prunes or passes whole
// chunks from the zone map, the kernel narrows the rest, and the
// per-chunk outputs are reassembled in chunk order. It is
// PartitionChunked for one predicate.
func FilterChunked(src Source, p Pred) *ChunkedSelection {
	parts, _ := PartitionChunked(src, []Pred{p}, nil)
	return parts[0]
}

// exactSeg returns a scanned chunk's matches as an exact-length
// selection: nil when none match, seg itself when all do (what a take
// verdict would have passed), and a right-sized copy of the pooled
// scratch otherwise. A narrow child therefore never pins a
// parent-sized array in the evaluator's selection cache.
func exactSeg(seg, matched Selection) Selection {
	switch len(matched) {
	case 0:
		return nil
	case len(seg):
		return seg
	}
	// make+copy of one named slice compiles to a single non-zeroing
	// allocation.
	out := make(Selection, len(matched))
	copy(out, matched)
	return out
}

// emptyLike returns the all-empty selection in src's layout.
func emptyLike(src Source) *ChunkedSelection {
	return NewChunkedSelection(src.NumRows(), src.ChunkRows(), make([]Selection, src.NumChunks()))
}

// scanAlways is the verdict for predicates without a zone map.
func scanAlways(int) chunkVerdict { return chunkScan }

// intRangeVerdict classifies a chunk against a range predicate: skip
// when the chunk's value interval misses [r.Lo, r.Hi] entirely, take
// when the range covers it, scan otherwise. The skip test compares
// against the closed hull of r, which is conservative for exclusive
// bounds; the take test uses r.Contains on both extremes, which is
// exact because Contains is monotone over an interval.
func intRangeVerdict(sum *ChunkSummary, r IntRange) func(c int) chunkVerdict {
	if sum == nil {
		return scanAlways
	}
	return func(c int) chunkVerdict {
		lo, hi := sum.IntBounds(c)
		if hi < r.Lo || lo > r.Hi {
			return chunkSkip
		}
		if r.Contains(lo) && r.Contains(hi) {
			return chunkTake
		}
		return chunkScan
	}
}

// floatRangeVerdict is intRangeVerdict over floats, complicated by
// NaN: FloatRange.Contains(NaN) is true (NaN fails both exclusion
// comparisons), so the range kernel keeps NaN rows in every range and
// the verdicts must match it exactly. Skipping therefore needs
// the zone map's proof that the chunk is NaN-free — its finite
// bounds say nothing about NaN rows, which would always match.
// Taking needs no such proof: if the NaN-ignoring bounds fall inside
// the range then every finite row matches, and the NaN rows match by
// the Contains convention (an all-NaN chunk takes too: its NaN
// bounds make Contains true).
func floatRangeVerdict(sum *ChunkSummary, r FloatRange) func(c int) chunkVerdict {
	if sum == nil {
		return scanAlways
	}
	return func(c int) chunkVerdict {
		lo, hi, pure := sum.FloatBounds(c)
		if pure && (hi < r.Lo || lo > r.Hi) {
			return chunkSkip
		}
		if r.Contains(lo) && r.Contains(hi) {
			return chunkTake
		}
		return chunkScan
	}
}

// FilterIntRangeChunked narrows cs to rows whose column value lies
// in r, chunk by chunk, skipping chunks the zone map rules out and
// passing through chunks it proves fully inside.
func FilterIntRangeChunked(col IntValued, cs *ChunkedSelection, r IntRange, sum *ChunkSummary) *ChunkedSelection {
	return FilterChunked(cs, IntRangePred(col, r, sum))
}

// IntRangePred resolves an int or date range predicate. A range no
// int64 satisfies still runs its verdicts, then scans nothing.
func IntRangePred(col IntValued, r IntRange, sum *ChunkSummary) Pred {
	s := r.span()
	p := Pred{verdict: intRangeVerdict(sum, r), scan: s.kernel(col.Int64s())}
	if !s.empty {
		p.test = rowTest{kind: testIntRange, ints: col.Int64s(), ispan: s}
	}
	return p
}

// FilterFloatRangeChunked is FilterIntRangeChunked over floats.
func FilterFloatRangeChunked(col FloatValued, cs *ChunkedSelection, r FloatRange, sum *ChunkSummary) *ChunkedSelection {
	return FilterChunked(cs, FloatRangePred(col, r, sum))
}

// FloatRangePred is IntRangePred over floats: NaN rows match it.
func FloatRangePred(col FloatValued, r FloatRange, sum *ChunkSummary) Pred {
	s := r.span()
	return Pred{
		verdict: floatRangeVerdict(sum, r),
		scan:    s.kernel(col.Float64s()),
		test:    rowTest{kind: testFloatRange, floats: col.Float64s(), fspan: s},
	}
}

// FilterIntSetChunked narrows cs to rows whose int64 value appears
// in values. The zone map prunes chunks whose value interval misses
// the set's hull [min(values), max(values)].
func FilterIntSetChunked(col IntValued, cs *ChunkedSelection, values []int64, sum *ChunkSummary) *ChunkedSelection {
	return FilterChunked(cs, IntSetPred(col, values, sum))
}

// IntSetPred resolves an int or date value-set predicate.
func IntSetPred(col IntValued, values []int64, sum *ChunkSummary) Pred {
	var bounds func(c int) (lo, hi int64)
	if sum != nil {
		bounds = sum.IntBounds
	}
	return setPred(col.Int64s(), values, bounds)
}

// FilterFloatSetChunked is FilterIntSetChunked over floats.
func FilterFloatSetChunked(col FloatValued, cs *ChunkedSelection, values []float64, sum *ChunkSummary) *ChunkedSelection {
	return FilterChunked(cs, FloatSetPred(col, values, sum))
}

// FloatSetPred is IntSetPred over floats: NaN rows match no set.
func FloatSetPred(col FloatValued, values []float64, sum *ChunkSummary) Pred {
	var bounds func(c int) (lo, hi float64)
	if sum != nil {
		bounds = func(c int) (lo, hi float64) {
			lo, hi, _ = sum.FloatBounds(c)
			return lo, hi
		}
	}
	return setPred(col.Float64s(), values, bounds)
}

// setPred is the int and float set predicate: a map probe per row,
// and a skip for every chunk whose [lo, hi] (bounds is nil without a
// zone map) misses the set's hull. NaN rows never match a set, so —
// unlike the float range filter — skipping needs no NaN-free proof.
func setPred[T int64 | float64](vals, values []T, bounds func(c int) (lo, hi T)) Pred {
	if len(values) == 0 {
		return Pred{none: true}
	}
	want, wlo, whi := hullSet(values)
	verdict := scanAlways
	if bounds != nil {
		verdict = func(c int) chunkVerdict {
			if lo, hi := bounds(c); hi < wlo || lo > whi {
				return chunkSkip
			}
			return chunkScan
		}
	}
	return Pred{verdict: verdict, scan: func(seg, buf Selection) int {
		return scanSet(vals, want, seg, buf)
	}}
}

// codeSetVerdict classifies a chunk against a wanted dictionary-code
// set using the column's presence summary: skip when the chunk holds
// none of the wanted codes, take when every distinct code it holds
// is wanted (so the whole segment passes through by reference), scan
// otherwise. Chunks whose sparse code list overflowed always scan.
// The dense form ANDs the chunk's presence words with want's; a
// presence bit past want's words (a summary built over a larger
// dictionary) is simply unwanted.
func codeSetVerdict(sum *ChunkSummary, want codeSet) func(c int) chunkVerdict {
	if sum == nil || (sum.codeBits == nil && sum.codeList == nil) {
		return scanAlways
	}
	if sum.codeBits != nil {
		return func(c int) chunkVerdict {
			anyWanted, allWanted := false, true
			for i, present := range sum.codeBits[c] {
				var w uint64
				if i < len(want) {
					w = want[i]
				}
				if present&w != 0 {
					anyWanted = true
				}
				if present&^w != 0 {
					allWanted = false
				}
			}
			switch {
			case !anyWanted:
				return chunkSkip
			case allWanted:
				return chunkTake
			default:
				return chunkScan
			}
		}
	}
	return func(c int) chunkVerdict {
		if sum.codeOverflow[c] {
			return chunkScan
		}
		anyWanted, allWanted := false, true
		for _, code := range sum.codeList[c] {
			if want.has(code) {
				anyWanted = true
			} else {
				allWanted = false
			}
			if anyWanted && !allWanted {
				return chunkScan
			}
		}
		switch {
		case !anyWanted:
			return chunkSkip
		case allWanted:
			return chunkTake
		default:
			return chunkScan
		}
	}
}

// boolSetVerdict is codeSetVerdict for the two-value bool domain.
func boolSetVerdict(sum *ChunkSummary, wantTrue, wantFalse bool) func(c int) chunkVerdict {
	if sum == nil || sum.boolHasTrue == nil {
		return scanAlways
	}
	return func(c int) chunkVerdict {
		hasTrue, hasFalse := sum.boolHasTrue[c], sum.boolHasFalse[c]
		anyWanted := (wantTrue && hasTrue) || (wantFalse && hasFalse)
		allWanted := (!hasTrue || wantTrue) && (!hasFalse || wantFalse)
		switch {
		case !anyWanted:
			return chunkSkip
		case allWanted:
			return chunkTake
		default:
			return chunkScan
		}
	}
}

// FilterStringSetChunked narrows cs to rows whose string value is
// one of values, testing membership on dictionary codes. The nominal
// zone map prunes chunks holding no wanted code and passes chunks
// wholesale when every code they hold is wanted.
func FilterStringSetChunked(col *StringColumn, cs *ChunkedSelection, values []string, sum *ChunkSummary) *ChunkedSelection {
	return FilterChunked(cs, StringSetPred(col, values, sum))
}

// StringSetPred resolves a string value-set predicate to a dense
// bitset over the column's dictionary codes.
func StringSetPred(col *StringColumn, values []string, sum *ChunkSummary) Pred {
	return codeSetPred(col, stringCodeSet(col, values), sum)
}

func codeSetPred(col *StringColumn, want codeSet, sum *ChunkSummary) Pred {
	if want == nil {
		return Pred{none: true}
	}
	return Pred{
		verdict: codeSetVerdict(sum, want),
		scan:    want.kernel(col.Codes()),
		test:    rowTest{kind: testCodeSet, codes: col.Codes(), want: want},
	}
}

// FilterStringRangeChunked narrows cs to rows whose string value
// lies in the lexicographic interval [lo, hi].
func FilterStringRangeChunked(col *StringColumn, cs *ChunkedSelection, lo, hi string, loIncl, hiIncl bool, sum *ChunkSummary) *ChunkedSelection {
	return FilterChunked(cs, StringRangePred(col, lo, hi, loIncl, hiIncl, sum))
}

// StringRangePred resolves a lexicographic interval predicate. With
// a presence summary the range is resolved to the set of dictionary
// codes it covers — one pass over the dictionary, not the rows —
// which both turns the per-row test into a bit extract and lets the
// same verdicts prune and pass chunks exactly like an explicit value
// set. Without one that can actually prune (pruning ablated, a
// summary-less caller, or a sparse summary every chunk of which
// overflowed) the per-row string comparison scan runs directly:
// paying O(dictionary) to build a code set no verdict will profit
// from would make narrow selections over high-cardinality columns
// *slower* than the scan.
func StringRangePred(col *StringColumn, lo, hi string, loIncl, hiIncl bool, sum *ChunkSummary) Pred {
	r := strRange{lo, hi, loIncl, hiIncl}
	if sum == nil || !sum.canPruneCodes() {
		return Pred{verdict: scanAlways, scan: r.kernel(col)}
	}
	return codeSetPred(col, r.codeSet(col), sum)
}

// FilterBoolSetChunked narrows cs to rows whose boolean value
// appears in values, skipping chunks that hold no wanted value and
// passing chunks every row of which must match.
func FilterBoolSetChunked(col *BoolColumn, cs *ChunkedSelection, values []bool, sum *ChunkSummary) *ChunkedSelection {
	return FilterChunked(cs, BoolSetPred(col, values, sum))
}

// BoolSetPred resolves a bool value-set predicate.
func BoolSetPred(col *BoolColumn, values []bool, sum *ChunkSummary) Pred {
	wantTrue, wantFalse := boolWants(values)
	if !wantTrue && !wantFalse {
		return Pred{none: true}
	}
	vals := col.Bools()
	return Pred{
		verdict: boolSetVerdict(sum, wantTrue, wantFalse),
		scan: func(seg, buf Selection) int {
			return scanBoolSet(vals, wantTrue, wantFalse, seg, buf)
		},
	}
}
