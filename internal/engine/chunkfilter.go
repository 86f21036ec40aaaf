package engine

import "charles/internal/par"

// The chunked filters: every predicate resolves once into a Pred — a
// zone-map verdict per chunk plus its row test, as a single-predicate
// kernel (filter.go) and, for ranges and code sets, in the operand
// form the partition's word kernels read (partition.go) — and
// a driver fans the chunks out across the scan workers. A skipped
// chunk costs nothing, a taken chunk passes its parent container
// through by reference, and a scanned chunk costs a load, some
// arithmetic and a store per row (no call, hash or data-dependent
// branch except in the numeric set and summary-less string range
// kernels: a string set is a bitset over dictionary codes precisely so
// its test is a bit extract). Scanned rows are compacted into pooled
// scratch, from which the chunk setter copies them at exact length or
// packs them into words, so a cached child selection holds exactly its
// rows. The partition pass (partition.go), whose one-predicate case is
// the filter, consumes the Preds.

// reserveSegSlots reserves extra scan-pool goroutines for a
// per-chunk fan-out over src: nothing for selections too small to
// parallelize, and never more than chunks−1 — slots beyond that
// would idle while starving concurrent scans. The paired release
// must always be called. This is the single reservation policy for
// every chunked operation (filters, partitions, key gathers, reductions and value counts), so the
// sequential-threshold and cap rules cannot drift between them.
func reserveSegSlots(src *ChunkedSelection) (extra int, release func()) {
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
// across the scan worker pool: the engine's one scan fan-out. A
// chunked selection usually has far more chunks than workers, so the
// chunks stream through par.ForEach's shared work queue. Small
// selections and slot-exhausted processes stay on the calling
// goroutine. Callers assemble results by chunk index, so scheduling
// never influences output.
func forEachSeg(src *ChunkedSelection, fn func(c int)) {
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
	// chunkSkip: no row of the chunk can match; the chunk is
	// dropped without a scan.
	chunkSkip
	// chunkTake: every row of the chunk matches; the parent container
	// passes through by reference without a scan.
	chunkTake
)

// Pred is one predicate over one column, resolved for a chunked
// scan: the zone-map verdict per chunk, the single-predicate row
// kernel, for a range or code set the same test in the form the
// partition's word kernels read, and none when no row can match (the
// drivers then return the empty result without visiting a chunk).
// PartitionChunked and its one-predicate filter consume the same
// Pred, so they share every decision. Build one with
// a *Pred constructor; the zero Pred is not valid.
type Pred struct {
	verdict func(c int) chunkVerdict
	scan    scanKernel
	test    rowTest
	none    bool
}

// FilterChunked narrows src to the rows p keeps, chunk by chunk: the
// verdict prunes or passes whole chunks from the zone map, the kernel
// narrows the rest, and the per-chunk outputs are reassembled in chunk
// order. It is PartitionChunked for one predicate.
func FilterChunked(src *ChunkedSelection, p Pred) *ChunkedSelection {
	return PartitionChunked(src, []Pred{p}, false)[0]
}

// scanAlways is the verdict for predicates without a zone map.
func scanAlways(int) chunkVerdict { return chunkScan }

// rangeVerdict classifies a chunk against a range over ordinals: skip
// when the chunk's interval misses [r.Lo, r.Hi] entirely, take when
// the range covers it, scan otherwise. The skip test compares against
// the closed hull of r, which is conservative for exclusive bounds;
// the take test uses r.Contains on both extremes, which is exact
// because Contains is monotone over an interval. With nan set — a
// float range, which keeps every NaN row — a chunk the zone map marks
// as holding NaN never skips, since its bounds leave NaN out, and an
// all-NaN chunk, whose bounds are nanOrdinal, takes.
func rangeVerdict(sum *ChunkSummary, r IntRange, nan bool) func(c int) chunkVerdict {
	if sum == nil {
		return scanAlways
	}
	in := func(v int64) bool { return r.Contains(v) || nan && v == nanOrdinal }
	return func(c int) chunkVerdict {
		lo, hi := sum.IntBounds(c)
		if !(nan && sum.hasNaN(c)) && (hi < r.Lo || lo > r.Hi) {
			return chunkSkip
		}
		if in(lo) && in(hi) {
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
	return rangePred(col.Int64s(), r, r.span(), sum)
}

// FilterFloatRangeChunked is FilterIntRangeChunked over floats. Kept
// for bench/layers until ROADMAP item 4.
func FilterFloatRangeChunked(col FloatValued, cs *ChunkedSelection, r FloatRange, sum *ChunkSummary) *ChunkedSelection {
	return FilterChunked(cs, FloatRangePred(col, r, sum))
}

// FloatRangePred is IntRangePred over the column's ordinals: NaN rows
// match it.
func FloatRangePred(col FloatValued, r FloatRange, sum *ChunkSummary) Pred {
	return rangePred(col.Int64s(), r.ordinals(), r.span(), sum)
}

// rangePred is the range predicate over ordinals vals: r's verdicts,
// and s, r resolved, as the row test.
func rangePred(vals []int64, r IntRange, s intSpan, sum *ChunkSummary) Pred {
	p := Pred{verdict: rangeVerdict(sum, r, s.nan), scan: s.kernel(vals)}
	if !s.empty {
		p.test = rowTest{kind: testIntRange, ints: vals, ispan: s}
		if s.nan && sum != nil {
			p.test.chunkNaN = sum.nan
		}
	}
	return p
}

// FilterIntSetChunked narrows cs to rows whose int64 value appears
// in values. The zone map prunes chunks whose value interval misses
// the set's hull [min(values), max(values)].
func FilterIntSetChunked(col IntValued, cs *ChunkedSelection, values []int64, sum *ChunkSummary) *ChunkedSelection {
	return FilterChunked(cs, IntSetPred(col, values, sum))
}

// IntSetPred resolves an int or date value-set predicate.
func IntSetPred(col IntValued, values []int64, sum *ChunkSummary) Pred {
	return setPred(col.Int64s(), values, sum)
}

// FilterFloatSetChunked is FilterIntSetChunked over floats.
func FilterFloatSetChunked(col FloatValued, cs *ChunkedSelection, values []float64, sum *ChunkSummary) *ChunkedSelection {
	return FilterChunked(cs, FloatSetPred(col, values, sum))
}

// FloatSetPred is IntSetPred over the ordinals of values, NaN left
// out: NaN rows match no set, and −0 matches +0.
func FloatSetPred(col FloatValued, values []float64, sum *ChunkSummary) Pred {
	ords := make([]int64, 0, len(values))
	for _, v := range values {
		if v == v {
			ords = append(ords, floatOrdinal(v))
		}
	}
	return setPred(col.Int64s(), ords, sum)
}

// setPred is the numeric set predicate over ordinals vals: a map probe
// per row, and a skip for every chunk whose zone-map bounds miss the
// set's hull. The bounds leave NaN out, and so does every set, so —
// unlike a float range — skipping needs no NaN-free proof.
func setPred(vals, values []int64, sum *ChunkSummary) Pred {
	if len(values) == 0 {
		return Pred{none: true}
	}
	want, wlo, whi := hullSet(values)
	verdict := scanAlways
	if sum != nil {
		verdict = func(c int) chunkVerdict {
			if lo, hi := sum.IntBounds(c); hi < wlo || lo > whi {
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
// is wanted (so the whole chunk passes through by reference), scan
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
