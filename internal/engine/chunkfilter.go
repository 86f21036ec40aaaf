package engine

import (
	"sync"
	"sync/atomic"
)

// The chunked filters: every predicate resolves once into a Pred — a
// zone-map verdict per chunk plus its row test: for ranges and code
// sets the operand the partition's word kernels read (partition.go),
// for any other predicate a single-predicate row kernel (filter.go) —
// and a driver fans the chunks out across the scan workers. A skipped
// chunk costs nothing, a taken chunk passes its parent container
// through by reference, and a scanned chunk is tested word by word or,
// for an opaque predicate, row by row. Rows a row kernel keeps are
// compacted into pooled scratch and packed into words by the chunk
// setter, so a cached child selection holds exactly its rows. The
// partition pass (partition.go), whose one-predicate case is the
// filter, consumes the Preds.

// reserveChunkSlots reserves extra scan-pool goroutines for a fan-out
// of nc tasks (a selection's chunks, or bands of them) holding rows
// selected rows between them: none for selections too small to
// parallelize (taskWorkers), and never more than nc−1 — slots beyond
// that would idle while starving concurrent scans. This is the single
// reservation policy for every chunked operation (filters, partitions,
// key gathers, reductions, value counts and order statistics), so the
// sequential-threshold and cap rules cannot drift between them. The
// engine's own fan-outs run through ForEachTask, whose workers each
// give their slot back once no task is left for them; statWorkers'
// callers size their work by the workers granted — internal/stats'
// selects and sorts, and StringValueCounts' histograms of the
// dictionary's size, one per worker — and hold the slots until the
// call returns through the paired release.
func reserveChunkSlots(nc, rows int) (extra int, release func()) {
	want := taskWorkers(nc, rows) - 1
	if want == 0 {
		return 0, func() {}
	}
	extra = grabScanSlots(want, ScanWorkers())
	return extra, func() { releaseScanSlots(extra) }
}

// taskWorkers is the most workers a fan-out of nc tasks holding rows
// selected rows may get: one, on the calling goroutine, when the scan
// pool has one worker, there is one task, or the rows are too few to be
// worth a hand-off.
func taskWorkers(nc, rows int) int {
	workers := ScanWorkers()
	if workers <= 1 || nc <= 1 || rows < parallelScanMinRows {
		return 1
	}
	return min(workers, nc)
}

// forEachSeg runs fn(c) once per chunk of src, fanning chunks out
// across the scan worker pool (ForEachTask). Callers assemble results
// by chunk index, so scheduling never influences output.
func forEachSeg(src *ChunkedSelection, fn func(c int)) {
	ForEachTask(src.NumChunks(), src.Len(), fn)
}

// ForEachTask runs fn(i) once for each of n tasks holding rows
// selected rows between them — a selection's chunks, a table's chunks
// for a summary build, or a segmentation's uncached cuts (seg.Cut) —
// fanning them out across the scan worker pool: the engine's one scan
// fan-out. The workers take tasks from a shared counter, so there may
// be far more tasks than workers. Tasks holding too few rows to be
// worth a hand-off (taskWorkers) and slot-exhausted processes stay on
// the calling goroutine. A task that scans in turn finds the
// slots its caller holds taken; each worker gives its slot back as
// soon as no task is left for it, so the scans of the tasks still
// running can take it, rather than when the last task ends. Callers
// assemble results by task index, so scheduling never influences
// output.
func ForEachTask(n, rows int, fn func(i int)) {
	if n == 0 {
		return
	}
	extra, _ := reserveChunkSlots(n, rows) // released by each worker below
	if extra == 0 {
		for i := range n {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(extra)
	for range extra {
		go func() {
			defer wg.Done()
			defer releaseScanSlots(1)
			work()
		}()
	}
	work()
	wg.Wait()
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
// scan: the zone-map verdict per chunk, its row test, a row kernel
// only when that test is opaque, and none when no row can match (the
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
// because Contains is monotone over an interval. The bounds leave NaN
// out, and a NaN row matches no range, so a chunk the zone map marks
// as holding NaN may skip but never takes; an all-NaN chunk, whose
// bounds are NaN's ordinal, below every float range, skips.
func rangeVerdict(sum *ChunkSummary, r IntRange) func(c int) chunkVerdict {
	if sum == nil {
		return scanAlways
	}
	return func(c int) chunkVerdict {
		lo, hi := sum.IntBounds(c)
		switch {
		case hi < r.Lo || lo > r.Hi:
			return chunkSkip
		case r.Contains(lo) && r.Contains(hi) && !sum.hasNaN(c):
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
	return rangePred(col.Int64s(), r, sum)
}

// FilterFloatRangeChunked is FilterIntRangeChunked over floats. Kept
// for bench/layers until ROADMAP item 4.
func FilterFloatRangeChunked(col FloatValued, cs *ChunkedSelection, r FloatRange, sum *ChunkSummary) *ChunkedSelection {
	return FilterChunked(cs, FloatRangePred(col, r, sum))
}

// FloatRangePred is IntRangePred over the column's ordinals.
func FloatRangePred(col FloatValued, r FloatRange, sum *ChunkSummary) Pred {
	return rangePred(col.Int64s(), r.ordinals(), sum)
}

// rangePred is the range predicate over ordinals vals: r's verdicts,
// and r resolved as the word test — against the column's rank-code
// planes too when its zone map carries them.
func rangePred(vals []int64, r IntRange, sum *ChunkSummary) Pred {
	s := r.span()
	if s.empty {
		return Pred{verdict: rangeVerdict(sum, r), scan: scanNone}
	}
	p := Pred{verdict: rangeVerdict(sum, r), test: rowTest{kind: testIntRange, ints: vals, ispan: s, sum: sum}}
	if sum != nil && sum.rank != nil {
		p.test.planes, p.test.pr = &sum.rank.planes, newPlaneRange(sum.rank, s)
	}
	return p
}

// IntSetPred resolves an int or date value-set predicate. The zone map
// prunes chunks whose value interval misses the set's hull.
func IntSetPred(col IntValued, values []int64, sum *ChunkSummary) Pred {
	return setPred(col.Int64s(), values, sum)
}

// FloatSetPred is IntSetPred over the ordinals of values: NaN matches
// NaN rows, as NaN equals NaN, and −0 matches +0.
func FloatSetPred(col FloatValued, values []float64, sum *ChunkSummary) Pred {
	ords := make([]int64, len(values))
	for i, v := range values {
		ords[i] = floatOrdinal(v)
	}
	return setPred(col.Int64s(), ords, sum)
}

// setPred is the numeric set predicate over ordinals vals: a map probe
// per row, and a skip for every chunk whose zone-map bounds miss the
// set's hull. The bounds leave NaN out, so a set listing NaN, whose
// hull starts at NaN's ordinal, skips no chunk the zone map marks as
// holding NaN.
func setPred(vals, values []int64, sum *ChunkSummary) Pred {
	if len(values) == 0 {
		return Pred{none: true}
	}
	want, wlo, whi := hullSet(values)
	verdict := scanAlways
	if sum != nil {
		verdict = func(c int) chunkVerdict {
			if lo, hi := sum.IntBounds(c); (hi < wlo || lo > whi) && !(wlo == nanOrdinal && sum.hasNaN(c)) {
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

// codeSetPred is the predicate of the dictionary codes want over col,
// its test resolved against the column's code planes too when its zone
// map carries them for the whole dictionary.
func codeSetPred(col *StringColumn, want codeSet, sum *ChunkSummary) Pred {
	if want == nil {
		return Pred{none: true}
	}
	p := Pred{
		verdict: codeSetVerdict(sum, want),
		test:    rowTest{kind: testCodeSet, codes: col.Codes(), want: want},
	}
	if pl := sumPlanes(sum, col); pl != nil {
		p.test.planes, p.test.ps = pl, newPlaneSet(want, col.Cardinality())
	}
	return p
}

// sumPlanes returns col's code planes from its zone map sum, nil when
// sum carries none or its planes cannot hold every code of col's
// dictionary.
func sumPlanes(sum *ChunkSummary, col *StringColumn) *bitPlanes {
	if sum == nil || sum.codePlanes == nil || col.Cardinality() > 1<<sum.codePlanes.p {
		return nil
	}
	return sum.codePlanes
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

// BoolSetPred resolves a bool value-set predicate. Its verdict skips
// chunks that hold no wanted value and passes chunks every row of
// which must match.
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
