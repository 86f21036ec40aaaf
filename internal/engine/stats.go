package engine

import "charles/internal/stats"

// GatherInt materializes the int64 values of col at the selected
// rows. Works for integer and date columns alike. Large selections
// scatter chunk-at-a-time on all scan workers.
func GatherInt(col IntValued, sel Selection) []int64 {
	src := col.Int64s()
	out := make([]int64, len(sel))
	chunks, release := statChunks(sel)
	defer release()
	offsets := chunkOffsets(chunks)
	runChunks(chunks, func(c int) {
		base := offsets[c]
		for i, row := range chunks[c] {
			out[base+i] = src[row]
		}
	})
	return out
}

// GatherFloat materializes the float64 values of col at the selected
// rows.
func GatherFloat(col FloatValued, sel Selection) []float64 {
	src := col.Float64s()
	out := make([]float64, len(sel))
	chunks, release := statChunks(sel)
	defer release()
	offsets := chunkOffsets(chunks)
	runChunks(chunks, func(c int) {
		base := offsets[c]
		for i, row := range chunks[c] {
			out[base+i] = src[row]
		}
	})
	return out
}

// chunkOffsets returns each chunk's starting position within the
// original selection.
func chunkOffsets(chunks []Selection) []int {
	offsets := make([]int, len(chunks))
	pos := 0
	for i, c := range chunks {
		offsets[i] = pos
		pos += len(c)
	}
	return offsets
}

// IntMinMax returns the minimum and maximum of col over sel. ok is
// false when the selection is empty. Large selections reduce
// per-chunk partials computed on all scan workers.
func IntMinMax(col IntValued, sel Selection) (min, max int64, ok bool) {
	if len(sel) == 0 {
		return 0, 0, false
	}
	src := col.Int64s()
	chunks, release := statChunks(sel)
	defer release()
	mins := make([]int64, len(chunks))
	maxs := make([]int64, len(chunks))
	runChunks(chunks, func(c int) {
		chunk := chunks[c]
		lo := src[chunk[0]]
		hi := lo
		for _, row := range chunk[1:] {
			v := src[row]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		mins[c], maxs[c] = lo, hi
	})
	min, max = mins[0], maxs[0]
	for c := 1; c < len(chunks); c++ {
		if mins[c] < min {
			min = mins[c]
		}
		if maxs[c] > max {
			max = maxs[c]
		}
	}
	return min, max, true
}

// FloatMinMax returns the minimum and maximum of col over sel,
// ignoring NaN values — NaN compares false against everything, so
// letting one seed a running bound would poison it and make the
// result depend on where chunk boundaries fall. When every value is
// NaN the bounds come back NaN. A zero bound is +0.0 whichever zero
// the scan met first, so the bounds never depend on row order. ok is
// false when the selection is empty.
func FloatMinMax(col FloatValued, sel Selection) (min, max float64, ok bool) {
	if len(sel) == 0 {
		return 0, 0, false
	}
	src := col.Float64s()
	chunks, release := statChunks(sel)
	defer release()
	los := make([]uint64, len(chunks))
	his := make([]uint64, len(chunks))
	runChunks(chunks, func(c int) {
		los[c], his[c] = floatKeyBounds(src, chunks[c])
	})
	lo, hi := reduceKeyBounds(los, his)
	return stats.Float64FromKey(lo), stats.Float64FromKey(hi), true
}

// IntMedian returns the upper median of col over sel (the Definition
// 5 cut point). ok is false when the selection is empty.
func IntMedian(col IntValued, sel Selection) (int64, bool) {
	if len(sel) == 0 {
		return 0, false
	}
	return stats.MedianInt64(GatherInt(col, sel)), true
}

// IntCutPoints returns up to arity−1 strictly increasing equi-depth
// cut points of col over sel (Section 5.2's quantile generalization;
// arity 2 is the paper's median cut).
func IntCutPoints(col IntValued, sel Selection, arity int) []int64 {
	if len(sel) == 0 {
		return nil
	}
	return stats.EquiDepthPoints(GatherInt(col, sel), arity)
}

// FloatCutPoints is IntCutPoints for float columns. NaN values have
// no rank and are dropped first, as FloatCutPointsChunked drops them.
func FloatCutPoints(col FloatValued, sel Selection, arity int) []float64 {
	if len(sel) == 0 {
		return nil
	}
	return stats.EquiDepthPointsFloat64(GatherFloat(col, sel), arity)
}

// StringValueCounts returns the per-value frequencies of col over
// sel, unordered. The seg layer orders them by frequency or
// alphabetically per the paper's nominal-median rule. Large
// selections count per chunk on all scan workers and merge the
// per-chunk histograms.
func StringValueCounts(col *StringColumn, sel Selection) []stats.ValueCount {
	codes := col.Codes()
	chunks, release := statChunks(sel)
	defer release()
	partials := make([][]int, len(chunks))
	runChunks(chunks, func(c int) {
		counts := make([]int, col.Cardinality())
		for _, row := range chunks[c] {
			counts[codes[row]]++
		}
		partials[c] = counts
	})
	counts := partials[0]
	for c := 1; c < len(partials); c++ {
		for code, n := range partials[c] {
			counts[code] += n
		}
	}
	out := make([]stats.ValueCount, 0, len(counts))
	for code, n := range counts {
		if n > 0 {
			out = append(out, stats.ValueCount{Value: col.DictValue(uint32(code)), Count: n})
		}
	}
	return out
}

// BoolValueCounts returns frequencies of "false"/"true" over sel,
// letting bool columns participate in nominal cuts.
func BoolValueCounts(col *BoolColumn, sel Selection) []stats.ValueCount {
	var nTrue, nFalse int
	for _, row := range sel {
		if col.Bool(int(row)) {
			nTrue++
		} else {
			nFalse++
		}
	}
	out := make([]stats.ValueCount, 0, 2)
	if nFalse > 0 {
		out = append(out, stats.ValueCount{Value: "false", Count: nFalse})
	}
	if nTrue > 0 {
		out = append(out, stats.ValueCount{Value: "true", Count: nTrue})
	}
	return out
}

// DistinctCount returns the number of distinct values of col over
// sel. For string columns it counts live dictionary codes; for other
// kinds it hashes raw payloads.
func DistinctCount(col Column, sel Selection) int {
	switch c := col.(type) {
	case *StringColumn:
		seen := make([]bool, c.Cardinality())
		n := 0
		codes := c.Codes()
		for _, row := range sel {
			if !seen[codes[row]] {
				seen[codes[row]] = true
				n++
			}
		}
		return n
	case *BoolColumn:
		var sawTrue, sawFalse bool
		for _, row := range sel {
			if c.Bool(int(row)) {
				sawTrue = true
			} else {
				sawFalse = true
			}
			if sawTrue && sawFalse {
				return 2
			}
		}
		if sawTrue || sawFalse {
			return 1
		}
		return 0
	case IntValued:
		vals := c.Int64s()
		seen := make(map[int64]struct{}, 64)
		for _, row := range sel {
			seen[vals[row]] = struct{}{}
		}
		return len(seen)
	case FloatValued:
		vals := c.Float64s()
		seen := make(map[float64]struct{}, 64)
		for _, row := range sel {
			seen[vals[row]] = struct{}{}
		}
		return len(seen)
	default:
		seen := make(map[string]struct{}, 64)
		for _, row := range sel {
			seen[col.Value(int(row)).String()] = struct{}{}
		}
		return len(seen)
	}
}

// FloatMeanVar returns the mean and population variance of col over
// sel (used by the homogeneity proxy in the baseline comparison).
// ok is false when the selection is empty.
func FloatMeanVar(col FloatValued, sel Selection) (mean, variance float64, ok bool) {
	if len(sel) == 0 {
		return 0, 0, false
	}
	vals := col.Float64s()
	for _, row := range sel {
		mean += vals[row]
	}
	mean /= float64(len(sel))
	for _, row := range sel {
		d := vals[row] - mean
		variance += d * d
	}
	variance /= float64(len(sel))
	return mean, variance, true
}
