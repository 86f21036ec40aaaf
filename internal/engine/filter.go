package engine

import "math"

// Range bounds for filters: lo/hi with independent inclusivity, the
// shape Definition 5 cuts produce ([min,med[ and [med,max]).
type IntRange struct {
	Lo, Hi         int64
	LoIncl, HiIncl bool
}

// Contains reports whether v falls inside the range.
func (r IntRange) Contains(v int64) bool {
	if v < r.Lo || (v == r.Lo && !r.LoIncl) {
		return false
	}
	if v > r.Hi || (v == r.Hi && !r.HiIncl) {
		return false
	}
	return true
}

// FloatRange is IntRange over float64. Note that Contains(NaN) is
// true — NaN fails both exclusion comparisons — so range filters
// keep NaN rows; the zone-map verdicts must honor the same
// convention. A NaN bound likewise excludes nothing on its side.
type FloatRange struct {
	Lo, Hi         float64
	LoIncl, HiIncl bool
}

// Contains reports whether v falls inside the range.
func (r FloatRange) Contains(v float64) bool {
	if v < r.Lo || (v == r.Lo && !r.LoIncl) {
		return false
	}
	if v > r.Hi || (v == r.Hi && !r.HiIncl) {
		return false
	}
	return true
}

// ordinals is the range of float ordinals holding r's numbers: a NaN
// bound opens its side to the infinity, and both zeros share +0's
// ordinal, as the stored values do. NaN rows are the caller's to add.
func (r FloatRange) ordinals() IntRange {
	o := IntRange{Lo: floatOrdinal(math.Inf(-1)), Hi: floatOrdinal(math.Inf(1)), LoIncl: true, HiIncl: true}
	if r.Lo == r.Lo {
		o.Lo, o.LoIncl = floatOrdinal(r.Lo), r.LoIncl
	}
	if r.Hi == r.Hi {
		o.Hi, o.HiIncl = floatOrdinal(r.Hi), r.HiIncl
	}
	return o
}

// The scan kernels below narrow one row-id chunk by one typed
// predicate. Each is the single row loop of its predicate:
// FilterChunked and PartitionChunked, for a chunk where one piece
// alone scans, both run it, so they cannot drift apart. The
// partition kernels (partition.go) are the same tests over several
// pieces at once.
//
// A kernel reads the column's backing slice directly — Int64s, Codes,
// Bools — and writes every row of seg into buf unconditionally,
// advancing the output cursor by the 0/1 outcome of the test (b2i
// compiles to a flag set, not a jump). So a row costs a load, a little
// arithmetic and a store: no call, no hash, and no branch whose
// direction depends on the data — the ≈50% selectivity a median cut
// produces would mispredict half of them. The predicate is resolved
// once per filter into that arithmetic form: an int, date or float
// range into one unsigned compare over ordinals (intSpan) — a float
// range adds one equality, for NaN's ordinal — and a string set or
// range into a dense bitset over dictionary codes (codeSet) whose
// per-row test is a bit extract. Only numeric sets (a map probe) and
// the summary-less string range (string compares) keep a
// data-dependent cost per row.

// scanKernel writes the rows of seg that satisfy a predicate into
// buf, in order, and returns how many it wrote. len(buf) ≥ len(seg).
type scanKernel func(seg, buf Selection) int

// b2i converts a comparison outcome to 0/1; the compiler turns this
// shape into a flag set, not a jump.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// scanNone is the kernel of a predicate no value can satisfy.
func scanNone(seg, buf Selection) int { return 0 }

// intSpan is a range over ordinals resolved to the closed interval
// [lo, lo+span]: v matches iff uint64(v-lo) <= span, because the
// subtraction wraps every v below lo to above span. nan marks a float
// range, which NaN's ordinal matches too (FloatRange.Contains(NaN) is
// true). empty marks an int or date range no int64 satisfies — Lo >
// Hi, or an exclusive bound at the edge of the domain (Lo = MaxInt64
// or Hi = MinInt64).
type intSpan struct {
	lo         int64
	span       uint64
	empty, nan bool
}

func (r IntRange) span() intSpan {
	lo, hi := r.Lo, r.Hi
	if !r.LoIncl {
		if lo == math.MaxInt64 {
			return intSpan{empty: true}
		}
		lo++
	}
	if !r.HiIncl {
		if hi == math.MinInt64 {
			return intSpan{empty: true}
		}
		hi--
	}
	if lo > hi {
		return intSpan{empty: true}
	}
	return intSpan{lo: lo, span: uint64(hi - lo)}
}

// span is r's span over float ordinals. A range no number satisfies
// still keeps NaN rows: its interval is [nanOrdinal, nanOrdinal],
// which adds nothing the NaN test does not already keep.
func (r FloatRange) span() intSpan {
	s := r.ordinals().span()
	if s.empty {
		s = intSpan{lo: nanOrdinal}
	}
	s.nan = true
	return s
}

func (s intSpan) kernel(vals []int64) scanKernel {
	switch {
	case s.empty:
		return scanNone
	case s.nan:
		return func(seg, buf Selection) int { return scanNaNRange(vals, s.lo, s.span, seg, buf) }
	}
	return func(seg, buf Selection) int { return scanIntRange(vals, s.lo, s.span, seg, buf) }
}

func scanIntRange(vals []int64, lo int64, span uint64, seg, buf Selection) int {
	n := 0
	for _, row := range seg {
		buf[n] = row
		n += b2i(uint64(vals[row]-lo) <= span)
	}
	return n
}

// scanNaNRange is scanIntRange that keeps NaN's ordinal too: the row
// kernel of a float range, and its NaN-aware step in a words chunk that
// may hold NaN (rowTest.shared).
func scanNaNRange(vals []int64, lo int64, span uint64, seg, buf Selection) int {
	n := 0
	for _, row := range seg {
		v := vals[row]
		buf[n] = row
		n += b2i(uint64(v-lo) <= span) | b2i(v == nanOrdinal)
	}
	return n
}

// codeSet is a dense bitset over a string column's dictionary codes:
// bit code is set when rows holding that code match.
type codeSet []uint64

func (s codeSet) has(code uint32) bool {
	i := int(code >> 6)
	return i < len(s) && s[i]>>(code&63)&1 != 0
}

func (s codeSet) kernel(codes []uint32) scanKernel {
	return func(seg, buf Selection) int { return scanCodeSet(codes, s, seg, buf) }
}

func scanCodeSet(codes []uint32, want codeSet, seg, buf Selection) int {
	n := 0
	for _, row := range seg {
		code := codes[row]
		buf[n] = row
		n += int(want[code>>6] >> (code & 63) & 1)
	}
	return n
}

// add sets code's bit, sizing the set to the dictionary on first use.
func (s *codeSet) add(code uint32, dictLen int) {
	if *s == nil {
		*s = make(codeSet, (dictLen+63)/64)
	}
	(*s)[code>>6] |= 1 << (code & 63)
}

// stringCodeSet resolves values to dictionary codes: one map lookup
// per distinct value. nil when no value is in the dictionary.
func stringCodeSet(col *StringColumn, values []string) codeSet {
	var want codeSet
	for _, v := range values {
		if code, ok := col.CodeOf(v); ok {
			want.add(code, col.Cardinality())
		}
	}
	return want
}

// strRange is a lexicographic interval with independent inclusivity.
type strRange struct {
	lo, hi         string
	loIncl, hiIncl bool
}

func (r strRange) contains(v string) bool {
	if v < r.lo || (v == r.lo && !r.loIncl) {
		return false
	}
	return v < r.hi || (v == r.hi && r.hiIncl)
}

// codeSet resolves the interval to the dictionary codes whose value
// falls inside it: one string comparison per distinct value, so row
// scans and chunk verdicts both work on dense codes. nil when no
// dictionary value is inside.
func (r strRange) codeSet(col *StringColumn) codeSet {
	var want codeSet
	for code := uint32(0); int(code) < col.Cardinality(); code++ {
		if r.contains(col.DictValue(code)) {
			want.add(code, col.Cardinality())
		}
	}
	return want
}

func (r strRange) kernel(col *StringColumn) scanKernel {
	return func(seg, buf Selection) int {
		n := 0
		for _, row := range seg {
			if r.contains(col.Str(int(row))) {
				buf[n] = row
				n++
			}
		}
		return n
	}
}

// hullSet builds a numeric set constraint's membership map plus its
// hull [lo, hi] for zone-map pruning.
func hullSet(values []int64) (want map[int64]struct{}, lo, hi int64) {
	want = make(map[int64]struct{}, len(values))
	lo, hi = values[0], values[0]
	for _, v := range values {
		want[v] = struct{}{}
		lo, hi = min(lo, v), max(hi, v)
	}
	return want, lo, hi
}

// scanSet is the numeric set kernel: one map probe per row.
func scanSet(vals []int64, want map[int64]struct{}, seg, buf Selection) int {
	n := 0
	for _, row := range seg {
		_, ok := want[vals[row]]
		buf[n] = row
		n += b2i(ok)
	}
	return n
}

// boolWants folds a bool set constraint into its two flags.
func boolWants(values []bool) (wantTrue, wantFalse bool) {
	for _, v := range values {
		if v {
			wantTrue = true
		} else {
			wantFalse = true
		}
	}
	return wantTrue, wantFalse
}

func scanBoolSet(vals []bool, wantTrue, wantFalse bool, seg, buf Selection) int {
	t, f := b2i(wantTrue), b2i(wantFalse)
	n := 0
	for _, row := range seg {
		v := b2i(vals[row])
		buf[n] = row
		n += v&t | (v^1)&f
	}
	return n
}
