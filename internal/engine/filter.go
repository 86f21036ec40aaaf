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

// The scan kernels below narrow one chunk's segment by one typed
// predicate. Each is the single row loop of its predicate: the
// row-id driver (FilterChunked), the bitmap driver
// (FilterChunkedBitmap) and the partition driver, for a chunk where
// one piece alone scans, all run it, so the output representations
// cannot drift apart. The partition kernels (partition.go) are the
// same tests over several pieces at once.
//
// A kernel reads the column's backing slice directly — Int64s,
// Float64s, Codes, Bools — and writes every row of seg into buf
// unconditionally, advancing the output cursor by the 0/1 outcome of
// the test (b2i compiles to a flag set, not a jump). So a row costs a
// load, a little arithmetic and a store: no call, no hash, and no
// branch whose direction depends on the data — the ≈50% selectivity a
// median cut produces would mispredict half of them. The predicate is
// resolved once per filter into that arithmetic form: an int range
// into one unsigned compare (intSpan), a float range into one
// unsigned compare in order-preserving key space plus a NaN test
// (floatSpan), and a string set or range into a dense bitset over
// dictionary codes (codeSet) whose per-row test is a bit extract.
// Only int/float sets (a map probe) and the summary-less string range
// (string compares) keep a data-dependent cost per row.

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

// intSpan is an IntRange resolved to the closed interval
// [lo, lo+span]: v matches iff uint64(v-lo) <= span, because the
// subtraction wraps every v below lo to above span. empty marks a
// range no int64 satisfies — Lo > Hi, or an exclusive bound at the
// edge of the domain (Lo = MaxInt64 or Hi = MinInt64).
type intSpan struct {
	lo    int64
	span  uint64
	empty bool
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

func (s intSpan) kernel(vals []int64) scanKernel {
	if s.empty {
		return scanNone
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

// floatKey maps a float64 to a uint64 whose unsigned order is the
// float order: non-negative values gain the sign bit, negative values
// are complemented. -0.0 lands one key below +0.0 (no float lies
// between them), and NaNs land above +Inf's key or below -Inf's.
func floatKey(v float64) uint64 {
	b := math.Float64bits(v)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

var (
	keyNegInf  = floatKey(math.Inf(-1))
	keyPosInf  = floatKey(math.Inf(1))
	keyNegZero = floatKey(math.Copysign(0, -1))
	keyPosZero = floatKey(0)
)

// floatSpan is a FloatRange resolved to the closed key interval
// [lo, lo+span]: v matches iff uint64(floatKey(v)-lo) <= span or v is
// NaN (FloatRange.Contains(NaN) is true). Both zeros compare equal to
// a zero bound, so a zero bound covers or excludes the two adjacent
// zero keys together. A NaN bound leaves its side open.
type floatSpan struct{ lo, span uint64 }

func (r FloatRange) span() floatSpan {
	lo, hi := keyNegInf, keyPosInf
	switch {
	case r.Lo != r.Lo: // NaN: no lower limit
	case r.Lo == 0 && r.LoIncl:
		lo = keyNegZero
	case r.Lo == 0:
		lo = keyPosZero + 1
	case r.LoIncl:
		lo = floatKey(r.Lo)
	default:
		lo = floatKey(r.Lo) + 1
	}
	switch {
	case r.Hi != r.Hi:
	case r.Hi == 0 && r.HiIncl:
		hi = keyPosZero
	case r.Hi == 0:
		hi = keyNegZero - 1
	case r.HiIncl:
		hi = floatKey(r.Hi)
	default:
		hi = floatKey(r.Hi) - 1
	}
	if lo > hi || lo > keyPosInf || hi < keyNegInf {
		// No number qualifies; only NaN rows match. Key 0 is a NaN's,
		// so [0, 0] adds nothing the NaN test does not already keep.
		return floatSpan{}
	}
	return floatSpan{lo: lo, span: hi - lo}
}

func (s floatSpan) kernel(vals []float64) scanKernel {
	return func(seg, buf Selection) int { return scanFloatRange(vals, s.lo, s.span, seg, buf) }
}

func scanFloatRange(vals []float64, lo, span uint64, seg, buf Selection) int {
	n := 0
	for _, row := range seg {
		v := vals[row]
		buf[n] = row
		n += b2i(floatKey(v)-lo <= span) | b2i(v != v)
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

// hullSet builds a set constraint's membership map plus its hull
// [lo, hi] for zone-map pruning. NaN values enter the map (as
// unreachable entries: map lookups never find NaN keys, so NaN rows
// match no set) but not the hull; an all-NaN set keeps the hull
// [0, 0], harmless since nothing can match it.
func hullSet[T int64 | float64](values []T) (want map[T]struct{}, lo, hi T) {
	want = make(map[T]struct{}, len(values))
	first := true
	for _, v := range values {
		want[v] = struct{}{}
		switch {
		case v != v: // NaN
		case first:
			lo, hi, first = v, v, false
		default:
			lo, hi = min(lo, v), max(hi, v)
		}
	}
	return want, lo, hi
}

// scanSet is the int and float set kernel: one map probe per row.
func scanSet[T int64 | float64](vals []T, want map[T]struct{}, seg, buf Selection) int {
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
