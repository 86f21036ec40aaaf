package engine

// Selection is a sorted, duplicate-free vector of row ids — the
// candidate list produced by a predicate scan. It is MonetDB's
// candidate-list idiom: operators consume a selection and produce a
// narrower one, so conjunctions evaluate column-at-a-time without
// materializing rows.
type Selection []int32

// AllRows returns the identity selection 0..n−1.
func AllRows(n int) Selection {
	s := make(Selection, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// IntersectCount returns |a ∩ b| without materializing the result;
// this is the hot operation behind SDL products and INDEP.
func IntersectCount(a, b Selection) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// IsSorted reports whether the selection is sorted strictly
// ascending (the invariant all operators rely on).
func (s Selection) IsSorted() bool {
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			return false
		}
	}
	return true
}

// Clone returns a fresh copy of the selection.
func (s Selection) Clone() Selection {
	out := make(Selection, len(s))
	copy(out, s)
	return out
}
