// Pinning tests for the documented query-semantics corner cases in
// README.md ("Semantics notes"). These intentionally freeze observable
// behaviour that is surprising but deliberate; if one fails, either a
// semantics change slipped in or the README needs rewriting first.
package charles_test

import (
	"math"
	"slices"
	"testing"

	"charles"
	"charles/internal/engine"
	"charles/internal/sdl"
)

// TestNaNPieceCoversFloatFallback pins the NaN note from README.md:
// when the nominal fallback cuts a skewed float column that contains
// NaN rows, NaN is counted as one nominal value and lands in one
// piece's set constraint, which matches the NaN rows (NaN equals NaN
// in a set), so the pieces partition the whole context.
func TestNaNPieceCoversFloatFallback(t *testing.T) {
	const n = 2000
	vals := make([]float64, n)
	nan := 0
	for i := range vals {
		switch {
		case i%40 == 0: // ~2.5% NaN rows
			vals[i] = math.NaN()
			nan++
		case i%25 == 0: // rare tail value
			vals[i] = 4.25
		default: // ~92% majority value: collapses the equi-depth cut
			vals[i] = 2.0
		}
	}
	tab := engine.MustNewTable("pings",
		engine.NewFloatColumn("latency", vals),
	)
	adv := charles.NewAdvisor(tab, charles.DefaultConfig())
	res, err := adv.AdviseString("(latency:)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segmentations) == 0 {
		t.Fatal("no segmentation produced for skewed float column")
	}
	seg := res.Segmentations[0].Seg
	if len(seg.CutAttrs) != 1 || seg.CutAttrs[0] != "latency" {
		t.Fatalf("first answer cut on %v, want [latency]", seg.CutAttrs)
	}
	covered, nanPieces := 0, 0
	for i, q := range seg.Queries {
		covered += seg.Counts[i]
		if c, _ := q.Constraint("latency"); slices.ContainsFunc(c.Set, func(v engine.Value) bool { return math.IsNaN(v.AsFloat()) }) {
			nanPieces++
			if seg.Counts[i] < nan {
				t.Fatalf("piece %s holds %d rows, fewer than the %d NaN rows", q, seg.Counts[i], nan)
			}
		}
	}
	if covered != tab.NumRows() || nanPieces != 1 {
		t.Fatalf("pieces cover %d of %d rows, %d of them listing NaN; want every row, one piece listing NaN", covered, tab.NumRows(), nanPieces)
	}
}

// TestNumericFallbackOrdersValuesAsStrings pins the string order of the
// numeric-nominal fallback from README.md: a column whose minimum holds
// the majority is cut nominally, and with more distinct values than the
// frequency-order threshold its values are ordered by their rendered
// strings — "-1" < "-3" < "10" < "9". A strictly increasing map of the
// column (here x → x + 95) reorders those strings, so the pieces it
// splits the values into, and their counts, change with it: metamorphic
// relation 2 holds for range cuts only.
func TestNumericFallbackOrdersValuesAsStrings(t *testing.T) {
	const n = 1000
	vals, shifted := make([]int64, n), make([]int64, n)
	for i := range vals {
		vals[i] = -3 // the majority, at the minimum: the median cut collapses
		if i%10 >= 6 {
			vals[i] = -2 + int64(i*7%200)
		}
		shifted[i] = vals[i] + 95
	}
	counts := func(col []int64) []int {
		adv := charles.NewAdvisor(engine.MustNewTable("skew", engine.NewIntColumn("x", col)), charles.DefaultConfig())
		res, err := adv.AdviseString("(x:)")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Segmentations) == 0 {
			t.Fatal("the skewed column was not cut")
		}
		s := res.Segmentations[0].Seg
		for _, q := range s.Queries {
			if c, _ := q.Constraint("x"); c.Kind != sdl.KindSet {
				t.Fatalf("piece %s is not a fallback set", q)
			}
		}
		return s.Counts
	}
	a, b := counts(vals), counts(shifted)
	if slices.Equal(a, b) || slices.Equal(a, []int{b[1], b[0]}) {
		t.Fatalf("the fallback split %v and its shifted copy %v alike: it no longer orders by string", a, b)
	}
}
