package engine

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAllRows(t *testing.T) {
	s := AllRows(5)
	if len(s) != 5 || s[0] != 0 || s[4] != 4 || !s.IsSorted() {
		t.Fatalf("AllRows(5) = %v", s)
	}
	if s := AllRows(0); len(s) != 0 {
		t.Fatalf("AllRows(0) = %v", s)
	}
}

// refIntersectCount counts a's rows that b holds, by membership.
func refIntersectCount(a, b Selection) int {
	in := make(map[int32]bool, len(b))
	for _, row := range b {
		in[row] = true
	}
	n := 0
	for _, row := range a {
		if in[row] {
			n++
		}
	}
	return n
}

func TestIntersect(t *testing.T) {
	a := Selection{1, 3, 5, 7, 9}
	b := Selection{2, 3, 4, 7, 10}
	if n := IntersectCount(a, b); n != 2 {
		t.Fatalf("IntersectCount = %d, want 2", n)
	}
	if n := IntersectCount(a, Selection{}); n != 0 {
		t.Fatalf("IntersectCount with empty = %d", n)
	}
}

func TestIntersectCommutesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomSelection(rng, 200)
		b := randomSelection(rng, 200)
		want := refIntersectCount(a, b)
		return IntersectCount(a, b) == want && IntersectCount(b, a) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectSubsetProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomSelection(rng, 300)
		// |a ∩ a| == |a ∩ all| == |a|.
		return IntersectCount(a, a) == len(a) && IntersectCount(a, AllRows(400)) == len(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func randomSelection(rng *rand.Rand, universe int) Selection {
	out := Selection{}
	for i := 0; i < universe; i++ {
		if rng.Intn(3) == 0 {
			out = append(out, int32(i))
		}
	}
	return out
}

func TestSelectionClone(t *testing.T) {
	a := Selection{1, 2, 3}
	b := a.Clone()
	b[0] = 9
	if a[0] != 1 {
		t.Fatal("Clone aliased its input")
	}
}

func TestIsSorted(t *testing.T) {
	if !(Selection{}).IsSorted() || !(Selection{1}).IsSorted() || !(Selection{1, 2}).IsSorted() {
		t.Fatal("sorted selections misreported")
	}
	if (Selection{2, 1}).IsSorted() || (Selection{1, 1}).IsSorted() {
		t.Fatal("unsorted/duplicated selections misreported")
	}
}
