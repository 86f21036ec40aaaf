package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestEntropyEmpty(t *testing.T) {
	if got := Entropy(nil); got != 0 {
		t.Fatalf("Entropy(nil) = %v, want 0", got)
	}
	if got := Entropy([]int{0, 0, 0}); got != 0 {
		t.Fatalf("Entropy(zeros) = %v, want 0", got)
	}
}

func TestEntropySinglePiece(t *testing.T) {
	if got := Entropy([]int{42}); got != 0 {
		t.Fatalf("Entropy(single) = %v, want 0", got)
	}
}

func TestEntropyBalancedSplit(t *testing.T) {
	for k := 2; k <= 16; k++ {
		counts := make([]int, k)
		for i := range counts {
			counts[i] = 100
		}
		if got, want := Entropy(counts), math.Log2(float64(k)); !almostEqual(got, want, 1e-12) {
			t.Errorf("Entropy(balanced %d-way) = %v, want %v", k, got, want)
		}
	}
}

func TestEntropyIgnoresZeroCells(t *testing.T) {
	a := Entropy([]int{10, 20, 30})
	b := Entropy([]int{10, 0, 20, 0, 30, 0})
	if !almostEqual(a, b, 1e-12) {
		t.Fatalf("zero cells changed entropy: %v vs %v", a, b)
	}
}

func TestEntropySkewLowersEntropy(t *testing.T) {
	balanced := Entropy([]int{50, 50})
	skewed := Entropy([]int{90, 10})
	if skewed >= balanced {
		t.Fatalf("skewed entropy %v not below balanced %v", skewed, balanced)
	}
}

func TestEntropyBoundsProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		counts := make([]int, len(raw))
		k := 0
		for i, r := range raw {
			counts[i] = int(r)
			if r > 0 {
				k++
			}
		}
		h := Entropy(counts)
		return h >= 0 && h <= MaxEntropy(k)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxEntropy(t *testing.T) {
	if MaxEntropy(0) != 0 || MaxEntropy(1) != 0 {
		t.Fatal("MaxEntropy of degenerate k must be 0")
	}
	if got := MaxEntropy(8); !almostEqual(got, 3, 1e-12) {
		t.Fatalf("MaxEntropy(8) = %v, want 3", got)
	}
}

func TestBalanceRatio(t *testing.T) {
	if got := BalanceRatio([]int{25, 25, 25, 25}); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("balanced ratio = %v, want 1", got)
	}
	if got := BalanceRatio([]int{97, 1, 1, 1}); got >= 0.5 {
		t.Fatalf("skewed ratio = %v, want < 0.5", got)
	}
	if got := BalanceRatio([]int{100}); got != 1 {
		t.Fatalf("single-piece ratio = %v, want 1", got)
	}
}
