package stats

import (
	"math"
	"testing"
)

// chiSquare runs ChiSquareFlat over a row-major copy of cells.
func chiSquare(cells [][]int) (float64, int) {
	flat, nRows, nCols := flatten(cells)
	return ChiSquareFlat(flat, nRows, nCols, make([]float64, nRows), make([]float64, nCols))
}

func flatten(cells [][]int) (flat []int, nRows, nCols int) {
	for _, row := range cells {
		flat = append(flat, row...)
	}
	if len(cells) > 0 {
		nRows, nCols = len(cells), len(cells[0])
	}
	return flat, nRows, nCols
}

func TestChiSquareIndependentTable(t *testing.T) {
	// Counts exactly proportional to marginal products: stat must be 0.
	cells := [][]int{{20, 30}, {40, 60}}
	stat, dof := chiSquare(cells)
	if dof != 1 {
		t.Fatalf("dof = %d, want 1", dof)
	}
	if !almostEqual(stat, 0, 1e-9) {
		t.Fatalf("stat = %v, want 0", stat)
	}
	if p := ChiSquarePValue(stat, dof); !almostEqual(p, 1, 1e-9) {
		t.Fatalf("p = %v, want 1", p)
	}
}

func TestChiSquareStrongDependence(t *testing.T) {
	cells := [][]int{{100, 0}, {0, 100}}
	stat, dof := chiSquare(cells)
	if dof != 1 {
		t.Fatalf("dof = %d, want 1", dof)
	}
	if !almostEqual(stat, 200, 1e-9) {
		t.Fatalf("stat = %v, want 200", stat)
	}
	if p := ChiSquarePValue(stat, dof); p > 1e-20 {
		t.Fatalf("p = %v, want ~0", p)
	}
}

func TestChiSquareIgnoresEmptyRowsCols(t *testing.T) {
	with := [][]int{{10, 20}, {0, 0}, {30, 5}}
	without := [][]int{{10, 20}, {30, 5}}
	s1, d1 := chiSquare(with)
	s2, d2 := chiSquare(without)
	if d1 != d2 || !almostEqual(s1, s2, 1e-9) {
		t.Fatalf("empty row changed result: (%v,%d) vs (%v,%d)", s1, d1, s2, d2)
	}
}

func TestChiSquareDegenerate(t *testing.T) {
	if s, d := chiSquare(nil); s != 0 || d != 0 {
		t.Fatalf("nil table: stat=%v dof=%d", s, d)
	}
	if s, d := chiSquare([][]int{{5, 7}}); s != 0 || d != 0 {
		t.Fatalf("one-row table: stat=%v dof=%d", s, d)
	}
}

func TestChiSquarePValueKnownValues(t *testing.T) {
	// Chi-squared with 1 dof: P(X >= 3.841) ≈ 0.05.
	if p := ChiSquarePValue(3.841, 1); math.Abs(p-0.05) > 1e-3 {
		t.Fatalf("p(3.841, 1) = %v, want ≈0.05", p)
	}
	// Chi-squared with 2 dof: P(X >= x) = exp(-x/2).
	for _, x := range []float64{0.5, 1, 2, 5, 10} {
		want := math.Exp(-x / 2)
		if p := ChiSquarePValue(x, 2); math.Abs(p-want) > 1e-9 {
			t.Fatalf("p(%v, 2) = %v, want %v", x, p, want)
		}
	}
	// Large stat goes to 0, zero stat to 1.
	if p := ChiSquarePValue(0, 4); p != 1 {
		t.Fatalf("p(0,4) = %v, want 1", p)
	}
	if p := ChiSquarePValue(1e4, 4); p > 1e-100 {
		t.Fatalf("p(1e4,4) = %v, want ~0", p)
	}
}

func TestChiSquareIndependentHelper(t *testing.T) {
	independent := func(cells [][]int) bool {
		flat, nRows, nCols := flatten(cells)
		return ChiSquareIndependentFlat(flat, nRows, nCols, make([]float64, nRows), make([]float64, nCols), 0.05)
	}
	if !independent([][]int{{25, 25}, {25, 25}}) {
		t.Fatal("balanced independent table rejected")
	}
	if independent([][]int{{100, 0}, {0, 100}}) {
		t.Fatal("diagonal table accepted as independent")
	}
}
