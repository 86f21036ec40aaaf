// Package stats provides the numerical foundations used throughout
// Charles: entropy, order statistics (medians, quantiles), frequency
// split points for nominal domains, systematic sampling, and a
// chi-squared independence test. It has no dependencies on the rest
// of the repository.
package stats

import "math"

// Entropy returns the Shannon entropy, in bits, of the empirical
// distribution induced by counts. Zero counts contribute nothing
// (lim p→0 of p·log p). The result is 0 for an empty or single-class
// input and at most log2(k) for k non-zero classes.
func Entropy(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c <= 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	if h < 0 { // guard against -0 and rounding noise
		h = 0
	}
	return h
}

// MaxEntropy returns log2(k), the entropy of a perfectly balanced
// k-way split, and 0 for k < 2.
func MaxEntropy(k int) float64 {
	if k < 2 {
		return 0
	}
	return math.Log2(float64(k))
}

// BalanceRatio returns Entropy(counts)/log2(k) where k is the number
// of non-zero classes: 1 for a perfectly balanced split, approaching
// 0 for a degenerate one. It returns 1 when fewer than two classes
// are populated (a single piece is trivially "balanced").
func BalanceRatio(counts []int) float64 {
	k := 0
	for _, c := range counts {
		if c > 0 {
			k++
		}
	}
	if k < 2 {
		return 1
	}
	return Entropy(counts) / MaxEntropy(k)
}
