package harness

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail metric may resolve to,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// rankOf is the nearest-rank index of percentile p in n sorted
// samples.
func rankOf(n int, p float64) int {
	i := int(math.Ceil(p*float64(n)/100-1e-9)) - 1 // the epsilon keeps 99.9% of 10000 at 9990
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// TailPercentile returns the highest ladder percentile that still has
// at least ten of n samples beyond it — a p99 over 120 samples is one
// sample's opinion. Below 40 samples no ladder entry qualifies and
// the median is all the data supports.
func TailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-(rankOf(n, p)+1) >= 10 {
			return p
		}
	}
	return 50
}

// Percentile is the nearest-rank percentile of sorted samples.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(len(sorted), p)]
}

// Median is the middle sample, or the mean of the middle two.
func Median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// Sorted returns an ascending copy.
func Sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// MedianTail summarizes raw latency samples as the two metrics every
// latency family reports.
func MedianTail(p50Name, tailName, unit string, samples []float64) (Metric, Metric) {
	s := Sorted(samples)
	pct := TailPercentile(len(s))
	return Metric{Name: p50Name, Unit: unit, Value: Median(s), N: len(s)},
		Metric{Name: tailName, Unit: unit, Value: Percentile(s, pct), N: len(s), Pct: pct}
}

// Quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) computes them (the
// exclusive method), which is what the driver uses to judge spread.
func Quartiles(values []float64) (q1, med, q3 float64) {
	s := Sorted(values)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// Spread is the interquartile distance as a share of the median.
func Spread(values []float64) float64 {
	q1, med, q3 := Quartiles(values)
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}
