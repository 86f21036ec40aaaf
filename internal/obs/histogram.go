package obs

import (
	"math"
	"sync/atomic"
)

// Histogram counts observations into fixed upper-bound buckets, the
// same cumulative-bucket model Prometheus uses. Buckets are chosen
// at construction and never change, so Observe is lock-free: one
// binary search plus three atomic adds. A nil *Histogram discards
// observations.
type Histogram struct {
	bounds []float64 // sorted upper bounds, exclusive of +Inf
	counts []atomic.Int64
	inf    atomic.Int64  // observations above the last bound
	count  atomic.Int64  // total observations
	sum    atomic.Uint64 // math.Float64bits of the running sum
}

// DefaultLatencyBuckets spans 100µs to ~100s in roughly ×2.5 steps —
// wide enough for both an in-memory advise (~ms) and a cold 10M-row
// one (~seconds).
func DefaultLatencyBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
		0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
	}
}

// NewHistogram builds a histogram over the given sorted upper
// bounds. Callers normally go through Registry.NewHistogram.
func NewHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b))}
}

// Observe records one value. NaN is dropped.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	// Find the first bound >= v. Bucket counts are per-bucket here
	// and made cumulative at exposition time.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(h.counts) {
		h.counts[lo].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count reports the number of observations. Nil reads as zero.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the sum of observed values. Nil reads as zero.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// snapshot returns per-bucket counts (not cumulative) plus the
// overflow count, read bucket-at-a-time: histograms tolerate a
// torn read across concurrent Observes, which can only make the
// snapshot off by in-flight observations.
func (h *Histogram) snapshot() (counts []int64, inf int64) {
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts, h.inf.Load()
}
