package obs

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Errorf("nil counter Value() = %d", c.Value())
	}
	var g *Gauge
	g.Set(3)
	g.Inc()
	g.Dec()
	if g.Value() != 0 {
		t.Errorf("nil gauge Value() = %d", g.Value())
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram is not inert")
	}
	var tr *Trace
	sp := tr.Start("x")
	sp.Child("y").End()
	sp.End()
	tr.Observe("z", time.Second)
	if tr.Summary() != nil {
		t.Error("nil trace Summary() != nil")
	}
	if TraceFrom(nil) != nil {
		t.Error("TraceFrom(nil ctx) != nil")
	}
}

func TestCounterConcurrent(t *testing.T) {
	c := &Counter{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("Value() = %d, want 8000", c.Value())
	}
	c.Add(-5)
	if c.Value() != 8000 {
		t.Error("counter accepted a negative add")
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 10} {
		h.Observe(v)
	}
	h.Observe(math.NaN())
	if h.Count() != 5 {
		t.Errorf("Count() = %d, want 5", h.Count())
	}
	if got := h.Sum(); math.Abs(got-16.5) > 1e-9 {
		t.Errorf("Sum() = %g, want 16.5", got)
	}
	counts, inf := h.snapshot()
	wantCounts := []int64{1, 2, 1}
	for i, w := range wantCounts {
		if counts[i] != w {
			t.Errorf("bucket[%d] = %d, want %d", i, counts[i], w)
		}
	}
	if inf != 1 {
		t.Errorf("overflow bucket = %d, want 1", inf)
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unsorted bounds did not panic")
		}
	}()
	NewHistogram([]float64{2, 1})
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("charles_test_hits_total", "test hits")
	g := r.NewGauge("charles_test_depth", "queue depth")
	r.NewGaugeFunc("charles_test_live", "live value", func() int64 { return 7 })
	h := r.NewHistogram("charles_test_seconds", "latency", []float64{0.1, 1})
	c.Add(3)
	g.Set(-2)
	h.Observe(0.05)
	h.Observe(5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP charles_test_hits_total test hits\n# TYPE charles_test_hits_total counter\ncharles_test_hits_total 3\n",
		"charles_test_depth -2\n",
		"charles_test_live 7\n",
		"# TYPE charles_test_seconds histogram\n",
		"charles_test_seconds_bucket{le=\"0.1\"} 1\n",
		"charles_test_seconds_bucket{le=\"1\"} 1\n",
		"charles_test_seconds_bucket{le=\"+Inf\"} 2\n",
		"charles_test_seconds_sum 5.05\n",
		"charles_test_seconds_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	names := r.Names()
	if len(names) != 4 || names[0] != "charles_test_hits_total" {
		t.Errorf("Names() = %v", names)
	}
}

func TestRegistryRejectsBadNames(t *testing.T) {
	for _, bad := range []string{"hits_total", "charles_UpperCase", "charles_", "charles__double", "charles_has-dash"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", bad)
				}
			}()
			NewRegistry().NewCounter(bad, "")
		}()
	}
	r := NewRegistry()
	r.NewCounter("charles_dup_total", "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.NewCounter("charles_dup_total", "")
}

func TestTraceAccumulatesStages(t *testing.T) {
	tr := NewTrace()
	for i := 0; i < 3; i++ {
		sp := tr.Start("pairs")
		ch := sp.Child("chi2")
		ch.End()
		sp.End()
	}
	tr.Observe("queue_wait", 5*time.Millisecond)
	sum := tr.Summary()
	if len(sum) != 2 {
		t.Fatalf("Summary() has %d top stages, want 2: %+v", len(sum), sum)
	}
	pairs := sum[0]
	if pairs.Name != "pairs" || pairs.Count != 3 {
		t.Errorf("pairs stage = %+v", pairs)
	}
	if len(pairs.Children) != 1 || pairs.Children[0].Name != "chi2" || pairs.Children[0].Count != 3 {
		t.Errorf("chi2 child = %+v", pairs.Children)
	}
	if sum[1].Name != "queue_wait" || sum[1].DurationNS < int64(5*time.Millisecond) {
		t.Errorf("queue_wait stage = %+v", sum[1])
	}
	if _, err := json.Marshal(sum); err != nil {
		t.Errorf("summary does not marshal: %v", err)
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	tr := NewTrace()
	ctx := ContextWithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Error("TraceFrom did not return the stored trace")
	}
	if ContextWithTrace(ctx, nil) != ctx {
		t.Error("ContextWithTrace(nil) must be a no-op")
	}
	if TraceFrom(context.Background()) != nil {
		t.Error("TraceFrom on a bare ctx should be nil")
	}
}
