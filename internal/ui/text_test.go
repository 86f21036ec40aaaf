package ui

import (
	"strings"
	"testing"

	"charles/internal/core"
	"charles/internal/dataset"
	"charles/internal/sdl"
	"charles/internal/seg"
)

func sampleResult(t *testing.T) (*core.Result, sdl.Query, *seg.Evaluator) {
	t.Helper()
	tab := dataset.Figure3(2000, 1)
	ev := seg.NewEvaluator(tab)
	ctx := sdl.ContextAll(tab)
	res, err := core.HBCuts(nil, ev, ctx, core.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return res, ctx, ev
}

func TestBar(t *testing.T) {
	if got := Bar(0); strings.Contains(got, "█") {
		t.Fatalf("Bar(0) = %q", got)
	}
	if got := Bar(1); strings.Contains(got, "░") {
		t.Fatalf("Bar(1) = %q", got)
	}
	if got := Bar(0.5); strings.Count(got, "█") != BarWidth/2 {
		t.Fatalf("Bar(0.5) = %q", got)
	}
	// Clamped outside [0,1].
	if Bar(-1) != Bar(0) || Bar(2) != Bar(1) {
		t.Fatal("Bar not clamped")
	}
}

func TestRenderSegmentation(t *testing.T) {
	res, _, _ := sampleResult(t)
	out := RenderSegmentation(res.Segmentations[0].Seg)
	if !strings.Contains(out, "%") || !strings.Contains(out, "rows") {
		t.Fatalf("render = %q", out)
	}
	if n := strings.Count(out, "\n"); n != res.Segmentations[0].Seg.Depth() {
		t.Fatalf("rendered %d lines for %d segments", n, res.Segmentations[0].Seg.Depth())
	}
	// Only the cut attributes appear in slice labels, not the whole
	// context (Figure 1 labels slices compactly).
	if strings.Contains(out, "att4") && !contains(res.Segmentations[0].Seg.CutAttrs, "att4") {
		t.Fatal("label leaks non-cut attributes")
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

func TestRenderContext(t *testing.T) {
	_, ctx, _ := sampleResult(t)
	out := RenderContext(ctx, 2000)
	if !strings.Contains(out, "2000 rows") || !strings.Contains(out, "att1") {
		t.Fatalf("context render = %q", out)
	}
}

func TestRenderRanked(t *testing.T) {
	res, _, _ := sampleResult(t)
	out := RenderRanked(res, 3)
	if !strings.Contains(out, "#1") || !strings.Contains(out, "#3") {
		t.Fatalf("ranked render missing entries: %q", out)
	}
	if strings.Contains(out, "#4") {
		t.Fatal("ranked render exceeded top limit")
	}
	if !strings.Contains(out, "entropy=") {
		t.Fatal("metrics line missing")
	}
	// top=0 means all.
	all := RenderRanked(res, 0)
	if !strings.Contains(all, "#8") {
		t.Fatalf("top=0 did not render all %d answers", len(res.Segmentations))
	}
}

func TestRenderSQL(t *testing.T) {
	res, _, _ := sampleResult(t)
	q := res.Segmentations[0].Seg.Queries[0]
	out := RenderSQL(q, "figure3")
	if !strings.HasPrefix(out, "SELECT * FROM figure3 WHERE ") {
		t.Fatalf("sql = %q", out)
	}
}

func TestFormatMetricsStable(t *testing.T) {
	m := seg.Metrics{Entropy: 1.5, Depth: 4, Breadth: 2, Simplicity: 2, Balance: 0.75}
	want := "entropy=1.500 bits  depth=4  breadth=2  simplicity=2  balance=0.75"
	if got := FormatMetrics(m); got != want {
		t.Fatalf("FormatMetrics = %q, want %q", got, want)
	}
}
