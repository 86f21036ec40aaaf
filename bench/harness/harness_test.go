package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"charles"
)

// Small tables keep the whole file to a few seconds under plain
// `go test ./...`; the generators and binders do not care about size.
const testRows = 20_000

var testSizes = Sizes{Rows: testRows, SetupReps: 1, ColdRounds: 1, Sessions: 6, Clients: 2, ClientOps: 20,
	AppendBatches: 3, BatchRows: 50, ReaderOps: 8, DeepChecks: 1}

func TestOpListDigestFollowsTheSeed(t *testing.T) {
	for _, s := range Workloads {
		a, b, c := OpListDigest(s.Name, 7, testSizes), OpListDigest(s.Name, 7, testSizes), OpListDigest(s.Name, 8, testSizes)
		if a != b {
			t.Errorf("%s: seed 7 gave two digests", s.Name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same digest", s.Name)
		}
	}
}

func TestGeneratedContextsBind(t *testing.T) {
	tabs := map[string]*charles.Table{"voc": charles.GenerateVOC(testRows, 3), "sky": charles.GenerateSkySurvey(testRows, 3)}
	bind := func(table, sdl string) {
		t.Helper()
		if _, err := charles.ParseQuery(sdl, tabs[table]); err != nil {
			t.Errorf("%s does not bind on %s: %v", sdl, table, err)
		}
	}
	for seed := int64(1); seed <= 5; seed++ {
		for _, c := range ColdContexts(seed) {
			bind(c.Table, c.SDL)
		}
		seen := map[string]bool{}
		for _, ops := range ServePlan(seed, 2, 427) {
			hot := 0
			for _, op := range ops {
				bind("voc", op.SDL)
				if op.Hot {
					hot++
				} else if seen[op.SDL] {
					t.Errorf("seed %d: novel context %s repeats, so it would hit the result LRU", seed, op.SDL)
				}
				seen[op.SDL] = true
			}
			if hot != 299 {
				t.Errorf("seed %d: %d of 427 ops are hot, want 299 (70%%)", seed, hot)
			}
		}
	}
	for _, list := range [][]string{DrillRoots, HotContexts, ReaderContexts} {
		for _, sdl := range list {
			bind("voc", sdl)
		}
	}
}

func TestAppendRowsBind(t *testing.T) {
	tab := charles.GenerateVOC(testRows, 3)
	plan := NewAppendPlan(3, 4, 25)
	for _, batch := range plan.Batches {
		if err := tab.AppendRows(batch...); err != nil {
			t.Fatalf("generated rows do not append: %v", err)
		}
	}
	if got := tab.NumRows(); got != testRows+100 {
		t.Fatalf("table holds %d rows after appending 100 to %d", got, testRows)
	}
	// The JSON form must carry every column, dates as YYYY-MM-DD.
	row := plan.JSONRow(plan.Batches[0][0])
	if len(row) != tab.NumCols() {
		t.Fatalf("JSON row has %d fields, table has %d columns", len(row), tab.NumCols())
	}
	if d, ok := row["departure_date"].(string); !ok || len(d) != 10 || d[4] != '-' {
		t.Errorf("departure_date renders as %#v, want a YYYY-MM-DD string", row["departure_date"])
	}
	if _, ok := row["tonnage"].(int64); !ok {
		t.Errorf("tonnage renders as %T, want an integer", row["tonnage"])
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{12, 50}, {39, 50}, {40, 75}, {48, 75}, {99, 75}, {100, 90}, {160, 90}, {200, 95}, {480, 95}, {1000, 99}, {1200, 99}, {10000, 99.9}} {
		got := TailPercentile(tc.n)
		if got != tc.want {
			t.Errorf("n=%d: tail percentile %g, want %g", tc.n, got, tc.want)
		}
		if got != 50 {
			if beyond := tc.n - (rankOf(tc.n, got) + 1); beyond < 10 {
				t.Errorf("n=%d: p%g leaves only %d samples beyond it", tc.n, got, beyond)
			}
		}
	}
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := Percentile(s, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90 (ten samples beyond it)", got)
	}
	if got := Median(s); got != 50.5 {
		t.Errorf("median of 1..100 = %g, want 50.5", got)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := Quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, med, q3 = Quartiles([]float64{1, 2})
	if q1 != 0.75 || med != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %g %g %g, want 0.75 1.5 2.25", q1, med, q3)
	}
}

func TestHitMissClassification(t *testing.T) {
	res := &JSONResult{Context: "(a:)"}
	var out Outcome
	log := clientLog{}
	// What Client.Advise reports for the three reply kinds.
	for _, rep := range []*AdviseReply{
		{Hit: true, Job: JSONJob{State: "done", Cached: true, Result: res}},                          // result-LRU hit
		{Hit: false, Job: JSONJob{State: "done", Result: res}, SubmitMS: 1, PollMS: []float64{1, 2}}, // ran an advise
	} {
		log.book(rep, "(a:)")
	}
	log.errs = append(log.errs, "POST /advise: status 503 queue full")
	out.merge(&log, 3)
	if len(out.HitMS) != 1 || len(out.AdviseMS) != 1 {
		t.Fatalf("hits %d, advises %d; want 1 and 1", len(out.HitMS), len(out.AdviseMS))
	}
	if out.AdviseOps != 2 || out.Attempted != 3 || out.Failed != 1 {
		t.Errorf("ops %d attempted %d failed %d; want 2, 3, 1: a refusal leaves no denominator", out.AdviseOps, out.Attempted, out.Failed)
	}
	if len(out.DonePollMS) != 1 || out.DonePollMS[0] != 2 {
		t.Errorf("done-poll samples %v, want the last poll only", out.DonePollMS)
	}
}

func TestZoomTargetStaysInRange(t *testing.T) {
	adv := charles.NewAdvisor(charles.GenerateVOC(testRows, 3), charles.DefaultConfig())
	res, err := adv.AdviseString(DrillRoots[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range DrillPlan(9, 50) {
		a, g := zoomTarget(res, s.Picks[0])
		if a < 0 || a >= 3 || a >= len(res.Segmentations) {
			t.Fatalf("answer %d is not among the top three of %d", a, len(res.Segmentations))
		}
		if _, err := adv.Zoom(res, a, g); err != nil {
			t.Fatalf("zoom %d/%d: %v", a, g, err)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	file := func(values ...float64) *ResultFile {
		f := &ResultFile{}
		for _, v := range values {
			f.Sets = append(f.Sets, map[string]WorkloadResult{ColdExplore: {Metrics: []Metric{
				{Name: "advise_p50_ms", Unit: "ms", Value: v},
				{Name: "advises_per_s", Unit: "1/s", Value: 1000 / v},
				{Name: "hit_p50_ms", Unit: "ms", Value: v},
			}}})
		}
		return f
	}
	bounds := map[string]Bound{"advise_p50_ms": {Lower, 0.10}, "advises_per_s": {Higher, 0.10}}
	verdict := func(old, new *ResultFile, metric string) string {
		for _, v := range Compare(old, new, bounds) {
			if v.Metric == metric {
				return v.Verdict
			}
		}
		return "missing"
	}
	steady := file(100, 101, 99, 100, 102)
	for _, tc := range []struct {
		name   string
		new    *ResultFile
		metric string
		want   string
	}{
		{"within bound", file(105, 104, 106, 105, 105), "advise_p50_ms", "ok"},
		{"slower beyond bound", file(120, 121, 119, 120, 122), "advise_p50_ms", "REGRESSION"},
		{"throughput falls with it", file(120, 121, 119, 120, 122), "advises_per_s", "REGRESSION"},
		{"faster beyond bound", file(80, 81, 79, 80, 82), "advise_p50_ms", "improved"},
		{"throughput rises with it", file(80, 81, 79, 80, 82), "advises_per_s", "improved"},
		{"spread wider than bound", file(90, 130, 100, 140, 80), "advise_p50_ms", "unresolved"},
		{"no bound, no verdict", file(300, 300, 300, 300, 300), "hit_p50_ms", "info"},
	} {
		if got := verdict(steady, tc.new, tc.metric); got != tc.want {
			t.Errorf("%s: %s judged %s, want %s", tc.name, tc.metric, got, tc.want)
		}
	}
	var sb strings.Builder
	if n := PrintVerdicts(&sb, Compare(steady, file(120, 121, 119, 120, 122), bounds)); n != 2 {
		t.Errorf("%d regressions counted, want 2:\n%s", n, sb.String())
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json, which the
// driver reads, in step with the catalogues the code prints from.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit string
		Better     Direction
		Bound      float64
	}
	var doc struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(doc.Workloads), len(Workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != Workloads[i].Name || w.Why != Workloads[i].Why {
			t.Errorf("workload %d is %q (%q), the code says %q (%q)", i, w.Name, w.Why, Workloads[i].Name, Workloads[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, listed []metric, defs []MetricDef, bounded bool) {
		var want []MetricDef
		for _, d := range defs {
			if d.Universal {
				want = append(want, d)
			}
		}
		if len(listed) != len(want) {
			t.Errorf("%s: %d metrics listed, %d universal in the catalogue", kind, len(listed), len(want))
			return
		}
		for i, m := range listed {
			d := want[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || (bounded && m.Bound != d.Bound) {
				t.Errorf("%s %d: listed %+v, catalogue %s %s %s %g", kind, i, m, d.Name, d.Unit, d.Better, d.Bound)
			}
			if len(m.Name) > 64 || len(m.Unit) > 16 {
				t.Errorf("%s: name or unit too long for the contract", m.Name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, EndToEnd, true)
	check("per_layer", doc.PerLayer, PerLayer, false)
	if len(doc.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics listed, the contract allows 128", len(doc.PerLayer))
	}
}
