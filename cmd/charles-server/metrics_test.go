package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"charles"
	"charles/internal/jobs"
)

// Prometheus text-format grammar, per the exposition spec: metadata
// comments name a family and its kind; samples are a metric name, an
// optional {le="..."} label set (the only labels this server emits),
// and a number.
var (
	rxHelp   = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .+$`)
	rxType   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
	rxSample = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{le="[^"]+"\})? (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|[+-]?Inf|NaN)$`)
)

// baseFamily strips the histogram sample suffixes so a sample line
// can be matched to its # TYPE declaration.
func baseFamily(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

// TestMetricsPrometheusGrammar drives one sync advise and one async
// job through the server, then parses GET /metrics line by line:
// every line must be well-formed, every sample must follow its
// family's # HELP/# TYPE metadata, histogram buckets must be
// cumulative and agree with _count, and the families from every
// layer (engine, seg, jobs, server) must be present.
func TestMetricsPrometheusGrammar(t *testing.T) {
	sv := testServer(t)
	c := newClient(t, sv)
	// Sync advise: populates the advise counter and the engine/seg
	// families. Async advise on a distinct context: populates the
	// jobs histograms and trace machinery.
	if _, body := c.get("/"); !strings.Contains(body, "Proposed segmentations") {
		t.Fatal("sync advise did not render")
	}
	if code, job := c.submitAdvise("(tonnage:)"); code == http.StatusAccepted {
		c.pollJob(job.ID)
	} else if code != http.StatusOK {
		t.Fatalf("async submit: %d", code)
	}

	resp, body := c.get("/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want the 0.0.4 text format", ct)
	}

	helpSeen := map[string]bool{}
	typeOf := map[string]string{}
	sampleValues := map[string]float64{}
	var bucketOrder []string // histogram bucket sample names in emission order
	bucketVals := map[string][]float64{}
	for i, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" {
			t.Errorf("line %d: empty line in exposition", i+1)
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			m := rxHelp.FindStringSubmatch(line)
			if m == nil {
				t.Errorf("line %d: malformed HELP: %q", i+1, line)
				continue
			}
			if helpSeen[m[1]] {
				t.Errorf("line %d: duplicate HELP for %s", i+1, m[1])
			}
			helpSeen[m[1]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			m := rxType.FindStringSubmatch(line)
			if m == nil {
				t.Errorf("line %d: malformed TYPE: %q", i+1, line)
				continue
			}
			if !helpSeen[m[1]] {
				t.Errorf("line %d: TYPE for %s precedes its HELP", i+1, m[1])
			}
			if _, dup := typeOf[m[1]]; dup {
				t.Errorf("line %d: duplicate TYPE for %s", i+1, m[1])
			}
			typeOf[m[1]] = m[2]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("line %d: unknown comment %q", i+1, line)
			continue
		}
		m := rxSample.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line %d: malformed sample: %q", i+1, line)
			continue
		}
		name, labels, valStr := m[1], m[2], m[3]
		fam := baseFamily(name)
		kind, declared := typeOf[fam]
		if !declared {
			// A non-suffixed name (plain counter/gauge) declares
			// itself.
			kind, declared = typeOf[name], typeOf[name] != ""
			fam = name
		}
		if !declared {
			t.Errorf("line %d: sample %s has no preceding # TYPE", i+1, name)
			continue
		}
		if labels != "" && kind != "histogram" {
			t.Errorf("line %d: le label on non-histogram %s", i+1, name)
		}
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Errorf("line %d: bad value %q: %v", i+1, valStr, err)
			continue
		}
		sampleValues[name] = val
		if strings.HasSuffix(name, "_bucket") {
			if len(bucketVals[name]) == 0 {
				bucketOrder = append(bucketOrder, name)
			}
			bucketVals[name] = append(bucketVals[name], val)
		}
	}

	// Buckets are cumulative: non-decreasing within a family, and the
	// last (+Inf) bucket equals _count.
	for _, name := range bucketOrder {
		vals := bucketVals[name]
		for i := 1; i < len(vals); i++ {
			if vals[i] < vals[i-1] {
				t.Errorf("%s buckets not cumulative: %v", name, vals)
				break
			}
		}
		fam := strings.TrimSuffix(name, "_bucket")
		if count, ok := sampleValues[fam+"_count"]; !ok || vals[len(vals)-1] != count {
			t.Errorf("%s: +Inf bucket %v != _count %v", fam, vals[len(vals)-1], count)
		}
	}

	// Every serving-plane layer must expose its families.
	required := []string{
		"charles_engine_zone_skip_total",
		"charles_engine_zone_take_total",
		"charles_engine_zone_scan_total",
		"charles_engine_vector_kernels_total",
		"charles_engine_fused_kernels_total",
		"charles_seg_full_evals_total",
		"charles_seg_cache_hits_total",
		"charles_seg_pair_memo_hits_total",
		"charles_seg_pair_table_hits_total",
		"charles_seg_row_materializations_total",
		"charles_seg_cache_bytes",
		"charles_seg_cache_evictions_total",
		"charles_delta_refreshes_total",
		"charles_jobs_queue_wait_seconds",
		"charles_jobs_run_seconds",
		"charles_jobs_submitted_total",
		"charles_http_requests_total",
		"charles_http_request_seconds",
		"charles_advises_total",
		"charles_sessions",
		"charles_result_cache_hits_total",
		"charles_result_cache_misses_total",
		"charles_result_cache_size",
	}
	for _, fam := range required {
		if _, ok := typeOf[fam]; !ok {
			t.Errorf("family %s missing from /metrics", fam)
		}
	}

	// The traffic above must be visible: the advise counter and the
	// jobs run histogram both saw work.
	if sampleValues["charles_advises_total"] < 1 {
		t.Errorf("charles_advises_total = %v after an advise", sampleValues["charles_advises_total"])
	}
	if sampleValues["charles_jobs_run_seconds_count"] < 1 {
		t.Errorf("charles_jobs_run_seconds_count = %v after an async job", sampleValues["charles_jobs_run_seconds_count"])
	}
	if sampleValues["charles_http_requests_total"] != 0 {
		// The test client calls the mux directly, not through the
		// access-log middleware, so this stays 0 here — the middleware
		// is exercised by TestAccessLogMiddleware.
		t.Errorf("charles_http_requests_total = %v without the middleware", sampleValues["charles_http_requests_total"])
	}
}

// TestAdviseTraceOptIn pins the response-shape contract: an advise
// response carries the per-stage trace only when asked, and a job
// poll always carries it once the job ran.
func TestAdviseTraceOptIn(t *testing.T) {
	sv := testServer(t)
	c := newClient(t, sv)
	code, job := c.submitAdvise("(tonnage:)")
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: %d", code)
	}
	if len(job.Trace) != 0 {
		t.Errorf("untraced advise response carried a trace: %+v", job.Trace)
	}
	done := c.pollJob(job.ID)
	stages := map[string]bool{}
	for _, st := range done.Trace {
		stages[st.Name] = true
	}
	for _, want := range []string{"queue_wait", "run"} {
		if !stages[want] {
			t.Errorf("job poll missing stage %q: %+v", want, done.Trace)
		}
	}
}

// TestAdviseTraceRequested pins the positive opt-in: with the result
// cache out of the way (custom ScoreFunc), a repeat advise is a
// jobs-layer hot hit answering 200 with the finished snapshot — and
// trace=1 includes its stage breakdown.
func TestAdviseTraceRequested(t *testing.T) {
	cfg := charles.DefaultConfig()
	cfg.Score = func(m charles.Metrics) float64 { return m.Entropy }
	sv := testServerOpts(t, cfg, jobs.Options{})
	c := newClient(t, sv)
	code, job := c.submitAdvise("(tonnage:)")
	if code != http.StatusAccepted {
		t.Fatalf("fresh submit: %d, want 202", code)
	}
	c.pollJob(job.ID)
	resp, body := c.doForm(http.MethodPost, "/advise",
		url.Values{"context": {"(tonnage:)"}, "trace": {"1"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hot-hit advise: %d (%s)", resp.StatusCode, body)
	}
	var jj jsonJob
	if err := json.Unmarshal([]byte(body), &jj); err != nil {
		t.Fatal(err)
	}
	if len(jj.Trace) == 0 {
		t.Fatalf("trace=1 advise response has no trace: %s", body)
	}
}

// TestAccessLogMiddleware pins the wrapped handler: requests through
// withAccessLogs land in the HTTP families.
func TestAccessLogMiddleware(t *testing.T) {
	sv := testServer(t)
	h := sv.withAccessLogs(sv.mux())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz through middleware: %d", rec.Code)
	}
	if got := sv.metrics.httpRequests.Value(); got != 1 {
		t.Errorf("charles_http_requests_total = %d after one request", got)
	}
	if got := sv.metrics.httpSeconds.Count(); got != 1 {
		t.Errorf("latency histogram saw %d requests", got)
	}
}
