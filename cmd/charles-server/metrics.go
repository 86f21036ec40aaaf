// Metrics and exposition: every layer's instrumentation hooks wired
// into one obs.Registry, served as Prometheus text at GET /metrics.
// The hooks are observational only — installing them cannot change
// advise output (pinned by TestAdviseByteIdenticalWithTracing at the
// facade) — and /healthz reads the same counters, so the two
// endpoints can never disagree.
package main

import (
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"time"

	"charles/internal/engine"
	"charles/internal/jobs"
	"charles/internal/obs"
	"charles/internal/seg"
)

// serverMetrics owns the registry and the families the server
// updates directly. Library families live in their packages: the
// engine and jobs counters behind hooks registered here, the
// evaluator's registered by seg.Evaluator.RegisterCounters.
type serverMetrics struct {
	reg *obs.Registry

	// HTTP plane, updated by the access-log middleware.
	httpRequests *obs.Counter
	httpSeconds  *obs.Histogram

	// Advise accounting: advises counts executions that actually ran
	// HB-cuts; the result-LRU counters are shared with resultCache
	// (one source of truth for /healthz and /metrics alike).
	advises      *obs.Counter
	resultHits   *obs.Counter
	resultMisses *obs.Counter

	// Survivability counters. panicsRecovered is shared with the job
	// manager (jobMetrics.PanicsRecovered is the same counter): one
	// family counts containment events wherever they happen. The
	// admission counters keep 429 and 503 distinguishable in
	// dashboards, not just in status codes.
	panicsRecovered *obs.Counter
	overQuota       *obs.Counter
	queueFull       *obs.Counter
	bodyTooLarge    *obs.Counter

	// Job queue histograms, handed to the jobs.Manager.
	jobMetrics *jobs.Metrics
}

// newServerMetrics registers every metric family, the evaluator's
// counters among them, and installs the engine hook. Call once per
// process: the engine hook is global, and re-registering a family name
// panics by design.
func newServerMetrics(ev *seg.Evaluator) *serverMetrics {
	reg := obs.NewRegistry()

	// Engine: zone-map verdicts and kernel picks.
	engine.SetMetrics(&engine.Metrics{
		ZoneSkip:      reg.NewCounter("charles_engine_zone_skip_total", "chunks skipped whole by a zone-map verdict"),
		ZoneTake:      reg.NewCounter("charles_engine_zone_take_total", "chunks passed through whole by a zone-map verdict"),
		ZoneScan:      reg.NewCounter("charles_engine_zone_scan_total", "chunks scanned row by row"),
		VectorKernels: reg.NewCounter("charles_engine_vector_kernels_total", "chunked filters run, one per predicate or cut child"),
	})

	// Evaluator: cache effectiveness and the incremental-advise
	// splice paths, read from its live totals at scrape time.
	ev.RegisterCounters(reg)
	reg.NewGaugeFunc("charles_seg_cache_bytes", "bytes the evaluator's selection, cut and pair-table stores hold, against its byte budget", ev.CacheBytes)

	panicsRecovered := reg.NewCounter("charles_panics_recovered_total",
		"panics contained into a failed job or a 500 instead of killing the process")
	return &serverMetrics{
		reg: reg,
		httpRequests: reg.NewCounter("charles_http_requests_total",
			"HTTP requests served"),
		httpSeconds: reg.NewHistogram("charles_http_request_seconds",
			"HTTP request latency in seconds", obs.DefaultLatencyBuckets()),
		advises: reg.NewCounter("charles_advises_total",
			"advise executions that actually ran the advisor core"),
		resultHits: reg.NewCounter("charles_result_cache_hits_total",
			"advise results served from the cross-session LRU"),
		resultMisses: reg.NewCounter("charles_result_cache_misses_total",
			"advise requests that missed the cross-session LRU"),
		panicsRecovered: panicsRecovered,
		overQuota: reg.NewCounter("charles_http_over_quota_total",
			"submissions refused 429: the client exceeded its token bucket"),
		queueFull: reg.NewCounter("charles_http_queue_full_total",
			"submissions refused 503: the job queue was saturated"),
		bodyTooLarge: reg.NewCounter("charles_http_body_too_large_total",
			"requests refused 413: body over the -max-body-bytes bound"),
		jobMetrics: &jobs.Metrics{
			QueueWait: reg.NewHistogram("charles_jobs_queue_wait_seconds",
				"time a job waited for a worker", obs.DefaultLatencyBuckets()),
			Run: reg.NewHistogram("charles_jobs_run_seconds",
				"time a job's advise executed", obs.DefaultLatencyBuckets()),
			PanicsRecovered: panicsRecovered,
		},
	}
}

// registerServerGauges exposes values the server and job manager
// already track, read at scrape time so nothing is double-counted.
// Separate from newServerMetrics because they close over the server,
// which is built after its metrics.
func (sv *server) registerServerGauges() {
	reg := sv.metrics.reg
	reg.NewGaugeFunc("charles_sessions", "live exploration sessions", func() int64 {
		sv.mu.Lock()
		defer sv.mu.Unlock()
		return int64(len(sv.sessions))
	})
	reg.NewGaugeFunc("charles_result_cache_size", "entries in the cross-session result LRU", func() int64 {
		size, _, _ := sv.results.stats()
		return int64(size)
	})
	reg.NewGaugeFunc("charles_jobs_queued", "jobs waiting for a worker", func() int64 {
		return int64(sv.jobs.Stats().Queued)
	})
	reg.NewGaugeFunc("charles_jobs_running", "jobs currently executing", func() int64 {
		return int64(sv.jobs.Stats().Running)
	})
	reg.NewGaugeFunc("charles_jobs_retained", "jobs tracked, terminal ones included", func() int64 {
		return int64(sv.jobs.Stats().Retained)
	})
	reg.NewCounterFunc("charles_jobs_submitted_total", "submissions that created a new job", func() int64 {
		return int64(sv.jobs.Stats().Submitted)
	})
	reg.NewCounterFunc("charles_jobs_coalesced_total", "submissions answered by an existing job", func() int64 {
		return int64(sv.jobs.Stats().Coalesced)
	})
}

// handleMetrics serves the registry in the Prometheus text format.
func (sv *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := sv.metrics.reg.WritePrometheus(w); err != nil {
		log.Printf("charles-server: metrics: %v", err)
	}
}

// statusRecorder captures the status an inner handler wrote so the
// access log can report it.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// withAccessLogs wraps the mux with structured (key=value) access
// logging and the HTTP metric families.
func (sv *server) withAccessLogs(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sr, r)
		dur := time.Since(start)
		sv.metrics.httpRequests.Inc()
		sv.metrics.httpSeconds.Observe(dur.Seconds())
		log.Printf("charles-server: access method=%s path=%s status=%d dur=%s remote=%s",
			r.Method, r.URL.Path, sr.status, dur.Round(time.Microsecond), r.RemoteAddr)
	})
}

// withRecover contains a panicking handler into a 500 and a counter
// bump: one broken request must never take the process (and every
// other user's session) down with it. http.ErrAbortHandler is
// re-raised — it is net/http's own sanctioned way to abort a
// response, not a bug to contain. The JSON 500 is best-effort: if the
// handler already wrote a partial body, the error text simply lands
// after it.
func (sv *server) withRecover(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			sv.metrics.panicsRecovered.Inc()
			log.Printf("charles-server: panic recovered serving %s %s: %v\n%s",
				r.Method, r.URL.Path, rec, debug.Stack())
			jsonError(w, http.StatusInternalServerError, fmt.Sprintf("panic recovered: %v", rec))
		}()
		next.ServeHTTP(w, r)
	})
}

// servePprof exposes net/http/pprof on its own listener, opt-in via
// -pprof-addr: profiling endpoints leak implementation detail and do
// not belong on the serving port.
func servePprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		log.Printf("charles-server: pprof at http://%s/debug/pprof/", addr)
		if err := http.ListenAndServe(addr, mux); err != nil {
			log.Printf("charles-server: pprof: %v", err)
		}
	}()
}
