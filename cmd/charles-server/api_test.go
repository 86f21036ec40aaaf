// Tests for the async advise API: job lifecycle over HTTP, the
// async==sync equivalence matrix, coalescing of identical
// submissions, queue backpressure, cancellation, the /healthz
// gauges, and the never-cache-errors regression.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"charles"
	"charles/internal/jobs"
	"charles/internal/obs"
)

// doForm drives a request with a form body through the mux.
func (c *client) doForm(method, target string, form url.Values) (*http.Response, string) {
	c.t.Helper()
	req := httptest.NewRequest(method, target, strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	if c.session != nil {
		req.AddCookie(c.session)
	}
	rec := httptest.NewRecorder()
	c.mux.ServeHTTP(rec, req)
	res := rec.Result()
	body := rec.Body.String()
	return res, body
}

// submitAdvise posts one async advise and decodes the job envelope.
func (c *client) submitAdvise(sdl string) (int, jsonJob) {
	c.t.Helper()
	res, body := c.doForm(http.MethodPost, "/advise", url.Values{"context": {sdl}})
	var jj jsonJob
	if err := json.Unmarshal([]byte(body), &jj); err != nil {
		c.t.Fatalf("submit response not JSON: %v\n%s", err, body)
	}
	return res.StatusCode, jj
}

// pollJob polls until the job reaches a terminal state.
func (c *client) pollJob(id string) jsonJob {
	c.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		res, body := c.get("/jobs/" + id)
		if res.StatusCode != http.StatusOK {
			c.t.Fatalf("poll %s: status %d\n%s", id, res.StatusCode, body)
		}
		var jj jsonJob
		if err := json.Unmarshal([]byte(body), &jj); err != nil {
			c.t.Fatalf("poll response not JSON: %v", err)
		}
		switch jj.State {
		case "done", "failed", "cancelled", "timed_out":
			return jj
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.t.Fatalf("job %s never reached a terminal state", id)
	return jsonJob{}
}

// fetchHealthz decodes /healthz.
func (c *client) fetchHealthz() healthzPayload {
	c.t.Helper()
	res, body := c.get("/healthz")
	if res.StatusCode != http.StatusOK {
		c.t.Fatalf("healthz: status %d", res.StatusCode)
	}
	var h healthzPayload
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		c.t.Fatalf("healthz not JSON: %v", err)
	}
	return h
}

// occupyWorkers parks n white-box jobs in the manager so HTTP
// submissions queue behind them deterministically.
func occupyWorkers(t *testing.T, sv *server, n int) chan struct{} {
	t.Helper()
	release := make(chan struct{})
	for i := 0; i < n; i++ {
		_, err := sv.jobs.Submit(fmt.Sprintf("\x00block-%d", i),
			func(ctx context.Context, progress charles.ProgressFunc) (*charles.Result, error) {
				select {
				case <-release:
					return &charles.Result{}, nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			})
		if err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for sv.jobs.Stats().Running < n {
		if time.Now().After(deadline) {
			t.Fatal("blocking jobs never started")
		}
		time.Sleep(time.Millisecond)
	}
	return release
}

func TestAsyncAdviseLifecycle(t *testing.T) {
	sv := testServer(t)
	c := newClient(t, sv)
	status, jj := c.submitAdvise("(tonnage:, type_of_boat:)")
	if status != http.StatusAccepted && status != http.StatusOK {
		t.Fatalf("submit status = %d", status)
	}
	if jj.ID == "" {
		t.Fatalf("no job id in %+v", jj)
	}
	done := c.pollJob(jj.ID)
	if done.State != "done" {
		t.Fatalf("job ended %s (%s)", done.State, done.Error)
	}
	if done.Result == nil || len(done.Result.Segmentations) == 0 {
		t.Fatal("done job carries no result")
	}
	if done.Result.Segmentations[0].Segments[0].SQL == "" {
		t.Fatal("segments missing SQL drill-down")
	}
	if done.Finished == "" || done.Created == "" {
		t.Fatal("done job missing timestamps")
	}
	// The jobs index lists it (without the result payload).
	res, body := c.get("/jobs")
	if res.StatusCode != http.StatusOK || !strings.Contains(body, jj.ID) {
		t.Fatalf("jobs list missing %s: %s", jj.ID, body)
	}
	if strings.Contains(body, "segmentations") {
		t.Fatal("jobs list leaks result payloads")
	}
	// Resubmission is a cache hit: instant result, no second advise.
	status2, jj2 := c.submitAdvise("(tonnage:, type_of_boat:)")
	if status2 != http.StatusOK || !jj2.Cached || jj2.Result == nil {
		t.Fatalf("resubmission not served from cache: %d %+v", status2, jj2)
	}
	h := c.fetchHealthz()
	if h.Advises != 1 {
		t.Fatalf("advises = %d, want 1", h.Advises)
	}
	if h.JobsSubmitted != 1 {
		t.Fatalf("jobs_submitted = %d, want 1", h.JobsSubmitted)
	}
}

// TestAsyncMatchesSyncMatrix pins the acceptance property: for every
// (per-advise Workers × queue Workers) combination, the async path
// returns byte-identical ranked results — fingerprint and JSON
// rendering — to a sequential sync advise, and M identical
// concurrent submissions run exactly one advise.
func TestAsyncMatchesSyncMatrix(t *testing.T) {
	mkCtx := func(tab *charles.Table) charles.Query {
		q, err := charles.ContextOn(tab, "type_of_boat", "tonnage", "departure_harbour", "trip")
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	refTab := charles.GenerateVOC(3000, 1)
	refAdv := charles.NewAdvisor(refTab, charles.DefaultConfig())
	ref, err := refAdv.Advise(mkCtx(refTab))
	if err != nil {
		t.Fatal(err)
	}
	want := rankedFP(ref)
	for _, cw := range []int{1, 3} {
		for _, jw := range []int{1, 4} {
			t.Run(fmt.Sprintf("Workers=%d/JobWorkers=%d", cw, jw), func(t *testing.T) {
				tab := charles.GenerateVOC(3000, 1)
				cfg := charles.DefaultConfig()
				cfg.Workers = cw
				adv := charles.NewAdvisor(tab, cfg)
				sv := newServer(adv, mkCtx(tab), jobs.Options{Workers: jw, QueueDepth: 32})
				defer func() {
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					defer cancel()
					sv.jobs.Shutdown(ctx)
				}()
				// M identical concurrent submissions.
				const M = 4
				var wg sync.WaitGroup
				ids := make([]string, M)
				cached := make([]bool, M)
				wg.Add(M)
				for i := 0; i < M; i++ {
					go func(i int) {
						defer wg.Done()
						c := newClient(t, sv)
						status, jj := c.submitAdvise("(type_of_boat:, tonnage:, departure_harbour:, trip:)")
						if status != http.StatusAccepted && status != http.StatusOK {
							t.Errorf("submit %d: status %d", i, status)
							return
						}
						ids[i], cached[i] = jj.ID, jj.Cached
					}(i)
				}
				wg.Wait()
				first := ""
				for i := 0; i < M; i++ {
					if cached[i] {
						continue // raced in after completion: served from LRU
					}
					if first == "" {
						first = ids[i]
					}
					if ids[i] != first {
						t.Fatalf("identical submissions got jobs %s and %s", first, ids[i])
					}
				}
				if first == "" {
					t.Fatal("every submission claimed a cache hit on a cold cache")
				}
				c := newClient(t, sv)
				done := c.pollJob(first)
				if done.State != "done" {
					t.Fatalf("job ended %s (%s)", done.State, done.Error)
				}
				// Exactly one advise ran for M submissions.
				if got := sv.metrics.advises.Value(); got != 1 {
					t.Fatalf("%d identical concurrent submissions ran %d advises, want 1", M, got)
				}
				// Byte-identical ranked output, at the result level…
				snap, err := sv.jobs.Get(first)
				if err != nil {
					t.Fatal(err)
				}
				if got := rankedFP(snap.Result); got != want {
					t.Fatalf("async ranked output differs from sync:\n--- got ---\n%s--- want ---\n%s", got, want)
				}
				// …and at the JSON rendering level.
				wantJSON, _ := json.Marshal(sv.renderResult(ref))
				gotJSON, _ := json.Marshal(sv.renderResult(snap.Result))
				if string(gotJSON) != string(wantJSON) {
					t.Fatal("async JSON rendering differs from sync")
				}
			})
		}
	}
}

// rankedFP mirrors the root package's fingerprint helper: canonical
// key, score and counts per rank.
func rankedFP(res *charles.Result) string {
	out := ""
	for i, sc := range res.Segmentations {
		out += fmt.Sprintf("%d: %s score=%.12f counts=%v\n", i, sc.Seg.Key(), sc.Score, sc.Seg.Counts)
	}
	return out
}

func TestAsyncCancelQueuedJob(t *testing.T) {
	sv := testServerOpts(t, charles.DefaultConfig(), jobs.Options{Workers: 1, QueueDepth: 4})
	release := occupyWorkers(t, sv, 1)
	defer close(release)
	c := newClient(t, sv)
	status, jj := c.submitAdvise("(tonnage:)")
	if status != http.StatusAccepted || jj.State != "queued" {
		t.Fatalf("submit behind a busy worker: %d %+v", status, jj)
	}
	res, body := c.do(http.MethodDelete, "/jobs/"+jj.ID)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d\n%s", res.StatusCode, body)
	}
	done := c.pollJob(jj.ID)
	if done.State != "cancelled" {
		t.Fatalf("state = %s, want cancelled", done.State)
	}
	if h := c.fetchHealthz(); h.Advises != 0 {
		t.Fatalf("cancelled queued job still advised (%d)", h.Advises)
	}
}

func TestAsyncQueueFullRejects(t *testing.T) {
	sv := testServerOpts(t, charles.DefaultConfig(), jobs.Options{Workers: 1, QueueDepth: 1})
	release := occupyWorkers(t, sv, 1)
	defer close(release)
	// Fill the single queue slot with another white-box blocker.
	if _, err := sv.jobs.Submit("\x00fill", func(ctx context.Context, p charles.ProgressFunc) (*charles.Result, error) {
		<-release
		return &charles.Result{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	c := newClient(t, sv)
	res, body := c.doForm(http.MethodPost, "/advise", url.Values{"context": {"(tonnage:)"}})
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated queue: status = %d\n%s", res.StatusCode, body)
	}
	if res.Header.Get("Retry-After") == "" {
		t.Fatal("503 missing Retry-After")
	}
}

func TestAsyncBadRequests(t *testing.T) {
	sv := testServer(t)
	c := newClient(t, sv)
	if res, _ := c.get("/advise"); res.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /advise: %d, want 405", res.StatusCode)
	}
	if res, _ := c.doForm(http.MethodPost, "/advise", url.Values{"context": {"(ghost:)"}}); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("unbound context: %d, want 400", res.StatusCode)
	}
	if res, _ := c.get("/jobs/job-999"); res.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", res.StatusCode)
	}
	if res, _ := c.do(http.MethodDelete, "/jobs/job-999"); res.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown job: %d, want 404", res.StatusCode)
	}
}

func TestAsyncJSONSubmission(t *testing.T) {
	sv := testServer(t)
	c := newClient(t, sv)
	req := httptest.NewRequest(http.MethodPost, "/advise", strings.NewReader(`{"context": "(tonnage:)"}`))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	c.mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted && rec.Code != http.StatusOK {
		t.Fatalf("JSON submit: %d\n%s", rec.Code, rec.Body.String())
	}
	var jj jsonJob
	if err := json.Unmarshal(rec.Body.Bytes(), &jj); err != nil {
		t.Fatal(err)
	}
	if done := c.pollJob(jj.ID); done.State != "done" {
		t.Fatalf("JSON-submitted job ended %s", done.State)
	}
}

// TestHealthzCountersAndCache exercises the PR 3 cross-session
// result LRU through the new /healthz payload: a miss then a hit,
// visible sizes, and the sync single-flight sharing one advise
// across concurrent cold misses.
func TestHealthzCountersAndCache(t *testing.T) {
	sv := testServer(t)
	c := newClient(t, sv)
	h := c.fetchHealthz()
	if h.Status != "ok" || !h.ResultCache.Enabled {
		t.Fatalf("healthz baseline: %+v", h)
	}
	if h.ResultCache.Size != 0 || h.Advises != 0 {
		t.Fatalf("healthz not cold: %+v", h)
	}
	a, b := newClient(t, sv), newClient(t, sv)
	a.get("/") // miss + advise
	b.get("/") // hit
	h = a.fetchHealthz()
	if h.ResultCache.Misses != 1 || h.ResultCache.Hits != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", h.ResultCache.Hits, h.ResultCache.Misses)
	}
	if h.ResultCache.Size != 1 {
		t.Fatalf("cache size = %d, want 1", h.ResultCache.Size)
	}
	if h.Advises != 1 {
		t.Fatalf("advises = %d, want 1 (second request must hit the cache)", h.Advises)
	}
	if h.Sessions < 2 {
		t.Fatalf("sessions = %d, want ≥ 2", h.Sessions)
	}
	if h.QueueCap == 0 || h.JobWorkers == 0 {
		t.Fatalf("queue gauges missing: %+v", h)
	}
}

// TestSyncAdviseSingleFlight pins the satellite: concurrent
// synchronous misses on one (context, config) key run one advise,
// shared through the jobs-layer Group.
func TestSyncAdviseSingleFlight(t *testing.T) {
	tab := charles.GenerateVOC(50000, 1) // big enough that the advise outlives goroutine start skew
	adv := charles.NewAdvisor(tab, charles.DefaultConfig())
	q, err := charles.ContextOn(tab, "type_of_boat", "tonnage", "departure_harbour")
	if err != nil {
		t.Fatal(err)
	}
	sv := newServer(adv, q, jobs.Options{})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		sv.jobs.Shutdown(ctx)
	}()
	const N = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	var firstRes atomic.Pointer[charles.Result]
	wg.Add(N)
	for i := 0; i < N; i++ {
		go func() {
			defer wg.Done()
			<-start
			res, err := sv.advise(q)
			if err != nil {
				t.Errorf("advise: %v", err)
				return
			}
			firstRes.CompareAndSwap(nil, res)
			if res != firstRes.Load() {
				t.Error("concurrent advisers got different result objects")
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := sv.metrics.advises.Value(); got != 1 {
		t.Fatalf("%d concurrent cold misses ran %d advises, want 1", N, got)
	}
}

// TestSyncAdviseJoinsRunningAsyncJob pins cross-path coalescing: a
// synchronous (web UI) advise that misses the cache while an async
// job is already running the same key waits for that job and shares
// its result instead of advising a second time.
func TestSyncAdviseJoinsRunningAsyncJob(t *testing.T) {
	sv := testServer(t)
	q := sv.initialCtx
	release := make(chan struct{})
	want := &charles.Result{}
	j, err := sv.jobs.Submit(sv.cacheKey(q), func(ctx context.Context, p charles.ProgressFunc) (*charles.Result, error) {
		select {
		case <-release:
			return want, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for sv.jobs.Stats().Running < 1 {
		if time.Now().After(deadline) {
			t.Fatal("async job never started")
		}
		time.Sleep(time.Millisecond)
	}
	resCh := make(chan *charles.Result, 1)
	go func() {
		res, err := sv.advise(q)
		if err != nil {
			t.Errorf("sync advise: %v", err)
		}
		resCh <- res
	}()
	select {
	case <-resCh:
		t.Fatal("sync advise returned before the async job finished")
	case <-time.After(30 * time.Millisecond):
	}
	close(release)
	<-j.Done()
	if res := <-resCh; res != want {
		t.Fatal("sync advise did not share the async job's result")
	}
	if got := sv.metrics.advises.Value(); got != 0 {
		t.Fatalf("sync advise ran its own advise (%d) instead of joining the job", got)
	}
}

// TestFailedAdviseNeverCached is the regression test for the
// error-caching bug: a failed advise must leave the result cache
// untouched — on both the sync and the async path — so the failure
// can never be replayed as an empty result.
func TestFailedAdviseNeverCached(t *testing.T) {
	// A table whose only context attribute is constant cannot seed
	// any initial cut: Advise fails.
	tab, err := charles.LoadCSVReader(strings.NewReader("k\n1\n1\n1\n1\n"), "const")
	if err != nil {
		t.Fatal(err)
	}
	adv := charles.NewAdvisor(tab, charles.DefaultConfig())
	q, err := charles.ContextOn(tab, "k")
	if err != nil {
		t.Fatal(err)
	}
	sv := newServer(adv, q, jobs.Options{})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		sv.jobs.Shutdown(ctx)
	}()
	// Sync path: fails, caches nothing, fails again (no bogus hit).
	for i := 1; i <= 2; i++ {
		if _, err := sv.advise(q); err == nil {
			t.Fatalf("advise %d unexpectedly succeeded", i)
		}
		size, hits, misses := sv.results.stats()
		if size != 0 || hits != 0 {
			t.Fatalf("after failed advise %d: size=%d hits=%d — error was cached", i, size, hits)
		}
		if misses != i {
			t.Fatalf("after failed advise %d: misses=%d", i, misses)
		}
	}
	if got := sv.metrics.advises.Value(); got != 2 {
		t.Fatalf("advises = %d, want 2 (failures must not be served from cache)", got)
	}
	// Async path: the job fails, the cache stays empty, and the
	// failed job does not answer a resubmission.
	c := newClient(t, sv)
	status, jj := c.submitAdvise("(k:)")
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d", status)
	}
	done := c.pollJob(jj.ID)
	if done.State != "failed" || done.Error == "" {
		t.Fatalf("job = %+v, want failed with an error", done)
	}
	if size, _, _ := sv.results.stats(); size != 0 {
		t.Fatal("failed async advise was cached")
	}
	status2, jj2 := c.submitAdvise("(k:)")
	if status2 != http.StatusAccepted || jj2.ID == jj.ID {
		t.Fatalf("resubmission after failure: %d %+v", status2, jj2)
	}
	if c.pollJob(jj2.ID).State != "failed" {
		t.Fatal("resubmitted job should fail again")
	}
}

// TestConfigFingerprintKnobs pins the satellite's fingerprint
// semantics: output-equivalent knobs (Workers, ChunkRows)
// share a fingerprint; output-changing knobs do not.
func TestConfigFingerprintKnobs(t *testing.T) {
	base := charles.DefaultConfig()
	fp := configFingerprint(base)
	same := base
	same.Workers = 8
	same.ChunkRows = 512
	if configFingerprint(same) != fp {
		t.Fatal("equivalence knobs fragmented the fingerprint")
	}
	for name, mutate := range map[string]func(*charles.Config){
		"MaxIndep":     func(c *charles.Config) { c.MaxIndep = 0.5 },
		"MaxDepth":     func(c *charles.Config) { c.MaxDepth = 4 },
		"UseChiSquare": func(c *charles.Config) { c.UseChiSquare = true },
		"Pairing":      func(c *charles.Config) { c.Pairing = 1 },
		"Seed":         func(c *charles.Config) { c.Seed = 42 },
	} {
		cfg := base
		mutate(&cfg)
		if configFingerprint(cfg) == fp {
			t.Fatalf("knob %s does not change the fingerprint", name)
		}
	}
}

// TestResultCacheEvictionOrder extends the PR 3 LRU coverage: a
// refreshed entry survives a full wave of inserts that evict
// everything older, in exact recency order.
func TestResultCacheEvictionOrder(t *testing.T) {
	rc := newResultCache(3, &obs.Counter{}, &obs.Counter{})
	r := &charles.Result{}
	rc.put("a", r)
	rc.put("b", r)
	rc.put("c", r)
	rc.get("a")    // order now a > c > b
	rc.put("d", r) // evicts b
	if _, ok := rc.peek("b"); ok {
		t.Fatal("b survived; eviction ignored recency")
	}
	rc.put("e", r) // evicts c
	if _, ok := rc.peek("c"); ok {
		t.Fatal("c survived; eviction ignored recency")
	}
	for _, k := range []string{"a", "d", "e"} {
		if _, ok := rc.peek(k); !ok {
			t.Fatalf("%s evicted out of order", k)
		}
	}
	// put of a nil result is refused outright.
	rc.put("nil", nil)
	if _, ok := rc.peek("nil"); ok {
		t.Fatal("nil result was cached")
	}
}

// BenchmarkE18AsyncThroughput measures the async API end to end:
// submit + poll to completion across concurrent clients, cycling a
// small context set so coalescing and the result cache both engage —
// exactly the multi-user serving pattern the subsystem exists for.
func BenchmarkE18AsyncThroughput(b *testing.B) {
	tab := charles.GenerateVOC(5000, 1)
	adv := charles.NewAdvisor(tab, charles.DefaultConfig())
	ictx, err := charles.ContextOn(tab, "type_of_boat", "tonnage", "departure_harbour")
	if err != nil {
		b.Fatal(err)
	}
	sv := newServer(adv, ictx, jobs.Options{Workers: 4, QueueDepth: 256})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		sv.jobs.Shutdown(ctx)
	}()
	mux := sv.mux()
	contexts := []string{
		"(type_of_boat:, tonnage:)",
		"(tonnage:, departure_harbour:)",
		"(type_of_boat:, departure_harbour:, trip:)",
		"(tonnage:, trip:)",
	}
	var idx atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			sdl := contexts[int(idx.Add(1))%len(contexts)]
			form := url.Values{"context": {sdl}}
			req := httptest.NewRequest(http.MethodPost, "/advise", strings.NewReader(form.Encode()))
			req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, req)
			if rec.Code == http.StatusServiceUnavailable {
				continue // backpressure: retry next iteration
			}
			var jj jsonJob
			if err := json.Unmarshal(rec.Body.Bytes(), &jj); err != nil {
				b.Fatal(err)
			}
			for jj.State != "done" && !jj.Cached {
				if jj.State == "failed" || jj.State == "cancelled" {
					b.Fatalf("job ended %s: %s", jj.State, jj.Error)
				}
				time.Sleep(500 * time.Microsecond)
				preq := httptest.NewRequest(http.MethodGet, "/jobs/"+jj.ID, nil)
				prec := httptest.NewRecorder()
				mux.ServeHTTP(prec, preq)
				if err := json.Unmarshal(prec.Body.Bytes(), &jj); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
