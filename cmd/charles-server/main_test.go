package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"charles"
	"charles/internal/jobs"
	"charles/internal/obs"
)

func testServer(t *testing.T) *server {
	t.Helper()
	return testServerOpts(t, charles.DefaultConfig(), jobs.Options{})
}

func testServerOpts(t *testing.T, cfg charles.Config, jopt jobs.Options) *server {
	t.Helper()
	tab := charles.GenerateVOC(2000, 1)
	adv := charles.NewAdvisor(tab, cfg)
	ctx, err := charles.ContextOn(tab, "type_of_boat", "tonnage", "departure_harbour")
	if err != nil {
		t.Fatal(err)
	}
	sv := newServer(adv, ctx, jopt)
	t.Cleanup(func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		sv.jobs.Shutdown(sctx)
	})
	return sv
}

// client drives the server's handler like one browser: it remembers
// the session cookie across requests.
type client struct {
	t       *testing.T
	mux     http.Handler
	session *http.Cookie
}

func newClient(t *testing.T, sv *server) *client {
	return &client{t: t, mux: sv.mux()}
}

// newHandlerClient drives the full middleware chain (recover +
// access logs), for tests that exercise panic containment.
func newHandlerClient(t *testing.T, sv *server) *client {
	return &client{t: t, mux: sv.handler()}
}

func (c *client) do(method, target string) (*http.Response, string) {
	c.t.Helper()
	req := httptest.NewRequest(method, target, nil)
	if c.session != nil {
		req.AddCookie(c.session)
	}
	rec := httptest.NewRecorder()
	c.mux.ServeHTTP(rec, req)
	res := rec.Result()
	for _, ck := range res.Cookies() {
		if ck.Name == sessionCookie {
			c.session = &http.Cookie{Name: ck.Name, Value: ck.Value}
		}
	}
	body, err := io.ReadAll(res.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return res, string(body)
}

func (c *client) get(target string) (*http.Response, string) {
	c.t.Helper()
	return c.do(http.MethodGet, target)
}

// sessionState returns the client's server-side session for white-box
// assertions.
func (c *client) sessionState(sv *server) *session {
	c.t.Helper()
	if c.session == nil {
		c.t.Fatal("client has no session cookie yet")
	}
	sv.mu.Lock()
	defer sv.mu.Unlock()
	s, ok := sv.sessions[c.session.Value]
	if !ok {
		c.t.Fatal("session cookie unknown to server")
	}
	return s
}

func TestIndexRendersFigure1Panels(t *testing.T) {
	sv := testServer(t)
	res, body := newClient(t, sv).get("/")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	for _, want := range []string{
		"Charles — big data query advisor", // header
		"Context",                          // left panel
		"Proposed segmentations",           // top panel
		"<svg",                             // pies
		"SELECT * FROM",                    // drill-down SQL
		"explore ➜",                        // zoom links
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("page missing %q", want)
		}
	}
}

func TestIndexOpensRequestedAnswer(t *testing.T) {
	sv := testServer(t)
	_, body := newClient(t, sv).get("/?open=1")
	if !strings.Contains(body, "Segmentation on") {
		t.Fatal("detail panel missing")
	}
}

func TestIndexContextChangeReAdvises(t *testing.T) {
	sv := testServer(t)
	c := newClient(t, sv)
	c.get("/")
	firstCtx := c.sessionState(sv).ctx.String()
	newCtx := url.QueryEscape("(tonnage:, trip:)")
	_, body := c.get("/?context=" + newCtx)
	if c.sessionState(sv).ctx.String() == firstCtx {
		t.Fatal("context did not change")
	}
	if !strings.Contains(body, "trip") {
		t.Fatal("new context not rendered")
	}
}

func TestIndexBadContextShowsError(t *testing.T) {
	sv := testServer(t)
	c := newClient(t, sv)
	c.get("/") // prime a valid result
	_, body := c.get("/?context=" + url.QueryEscape("(ghost:)"))
	if !strings.Contains(body, "no column") {
		t.Fatal("bind error not surfaced")
	}
	// The session keeps serving the previous valid result.
	if !strings.Contains(body, "Proposed segmentations") {
		t.Fatal("page broke on bad context")
	}
}

func TestIndexNotFoundOnOtherPaths(t *testing.T) {
	sv := testServer(t)
	res, _ := newClient(t, sv).get("/favicon.ico")
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", res.StatusCode)
	}
}

func TestNonGetMethodsRejected(t *testing.T) {
	sv := testServer(t)
	c := newClient(t, sv)
	for _, target := range []string{"/", "/zoom"} {
		for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
			res, _ := c.do(method, target)
			if res.StatusCode != http.StatusMethodNotAllowed {
				t.Fatalf("%s %s: status = %d, want 405", method, target, res.StatusCode)
			}
			if allow := res.Header.Get("Allow"); !strings.Contains(allow, "GET") {
				t.Fatalf("%s %s: Allow = %q", method, target, allow)
			}
		}
	}
}

func TestZoomReRootsContext(t *testing.T) {
	sv := testServer(t)
	c := newClient(t, sv)
	c.get("/") // populate the session's result
	before := c.sessionState(sv).ctx.String()
	res, _ := c.get("/zoom?open=0&segment=0")
	if res.StatusCode != http.StatusSeeOther {
		t.Fatalf("status = %d", res.StatusCode)
	}
	if c.sessionState(sv).ctx.String() == before {
		t.Fatal("zoom did not change the context")
	}
	// Follow the redirect: the page advises on the zoomed context.
	_, body := c.get("/")
	if !strings.Contains(body, "Proposed segmentations") {
		t.Fatal("post-zoom page broken")
	}
}

func TestZoomOutOfRangeKeepsContext(t *testing.T) {
	sv := testServer(t)
	c := newClient(t, sv)
	c.get("/")
	before := c.sessionState(sv).ctx.String()
	c.get("/zoom?open=99&segment=0")
	if c.sessionState(sv).ctx.String() != before {
		t.Fatal("invalid zoom changed the context")
	}
}

func TestSessionsAreIsolated(t *testing.T) {
	sv := testServer(t)
	alice, bob := newClient(t, sv), newClient(t, sv)
	alice.get("/")
	bob.get("/")
	if alice.session.Value == bob.session.Value {
		t.Fatal("two browsers got the same session id")
	}
	// Alice zooms; Bob's context must not move.
	bobCtx := bob.sessionState(sv).ctx.String()
	alice.get("/zoom?open=0&segment=0")
	if bob.sessionState(sv).ctx.String() != bobCtx {
		t.Fatal("alice's zoom changed bob's context")
	}
	if alice.sessionState(sv).ctx.String() == bobCtx {
		t.Fatal("alice's zoom did not change her own context")
	}
}

func TestSessionSurvivesAcrossRequests(t *testing.T) {
	sv := testServer(t)
	c := newClient(t, sv)
	c.get("/")
	first := c.session.Value
	c.get("/?open=1")
	if c.session.Value != first {
		t.Fatal("session id changed between requests")
	}
	sv.mu.Lock()
	n := len(sv.sessions)
	sv.mu.Unlock()
	if n != 1 {
		t.Fatalf("server holds %d sessions for one browser", n)
	}
}

func TestEvictionPrefersNeverRevisitedSessions(t *testing.T) {
	sv := testServer(t)
	now := time.Now()
	// An old returning browser and a flood of newer one-shot probes.
	sv.sessions["browser"] = &session{lastUsed: now.Add(-time.Hour), requests: 5}
	for i := 0; i < 3; i++ {
		sv.sessions[fmt.Sprintf("probe%d", i)] = &session{lastUsed: now.Add(-time.Duration(i) * time.Minute), requests: 1}
	}
	sv.evictLocked("keepme")
	if _, ok := sv.sessions["browser"]; !ok {
		t.Fatal("eviction dropped the returning browser instead of a probe")
	}
	if _, ok := sv.sessions["probe2"]; ok {
		t.Fatal("eviction spared the oldest never-revisited probe")
	}
	// Only returning browsers left: plain LRU applies.
	sv.sessions = map[string]*session{
		"old": {lastUsed: now.Add(-time.Hour), requests: 2},
		"new": {lastUsed: now, requests: 2},
	}
	sv.evictLocked("")
	if _, ok := sv.sessions["old"]; ok {
		t.Fatal("LRU among returning browsers did not drop the oldest")
	}
}

func TestConcurrentSessions(t *testing.T) {
	sv := testServer(t)
	const users = 8
	var wg sync.WaitGroup
	wg.Add(users)
	for u := 0; u < users; u++ {
		go func() {
			defer wg.Done()
			c := newClient(t, sv)
			if res, _ := c.get("/"); res.StatusCode != http.StatusOK {
				t.Errorf("status = %d", res.StatusCode)
				return
			}
			c.get("/zoom?open=0&segment=0")
			if res, body := c.get("/"); res.StatusCode != http.StatusOK ||
				!strings.Contains(body, "Proposed segmentations") {
				t.Errorf("post-zoom page broken for a concurrent user")
			}
		}()
	}
	wg.Wait()
}

// TestResultCacheSharedAcrossSessions pins the cross-session result
// cache: two different browsers advising on the same context cost
// one advise — the second is served from the (context, config) LRU.
func TestResultCacheSharedAcrossSessions(t *testing.T) {
	sv := testServer(t)
	a := newClient(t, sv)
	b := newClient(t, sv)
	if _, body := a.get("/"); !strings.Contains(body, "Proposed segmentations") {
		t.Fatal("first session did not render advice")
	}
	if sv.results.hits.Value() != 0 {
		t.Fatalf("first advise hit the cache (%d hits)", sv.results.hits)
	}
	if _, body := b.get("/"); !strings.Contains(body, "Proposed segmentations") {
		t.Fatal("second session did not render advice")
	}
	if sv.results.hits.Value() != 1 {
		t.Fatalf("second session's advise missed the cache (%d hits)", sv.results.hits)
	}
	if a.session.Value == b.session.Value {
		t.Fatal("clients unexpectedly shared a session")
	}
	// Both sessions hold the identical immutable result.
	ra, rb := a.sessionState(sv).res, b.sessionState(sv).res
	if ra == nil || ra != rb {
		t.Fatal("sessions do not share the cached result")
	}
	// A different context misses, then repeats hit.
	if _, _ = a.get("/?context=" + url.QueryEscape("(tonnage:)")); sv.results.hits.Value() != 1 {
		t.Fatalf("distinct context should miss (%d hits)", sv.results.hits)
	}
	if _, _ = b.get("/?context=" + url.QueryEscape("(tonnage:)")); sv.results.hits.Value() != 2 {
		t.Fatalf("repeated distinct context should hit (%d hits)", sv.results.hits)
	}
}

// TestResultCacheLRUBounded pins the eviction policy: the cache
// never exceeds its cap and drops the least recently used entry.
func TestResultCacheLRUBounded(t *testing.T) {
	rc := newResultCache(2, &obs.Counter{}, &obs.Counter{})
	r := &charles.Result{}
	rc.put("a", r)
	rc.put("b", r)
	if _, ok := rc.get("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	rc.put("c", r)
	if rc.ll.Len() != 2 {
		t.Fatalf("cache grew to %d entries, cap 2", rc.ll.Len())
	}
	if _, ok := rc.get("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if _, ok := rc.get("a"); !ok {
		t.Fatal("recently used entry a was evicted")
	}
	if _, ok := rc.get("c"); !ok {
		t.Fatal("new entry c missing")
	}
}

// TestChunkRowsFlagSetsWidth is `charles-server -dataset voc
// -chunk-rows 4096`: the table is built at width 4096 before the
// advisor exists, the server advises at that width with the same
// ranked output as the automatic width, and warming the zone maps
// seals the width. A .chc file served at another than its native width
// answers the same.
func TestChunkRowsFlagSetsWidth(t *testing.T) {
	const rows, sdlCtx = 20000, "(type_of_boat:, tonnage:, departure_harbour:)"
	ref, err := loadTable(tableSource{dataset: "voc", rows: rows, seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := renderAdvise(t, charles.NewAdvisor(ref, charles.DefaultConfig()), sdlCtx)

	tab, err := loadTable(tableSource{dataset: "voc", rows: rows, seed: 1, chunkRows: 4096})
	if err != nil {
		t.Fatal(err)
	}
	adv := charles.NewAdvisor(tab, charles.DefaultConfig())
	tab.WarmSummaries()
	if tab.ChunkRows() != 4096 || tab.NumChunks() != 5 {
		t.Fatalf("table at width %d in %d chunks, want 4096 in 5", tab.ChunkRows(), tab.NumChunks())
	}
	ctx, err := adv.ParseContext(sdlCtx)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := adv.Evaluator().SelectChunked(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sel.ChunkRows() != 4096 {
		t.Fatalf("the advisor's selections are at width %d, want 4096", sel.ChunkRows())
	}
	if got := renderAdvise(t, adv, sdlCtx); got != want {
		t.Fatalf("advise at width 4096 diverged from the automatic width:\n%s\nwant:\n%s", got, want)
	}
	sv := newServer(adv, ctx, jobs.Options{})
	t.Cleanup(func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		sv.jobs.Shutdown(sctx)
	})
	if res, body := newClient(t, sv).get("/"); res.StatusCode != http.StatusOK || !strings.Contains(body, "Proposed segmentations") {
		t.Fatalf("GET / at width 4096: status %d", res.StatusCode)
	}
	if err := tab.SetChunkRows(8192); err == nil || tab.ChunkRows() != 4096 {
		t.Fatalf("a served table took a new width (err %v, width %d)", err, tab.ChunkRows())
	}

	path := t.TempDir() + "/voc.chc"
	if err := charles.SaveColumnFile(path, ref, charles.ColumnFileOptions{ChunkRows: 1024}); err != nil {
		t.Fatal(err)
	}
	chc, err := loadTable(tableSource{path: path, chunkRows: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer chc.Close()
	if chc.ChunkRows() != 4096 {
		t.Fatalf(".chc table at width %d, want 4096 over its native 1024", chc.ChunkRows())
	}
	if got := renderAdvise(t, charles.NewAdvisor(chc, charles.DefaultConfig()), sdlCtx); got != want {
		t.Fatalf(".chc advise at width 4096 diverged from memory:\n%s\nwant:\n%s", got, want)
	}
}

// renderAdvise renders adv's full ranked answer list for sdlCtx.
func renderAdvise(t *testing.T, adv *charles.Advisor, sdlCtx string) string {
	t.Helper()
	res, err := adv.AdviseString(sdlCtx)
	if err != nil {
		t.Fatal(err)
	}
	return charles.RenderRanked(res, 0)
}
