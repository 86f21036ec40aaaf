// Command charles-server serves the web rendering of the Figure 1
// interface: the context panel on the left, the ranked answer list
// as SVG pie charts on top, and the selected segmentation's segments
// with their SDL and SQL forms in the main panel. Clicking "explore"
// on a segment re-roots the context on that segment's query — the
// interactive loop of the paper.
//
// The server is multi-session: every browser gets its own
// exploration state (current context + advice), identified by a
// cookie, while all sessions share one read-only table and one
// concurrency-safe advisor, so simultaneous users reuse each other's
// cached selections.
//
// Usage:
//
//	charles-server -dataset voc -rows 50000 -addr :8080
//	charles-server -csv voyages.csv
//	charles-server -table voyages.chc   # mmap'd columnar file: ms cold start
package main

import (
	"container/list"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"charles"
	"charles/internal/fault"
	"charles/internal/jobs"
	"charles/internal/obs"
	"charles/internal/ui"
)

// maxSessions bounds the exploration states kept in memory; beyond
// it the least recently used session is evicted (its browser simply
// starts a fresh exploration on its next request).
const maxSessions = 1024

// sessionCookie names the cookie carrying the session id.
const sessionCookie = "charles_session"

// evaluatorBytesPerRow sizes the shared evaluator's cache budget,
// set once at boot from the table's rows: users type arbitrary
// contexts, and without a bound each distinct query would pin
// rows-sized selections in memory forever. 32 B per row is room for
// 256 all-rows selections held as words (⌈rows/64⌉ words of 8 B
// each): 32 MiB at 1 M rows. An entry count could not bound memory —
// one selection holds a few bytes or 1.25 MB at 10 M rows — so the
// budget is in bytes, and the clock evicts what the traffic does not
// read again (seg.Evaluator.SetCacheBudget).
const evaluatorBytesPerRow = 32

// defaultMaxBodyBytes bounds POST bodies (-max-body-bytes): an SDL
// context is a few hundred bytes and even generous append batches fit
// in a megabyte; anything larger is a mistake or an attack, refused
// as 413 before it is read.
const defaultMaxBodyBytes = 1 << 20

// resultCacheCap bounds the cross-session result cache: advised
// results keyed by (canonical context, config fingerprint), so
// repeated advise calls on the same context — the common case when
// many users start from the same landing exploration — return
// instantly regardless of which session asked first.
const resultCacheCap = 256

// resultCache is a bounded LRU of advise results shared by every
// session. Results are immutable once computed, so cache hits hand
// out the same *charles.Result to concurrent sessions. Concurrent
// misses on one key single-flight through the jobs layer's
// coalescing Group (sv.flight), so they cost one advise, not N.
// Only successful advises are ever stored: a failed advise has no
// result, and caching its absence would be indistinguishable from a
// legitimate empty result on the read path.
type resultCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element
	// hits/misses live on the obs registry — the single source of
	// truth /healthz and /metrics both read.
	hits   *obs.Counter
	misses *obs.Counter
}

type resultEntry struct {
	key string
	res *charles.Result
}

func newResultCache(cap int, hits, misses *obs.Counter) *resultCache {
	return &resultCache{cap: cap, ll: list.New(), m: make(map[string]*list.Element), hits: hits, misses: misses}
}

// get returns the cached result for key, refreshing its recency.
func (rc *resultCache) get(key string) (*charles.Result, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	el, ok := rc.m[key]
	if !ok {
		rc.misses.Inc()
		return nil, false
	}
	rc.ll.MoveToFront(el)
	rc.hits.Inc()
	return el.Value.(*resultEntry).res, true
}

// put stores key → res, evicting the least recently used entry over
// the cap. A nil result is refused: only a successful advise may
// populate the cache (failures carry no result, and a cached nil
// would later read as a hit with nothing to serve).
func (rc *resultCache) put(key string, res *charles.Result) {
	if res == nil {
		return
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if el, ok := rc.m[key]; ok {
		el.Value.(*resultEntry).res = res
		rc.ll.MoveToFront(el)
		return
	}
	rc.m[key] = rc.ll.PushFront(&resultEntry{key: key, res: res})
	if rc.ll.Len() > rc.cap {
		oldest := rc.ll.Back()
		rc.ll.Remove(oldest)
		delete(rc.m, oldest.Value.(*resultEntry).key)
	}
}

// peek is get without the hit/miss accounting: the single-flight's
// in-flight double check would otherwise count every cold advise
// twice.
func (rc *resultCache) peek(key string) (*charles.Result, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	el, ok := rc.m[key]
	if !ok {
		return nil, false
	}
	rc.ll.MoveToFront(el)
	return el.Value.(*resultEntry).res, true
}

// stats returns size and hit/miss counters for /healthz, reading
// the same obs counters /metrics exposes.
func (rc *resultCache) stats() (size, hits, misses int) {
	if rc == nil {
		return 0, 0, 0
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.ll.Len(), int(rc.hits.Value()), int(rc.misses.Value())
}

// configFingerprint canonicalizes the knobs that shape advise
// output. Workers is deliberately absent: ranked output is identical
// across worker counts by design (and by test), so including it would
// only fragment the cache. The chunk width is the table's, fixed
// before the server starts, and likewise never changes ranked output. Score does change
// ranked output but is a function value with no canonical form;
// newServer disables result caching entirely when one is set, so it
// never needs to appear here.
func configFingerprint(cfg charles.Config) string {
	return fmt.Sprintf("mi=%v|md=%d|cut=%+v|chi=%v|alpha=%v|pair=%d|seed=%d",
		cfg.MaxIndep, cfg.MaxDepth, cfg.Cut, cfg.UseChiSquare, cfg.ChiAlpha, cfg.Pairing, cfg.Seed)
}

// session holds one user's exploration state. Its mutex serializes
// that user's requests only; different sessions advise concurrently
// on the shared advisor.
type session struct {
	mu       sync.Mutex
	ctx      charles.Query
	res      *charles.Result
	lastUsed time.Time
	// requests counts how often the session's cookie came back; 1
	// means the client never returned it (crawlers, health checks),
	// which makes the session the preferred eviction victim.
	requests int
}

// server is the multi-session advisory service: one shared advisor
// over the read-only table, per-user sessions, a cross-session
// result cache so identical explorations cost one advise, and an
// async job queue so long advises can be submitted, watched and
// cancelled instead of holding a request open.
type server struct {
	adv        *charles.Advisor
	initialCtx charles.Query
	results    *resultCache
	cfgFP      string
	jobs       *jobs.Manager
	// flight single-flights the synchronous advise path: concurrent
	// cache misses on one (context, config) key run one advise and
	// share its result — the same coalescing the job queue applies
	// to submissions, via the same jobs-layer helper.
	flight jobs.Group
	// metrics owns the obs registry behind GET /metrics, plus the
	// families the server updates directly (HTTP plane, advise and
	// result-cache counters — the latter shared with /healthz).
	metrics *serverMetrics

	// quota is per-client admission control in front of the job
	// queue; nil (the default) admits everything. maxBody bounds
	// request bodies on the POST endpoints.
	quota   *jobs.Quota
	maxBody int64

	// tabMu enforces the engine's mutation contract at the service
	// boundary: AppendRows must not run concurrently with advises
	// (mutations serialize on the table's own mutex, but reads take
	// no lock — see docs/ARCHITECTURE.md). Advises and counts hold
	// the read side, POST /append holds the write side.
	tabMu sync.RWMutex

	mu       sync.Mutex
	sessions map[string]*session
}

func newServer(adv *charles.Advisor, initialCtx charles.Query, jopt jobs.Options) *server {
	adv.Evaluator().SetCacheBudget(evaluatorBytesPerRow * int64(adv.Table().NumRows()))
	// Wire instrumentation before anything runs: the registry must
	// exist for the job manager's histograms and the result cache's
	// counters, and the engine/evaluator hooks are installed inside.
	metrics := newServerMetrics(adv.Evaluator())
	jopt.Metrics = metrics.jobMetrics
	sv := &server{
		adv:        adv,
		initialCtx: initialCtx,
		cfgFP:      configFingerprint(adv.Config()),
		jobs:       jobs.NewManager(jopt),
		sessions:   make(map[string]*session),
		metrics:    metrics,
		maxBody:    defaultMaxBodyBytes,
	}
	// A custom ScoreFunc reorders results but cannot be
	// fingerprinted (it is an arbitrary function), so caching under
	// it could serve rankings computed for a different score. The
	// command line cannot set one today; this guards embedders.
	if adv.Config().Score == nil {
		sv.results = newResultCache(resultCacheCap, metrics.resultHits, metrics.resultMisses)
	}
	sv.registerServerGauges()
	return sv
}

// cacheKey is the (canonical context, config fingerprint, table
// fingerprint) identity shared by the result LRU, the sync
// single-flight and the job queue's coalescing. The table
// fingerprint moves on every mutation, so results advised before an
// append can never be served after it — stale entries simply stop
// being addressable and age out of the LRU.
func (sv *server) cacheKey(ctx charles.Query) string {
	return ctx.Key() + "\x00" + sv.cfgFP + "\x00" + sv.adv.Table().Fingerprint()
}

// runAdvise executes one real advise, counting it. The table read
// lock spans the whole advise — sync or async — so POST /append
// cannot mutate mid-computation.
func (sv *server) runAdvise(ctx context.Context, q charles.Query, progress charles.ProgressFunc) (*charles.Result, error) {
	// The failpoint sits on both front ends: an injected error here
	// surfaces as a failed job (async) or a 500 (sync); an injected
	// panic proves runContained on one path and withRecover on the
	// other.
	if err := fault.Inject("server.advise"); err != nil {
		return nil, fmt.Errorf("advise: %w", err)
	}
	sv.metrics.advises.Inc()
	sv.tabMu.RLock()
	defer sv.tabMu.RUnlock()
	return sv.adv.AdviseCtx(ctx, q, progress)
}

// invalidateSessions drops every session's rendered result after a
// table mutation. The result cache keys on the table fingerprint and
// misses naturally; sessions, however, pin their last result and
// would keep rendering pre-mutation advice forever.
func (sv *server) invalidateSessions() {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	for _, s := range sv.sessions {
		s.mu.Lock()
		s.res = nil
		s.mu.Unlock()
	}
}

// advise returns the ranked result for ctx, serving repeats — from
// any session — out of the result cache when caching is enabled.
// Concurrent misses on the same key are single-flighted: one caller
// advises, the rest wait and share. Failed advises are never cached,
// so a transient failure cannot masquerade as an empty result.
func (sv *server) advise(ctx charles.Query) (*charles.Result, error) {
	if sv.results == nil {
		return sv.runAdvise(context.Background(), ctx, nil)
	}
	key := sv.cacheKey(ctx)
	if res, ok := sv.results.get(key); ok {
		return res, nil
	}
	res, err, _ := sv.flight.Do(key, func() (*charles.Result, error) {
		// Re-check under the flight: a caller that missed just
		// before a previous flight stored would otherwise re-advise.
		if res, ok := sv.results.peek(key); ok {
			return res, nil
		}
		// Join an async job already executing this key instead of
		// advising the same context twice — the two front ends share
		// every advise. Queued jobs are not waited on (the queue may
		// be backed up far longer than advising here would take).
		if j, ok := sv.jobs.Peek(key); ok {
			snap := j.Snapshot()
			if snap.State == jobs.StateRunning || snap.State == jobs.StateDone {
				<-j.Done()
				if snap = j.Snapshot(); snap.State == jobs.StateDone && snap.Result != nil {
					return snap.Result, nil
				}
				// Cancelled or failed under us: advise ourselves.
			}
		}
		res, err := sv.runAdvise(context.Background(), ctx, nil)
		if err != nil {
			return nil, err
		}
		sv.results.put(key, res)
		return res, nil
	})
	return res, err
}

// tableSource names the served table and the chunk width it is built
// with: a .chc file, a CSV file, or a built-in dataset, in that order.
type tableSource struct {
	path, csv, dataset string
	rows               int
	seed               int64
	chunkRows          int
}

// loadTable opens or generates the table src names and, with
// src.chunkRows set, fixes its chunk width before anything reads it.
// A .chc table defaults to the file's native width; at any width its
// zone maps are built by scanning the mapping.
func loadTable(src tableSource) (*charles.Table, error) {
	var tab *charles.Table
	var err error
	switch {
	case src.path != "":
		// A columnar file opens by mmap: opening checks its string
		// and boolean pages and copies its float pages, and other rows
		// fault in from the page cache only when scanned.
		tab, err = charles.OpenColumnFile(src.path)
	case src.csv != "":
		tab, err = charles.LoadCSV(src.csv)
	default:
		tab, err = charles.GenerateDataset(src.dataset, src.rows, src.seed)
	}
	if err != nil {
		return nil, err
	}
	if src.chunkRows > 0 {
		if err := tab.SetChunkRows(src.chunkRows); err != nil {
			tab.Close()
			return nil, err
		}
	}
	return tab, nil
}

func main() {
	var (
		tablePath  = flag.String("table", "", "open this .chc columnar file via mmap (see docs/FORMAT.md)")
		csvPath    = flag.String("csv", "", "load this CSV file")
		dsName     = flag.String("dataset", "voc", "built-in dataset: voc, sky, weblog, gaussian, uniform, figure3")
		rows       = flag.Int("rows", 50000, "rows for built-in datasets")
		seed       = flag.Int64("seed", 1, "generator seed")
		addr       = flag.String("addr", ":8080", "listen address")
		initCtx    = flag.String("context", "", "initial SDL context (empty = all columns)")
		workers    = flag.Int("workers", 0, "advisor worker goroutines per advise (0 = all CPUs)")
		chunkRows  = flag.Int("chunk-rows", 0, "row-range chunk width the table is built with, rounded up to a power of two (0 = auto: 64K, or a .chc file's native width)")
		queueDepth = flag.Int("queue-depth", 64, "async advise jobs the queue holds before rejecting (503)")
		jobWorkers = flag.Int("job-workers", 2, "advises executing concurrently (independent of -workers, the per-advise fan-out)")
		jobTTL     = flag.Duration("job-ttl", 5*time.Minute, "how long finished jobs stay pollable")
		jobTimeout = flag.Duration("job-timeout", 10*time.Minute, "deadline for one advise job; timed-out jobs report timed_out, not cancelled (0 = none)")
		maxBody    = flag.Int64("max-body-bytes", defaultMaxBodyBytes, "largest POST body accepted; larger requests answer 413")
		quotaRate  = flag.Float64("quota-rate", 0, "per-client advise submissions per second; exceeding clients answer 429 (0 = no quota)")
		quotaBurst = flag.Int("quota-burst", 8, "per-client token-bucket burst above -quota-rate")
		pprofAddr  = flag.String("pprof-addr", "", "serve net/http/pprof on this extra address (empty = disabled)")
		failpoints = flag.String("failpoints", os.Getenv("CHARLES_FAILPOINTS"),
			"arm fault-injection sites, \"site=spec;site=spec\" (see docs/ROBUSTNESS.md); default $CHARLES_FAILPOINTS")
	)
	flag.Parse()

	if err := fault.Configure(*failpoints); err != nil {
		fmt.Fprintln(os.Stderr, "charles-server:", err)
		os.Exit(1)
	}
	if armed := fault.Enabled(); len(armed) > 0 {
		log.Printf("charles-server: CHAOS: failpoints armed: %s — this process is deliberately unreliable", strings.Join(armed, ", "))
	}

	loadStart := time.Now()
	tab, err := loadTable(tableSource{
		path: *tablePath, csv: *csvPath, dataset: *dsName,
		rows: *rows, seed: *seed, chunkRows: *chunkRows,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "charles-server:", err)
		os.Exit(1)
	}
	loadDur := time.Since(loadStart)
	cfg := charles.DefaultConfig()
	cfg.Workers = *workers
	adv := charles.NewAdvisor(tab, cfg)
	// Warm the zone maps and their codes, which seals the chunk width.
	// Every table builds them by scanning, reading each summarized
	// column once — lazily per column otherwise, inside a user-visible
	// request.
	warmStart := time.Now()
	warmed := tab.WarmSummaries()
	log.Printf("charles-server: loaded %q (%d rows) in %v; warmed %d zone maps (%d chunks/col) in %v",
		tab.Name(), tab.NumRows(), loadDur, warmed, tab.NumChunks(), time.Since(warmStart))
	ctx, err := adv.ParseContext(*initCtx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "charles-server:", err)
		os.Exit(1)
	}
	srv := newServer(adv, ctx, jobs.Options{
		QueueDepth: *queueDepth,
		Workers:    *jobWorkers,
		TTL:        *jobTTL,
		Timeout:    *jobTimeout,
	})
	srv.maxBody = *maxBody
	srv.quota = jobs.NewQuota(*quotaRate, *quotaBurst)
	display := *addr
	if strings.HasPrefix(display, ":") {
		display = "localhost" + display
	}
	log.Printf("charles-server: advising on %q (%d rows) at http://%s/ (async API at POST /advise); evaluator cache budget %d bytes",
		tab.Name(), tab.NumRows(), display, evaluatorBytesPerRow*int64(tab.NumRows()))
	if *pprofAddr != "" {
		servePprof(*pprofAddr)
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	// Graceful shutdown: on SIGINT/SIGTERM stop accepting work, let
	// in-flight HTTP requests finish, then drain the advise jobs
	// (queued ones are cancelled so their pollers see a terminal
	// state).
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatal(err)
	case sig := <-sigc:
		log.Printf("charles-server: %v — shutting down and draining jobs", sig)
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := shutdownServing(dctx, hs, srv.jobs); err != nil {
			log.Printf("charles-server: shutdown: %v", err)
		}
	}
}

// shutdowner is the graceful-stop surface http.Server and
// jobs.Manager share.
type shutdowner interface {
	Shutdown(ctx context.Context) error
}

// shutdownServing stops the serving plane in the only safe order:
// the listener first — it stops accepting and waits for in-flight
// requests, whose handlers may still submit to the queue — then the
// job queue drains. Draining the queue first would close it while
// requests are still landing: every late submission would answer
// "shutting down" even though the server looked alive from outside.
func shutdownServing(ctx context.Context, listener, queue shutdowner) error {
	lerr := listener.Shutdown(ctx)
	qerr := queue.Shutdown(ctx)
	return errors.Join(lerr, qerr)
}

// handler is the served handler chain: recover innermost so a panic
// in any route turns into a counted 500, access logs outermost so
// that 500 is logged like every other response.
func (sv *server) handler() http.Handler {
	return sv.withAccessLogs(sv.withRecover(sv.mux()))
}

// mux wires the handlers: the Figure 1 web UI plus the async job
// API.
func (sv *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", sv.handleIndex)
	mux.HandleFunc("/zoom", sv.handleZoom)
	mux.HandleFunc("/advise", sv.handleAdvise)
	mux.HandleFunc("/append", sv.handleAppend)
	mux.HandleFunc("/jobs", sv.handleJobs)
	mux.HandleFunc("/jobs/", sv.handleJob)
	mux.HandleFunc("/healthz", sv.handleHealthz)
	mux.HandleFunc("/metrics", sv.handleMetrics)
	return mux
}

// newSessionID returns a random 128-bit hex id.
func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b[:])
}

// getSession resolves the request's session from its cookie,
// creating one (and setting the cookie) on first contact or after
// eviction. It also stamps lastUsed and evicts the stalest session
// over the cap.
func (sv *server) getSession(w http.ResponseWriter, r *http.Request) *session {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if c, err := r.Cookie(sessionCookie); err == nil {
		if s, ok := sv.sessions[c.Value]; ok {
			s.lastUsed = time.Now()
			s.requests++
			return s
		}
	}
	id := newSessionID()
	s := &session{ctx: sv.initialCtx, lastUsed: time.Now(), requests: 1}
	sv.sessions[id] = s
	if len(sv.sessions) > maxSessions {
		sv.evictLocked(id)
	}
	http.SetCookie(w, &http.Cookie{
		Name:     sessionCookie,
		Value:    id,
		Path:     "/",
		HttpOnly: true,
		SameSite: http.SameSiteLaxMode,
	})
	return s
}

// evictLocked drops one session to stay under the cap, sparing
// keep. Never-revisited sessions (cookie-less crawlers and health
// checks) go first, oldest of them; only when every session is a
// returning browser does true LRU apply, so probe floods cannot
// push real users' exploration state out.
func (sv *server) evictLocked(keep string) {
	victimID, victim := "", (*session)(nil)
	for sid, sess := range sv.sessions {
		if sid == keep {
			continue
		}
		if victim == nil {
			victimID, victim = sid, sess
			continue
		}
		vOnce, sOnce := victim.requests <= 1, sess.requests <= 1
		switch {
		case sOnce && !vOnce:
			victimID, victim = sid, sess
		case sOnce == vOnce && sess.lastUsed.Before(victim.lastUsed):
			victimID, victim = sid, sess
		}
	}
	if victim != nil {
		delete(sv.sessions, victimID)
	}
}

// requireGet answers 405 for every method but GET (and HEAD, which
// net/http treats as GET for handlers).
func requireGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method == http.MethodGet || r.Method == http.MethodHead {
		return true
	}
	w.Header().Set("Allow", "GET, HEAD")
	http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	return false
}

// handleIndex advises on ?context= (or the session's current
// context) and renders the page, optionally opening answer ?open=.
func (sv *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	if !requireGet(w, r) {
		return
	}
	s := sv.getSession(w, r)
	s.mu.Lock()
	defer s.mu.Unlock()
	errMsg := ""
	if qs := r.URL.Query().Get("context"); qs != "" {
		ctx, err := sv.adv.ParseContext(qs)
		if err != nil {
			errMsg = err.Error()
		} else if !ctx.Equal(s.ctx) {
			s.ctx = ctx
			s.res = nil
		}
	}
	if s.res == nil {
		res, err := sv.advise(s.ctx)
		if err != nil {
			sv.render(w, charles.Query{}, nil, -1, "advise: "+err.Error())
			return
		}
		s.res = res
	}
	open := -1
	if v := r.URL.Query().Get("open"); v != "" {
		if i, err := strconv.Atoi(v); err == nil {
			open = i
		}
	}
	if open < 0 && len(s.res.Segmentations) > 0 {
		open = 0
	}
	sv.render(w, s.ctx, s.res, open, errMsg)
}

// handleZoom re-roots the session's context on a segment of its
// current result.
func (sv *server) handleZoom(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	s := sv.getSession(w, r)
	s.mu.Lock()
	answer, _ := strconv.Atoi(r.URL.Query().Get("open"))
	segment, _ := strconv.Atoi(r.URL.Query().Get("segment"))
	if s.res != nil {
		sv.tabMu.RLock()
		q, err := sv.adv.Zoom(s.res, answer, segment)
		sv.tabMu.RUnlock()
		if err == nil {
			s.ctx = q
			s.res = nil
		}
	}
	s.mu.Unlock()
	http.Redirect(w, r, "/", http.StatusSeeOther)
}

func (sv *server) render(w http.ResponseWriter, ctx charles.Query, res *charles.Result, open int, errMsg string) {
	rows := 0
	if res != nil {
		sv.tabMu.RLock()
		if n, err := sv.adv.Count(ctx); err == nil {
			rows = n
		}
		sv.tabMu.RUnlock()
	}
	var pd ui.PageData
	if res != nil {
		pd = ui.BuildPage(sv.adv.Table().Name(), ctx, rows, res, open)
	} else {
		pd = ui.PageData{Table: sv.adv.Table().Name(), Selected: -1}
	}
	pd.Error = errMsg
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := ui.PageTemplate.Execute(w, pd); err != nil {
		log.Printf("charles-server: render: %v", err)
	}
}
