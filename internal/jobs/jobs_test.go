// Tests for the async job subsystem: lifecycle states, FIFO
// backpressure, single-flight coalescing, TTL retention,
// cancellation of queued and running jobs, graceful drain, and a
// concurrent submit/cancel/poll hammer for the -race job.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"charles/internal/core"
	"charles/internal/obs"
)

// blockingRun returns a RunFunc that parks until release is closed
// (or its context is cancelled), counting executions.
func blockingRun(runs *atomic.Int64, release <-chan struct{}) RunFunc {
	return func(ctx context.Context, progress core.ProgressFunc) (*core.Result, error) {
		runs.Add(1)
		if progress != nil {
			progress(core.Progress{Phase: core.PhaseCuts, Done: 1, Total: 1})
		}
		select {
		case <-release:
			return &core.Result{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// instantRun completes immediately.
func instantRun(runs *atomic.Int64) RunFunc {
	return func(ctx context.Context, progress core.ProgressFunc) (*core.Result, error) {
		runs.Add(1)
		return &core.Result{}, nil
	}
}

// waitState polls the job until it reaches want or the deadline
// expires.
func waitState(t *testing.T, m *Manager, id string, want State) Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		snap, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if snap.State == want {
			return snap
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %v", id, want)
	return Snapshot{}
}

func shutdown(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestJobLifecycle(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer shutdown(t, m)
	var runs atomic.Int64
	release := make(chan struct{})
	j, err := m.Submit("k", blockingRun(&runs, release))
	if err != nil {
		t.Fatal(err)
	}
	snap := waitState(t, m, j.ID(), StateRunning)
	if snap.Started.IsZero() || snap.Created.IsZero() {
		t.Fatal("running job missing timestamps")
	}
	// The run reports progress only after the job turns running.
	for deadline := time.Now().Add(10 * time.Second); snap.Progress.Phase != core.PhaseCuts && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		snap = j.Snapshot()
	}
	if snap.Progress.Phase != core.PhaseCuts {
		t.Fatalf("progress not threaded: %+v", snap.Progress)
	}
	close(release)
	<-j.Done()
	snap = waitState(t, m, j.ID(), StateDone)
	if snap.Result == nil || snap.Err != nil {
		t.Fatalf("done job: result=%v err=%v", snap.Result, snap.Err)
	}
	if snap.Finished.Before(snap.Started) {
		t.Fatal("finished before started")
	}
	if runs.Load() != 1 {
		t.Fatalf("runs = %d", runs.Load())
	}
}

func TestQueueBackpressure(t *testing.T) {
	m := NewManager(Options{Workers: 1, QueueDepth: 1})
	defer shutdown(t, m)
	var runs atomic.Int64
	release := make(chan struct{})
	a, err := m.Submit("a", blockingRun(&runs, release))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, a.ID(), StateRunning) // worker occupied, queue empty
	b, err := m.Submit("b", blockingRun(&runs, release))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit("c", blockingRun(&runs, release)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submission: err = %v, want ErrQueueFull", err)
	}
	st := m.Stats()
	if st.Queued != 1 || st.Running != 1 || st.QueueCap != 1 {
		t.Fatalf("stats = %+v", st)
	}
	close(release)
	waitState(t, m, a.ID(), StateDone)
	waitState(t, m, b.ID(), StateDone)
	// Capacity freed: submissions flow again.
	if _, err := m.Submit("d", instantRun(&runs)); err != nil {
		t.Fatalf("post-drain submission: %v", err)
	}
}

// TestSingleFlightCoalesce pins the acceptance criterion: M
// identical concurrent submissions execute exactly one run and share
// one job id.
func TestSingleFlightCoalesce(t *testing.T) {
	m := NewManager(Options{Workers: 2})
	defer shutdown(t, m)
	var runs atomic.Int64
	release := make(chan struct{})
	const M = 8
	ids := make([]string, M)
	var wg sync.WaitGroup
	wg.Add(M)
	for i := 0; i < M; i++ {
		go func(i int) {
			defer wg.Done()
			j, err := m.Submit("same", blockingRun(&runs, release))
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			ids[i] = j.ID()
		}(i)
	}
	wg.Wait()
	for i := 1; i < M; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("submission %d got job %s, want %s", i, ids[i], ids[0])
		}
	}
	close(release)
	waitState(t, m, ids[0], StateDone)
	if runs.Load() != 1 {
		t.Fatalf("%d identical submissions ran %d advises, want exactly 1", M, runs.Load())
	}
	st := m.Stats()
	if st.Submitted != 1 || st.Coalesced != M-1 {
		t.Fatalf("submitted/coalesced = %d/%d, want 1/%d", st.Submitted, st.Coalesced, M-1)
	}
}

// TestSubmitTimeoutReportsJoined pins "joined vs new": joined is true
// only when an existing job answers the key — queued, running or done
// within the TTL — and false for a new job, even one that finished
// before its submitter looked at it, and for a resubmission after a
// failure.
func TestSubmitTimeoutReportsJoined(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer shutdown(t, m)
	var runs atomic.Int64

	j, joined, err := m.SubmitTimeout("k", instantRun(&runs), 0)
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if joined || j.Snapshot().State != StateDone {
		t.Fatalf("new job: joined=%v state=%v, want a new done job", joined, j.Snapshot().State)
	}
	if j2, joined, err := m.SubmitTimeout("k", instantRun(&runs), 0); err != nil || !joined || j2 != j {
		t.Fatalf("resubmit onto done job: job %v joined=%v err=%v, want job %s joined", j2, joined, err, j.ID())
	}

	release := make(chan struct{})
	r, joined, err := m.SubmitTimeout("r", blockingRun(&runs, release), 0)
	if err != nil || joined {
		t.Fatalf("new blocking job: joined=%v err=%v", joined, err)
	}
	waitState(t, m, r.ID(), StateRunning)
	if r2, joined, err := m.SubmitTimeout("r", blockingRun(&runs, release), 0); err != nil || !joined || r2 != r {
		t.Fatalf("resubmit onto running job: joined=%v err=%v", joined, err)
	}
	close(release)
	<-r.Done()

	failing := func(ctx context.Context, progress core.ProgressFunc) (*core.Result, error) {
		return nil, errors.New("boom")
	}
	f, _, err := m.SubmitTimeout("f", failing, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, f.ID(), StateFailed)
	if f2, joined, err := m.SubmitTimeout("f", failing, 0); err != nil || joined || f2 == f {
		t.Fatalf("resubmit after failure: joined=%v err=%v, want a new job", joined, err)
	}
	if st := m.Stats(); st.Submitted != 4 || st.Coalesced != 2 {
		t.Fatalf("submitted/coalesced = %d/%d, want 4/2", st.Submitted, st.Coalesced)
	}
}

func TestHotHitAndTTLExpiry(t *testing.T) {
	m := NewManager(Options{Workers: 1, TTL: 80 * time.Millisecond})
	defer shutdown(t, m)
	var runs atomic.Int64
	j, err := m.Submit("k", instantRun(&runs))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j.ID(), StateDone)
	// Within the TTL the done job itself answers resubmission.
	j2, err := m.Submit("k", instantRun(&runs))
	if err != nil {
		t.Fatal(err)
	}
	if j2.ID() != j.ID() || runs.Load() != 1 {
		t.Fatalf("hot hit re-ran: id %s vs %s, runs %d", j2.ID(), j.ID(), runs.Load())
	}
	time.Sleep(160 * time.Millisecond)
	if _, err := m.Get(j.ID()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired job still pollable: err = %v", err)
	}
	j3, err := m.Submit("k", instantRun(&runs))
	if err != nil {
		t.Fatal(err)
	}
	if j3.ID() == j.ID() {
		t.Fatal("expired job reused")
	}
	waitState(t, m, j3.ID(), StateDone)
	if runs.Load() != 2 {
		t.Fatalf("post-expiry submission did not run fresh: runs = %d", runs.Load())
	}
}

func TestCancelQueued(t *testing.T) {
	m := NewManager(Options{Workers: 1, QueueDepth: 2})
	defer shutdown(t, m)
	var runs atomic.Int64
	release := make(chan struct{})
	a, _ := m.Submit("a", blockingRun(&runs, release))
	waitState(t, m, a.ID(), StateRunning)
	b, err := m.Submit("b", blockingRun(&runs, release))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(b.ID()); err != nil {
		t.Fatal(err)
	}
	snap := waitState(t, m, b.ID(), StateCancelled)
	if !errors.Is(snap.Err, context.Canceled) {
		t.Fatalf("cancelled job err = %v", snap.Err)
	}
	select {
	case <-b.Done():
	default:
		t.Fatal("cancelled queued job's Done channel still open")
	}
	close(release)
	waitState(t, m, a.ID(), StateDone)
	if runs.Load() != 1 {
		t.Fatalf("cancelled queued job ran anyway: runs = %d", runs.Load())
	}
	// A fresh submission of the cancelled key runs.
	c, err := m.Submit("b", instantRun(&runs))
	if err != nil {
		t.Fatal(err)
	}
	if c.ID() == b.ID() {
		t.Fatal("cancelled job coalesced a new submission")
	}
}

func TestCancelRunning(t *testing.T) {
	m := NewManager(Options{Workers: 2})
	defer shutdown(t, m)
	var runs atomic.Int64
	release := make(chan struct{})
	defer close(release)
	j, _ := m.Submit("k", blockingRun(&runs, release))
	waitState(t, m, j.ID(), StateRunning)
	if err := m.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	// A cancelled running job is unmapped at once: a new submission
	// of the key must run fresh, not join the doomed job.
	j2, err := m.Submit("k", instantRun(&runs))
	if err != nil {
		t.Fatal(err)
	}
	if j2.ID() == j.ID() {
		t.Fatal("new submission coalesced onto a cancelled running job")
	}
	waitState(t, m, j2.ID(), StateDone)
	snap := waitState(t, m, j.ID(), StateCancelled)
	if snap.Result != nil {
		t.Fatal("cancelled job has a result")
	}
	// Cancelling a terminal job is a no-op, not an error.
	if err := m.Cancel(j.ID()); err != nil {
		t.Fatalf("re-cancel: %v", err)
	}
}

// TestCancelQueuedFreesSlot pins the backpressure fix: a cancelled
// queued job releases its queue slot immediately, rather than
// holding queue-full until a worker drains the corpse.
func TestCancelQueuedFreesSlot(t *testing.T) {
	m := NewManager(Options{Workers: 1, QueueDepth: 1})
	defer shutdown(t, m)
	var runs atomic.Int64
	release := make(chan struct{})
	a, _ := m.Submit("a", blockingRun(&runs, release))
	waitState(t, m, a.ID(), StateRunning)
	b, _ := m.Submit("b", blockingRun(&runs, release))
	if _, err := m.Submit("c", instantRun(&runs)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("queue should be full: %v", err)
	}
	if err := m.Cancel(b.ID()); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Queued != 0 {
		t.Fatalf("cancelled queued job still counted: Queued = %d", st.Queued)
	}
	// The slot is free while the worker is still busy with a.
	c, err := m.Submit("c", instantRun(&runs))
	if err != nil {
		t.Fatalf("slot not reclaimed after cancel: %v", err)
	}
	close(release)
	waitState(t, m, c.ID(), StateDone)
	if snap, _ := m.Get(b.ID()); snap.State != StateCancelled {
		t.Fatalf("b = %v", snap.State)
	}
	if runs.Load() != 2 { // a and c ran; b never did
		t.Fatalf("runs = %d, want 2", runs.Load())
	}
}

// TestLateCancelKeepsCompletedResult pins the finish-line race: a
// run that returned successfully stays done (with its result) even
// when a cancel landed during its last instants.
func TestLateCancelKeepsCompletedResult(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer shutdown(t, m)
	finishing := make(chan struct{})
	proceed := make(chan struct{})
	j, _ := m.Submit("k", func(ctx context.Context, p core.ProgressFunc) (*core.Result, error) {
		close(finishing)
		<-proceed // the cancel lands here, after the work is done
		return &core.Result{}, nil
	})
	<-finishing
	if err := m.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	close(proceed)
	<-j.Done()
	snap, err := m.Get(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateDone || snap.Result == nil {
		t.Fatalf("late-cancelled completed job: state=%v result=%v", snap.State, snap.Result)
	}
}

func TestFailedJobsNeverCoalesceOrServe(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer shutdown(t, m)
	var runs atomic.Int64
	failing := func(ctx context.Context, progress core.ProgressFunc) (*core.Result, error) {
		runs.Add(1)
		return nil, errors.New("boom")
	}
	a, _ := m.Submit("k", failing)
	snap := waitState(t, m, a.ID(), StateFailed)
	if snap.Err == nil || snap.Result != nil {
		t.Fatalf("failed job: err=%v result=%v", snap.Err, snap.Result)
	}
	b, err := m.Submit("k", failing)
	if err != nil {
		t.Fatal(err)
	}
	if b.ID() == a.ID() {
		t.Fatal("failed job answered a resubmission")
	}
	waitState(t, m, b.ID(), StateFailed)
	if runs.Load() != 2 {
		t.Fatalf("runs = %d, want 2", runs.Load())
	}
}

func TestShutdownDrainsRunningCancelsQueued(t *testing.T) {
	m := NewManager(Options{Workers: 1, QueueDepth: 2})
	var runs atomic.Int64
	release := make(chan struct{})
	a, _ := m.Submit("a", blockingRun(&runs, release))
	waitState(t, m, a.ID(), StateRunning)
	b, _ := m.Submit("b", blockingRun(&runs, release))

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- m.Shutdown(ctx)
	}()
	// The queued job is cancelled promptly, while a is still running.
	waitState(t, m, b.ID(), StateCancelled)
	if _, err := m.Submit("c", instantRun(&runs)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after shutdown: err = %v, want ErrClosed", err)
	}
	select {
	case err := <-done:
		t.Fatalf("shutdown returned before the running job drained: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release) // let a finish
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if s, _ := m.Get(a.ID()); s.State != StateDone {
		t.Fatalf("running job was not drained to completion: %v", s.State)
	}
}

func TestShutdownDeadline(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	var runs atomic.Int64
	release := make(chan struct{})
	defer close(release)
	a, _ := m.Submit("a", blockingRun(&runs, release))
	waitState(t, m, a.ID(), StateRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown with stuck job: err = %v, want DeadlineExceeded", err)
	}
}

// TestConcurrentSubmitCancelPoll is the -race hammer: many
// goroutines submitting, cancelling, polling and listing against one
// manager must neither race nor deadlock.
func TestConcurrentSubmitCancelPoll(t *testing.T) {
	m := NewManager(Options{Workers: 4, QueueDepth: 64, TTL: 20 * time.Millisecond})
	defer shutdown(t, m)
	var runs atomic.Int64
	const goroutines = 8
	const iters = 60
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("k%d", (g+i)%5)
				j, err := m.Submit(key, instantRun(&runs))
				if err != nil && !errors.Is(err, ErrQueueFull) {
					t.Errorf("submit: %v", err)
					return
				}
				if j != nil {
					switch i % 3 {
					case 0:
						m.Cancel(j.ID())
					case 1:
						m.Get(j.ID())
					default:
						<-j.Done()
					}
				}
				if i%10 == 0 {
					m.List()
					m.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestGroupSingleFlight pins the synchronous coalescing helper the
// server's result-cache path shares: concurrent calls under one key
// run fn once, and nothing is retained afterwards (a later call runs
// fresh — errors are never cached).
func TestGroupSingleFlight(t *testing.T) {
	var g Group
	var runs atomic.Int64
	release := make(chan struct{})
	const M = 6
	var wg sync.WaitGroup
	wg.Add(M)
	shared := make([]bool, M)
	for i := 0; i < M; i++ {
		go func(i int) {
			defer wg.Done()
			res, err, sh := g.Do("k", func() (*core.Result, error) {
				runs.Add(1)
				<-release
				return &core.Result{}, nil
			})
			if err != nil || res == nil {
				t.Errorf("Do: res=%v err=%v", res, err)
			}
			shared[i] = sh
		}(i)
	}
	// Let the leader register and give the others time to join its
	// flight before releasing it.
	for runs.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	// Every caller either ran fn itself or shared a flight; with the
	// join window above, all but the leader share. A caller that
	// raced past the flight re-runs legitimately, so pin the
	// invariant and that coalescing actually happened.
	nShared := 0
	for _, sh := range shared {
		if sh {
			nShared++
		}
	}
	if got := int(runs.Load()); got != M-nShared {
		t.Fatalf("runs = %d with %d sharers, want %d", got, nShared, M-nShared)
	}
	if nShared < 1 {
		t.Fatal("no caller shared the flight — nothing coalesced")
	}
	// The flight is forgotten once done: a new call runs again, and
	// its error is handed out, not retained.
	before := runs.Load()
	if _, err, sh := g.Do("k", func() (*core.Result, error) {
		runs.Add(1)
		return nil, errors.New("boom")
	}); sh || err == nil {
		t.Fatalf("completed flight was retained (shared=%v err=%v)", sh, err)
	}
	if runs.Load() != before+1 {
		t.Fatalf("second flight did not run: runs = %d", runs.Load())
	}
}

// TestJobMetricsAndTrace pins the jobs-layer observability: the
// manager's histograms see every executed job, and each job carries a
// trace whose queue_wait and run stages land in its snapshot — with
// the job's context carrying the trace so the advisor core's stages
// nest into the same tree.
func TestJobMetricsAndTrace(t *testing.T) {
	jm := &Metrics{
		QueueWait: obs.NewHistogram(obs.DefaultLatencyBuckets()),
		Run:       obs.NewHistogram(obs.DefaultLatencyBuckets()),
	}
	m := NewManager(Options{Workers: 1, Metrics: jm})
	defer shutdown(t, m)
	run := func(ctx context.Context, progress core.ProgressFunc) (*core.Result, error) {
		// The core would do exactly this with the request's ctx.
		sp := obs.TraceFrom(ctx).Start("core_stage")
		defer sp.End()
		return &core.Result{}, nil
	}
	j, err := m.Submit("k", run)
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	snap := waitState(t, m, j.ID(), StateDone)
	stages := map[string]int64{}
	var walk func([]obs.StageSummary)
	walk = func(sts []obs.StageSummary) {
		for _, st := range sts {
			stages[st.Name] = st.Count
			walk(st.Children)
		}
	}
	walk(snap.Trace)
	for _, want := range []string{"queue_wait", "run", "core_stage"} {
		if stages[want] == 0 {
			t.Errorf("job trace missing stage %q: %+v", want, snap.Trace)
		}
	}
	if got := jm.QueueWait.Count(); got != 1 {
		t.Errorf("queue-wait histogram saw %d jobs, want 1", got)
	}
	if got := jm.Run.Count(); got != 1 {
		t.Errorf("run histogram saw %d jobs, want 1", got)
	}
}
