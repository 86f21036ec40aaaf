// Tests for the survivability layer: panic containment, job
// deadlines (timed_out vs cancelled), the jobs.run failpoint, and
// per-client quota admission.
package jobs

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"charles/internal/core"
	"charles/internal/fault"
	"charles/internal/leakcheck"
	"charles/internal/obs"
)

func TestPanicContained(t *testing.T) {
	leakcheck.Check(t)
	reg := obs.NewRegistry()
	panics := reg.NewCounter("charles_panics_recovered_total", "test")
	m := NewManager(Options{Workers: 1, Metrics: &Metrics{PanicsRecovered: panics}})
	defer shutdown(t, m)

	j, err := m.Submit("boom", func(ctx context.Context, progress core.ProgressFunc) (*core.Result, error) {
		panic("synthetic advise bug")
	})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	snap := waitState(t, m, j.ID(), StateFailed)
	if snap.Err == nil || !strings.Contains(snap.Err.Error(), "panic recovered") || !strings.Contains(snap.Err.Error(), "synthetic advise bug") {
		t.Fatalf("panic error = %v, want descriptive panic-recovered error", snap.Err)
	}
	if got := panics.Value(); got != 1 {
		t.Fatalf("charles_panics_recovered_total = %d, want 1", got)
	}

	// The worker that contained the panic is still alive: the next
	// job on the same single-worker pool must run normally.
	var runs atomic.Int64
	j2, err := m.Submit("after", instantRun(&runs))
	if err != nil {
		t.Fatal(err)
	}
	<-j2.Done()
	if snap := waitState(t, m, j2.ID(), StateDone); snap.Err != nil {
		t.Fatalf("job after panic: %v", snap.Err)
	}
}

func TestJobTimeoutIsTimedOutNotCancelled(t *testing.T) {
	leakcheck.Check(t)
	m := NewManager(Options{Workers: 1, Timeout: 30 * time.Millisecond})
	defer shutdown(t, m)

	var runs atomic.Int64
	j, err := m.Submit("slow", blockingRun(&runs, make(chan struct{})))
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	snap := waitState(t, m, j.ID(), StateTimedOut)
	if snap.State.String() != "timed_out" {
		t.Fatalf("state string = %q", snap.State.String())
	}
	if !snap.State.Terminal() {
		t.Fatal("timed_out must be terminal")
	}
	if snap.Err == nil || !strings.Contains(snap.Err.Error(), "deadline") || !errors.Is(snap.Err, context.DeadlineExceeded) {
		t.Fatalf("timeout error = %v, want a descriptive DeadlineExceeded", snap.Err)
	}

	// An explicit cancel on an identical run stays cancelled — the
	// two terminal states must not blur.
	j2, err := m.Submit("slow2", blockingRun(&runs, make(chan struct{})))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j2.ID(), StateRunning)
	if err := m.Cancel(j2.ID()); err != nil {
		t.Fatal(err)
	}
	<-j2.Done()
	if snap := waitState(t, m, j2.ID(), StateCancelled); snap.State == StateTimedOut {
		t.Fatal("cancelled job reported timed_out")
	}
}

func TestSubmitTimeoutTightensNeverExtends(t *testing.T) {
	m := NewManager(Options{Workers: 1, Timeout: time.Hour})
	defer shutdown(t, m)
	var runs atomic.Int64
	release := make(chan struct{})
	defer close(release)

	j, _, err := m.SubmitTimeout("a", blockingRun(&runs, release), 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if j.timeout != 10*time.Millisecond {
		t.Fatalf("override timeout = %v, want 10ms", j.timeout)
	}
	j2, _, err := m.SubmitTimeout("b", blockingRun(&runs, release), 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if j2.timeout != time.Hour {
		t.Fatalf("timeout = %v: an override must not extend the manager deadline", j2.timeout)
	}
	j3, _, err := m.SubmitTimeout("c", blockingRun(&runs, release), 0)
	if err != nil {
		t.Fatal(err)
	}
	if j3.timeout != time.Hour {
		t.Fatalf("timeout = %v, want the manager default", j3.timeout)
	}
}

func TestTimedOutJobsNeverCoalesce(t *testing.T) {
	m := NewManager(Options{Workers: 1, Timeout: 20 * time.Millisecond})
	defer shutdown(t, m)
	var runs atomic.Int64
	j, err := m.Submit("k", blockingRun(&runs, make(chan struct{})))
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	waitState(t, m, j.ID(), StateTimedOut)

	release := make(chan struct{})
	close(release)
	j2, err := m.Submit("k", blockingRun(&runs, release))
	if err != nil {
		t.Fatal(err)
	}
	if j2.ID() == j.ID() {
		t.Fatal("new submission coalesced onto a timed-out job")
	}
	<-j2.Done()
	waitState(t, m, j2.ID(), StateDone)
}

func TestRunFailpoint(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	if err := fault.Enable("jobs.run", "error(chaos says no)"); err != nil {
		t.Fatal(err)
	}
	m := NewManager(Options{Workers: 1})
	defer shutdown(t, m)
	var runs atomic.Int64
	j, err := m.Submit("k", instantRun(&runs))
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	snap := waitState(t, m, j.ID(), StateFailed)
	var inj *fault.InjectedError
	if !errors.As(snap.Err, &inj) || !strings.Contains(snap.Err.Error(), "chaos says no") {
		t.Fatalf("err = %v, want wrapped InjectedError", snap.Err)
	}
	if runs.Load() != 0 {
		t.Fatal("RunFunc executed despite injected fault")
	}

	// Disarm; the same key must run clean (failed jobs don't coalesce).
	fault.Reset()
	j2, err := m.Submit("k", instantRun(&runs))
	if err != nil {
		t.Fatal(err)
	}
	<-j2.Done()
	waitState(t, m, j2.ID(), StateDone)
}

// TestChaosFinishedJobNeverJoined holds the coalescing rule at its
// edge: once a job's done channel has closed on a failure or a cancel,
// neither Peek nor a resubmission of its key may find that job. The
// jobs.finish failpoint sleeps right after done closes, so a finisher
// that unmapped the key only after closing done would leave the dead
// job joinable for the whole sleep.
func TestChaosFinishedJobNeverJoined(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	if err := fault.Enable("jobs.finish", "sleep(300ms)"); err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	requireFresh := func(t *testing.T, m *Manager, key string, dead *Job) {
		t.Helper()
		if j, ok := m.Peek(key); ok {
			t.Fatalf("Peek(%q) found %s after its done closed", key, j.ID())
		}
		j, joined, err := m.SubmitTimeout(key, instantRun(&runs), 0)
		if err != nil {
			t.Fatal(err)
		}
		if joined || j == dead {
			t.Fatalf("resubmission of %q joined the dead job %s", key, dead.ID())
		}
		<-j.Done()
		waitState(t, m, j.ID(), StateDone)
	}

	t.Run("failed", func(t *testing.T) {
		m := NewManager(Options{Workers: 1})
		defer shutdown(t, m)
		j, err := m.Submit("k", func(ctx context.Context, progress core.ProgressFunc) (*core.Result, error) {
			return nil, errors.New("advise failed")
		})
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		requireFresh(t, m, "k", j)
	})

	t.Run("cancelled while queued", func(t *testing.T) {
		m := NewManager(Options{Workers: 1})
		defer shutdown(t, m)
		release := make(chan struct{})
		busy, err := m.Submit("busy", blockingRun(&runs, release))
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, busy.ID(), StateRunning)
		queued, err := m.Submit("q", instantRun(&runs))
		if err != nil {
			t.Fatal(err)
		}
		cancelled := make(chan error, 1)
		go func() { cancelled <- m.Cancel(queued.ID()) }()
		<-queued.Done()
		close(release)
		requireFresh(t, m, "q", queued)
		if err := <-cancelled; err != nil {
			t.Fatal(err)
		}
	})
}

func TestShutdownLeaksNothing(t *testing.T) {
	leakcheck.Check(t)
	m := NewManager(Options{Workers: 4, QueueDepth: 16})
	var runs atomic.Int64
	release := make(chan struct{})
	for i := 0; i < 8; i++ {
		if _, err := m.Submit(string(rune('a'+i)), blockingRun(&runs, release)); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	shutdown(t, m)
}

func TestGroupPanicReleasesWaiters(t *testing.T) {
	var g Group
	entered := make(chan struct{})
	waited := make(chan error, 1)
	go func() {
		// The waiter joins the flight the panicking caller opened.
		<-entered
		_, err, shared := g.Do("k", func() (*core.Result, error) {
			t.Error("waiter ran its own fn: flight was not joined")
			return nil, nil
		})
		if !shared {
			waited <- errors.New("waiter did not share the flight")
			return
		}
		waited <- err
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic was swallowed by Group.Do")
			}
		}()
		g.Do("k", func() (*core.Result, error) {
			close(entered)
			time.Sleep(20 * time.Millisecond) // let the waiter join
			panic("boom in flight")
		})
	}()
	select {
	case err := <-waited:
		if err == nil || !strings.Contains(err.Error(), "panic in single-flight") {
			t.Fatalf("waiter error = %v, want a descriptive panic error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter still blocked: the flight was never released")
	}
	// The key is free again.
	if _, err, shared := g.Do("k", func() (*core.Result, error) { return &core.Result{}, nil }); err != nil || shared {
		t.Fatalf("key not released after panic: err=%v shared=%v", err, shared)
	}
}

func TestQuotaAllowAndRefill(t *testing.T) {
	q := NewQuota(1, 2) // 1 token/s, burst 2
	now := time.Unix(0, 0)
	for i := 0; i < 2; i++ {
		if ok, _ := q.allowAt("alice", now); !ok {
			t.Fatalf("burst token %d refused", i)
		}
	}
	ok, retry := q.allowAt("alice", now)
	if ok {
		t.Fatal("third immediate token allowed past burst")
	}
	if retry < time.Second {
		t.Fatalf("retry-after = %v, want >= 1s", retry)
	}
	// A different client has its own bucket.
	if ok, _ := q.allowAt("bob", now); !ok {
		t.Fatal("independent client refused")
	}
	// After a refill interval, alice is admitted again.
	if ok, _ := q.allowAt("alice", now.Add(1100*time.Millisecond)); !ok {
		t.Fatal("refilled token refused")
	}
	// Refill caps at burst: a long idle does not bank unlimited tokens.
	later := now.Add(time.Hour)
	for i := 0; i < 2; i++ {
		if ok, _ := q.allowAt("alice", later); !ok {
			t.Fatalf("post-idle token %d refused", i)
		}
	}
	if ok, _ := q.allowAt("alice", later); ok {
		t.Fatal("idle banked more than burst")
	}
}

func TestQuotaNilAdmitsEverything(t *testing.T) {
	var q *Quota
	if q != NewQuota(0, 8) {
		t.Fatal("NewQuota(0, _) must be nil (disabled)")
	}
	for i := 0; i < 1000; i++ {
		if ok, retry := q.Allow("anyone"); !ok || retry != 0 {
			t.Fatal("nil quota refused a request")
		}
	}
}

func TestQuotaBucketTableBounded(t *testing.T) {
	q := NewQuota(1, 1)
	now := time.Unix(0, 0)
	for i := 0; i < maxBuckets+10; i++ {
		q.allowAt(string(rune(i))+"-client", now)
	}
	q.mu.Lock()
	n := len(q.buckets)
	q.mu.Unlock()
	if n > maxBuckets {
		t.Fatalf("bucket table grew to %d, bound is %d", n, maxBuckets)
	}
}
