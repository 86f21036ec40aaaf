package fault

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func reset(t *testing.T) {
	t.Helper()
	Reset()
	t.Cleanup(Reset)
}

func TestDisabledInjectIsNil(t *testing.T) {
	reset(t)
	if err := Inject("colfile.readPage"); err != nil {
		t.Fatalf("unarmed Inject = %v, want nil", err)
	}
	if got := armed.Load(); got != 0 {
		t.Fatalf("armed = %d, want 0", got)
	}
}

func TestErrorAction(t *testing.T) {
	reset(t)
	if err := Enable("colfile.readPage", "error(simulated I/O error)"); err != nil {
		t.Fatal(err)
	}
	err := Inject("colfile.readPage")
	if err == nil {
		t.Fatal("armed Inject = nil, want error")
	}
	var inj *InjectedError
	if !errors.As(err, &inj) {
		t.Fatalf("error %T is not *InjectedError", err)
	}
	if inj.Site != "colfile.readPage" || inj.Msg != "simulated I/O error" {
		t.Fatalf("InjectedError = %+v", inj)
	}
	if want := "injected fault at colfile.readPage: simulated I/O error"; err.Error() != want {
		t.Fatalf("Error() = %q, want %q", err.Error(), want)
	}
	// Other sites stay unarmed.
	if err := Inject("colfile.open"); err != nil {
		t.Fatalf("unrelated site injected %v", err)
	}
	if got := Triggered("colfile.readPage"); got != 1 {
		t.Fatalf("Triggered = %d, want 1", got)
	}
}

func TestPanicAction(t *testing.T) {
	reset(t)
	if err := Enable("jobs.run", "panic(chaos)"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Inject did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "injected panic at jobs.run: chaos") {
			t.Fatalf("panic value = %v", r)
		}
	}()
	Inject("jobs.run")
}

func TestSleepAction(t *testing.T) {
	reset(t)
	if err := Enable("jobs.finish", "sleep(20ms)"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := Inject("jobs.finish"); err != nil {
		t.Fatalf("sleep action returned error %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("Inject returned after %v, want >= 20ms", d)
	}
}

func TestTriggerBudget(t *testing.T) {
	reset(t)
	if err := Enable("jobs.run", "2*error(flaky)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := Inject("jobs.run"); err == nil {
			t.Fatalf("trigger %d: nil, want error", i)
		}
	}
	if err := Inject("jobs.run"); err != nil {
		t.Fatalf("after budget exhausted: %v, want nil", err)
	}
	if got := Triggered("jobs.run"); got != 2 {
		t.Fatalf("Triggered = %d, want 2", got)
	}
}

func TestDisableAndReset(t *testing.T) {
	reset(t)
	if err := Enable("colfile.open", "error(x)"); err != nil {
		t.Fatal(err)
	}
	Disable("colfile.open")
	Disable("never.armed") // no-op, must not corrupt the armed count
	if err := Inject("colfile.open"); err != nil {
		t.Fatalf("after Disable: %v", err)
	}
	if got := armed.Load(); got != 0 {
		t.Fatalf("armed = %d after Disable, want 0", got)
	}
	if err := Enable("colfile.open", "error(x)"); err != nil {
		t.Fatal(err)
	}
	Inject("colfile.open")
	Reset()
	if got := Triggered("colfile.open"); got != 0 {
		t.Fatalf("Triggered after Reset = %d, want 0", got)
	}
	if got := armed.Load(); got != 0 {
		t.Fatalf("armed = %d after Reset, want 0", got)
	}
}

func TestReEnableReplacesSpecKeepsCount(t *testing.T) {
	reset(t)
	if err := Enable("jobs.run", "error(first)"); err != nil {
		t.Fatal(err)
	}
	Inject("jobs.run")
	if err := Enable("jobs.run", "error(second)"); err != nil {
		t.Fatal(err)
	}
	err := Inject("jobs.run")
	if err == nil || !strings.Contains(err.Error(), "second") {
		t.Fatalf("after re-enable: %v, want the second spec's message", err)
	}
	if got := Triggered("jobs.run"); got != 2 {
		t.Fatalf("Triggered = %d, want 2 (count survives re-enable)", got)
	}
	if got := armed.Load(); got != 1 {
		t.Fatalf("armed = %d, want 1 (re-enable must not double-count)", got)
	}
}

func TestEnableRejectsBadInput(t *testing.T) {
	reset(t)
	bad := []struct{ name, spec string }{
		{"noDots", "error(x)"},
		{"Upper.start", "error(x)"},
		{"has space.x", "error(x)"},
		{"jobs.run", "explode(x)"},
		{"jobs.run", "error"},
		{"jobs.run", "0*error(x)"},
		{"jobs.run", "sleep(not-a-duration)"},
	}
	for _, c := range bad {
		if err := Enable(c.name, c.spec); err == nil {
			t.Errorf("Enable(%q, %q) = nil, want error", c.name, c.spec)
		}
	}
	if got := armed.Load(); got != 0 {
		t.Fatalf("armed = %d after rejected specs, want 0", got)
	}
}

func TestConfigure(t *testing.T) {
	reset(t)
	cfg := "colfile.readPage=error(disk gone); jobs.run=3*sleep(1ms) ;"
	if err := Configure(cfg); err != nil {
		t.Fatal(err)
	}
	got := Enabled()
	want := []string{"colfile.readPage", "jobs.run"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Enabled() = %v, want %v", got, want)
	}
	if err := Inject("colfile.readPage"); err == nil {
		t.Fatal("configured site did not inject")
	}
	if err := Configure(""); err != nil {
		t.Fatalf("empty Configure = %v", err)
	}
	if err := Configure("missing-equals"); err == nil {
		t.Fatal("malformed entry accepted")
	}
	if err := Configure("jobs.run=nonsense()"); err == nil {
		t.Fatal("bad spec accepted")
	}
}

func TestConcurrentInject(t *testing.T) {
	reset(t)
	if err := Enable("jobs.run", "error(racy)"); err != nil {
		t.Fatal(err)
	}
	const goroutines, per = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := Inject("jobs.run"); err == nil {
					t.Error("armed Inject returned nil")
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := Triggered("jobs.run"); got != goroutines*per {
		t.Fatalf("Triggered = %d, want %d", got, goroutines*per)
	}
}

func ExampleInject() {
	defer Reset()
	Enable("colfile.readPage", "error(simulated I/O error)")
	fmt.Println(Inject("colfile.readPage"))
	// Output: injected fault at colfile.readPage: simulated I/O error
}
