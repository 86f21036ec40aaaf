// Package fault is a stdlib-only failpoint registry: named injection
// sites compiled into the serving stack that chaos tests (and a
// deliberate operator) can arm to return errors, panic, or add
// latency at exactly the I/O and execution boundaries production
// failures hit. The error paths PR 6–7 wrote for the .chc reader and
// the containment PR 10 adds around job execution are only worth
// trusting if something exercises them; failpoints make that a test
// suite instead of an outage.
//
// A site is one call at the boundary it models:
//
//	if err := fault.Inject("colfile.readPage"); err != nil {
//		return fmt.Errorf("column %q: reading value pages: %w", name, err)
//	}
//
// Disabled — the default, and the only state production should run
// in — Inject costs a single atomic load, so sites are free to live
// on serving paths. Sites are armed by name with an action spec:
//
//	fault.Enable("colfile.readPage", "error(simulated I/O error)")
//	fault.Enable("jobs.run", "panic(chaos)")
//	fault.Enable("jobs.finish", "sleep(50ms)")
//	fault.Enable("jobs.run", "2*error(flaky twice, then clean)")
//
// or in bulk ("site=spec;site=spec") via Configure, which is what
// charles-server's -failpoints flag and the CHARLES_FAILPOINTS
// environment variable feed. docs/ROBUSTNESS.md catalogues every
// site the tree defines; the obsnames analyzer keeps the names
// literal and greppable.
package fault

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// action is what an armed failpoint does when its site executes.
type action uint8

const (
	actError action = iota // Inject returns an *InjectedError
	actPanic               // Inject panics with a descriptive string
	actSleep               // Inject sleeps, then reports no fault
)

// point is one armed failpoint.
type point struct {
	name  string
	act   action
	msg   string
	delay time.Duration
	// remaining is how many more triggers the spec allows; -1 is
	// unlimited. A point at 0 stays registered (its trigger count
	// remains readable) but injects nothing.
	remaining int
	triggered int
}

var (
	// armed counts enabled failpoints. Inject's fast path is this one
	// atomic load: zero means the registry is empty and no lock is
	// ever taken on a serving path.
	armed atomic.Int64

	mu     sync.Mutex
	points = map[string]*point{}
)

// nameRx is the site-name grammar: a dotted layer.site path, lower
// camelCase segments — "colfile.readPage", "jobs.run". The obsnames
// analyzer enforces the same grammar at lint time so the catalogue
// in docs/ROBUSTNESS.md stays greppable.
var nameRx = regexp.MustCompile(`^[a-z][a-z0-9]*(\.[a-zA-Z][a-zA-Z0-9]*)+$`)

// specRx parses an action spec: an optional "N*" trigger budget, an
// action verb, and its parenthesized argument.
var specRx = regexp.MustCompile(`^(?:(\d+)\*)?(error|panic|sleep)\((.*)\)$`)

// InjectedError is the error an armed error-action failpoint
// returns. Sites wrap it with their own context, so a surfaced
// failure reads like the real one it models while errors.As still
// identifies it as injected.
type InjectedError struct {
	// Site is the failpoint name that fired.
	Site string
	// Msg is the spec's error text.
	Msg string
}

func (e *InjectedError) Error() string {
	return "injected fault at " + e.Site + ": " + e.Msg
}

// Inject executes the failpoint name: nil when the site is unarmed
// (the overwhelmingly common case — one atomic load), an
// *InjectedError for an error action, a panic for a panic action,
// or a sleep followed by nil for a latency action.
func Inject(name string) error {
	if armed.Load() == 0 {
		return nil
	}
	return inject(name)
}

// inject is the slow path: at least one failpoint is armed somewhere.
func inject(name string) error {
	mu.Lock()
	p, ok := points[name]
	if !ok || p.remaining == 0 {
		mu.Unlock()
		return nil
	}
	if p.remaining > 0 {
		p.remaining--
	}
	p.triggered++
	act, msg, delay := p.act, p.msg, p.delay
	mu.Unlock()
	switch act {
	case actPanic:
		panic(fmt.Sprintf("injected panic at %s: %s", name, msg))
	case actSleep:
		time.Sleep(delay)
		return nil
	default:
		return &InjectedError{Site: name, Msg: msg}
	}
}

// Enable arms the failpoint name with an action spec:
//
//	error(<message>)   Inject returns an *InjectedError
//	panic(<message>)   Inject panics
//	sleep(<duration>)  Inject sleeps a time.ParseDuration value
//
// optionally prefixed "N*" to fire only the first N times
// ("2*error(x)"). Re-enabling a name replaces its previous spec.
func Enable(name, spec string) error {
	if !nameRx.MatchString(name) {
		return fmt.Errorf("fault: site %q is not a dotted layer.site name", name)
	}
	m := specRx.FindStringSubmatch(strings.TrimSpace(spec))
	if m == nil {
		return fmt.Errorf("fault: spec %q for %s: want [N*]error(msg) | [N*]panic(msg) | [N*]sleep(duration)", spec, name)
	}
	p := &point{name: name, msg: m[3], remaining: -1}
	if m[1] != "" {
		n, err := strconv.Atoi(m[1])
		if err != nil || n <= 0 {
			return fmt.Errorf("fault: spec %q for %s: bad trigger budget %q", spec, name, m[1])
		}
		p.remaining = n
	}
	switch m[2] {
	case "error":
		p.act = actError
	case "panic":
		p.act = actPanic
	case "sleep":
		d, err := time.ParseDuration(m[3])
		if err != nil {
			return fmt.Errorf("fault: spec %q for %s: %v", spec, name, err)
		}
		p.act, p.delay = actSleep, d
	}
	mu.Lock()
	if prev, ok := points[name]; ok {
		p.triggered = prev.triggered
	} else {
		armed.Add(1)
	}
	points[name] = p
	mu.Unlock()
	return nil
}

// Disable disarms one failpoint. Unknown names are a no-op.
func Disable(name string) {
	mu.Lock()
	if _, ok := points[name]; ok {
		delete(points, name)
		armed.Add(-1)
	}
	mu.Unlock()
}

// Reset disarms every failpoint and forgets all trigger counts —
// the test-teardown call that restores the production state.
func Reset() {
	mu.Lock()
	armed.Add(-int64(len(points)))
	points = map[string]*point{}
	mu.Unlock()
}

// Configure arms failpoints in bulk from a "name=spec;name=spec"
// string — the -failpoints flag / CHARLES_FAILPOINTS format. Empty
// input arms nothing. On a malformed entry nothing before it is
// rolled back; the caller treats the whole string as a boot error.
func Configure(s string) error {
	for _, ent := range strings.Split(s, ";") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		name, spec, ok := strings.Cut(ent, "=")
		if !ok {
			return fmt.Errorf("fault: entry %q: want name=spec", ent)
		}
		if err := Enable(strings.TrimSpace(name), spec); err != nil {
			return err
		}
	}
	return nil
}

// Triggered reports how many times the failpoint has fired since it
// was (first) enabled. Zero for unknown names.
func Triggered(name string) int {
	mu.Lock()
	defer mu.Unlock()
	if p, ok := points[name]; ok {
		return p.triggered
	}
	return 0
}

// Enabled lists the armed failpoint names, sorted.
func Enabled() []string {
	mu.Lock()
	names := make([]string, 0, len(points))
	for n := range points {
		names = append(names, n)
	}
	mu.Unlock()
	sort.Strings(names)
	return names
}
