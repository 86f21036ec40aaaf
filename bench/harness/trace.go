package harness

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"charles"
)

// Span is one call into a layer, recorded from the benchmark's side
// of the boundary. Start and end are nanoseconds since the tracer was
// made; Parent is the index of the causing span in the same file, or
// -1. Spans of one op share OpID.
type Span struct {
	OpID    int    `json:"op_id"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

// Stage is one node of the stage tree the program reports for an
// advise (obs.StageSummary's JSON shape): a name, how often the stage
// ran, and its accumulated time. The program reports totals, not
// timestamps, so AddStages lays stages end to end inside their
// parent span.
type Stage struct {
	Name       string  `json:"name"`
	Count      int64   `json:"count"`
	DurationNS int64   `json:"duration_ns"`
	Children   []Stage `json:"children,omitempty"`
}

// Tracer is the traced run's hook set. The untraced run passes nil:
// end-to-end metrics are always measured with tracing off. It holds
// spans in memory until the run ends. The func fields are filled in
// by ../layers, which may touch internals; harness itself only
// records the spans it can see from outside.
type Tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []Span
	stages map[string][]float64 // stage name → per-advise totals, ms

	// OnAdvisor is told about every Advisor a workload makes, so
	// counters can be hooked onto its evaluator.
	OnAdvisor func(*charles.Advisor)
	// PlantTrace returns ctx carrying a fresh stage trace plus a func
	// that reads the trace back once the advise returned.
	PlantTrace func(ctx context.Context) (context.Context, func() []Stage)
	// OnResult sees every in-process advise result (partition
	// validation, exact counts) outside the timed interval.
	OnResult func(adv *charles.Advisor, q charles.Query, res *charles.Result)
}

// NewTracer starts a span log.
func NewTracer() *Tracer {
	return &Tracer{t0: time.Now(), stages: map[string][]float64{}}
}

// Add records one span and returns its index.
func (t *Tracer) Add(op int, name string, start, end time.Time, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{OpID: op, Name: name,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(), Parent: parent})
	return len(t.spans) - 1
}

// Time runs fn inside a span.
func (t *Tracer) Time(op int, name string, parent int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.Add(op, name, start, end, parent)
	return end.Sub(start)
}

// AddStages records one advise's stage tree under parent and folds
// every stage's total into the per-stage samples.
func (t *Tracer) AddStages(op, parent int, start time.Time, stages []Stage) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addStagesLocked(op, parent, start.Sub(t.t0).Nanoseconds(), stages)
}

func (t *Tracer) addStagesLocked(op, parent int, at int64, stages []Stage) {
	for _, st := range stages {
		t.stages[st.Name] = append(t.stages[st.Name], float64(st.DurationNS)/1e6)
		t.spans = append(t.spans, Span{OpID: op, Name: st.Name, StartNS: at, EndNS: at + st.DurationNS, Parent: parent})
		t.addStagesLocked(op, len(t.spans)-1, at, st.Children)
		at += st.DurationNS
	}
}

// CoreStages renames the advisor core's stages (initial_cuts,
// indep_pairs, compose) into the benchmark's layer vocabulary.
func CoreStages(stages []Stage) []Stage {
	out := make([]Stage, len(stages))
	for i, st := range stages {
		out[i] = Stage{Name: "core." + st.Name, Count: st.Count, DurationNS: st.DurationNS, Children: st.Children}
	}
	return out
}

// JobStages reshapes the flat stage list a job reports — queue_wait,
// the core stages, run — into jobs.queue_wait followed by jobs.run
// with the core stages, which ran inside it, as its children.
func JobStages(trace []Stage) []Stage {
	var wait, run *Stage
	var core []Stage
	for i := range trace {
		switch trace[i].Name {
		case "queue_wait":
			wait = &trace[i]
		case "run":
			run = &trace[i]
		default:
			core = append(core, trace[i])
		}
	}
	var out []Stage
	if wait != nil {
		out = append(out, Stage{Name: "jobs.queue_wait", Count: wait.Count, DurationNS: wait.DurationNS})
	}
	if run != nil {
		out = append(out, Stage{Name: "jobs.run", Count: run.Count, DurationNS: run.DurationNS, Children: CoreStages(core)})
	}
	return out
}

// StageSamples returns the per-advise totals (ms) of one stage, at any
// depth of the tree.
func (t *Tracer) StageSamples(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.stages[name]...)
}

// SelfTime is one span name's total and self time: self is a span's
// duration minus the part of it its child spans cover.
type SelfTime struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// SelfTimes folds the span log by name.
func (t *Tracer) SelfTimes() []SelfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.EndNS - s.StartNS
		}
	}
	byName := map[string]*SelfTime{}
	for i, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &SelfTime{Name: s.Name}
			byName[s.Name] = st
		}
		d := s.EndNS - s.StartNS
		self := d - covered[i]
		if self < 0 {
			self = 0
		}
		st.Calls++
		st.TotalMS += float64(d) / 1e6
		st.SelfMS += float64(self) / 1e6
	}
	out := make([]SelfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// WriteFile writes the span log, the self-time table and whatever
// else the caller wants kept (metrics, counters) as one JSON file.
func (t *Tracer) WriteFile(path string, extra map[string]any) error {
	doc := map[string]any{"self_times": t.SelfTimes()}
	t.mu.Lock()
	doc["spans"] = t.spans
	t.mu.Unlock()
	for k, v := range extra {
		doc[k] = v
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
