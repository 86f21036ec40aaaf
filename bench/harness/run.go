package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"

	"charles"
)

// Options says what to run and where its files go.
type Options struct {
	Workload string
	Seed     int64
	Sizes    Sizes
	// ServerBin is the built charles-server (HTTP workloads only).
	ServerBin string
	// DataDir takes generated tables, OutDir server logs and traces.
	DataDir string
	OutDir  string
	// Deep runs the expensive output check on every distinct context
	// instead of Sizes.DeepChecks of them (-check).
	Deep bool
	// Tracer is nil on the untraced run that end-to-end metrics come
	// from.
	Tracer *Tracer

	// chcPath is the run's date-clustered VOC file (drill_session and
	// serve_hot), written once by Execute.
	chcPath string
}

// Outcome is everything one run observed: raw samples, never
// bucketed.
type Outcome struct {
	Workload string
	Seed     int64

	SetupS []float64 // one per set-up

	AdviseMS []float64 // ops that ran an advise
	HitMS    []float64 // result-LRU hits, classified apart
	AppendMS []float64
	SubmitMS []float64 // POST /advise round trips answered 202
	PollMS   []float64 // GET /jobs/{id} round trips
	// DonePollMS are the polls that found the job done: the GET that
	// renders the result as JSON.
	DonePollMS []float64

	AdviseOps  int           // completed advise ops, hits included
	AdviseBusy time.Duration // the advising client set's busy wall time
	RowsAcked  int
	AppendBusy time.Duration

	Attempted  int
	Failed     int      // failed, refused or timed-out ops
	OpErrors   []string // the first few of their errors
	Violations []string // output-check failures

	PeakRSSMB    float64
	BootMS       float64
	ServerFlags  []string
	OutputDigest string
	OpListDigest string

	// ServerCounters are /metrics deltas over the timed op list.
	ServerCounters map[string]float64
	// IndepEvals and Iterations are exact sums over ops that ran an
	// advise.
	IndepEvals int
	Iterations int
}

// fail counts one failed, refused or timed-out op.
func (o *Outcome) fail(format string, a ...any) {
	o.Failed++
	if len(o.OpErrors) < 10 {
		o.OpErrors = append(o.OpErrors, fmt.Sprintf(format, a...))
	}
}

// abandon counts the n ops of a session that a failure kept from
// running: attempted and failed, so they leave no denominator.
func (o *Outcome) abandon(n int) {
	o.Attempted += n
	o.Failed += n
}

// violate records one output-check failure.
func (o *Outcome) violate(format string, a ...any) {
	o.Violations = append(o.Violations, fmt.Sprintf(format, a...))
}

// Correct reports whether every output check passed.
func (o *Outcome) Correct() bool { return len(o.Violations) == 0 }

// FailedTotal is failed ops plus check violations — failed_share's
// numerator.
func (o *Outcome) FailedTotal() int { return o.Failed + len(o.Violations) }

// workload is one of the four: setup is timed as setup_s, run is the
// timed op list, check the untimed output check.
type workload interface {
	setup() error
	run(out *Outcome)
	check(out *Outcome)
	peakRSSMB() float64
	close()
}

func newWorkload(opt Options) (workload, error) {
	switch opt.Workload {
	case ColdExplore:
		return &coldExplore{opt: opt}, nil
	case DrillSession:
		return &drillSession{opt: opt}, nil
	case ServeHot:
		return &serveHot{opt: opt}, nil
	case AppendMix:
		return &appendMix{opt: opt}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", opt.Workload)
}

// Execute runs one workload once: Sizes.SetupReps timed set-ups (the
// last one is kept), the timed op list, then the output check.
func Execute(opt Options) (*Outcome, error) {
	for _, d := range []string{opt.DataDir, opt.OutDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	out := &Outcome{Workload: opt.Workload, Seed: opt.Seed,
		OpListDigest: OpListDigest(opt.Workload, opt.Seed, opt.Sizes)}
	// The .chc workloads ingest once per run and every set-up repeat
	// reuses the file, its cost counted into each repeat's setup_s.
	// Rewriting 56 MB three times a run is 7 GB over the driver's runs,
	// and on the reference box's ext4 a few hundred such create/delete
	// cycles degraded block allocation for new files from 0.1 s to 4-8 s
	// — a trend in setup_s that says nothing about the program.
	ingestS := 0.0
	if opt.Workload == DrillSession || opt.Workload == ServeHot {
		start := time.Now()
		opt.chcPath = filepath.Join(opt.DataDir, fmt.Sprintf("%s-%d-%d.chc", opt.Workload, os.Getpid(), start.UnixNano()))
		defer os.Remove(opt.chcPath) // scratch data; DataDir is disposable
		voc := charles.GenerateVOC(opt.Sizes.Rows, DataSeed)
		if err := charles.SaveColumnFile(opt.chcPath, voc, charles.ColumnFileOptions{ClusterBy: "departure_date"}); err != nil {
			return nil, fmt.Errorf("%s ingest: %w", opt.Workload, err)
		}
		ingestS = time.Since(start).Seconds()
	}
	var w workload
	for rep := 0; rep < opt.Sizes.SetupReps; rep++ {
		if w != nil {
			w.close()
			w = nil
			debug.FreeOSMemory()
		}
		var err error
		if w, err = newWorkload(opt); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return nil, fmt.Errorf("%s set-up: %w", opt.Workload, err)
		}
		out.SetupS = append(out.SetupS, ingestS+time.Since(start).Seconds())
	}
	defer w.close()
	w.run(out)
	out.PeakRSSMB = w.peakRSSMB() // before the check: its fresh advisors are not the workload's memory
	w.check(out)
	return out, nil
}

// EndToEndMetrics reduces an outcome to the end-to-end catalogue, in
// catalogue order; metrics the workload does not have are left out.
func (o *Outcome) EndToEndMetrics() []Metric {
	var ms []Metric
	ms = append(ms, Metric{Name: "setup_s", Unit: "s", Value: Median(Sorted(o.SetupS)), N: len(o.SetupS)})
	p50, tail := MedianTail("advise_p50_ms", "advise_tail_ms", "ms", o.AdviseMS)
	ms = append(ms, p50, tail)
	if o.AdviseBusy > 0 {
		ms = append(ms, Metric{Name: "advises_per_s", Unit: "1/s", Value: float64(o.AdviseOps) / o.AdviseBusy.Seconds(), N: o.AdviseOps})
	}
	ms = append(ms, Metric{Name: "peak_rss_mb", Unit: "MiB", Value: o.PeakRSSMB})
	if len(o.HitMS) > 0 {
		s := Sorted(o.HitMS)
		ms = append(ms, Metric{Name: "hit_p50_ms", Unit: "ms", Value: Median(s), N: len(s)})
	}
	if len(o.AppendMS) > 0 {
		p50, tail := MedianTail("append_p50_ms", "append_tail_ms", "ms", o.AppendMS)
		ms = append(ms, p50, tail,
			Metric{Name: "append_rows_per_s", Unit: "rows/s", Value: float64(o.RowsAcked) / o.AppendBusy.Seconds(), N: len(o.AppendMS)})
	}
	share := 0.0
	if o.Attempted > 0 {
		share = float64(o.FailedTotal()) / float64(o.Attempted)
	}
	ms = append(ms, Metric{Name: "failed_share", Unit: "ratio", Value: share, N: o.Attempted})
	return ms
}

// digestOf hashes rendered results in order.
func digestOf(rendered []string) string {
	h := sha256.New()
	for _, r := range rendered {
		fmt.Fprintf(h, "%d\n%s\n", len(r), r)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pickDeep chooses which of n distinct contexts get the expensive
// check: all of them under -check, otherwise `want` spread evenly
// and rotated by the seed so successive seeds cover them all.
func pickDeep(n, want int, seed int64, all bool) []int {
	if all || want <= 0 || want >= n {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	off := int(uint64(seed) % uint64(n))
	idx := make([]int, 0, want)
	for k := 0; k < want; k++ {
		idx = append(idx, (off+k*n/want)%n)
	}
	sort.Ints(idx)
	return idx
}
