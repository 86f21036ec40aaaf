// Package harness runs the reproduction experiments E1–E12 listed in
// its runners table: one per paper figure plus one per quantitative
// claim in the text. Every experiment emits a markdown table carrying
// the paper's qualitative expectation next to the measured result;
// `charles-bench` prints the full report. All experiments are
// deterministic under a fixed seed; Options.Scale shrinks row counts
// for quick runs.
package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Options configures an experiment run.
type Options struct {
	// Scale multiplies every experiment's row counts (default 1).
	// Benchmarks and CI use small scales; the full `charles-bench`
	// report uses 1.
	Scale float64
	// Seed drives all generators (default 1).
	Seed int64
}

func (o Options) normalize() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

func (o Options) rows(n int) int {
	scaled := int(float64(n) * o.Scale)
	if scaled < 64 {
		scaled = 64
	}
	return scaled
}

// Table is one experiment's output.
type Table struct {
	// ID is the experiment identifier (E1..E12).
	ID string
	// Title names the experiment.
	Title string
	// Expectation states what the paper predicts, verbatim where
	// possible.
	Expectation string
	// Header and Rows hold the measured table.
	Header []string
	Rows   [][]string
	// Finding summarizes the measured outcome in one sentence.
	Finding string
}

// Markdown renders the table as a markdown section.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(&b, "*Paper expectation:* %s\n\n", t.Expectation)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	if t.Finding != "" {
		fmt.Fprintf(&b, "\n*Measured:* %s\n", t.Finding)
	}
	return b.String()
}

// runner produces the tables of one experiment.
type runner struct {
	id   string
	name string
	run  func(Options) ([]*Table, error)
}

var runners = []runner{
	{"E1", "Figure 1 end-to-end session on VOC voyages", runE1},
	{"E2", "Figure 2 primitives: CUT, COMPOSE, PRODUCT", runE2},
	{"E3", "Figure 3 HB-cuts execution trace", runE3},
	{"E4", "Figure 4 stopping-criteria sweep", runE4},
	{"E5", "Proposition 1: INDEP vs dependence", runE5},
	{"E6", "Horizontal scalability (attribute count)", runE6},
	{"E7", "Vertical scalability (row count, column vs row store)", runE7},
	{"E8", "Sampled medians (Section 5.2)", runE8},
	{"E9", "Baseline comparison (Section 6)", runE9},
	{"E10", "Quantile cuts (Section 5.2)", runE10},
	{"E11", "Lazy generation (Section 5.2)", runE11},
	{"E12", "Metric sanity (Sections 2-3)", runE12},
}

// Experiments lists the available experiment ids in order.
func Experiments() []string {
	out := make([]string, len(runners))
	for i, r := range runners {
		out[i] = r.id
	}
	return out
}

// Run executes one experiment by id.
func Run(id string, opt Options) ([]*Table, error) {
	opt = opt.normalize()
	for _, r := range runners {
		if strings.EqualFold(r.id, id) {
			return r.run(opt)
		}
	}
	return nil, fmt.Errorf("harness: unknown experiment %q (want one of %s)",
		id, strings.Join(Experiments(), ", "))
}

// RunAll executes every experiment in order.
func RunAll(opt Options) ([]*Table, error) {
	opt = opt.normalize()
	var out []*Table
	for _, r := range runners {
		tables, err := r.run(opt)
		if err != nil {
			return nil, fmt.Errorf("harness: %s: %w", r.id, err)
		}
		out = append(out, tables...)
	}
	return out, nil
}

// WriteReport runs experiments (all when ids is empty) and writes
// the markdown report to w.
func WriteReport(w io.Writer, opt Options, ids ...string) error {
	opt = opt.normalize()
	var tables []*Table
	if len(ids) == 0 {
		var err error
		tables, err = RunAll(opt)
		if err != nil {
			return err
		}
	} else {
		for _, id := range ids {
			ts, err := Run(id, opt)
			if err != nil {
				return err
			}
			tables = append(tables, ts...)
		}
	}
	fmt.Fprintf(w, "# Charles reproduction report (scale %.2f, seed %d)\n\n", opt.Scale, opt.Seed)
	for _, t := range tables {
		fmt.Fprintln(w, t.Markdown())
	}
	return nil
}

// --- small shared helpers ---

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000)
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

func f4(v float64) string { return fmt.Sprintf("%.4f", v) }

func itoa(v int) string { return fmt.Sprintf("%d", v) }

func joinAttrs(attrs []string) string {
	out := make([]string, len(attrs))
	copy(out, attrs)
	sort.Strings(out)
	return strings.Join(out, "+")
}
