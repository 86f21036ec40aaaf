package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Bound is one end-to-end metric's regression rule.
type Bound struct {
	Better Direction
	Bound  float64
}

// ReadBounds reads the rules from BENCHMARK.json, which later changes
// are judged by.
func ReadBounds(path string) (map[string]Bound, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name   string    `json:"name"`
			Better Direction `json:"better"`
			Bound  float64   `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]Bound{}
	for _, m := range doc.EndToEnd {
		out[m.Name] = Bound{m.Better, m.Bound}
	}
	return out, nil
}

// series collects one metric's value in each set of a file.
func (f *ResultFile) series(workload, metric string) []float64 {
	var vs []float64
	for _, set := range f.Sets {
		for _, m := range set[workload].Metrics {
			if m.Name == metric {
				vs = append(vs, m.Value)
			}
		}
	}
	return vs
}

// names lists a file's workloads in catalogue order and, per
// workload, its metrics in first-seen order.
func (f *ResultFile) names() (workloads []string, metrics map[string][]string) {
	metrics = map[string][]string{}
	for _, s := range Workloads {
		seen := map[string]bool{}
		for _, set := range f.Sets {
			wr, ok := set[s.Name]
			if !ok {
				continue
			}
			for _, m := range wr.Metrics {
				if !seen[m.Name] {
					seen[m.Name] = true
					metrics[s.Name] = append(metrics[s.Name], m.Name)
				}
			}
		}
		if len(metrics[s.Name]) > 0 {
			workloads = append(workloads, s.Name)
		}
	}
	return workloads, metrics
}

// PrintSpread prints, per workload and metric, the median, quartiles
// and relative spread over a file's sets, flagging every spread over
// its bound. It returns the number flagged.
func PrintSpread(w io.Writer, f *ResultFile, bounds map[string]Bound) int {
	flagged := 0
	workloads, metrics := f.names()
	fmt.Fprintf(w, "%d sets: median [q1, q3] spread=(q3-q1)/median\n", len(f.Sets))
	for _, wl := range workloads {
		fmt.Fprintf(w, "== %s ==\n", wl)
		for _, name := range metrics[wl] {
			vs := f.series(wl, name)
			q1, med, q3 := Quartiles(vs)
			sp := Spread(vs)
			note := ""
			if b, ok := bounds[name]; ok {
				note = fmt.Sprintf("bound %.0f%%", 100*b.Bound)
				if sp > b.Bound {
					note += "  OVER BOUND"
					flagged++
				}
			}
			fmt.Fprintf(w, "  %-20s %14.4f [%14.4f, %14.4f] spread %6.2f%%  %s\n", name, med, q1, q3, 100*sp, note)
		}
	}
	return flagged
}

// Verdict is one row of a comparison.
type Verdict struct {
	Workload, Metric string
	Old, New         float64 // medians
	OldSpread        float64
	NewSpread        float64
	Change           float64 // (new-old)/old, signed so that positive is worse
	Verdict          string  // ok, improved, REGRESSION, unresolved, info
}

// judge applies the rule of choosing-metrics §6: no regression means
// the new median is no worse than the old by more than the bound;
// where either side's own spread is wider than the bound the pair is
// unresolved, not unchanged.
func judge(old, new []float64, b Bound, bounded bool) Verdict {
	v := Verdict{OldSpread: Spread(old), NewSpread: Spread(new)}
	_, v.Old, _ = Quartiles(old)
	_, v.New, _ = Quartiles(new)
	if v.Old != 0 {
		v.Change = (v.New - v.Old) / v.Old
		if b.Better == Higher {
			v.Change = -v.Change
		}
	}
	switch {
	case !bounded:
		v.Verdict = "info"
	case v.OldSpread > b.Bound || v.NewSpread > b.Bound:
		v.Verdict = "unresolved"
	case v.Change > b.Bound:
		v.Verdict = "REGRESSION"
	case v.Change < -b.Bound:
		v.Verdict = "improved"
	default:
		v.Verdict = "ok"
	}
	return v
}

// Compare diffs two result files under the bounds, one row per
// workload and metric.
func Compare(old, new *ResultFile, bounds map[string]Bound) []Verdict {
	var out []Verdict
	workloads, metrics := new.names()
	for _, wl := range workloads {
		for _, name := range metrics[wl] {
			o, n := old.series(wl, name), new.series(wl, name)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			b, bounded := bounds[name]
			v := judge(o, n, b, bounded)
			v.Workload, v.Metric = wl, name
			out = append(out, v)
		}
	}
	return out
}

// PrintVerdicts prints a comparison and returns the regressions.
func PrintVerdicts(w io.Writer, vs []Verdict) int {
	regressions := 0
	last := ""
	for _, v := range vs {
		if v.Workload != last {
			fmt.Fprintf(w, "== %s ==\n", v.Workload)
			last = v.Workload
		}
		fmt.Fprintf(w, "  %-20s %14.4f -> %14.4f  worse by %+7.2f%%  spread %5.2f%% / %5.2f%%  %s\n",
			v.Metric, v.Old, v.New, 100*v.Change, 100*v.OldSpread, 100*v.NewSpread, v.Verdict)
		if v.Verdict == "REGRESSION" {
			regressions++
		}
	}
	return regressions
}
