package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Env is the block every result file carries, so a number can be
// traced to what produced it.
type Env struct {
	GoVersion  string              `json:"go_version"`
	NumCPU     int                 `json:"num_cpu"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	Seed       int64               `json:"seed"`
	Seconds    int                 `json:"seconds"`
	Sizes      Sizes               `json:"sizes"`
	GitSHA     string              `json:"git_sha"`
	GitDirty   bool                `json:"git_dirty"`
	Server     map[string][]string `json:"server_flags,omitempty"`
}

// NewEnv describes this process and the tree at root. Outside a git
// checkout (the driver's) the SHA reads "unknown".
func NewEnv(root string, seed int64, seconds int, sz Sizes) Env {
	env := Env{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: seed, Seconds: seconds, Sizes: sz, GitSHA: "unknown", Server: map[string][]string{}}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = root
		b, err := cmd.Output()
		return strings.TrimSpace(string(b)), err
	}
	if sha, err := git("rev-parse", "HEAD"); err == nil && sha != "" {
		env.GitSHA = sha
		if st, err := git("status", "--porcelain"); err == nil {
			env.GitDirty = st != ""
		}
	}
	return env
}

// WorkloadResult is one workload's numbers in one set.
type WorkloadResult struct {
	Metrics      []Metric `json:"metrics"`
	Attempted    int      `json:"attempted"`
	Failed       int      `json:"failed"`
	Correct      bool     `json:"correct"`
	OutputDigest string   `json:"output_digest"`
	OpListDigest string   `json:"oplist_digest"`
	Violations   []string `json:"violations,omitempty"`
	OpErrors     []string `json:"op_errors,omitempty"`
}

// ResultOf reduces an outcome for the result file.
func ResultOf(o *Outcome) WorkloadResult {
	return WorkloadResult{Metrics: o.EndToEndMetrics(), Attempted: o.Attempted, Failed: o.FailedTotal(),
		Correct: o.Correct(), OutputDigest: o.OutputDigest, OpListDigest: o.OpListDigest,
		Violations: o.Violations, OpErrors: o.OpErrors}
}

// ResultFile is what `go run ./bench` writes and -compare reads:
// one entry per set, each holding every workload run in it.
type ResultFile struct {
	Env  Env                         `json:"env"`
	Sets []map[string]WorkloadResult `json:"sets"`
}

// Write saves the file, creating its directory.
func (f *ResultFile) Write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadResultFile loads a result file.
func ReadResultFile(path string) (*ResultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f ResultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// PrintMetrics prints metrics by name with unit and sample count.
func PrintMetrics(w io.Writer, ms []Metric) {
	for _, m := range ms {
		note := ""
		switch {
		case m.Pct > 0:
			note = fmt.Sprintf("(p%g, n=%d)", m.Pct, m.N)
		case m.N > 0:
			note = fmt.Sprintf("(n=%d)", m.N)
		}
		fmt.Fprintf(w, "  %-34s %14.4f %-7s %s\n", m.Name, m.Value, m.Unit, note)
	}
}

// PrintOutcome prints one workload's end-to-end block.
func PrintOutcome(w io.Writer, o *Outcome) {
	fmt.Fprintf(w, "== %s (seed %d) ==\n", o.Workload, o.Seed)
	PrintMetrics(w, o.EndToEndMetrics())
	fmt.Fprintf(w, "  attempted %d, failed %d, output check %s\n", o.Attempted, o.FailedTotal(), map[bool]string{true: "passed", false: "FAILED"}[o.Correct()])
	fmt.Fprintf(w, "  output_digest %s\n  oplist_digest %s\n", o.OutputDigest, o.OpListDigest)
	if len(o.ServerFlags) > 0 {
		fmt.Fprintf(w, "  server flags (rest are shipped defaults): %s\n", strings.Join(o.ServerFlags, " "))
	}
	for _, v := range o.Violations {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", v)
	}
	for _, e := range o.OpErrors {
		fmt.Fprintf(w, "  OP FAILED: %s\n", e)
	}
}

// DriverLine is the one JSON object the driver reads off the last
// line of standard output.
func DriverLine(correct bool, attempted, failed int, ms []Metric, listed []MetricDef) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	byName := map[string]Metric{}
	for _, m := range ms {
		byName[m.Name] = m
	}
	metrics := map[string]mv{}
	for _, d := range listed {
		if d.Universal {
			metrics[d.Name] = mv{byName[d.Name].Value, d.Unit}
		}
	}
	if attempted < 1 {
		attempted = 1
	}
	b, _ := json.Marshal(map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})
	return string(b)
}
