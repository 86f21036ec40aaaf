// Command bench is the advise benchmark: four workloads driven the
// two ways users drive Charles — the charles facade in-process and a
// charles-server child over HTTP — with end-to-end metrics printed by
// name and unit, an output check, and noise and diff tooling.
//
//	go run ./bench                          every workload, human-readable
//	go run ./bench -workload serve_hot      one workload; the last line is the driver's JSON
//	go run ./bench -sets 5                  the suite 5 times: medians, quartiles, spread
//	go run ./bench -compare old.json new.json
//	go run ./bench -check                   the expensive output check on every context
//	go run ./bench -trace 1 [-workload X]   per-layer metrics (builds ./bench/layers with -tags layers)
//
// See README.md beside this file.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"charles/bench/harness"
)

// flags is the command line.
type flags struct {
	workload       string
	seed           int64
	seconds, rows  int
	trace, sets    int
	check, compare bool
	outPath        string
}

func main() {
	var f flags
	flag.StringVar(&f.workload, "workload", "", "run only this workload and end with the driver's JSON line (default: all four)")
	flag.Int64Var(&f.seed, "seed", 1, "seed the op lists derive from")
	flag.IntVar(&f.seconds, "seconds", harness.ReferenceSeconds, "scales the fixed op lists; sized so a run measures about this long on the 2-core reference box")
	flag.IntVar(&f.trace, "trace", 0, "1 = the traced run: per-layer metrics and span files, via ./bench/layers")
	flag.IntVar(&f.rows, "rows", 1_000_000, "rows per generated table")
	flag.IntVar(&f.sets, "sets", 1, "run the suite this many times back to back and print each metric's spread")
	flag.BoolVar(&f.check, "check", false, "run the expensive output check on every distinct context; exit non-zero on any violation")
	flag.BoolVar(&f.compare, "compare", false, "diff two result files (old.json new.json) under BENCHMARK.json's bounds; exit 1 on regression")
	flag.StringVar(&f.outPath, "out", "", "result file to write (default bench/out/results.json)")
	flag.Parse()
	os.Exit(run(f, flag.Args()))
}

func run(f flags, args []string) int {
	root, err := harness.FindRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if f.compare {
		return runCompare(root, args)
	}
	build := filepath.Join(root, ".bench_build")
	outDir := filepath.Join(root, "bench", "out")
	for _, d := range []string{build, outDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	if f.outPath == "" {
		f.outPath = filepath.Join(outDir, "results.json")
	}
	sz := harness.SizesFor(f.seconds, f.rows)
	file := &harness.ResultFile{Env: harness.NewEnv(root, f.seed, f.seconds, sz)}
	if _, err := harness.SpecFor(f.workload); f.workload != "" && err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if f.trace == 0 && f.workload != "" {
		return runOne(root, build, outDir, f.workload, f.check, f.outPath, file)
	}

	// The other modes run child processes. No child may outlive the
	// benchmark: an interrupt is passed on as SIGTERM, every child
	// reaps its own servers, and we return only once it has exited.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if f.trace != 0 {
		bin := filepath.Join(build, "bench-layers")
		if err := harness.GoBuild(root, bin, "./bench/layers", "layers"); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		for _, s := range harness.Workloads {
			if f.workload != "" && f.workload != s.Name {
				continue
			}
			if code := child(ctx, root, bin, "-workload", s.Name, "-seed", strconv.FormatInt(f.seed, 10),
				"-seconds", strconv.Itoa(f.seconds), "-rows", strconv.Itoa(f.rows)); code != 0 {
				return code
			}
		}
		return 0
	}

	// The suite: every workload in a process of its own, exactly as the
	// driver runs it. Sharing one process leaks state from workload to
	// workload — VmHWM is process-wide, and a heap that drill_session
	// grew to 2 GB changes the next workload's GC pacing.
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Printf("env: %s, NumCPU %d, GOMAXPROCS %d, seed %d, rows %d, git %s dirty=%v\n",
		file.Env.GoVersion, file.Env.NumCPU, file.Env.GOMAXPROCS, f.seed, f.rows, file.Env.GitSHA, file.Env.GitDirty)
	bad := false
	for set := 0; set < f.sets; set++ {
		results := map[string]harness.WorkloadResult{}
		for _, s := range harness.Workloads {
			part := filepath.Join(outDir, "part-"+s.Name+".json")
			args := []string{"-workload", s.Name, "-seed", strconv.FormatInt(f.seed, 10),
				"-seconds", strconv.Itoa(f.seconds), "-rows", strconv.Itoa(f.rows), "-out", part}
			if f.check {
				args = append(args, "-check")
			}
			if code := child(ctx, root, self, args...); code > 1 {
				return code
			}
			pf, err := harness.ReadResultFile(part)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			_ = os.Remove(part) // merged below; a leftover part file is harmless
			r := pf.Sets[0][s.Name]
			results[s.Name], file.Env.Server[s.Name] = r, pf.Env.Server[s.Name]
			bad = bad || !r.Correct || r.Failed > 0
		}
		file.Sets = append(file.Sets, results)
	}
	if err := file.Write(f.outPath); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Println("results written to", f.outPath)
	if f.sets > 1 {
		bounds, err := harness.ReadBounds(filepath.Join(root, "BENCHMARK.json"))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if n := harness.PrintSpread(os.Stdout, file, bounds); n > 0 {
			fmt.Printf("%d metric x workload pairs spread wider than their bound\n", n)
		}
	}
	if bad {
		fmt.Println("FAILED: output check violations or failed ops (see above)")
		return 1
	}
	return 0
}

// runOne runs one workload in this process and ends with the driver's
// JSON line. It exits 0 even when the output check failed — the driver
// reads correctness off the line — unless -check asked for a verdict.
func runOne(root, build, outDir, workload string, check bool, outPath string, file *harness.ResultFile) int {
	spec, _ := harness.SpecFor(workload) // run checked the name
	// Ctrl-C and SIGTERM reap the servers before exiting; normal and
	// failing paths stop them through the workload's close.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		harness.StopAll()
		os.Exit(130)
	}()
	serverBin := filepath.Join(build, "charles-server")
	if spec.HTTP {
		if err := harness.GoBuild(root, serverBin, "./cmd/charles-server", ""); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	out, err := harness.Execute(harness.Options{
		Workload: workload, Seed: file.Env.Seed, Sizes: file.Env.Sizes, ServerBin: serverBin,
		DataDir: filepath.Join(build, "data"), OutDir: outDir, Deep: check,
	})
	if err != nil {
		harness.StopAll()
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	harness.PrintOutcome(os.Stdout, out)
	file.Env.Server[workload] = out.ServerFlags
	file.Sets = []map[string]harness.WorkloadResult{{workload: harness.ResultOf(out)}}
	if err := file.Write(outPath); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Println(harness.DriverLine(out.Correct(), out.Attempted, out.FailedTotal(), out.EndToEndMetrics(), harness.EndToEnd))
	if check && (!out.Correct() || out.Failed > 0) {
		return 1
	}
	return 0
}

// child runs a command from the repository root with our standard
// streams and returns its exit code.
func child(ctx context.Context, root, bin string, args ...string) int {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 30 * time.Second
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &exit) && exit.ExitCode() > 0:
		return exit.ExitCode()
	default:
		fmt.Fprintln(os.Stderr, filepath.Base(bin)+":", err)
		return 2
	}
}

func runCompare(root string, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare old.json new.json")
		return 2
	}
	bounds, err := harness.ReadBounds(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	old, err := harness.ReadResultFile(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	new, err := harness.ReadResultFile(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Printf("old: git %s dirty=%v, %d sets   new: git %s dirty=%v, %d sets\n",
		old.Env.GitSHA, old.Env.GitDirty, len(old.Sets), new.Env.GitSHA, new.Env.GitDirty, len(new.Sets))
	if n := harness.PrintVerdicts(os.Stdout, harness.Compare(old, new, bounds)); n > 0 {
		fmt.Printf("%d regression(s) beyond bound\n", n)
		return 1
	}
	return 0
}
