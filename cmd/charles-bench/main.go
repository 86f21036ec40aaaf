// Command charles-bench prints the reproduction experiments of the
// runners table in internal/harness: one per paper figure (E1–E4) and
// one per quantitative claim (E5–E12), each emitting a markdown table
// with the paper's expectation next to the measured numbers.
//
// Usage:
//
//	charles-bench                      # run everything at full scale
//	charles-bench -experiment E7       # one experiment
//	charles-bench -scale 0.1           # quick pass
//
// With -table it instead opens a .chc file and reports cold-start and
// first-advise timings.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"charles/internal/harness"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment id (E1..E12); empty runs all")
		scale      = flag.Float64("scale", 1, "row-count scale factor")
		seed       = flag.Int64("seed", 1, "generator seed")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		tablePath  = flag.String("table", "", "open this .chc columnar file and report cold-start + first-advise timings")
		tableCtx   = flag.String("table-context", "", "-table mode: SDL context to advise on (empty = all columns)")
		workers    = flag.Int("workers", 0, "-table mode: advisor worker goroutines (0 = all CPUs)")
	)
	flag.Parse()
	if *tablePath != "" {
		if err := runTable(os.Stdout, tableOptions{
			Path:    *tablePath,
			Context: *tableCtx,
			Workers: *workers,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "charles-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *list {
		fmt.Println(strings.Join(harness.Experiments(), "\n"))
		return
	}
	opt := harness.Options{Scale: *scale, Seed: *seed}
	var ids []string
	if *experiment != "" {
		ids = strings.Split(*experiment, ",")
	}
	if err := harness.WriteReport(os.Stdout, opt, ids...); err != nil {
		fmt.Fprintln(os.Stderr, "charles-bench:", err)
		os.Exit(1)
	}
}
