package main

import (
	"fmt"
	"io"
	"time"

	"charles"
)

// tableOptions parameterizes the -table load mode: open a .chc
// columnar file the way charles-server does and report the cold
// start (mmap open + zone-map warm-up, which codes every numeric and
// small-dictionary column) next to a first advise, so the out-of-core
// claim — server start reads the mapped columns once, never parses or
// generates them — has a number attached.
type tableOptions struct {
	Path    string
	Context string
	Workers int
}

// runTable measures one cold open of a columnar file.
func runTable(w io.Writer, opt tableOptions) error {
	openStart := time.Now()
	tab, err := charles.OpenColumnFile(opt.Path)
	if err != nil {
		return err
	}
	defer tab.Close()
	openDur := time.Since(openStart)

	warmStart := time.Now()
	warmed := tab.WarmSummaries()
	warmDur := time.Since(warmStart)

	cfg := charles.DefaultConfig()
	cfg.Workers = opt.Workers
	adv := charles.NewAdvisor(tab, cfg)
	ctx, err := adv.ParseContext(opt.Context)
	if err != nil {
		return err
	}
	adviseStart := time.Now()
	res, err := adv.Advise(ctx)
	if err != nil {
		return err
	}
	adviseDur := time.Since(adviseStart)

	fmt.Fprintf(w, "## Columnar file cold start: %s\n\n", opt.Path)
	fmt.Fprintf(w, "| metric | value |\n|---|---|\n")
	fmt.Fprintf(w, "| rows x columns | %d x %d |\n", tab.NumRows(), tab.NumCols())
	fmt.Fprintf(w, "| chunks (width %d) | %d |\n", tab.ChunkRows(), tab.NumChunks())
	fmt.Fprintf(w, "| open (mmap + validate) | %v |\n", openDur)
	fmt.Fprintf(w, "| warm %d zone maps | %v |\n", warmed, warmDur)
	fmt.Fprintf(w, "| cold start total | %v |\n", openDur+warmDur)
	fmt.Fprintf(w, "| first advise (%d answers) | %v |\n", len(res.Segmentations), adviseDur)
	return nil
}
