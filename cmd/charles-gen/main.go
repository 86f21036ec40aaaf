// Command charles-gen writes a built-in synthetic dataset to CSV or
// to the Charles columnar format, so the advisor (or any other tool)
// can load it back. It is the stand-in for the proprietary VOC
// shipping and astronomy databases the paper demonstrates on.
//
// The output format follows the -out suffix: .chc (docs/FORMAT.md)
// writes the mmap-ready columnar file, anything else writes CSV.
//
// Usage:
//
//	charles-gen -dataset voc -rows 100000 -seed 1 -out voyages.csv
//	charles-gen -dataset voc -rows 1000000 -out voc.chc -cluster-by tonnage
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"charles"
	"charles/internal/colfile"
)

func main() {
	var (
		dsName    = flag.String("dataset", "voc", "dataset: voc, sky, weblog, gaussian, uniform, figure3")
		rows      = flag.Int("rows", 100000, "rows to generate")
		seed      = flag.Int64("seed", 1, "generator seed")
		out       = flag.String("out", "", "output path; a .chc suffix writes the columnar format (default <dataset>.csv)")
		chunkRows = flag.Int("chunk-rows", 0, ".chc output: chunk width to write pages at (0 = auto)")
		clusterBy = flag.String("cluster-by", "", ".chc output: sort rows by this column while writing")
	)
	flag.Parse()
	path := *out
	if path == "" {
		path = *dsName + ".csv"
	}
	tab, err := charles.GenerateDataset(*dsName, *rows, *seed)
	if err != nil {
		fatal(err)
	}
	if strings.HasSuffix(path, colfile.Extension) {
		err = charles.SaveColumnFile(path, tab, charles.ColumnFileOptions{
			ChunkRows: *chunkRows,
			ClusterBy: *clusterBy,
		})
	} else {
		err = charles.WriteCSV(path, tab)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d rows x %d columns to %s\n", tab.NumRows(), tab.NumCols(), path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "charles-gen:", err)
	os.Exit(1)
}
