// Command charles-ingest converts a data source — a CSV file or a
// built-in synthetic dataset — into the Charles columnar format
// (.chc, docs/FORMAT.md): per-chunk value pages and string
// dictionaries, which charles-server then opens by mmap in
// milliseconds regardless of table size, building its zone maps by
// scanning the mapped columns.
//
// Clustering: -cluster-by sorts rows by the named column while
// writing, so chunk skipping on that column (and anything
// correlated with it) prunes whole chunks at query time.
//
// Usage:
//
//	charles-ingest -csv voyages.csv -out voyages.chc -cluster-by tonnage
//	charles-ingest -dataset voc -rows 1000000 -out voc.chc
//	charles-ingest -verify voyages.chc
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"charles"
	"charles/internal/colfile"
)

func main() {
	var (
		csvPath   = flag.String("csv", "", "source CSV file")
		dsName    = flag.String("dataset", "", "source built-in dataset: voc, sky, weblog, gaussian, uniform, figure3")
		rows      = flag.Int("rows", 100000, "rows for built-in datasets")
		seed      = flag.Int64("seed", 1, "generator seed")
		out       = flag.String("out", "", "output .chc path (default: source name with .chc)")
		chunkRows = flag.Int("chunk-rows", 0, "chunk width to write pages at, the default width of tables opened over the file (0 = auto, 64K)")
		clusterBy = flag.String("cluster-by", "", "sort rows by this column while writing")
		verify    = flag.String("verify", "", "verify an existing .chc file (checksums every page) and exit")
	)
	flag.Parse()

	if *verify != "" {
		if err := runVerify(*verify); err != nil {
			fatal(err)
		}
		return
	}

	var (
		tab *charles.Table
		err error
		src string
	)
	switch {
	case *csvPath != "" && *dsName != "":
		fatal(fmt.Errorf("-csv and -dataset are mutually exclusive"))
	case *csvPath != "":
		src = *csvPath
		tab, err = charles.LoadCSV(*csvPath)
	case *dsName != "":
		src = *dsName
		tab, err = charles.GenerateDataset(*dsName, *rows, *seed)
	default:
		fatal(fmt.Errorf("no source: pass -csv, -dataset or -verify"))
	}
	if err != nil {
		fatal(err)
	}
	path := *out
	if path == "" {
		base := strings.TrimSuffix(src, ".csv")
		if i := strings.LastIndexByte(base, '/'); i >= 0 {
			base = base[i+1:]
		}
		path = base + colfile.Extension
	}
	start := time.Now()
	err = charles.SaveColumnFile(path, tab, charles.ColumnFileOptions{
		ChunkRows: *chunkRows,
		ClusterBy: *clusterBy,
	})
	if err != nil {
		fatal(err)
	}
	wrote := time.Since(start)

	// Reopen what was written: proves the file loads, and reports
	// the cold-start the server will see.
	start = time.Now()
	f, err := colfile.Open(path)
	if err != nil {
		fatal(fmt.Errorf("reopening %s: %w", path, err))
	}
	defer f.Close()
	opened := time.Since(start)
	clustered := ""
	if f.ClusterBy() != "" {
		clustered = fmt.Sprintf(", clustered by %s", f.ClusterBy())
	}
	fmt.Printf("wrote %d rows x %d columns to %s (%.1f MB, %d-row chunks%s) in %v; reopens via mmap in %v\n",
		f.NumRows(), f.NumCols(), path, float64(f.Size())/(1<<20), f.NativeChunkRows(), clustered, wrote, opened)
}

func runVerify(path string) error {
	f, err := colfile.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	start := time.Now()
	if err := f.Verify(); err != nil {
		return err
	}
	fmt.Printf("%s: ok — %d rows x %d columns, every page checksum verified in %v\n",
		path, f.NumRows(), f.NumCols(), time.Since(start))
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "charles-ingest:", err)
	os.Exit(1)
}
