package engine_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"charles/internal/colfile"
	"charles/internal/engine"
)

// TestSummariesCarryCodes pins that every summary of a coded column
// carries its codes, whatever table serves it: a memory table never
// warmed, whose summaries are built lazily; a warmed memory table; a
// .chc table at the file's native width and at another width. A .chc
// table's summaries are scanned from its columns like any other: each
// equals, codes and stamp included, the one a memory table over the
// same columns at the same width builds. The columns are a wide and a
// narrow int column, a float column and string columns of 1, 5, 16
// and 17 values (checkSummaryCodes).
func TestSummariesCarryCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 5000
	wide, narrow, floats := make([]int64, n), make([]int64, n), make([]float64, n)
	strs := make([][]string, 4)
	dicts := []int{1, 5, 16, 17}
	for r := range n {
		wide[r], narrow[r], floats[r] = rng.Int63n(1<<33), 3*int64(rng.Intn(200)), rng.Float64()
		for i, d := range dicts {
			strs[i] = append(strs[i], fmt.Sprint(r%d))
		}
	}
	mk := func() *engine.Table {
		cols := []engine.Column{engine.NewIntColumn("wide", wide), engine.NewIntColumn("narrow", narrow), engine.NewFloatColumn("f", slices.Clone(floats))}
		for i, d := range dicts {
			cols = append(cols, engine.NewStringColumn(fmt.Sprintf("s%d", d), strs[i]))
		}
		tab := engine.MustNewTable("t", cols...)
		tab.SetChunkRows(1024)
		return tab
	}
	path := filepath.Join(t.TempDir(), "codes"+colfile.Extension)
	if err := colfile.Write(path, mk(), colfile.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	native, err := colfile.OpenTable(path)
	if err != nil {
		t.Fatal(err)
	}
	defer native.Close()
	other, err := colfile.OpenTable(path)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := other.SetChunkRows(2048); err != nil {
		t.Fatal(err)
	}
	warm := mk()
	warm.WarmSummaries()
	for _, tc := range []struct {
		name string
		tab  *engine.Table
	}{
		{"lazily built", mk()},
		{"warmed", warm},
		{".chc at its native width", native},
		{".chc at width 2048", other},
	} {
		engine.CheckSummaryCodes(t, tc.name, tc.tab)
	}
	for _, chc := range []*engine.Table{native, other} {
		mem := engine.MustNewTable("t", chc.Columns()...)
		if err := mem.SetChunkRows(chc.ChunkRows()); err != nil {
			t.Fatal(err)
		}
		for i, col := range chc.Columns() {
			if !reflect.DeepEqual(chc.Summary(i), mem.Summary(i)) {
				t.Fatalf("%s at width %d: the .chc table's summary differs from a memory table's", col.Name(), chc.ChunkRows())
			}
		}
	}
}
