package colfile

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"charles/internal/core"
	"charles/internal/engine"
	"charles/internal/sdl"
	"charles/internal/seg"
	"charles/internal/ui"
)

// summariesFixture is a file written when writers still emitted a
// summary region per column (§7): 1 000 rows of six columns, one of
// each storable kind (a float column with NaN rows, a 5-value and a
// 300-value string column), clustered by its date column, in chunks of
// 128 rows.
const summariesFixture = "testdata/with_summaries.chc"

// summariesContext is the context advised over the fixture.
const summariesContext = "(port:, size:, lat:, lost:, day:)"

// TestOpenFileWithSummaryRegions pins §7's reader rule on a file from
// a writer that emitted summary regions: the file opens, its footer's
// summary entries are never read, and the table over it serves the
// zone maps a memory table over the same columns at the same width
// builds, and the same advise output, byte for byte. The entries are
// then made hostile — pointing past the file, overlapping a data
// region, carrying a bad checksum, or over garbage bytes — and none of
// that changes either.
func TestOpenFileWithSummaryRegions(t *testing.T) {
	raw, err := os.ReadFile(summariesFixture)
	if err != nil {
		t.Fatal(err)
	}
	// summaries rewrites every column's summary entry with edit, given
	// the column's entry and its data region's.
	summaries := func(edit func(sum, data map[string]any)) []byte {
		return rewriteFooter(t, raw, func(ft *map[string]any) {
			for _, c := range (*ft)["columns"].([]any) {
				c := c.(map[string]any)
				sum, ok := c["summary"].(map[string]any)
				if !ok {
					t.Fatalf("fixture column %q has no summary entry", c["name"])
				}
				edit(sum, c["data"].(map[string]any))
			}
		})
	}
	garbage := append([]byte(nil), raw...)
	summaries(func(sum, _ map[string]any) {
		off, n := int(sum["offset"].(float64)), int(sum["length"].(float64))
		for i := off; i < off+n; i++ {
			garbage[i] ^= 0xA5
		}
	})

	tab, err := OpenTable(summariesFixture)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	mem := engine.MustNewTable(tab.Name(), tab.Columns()...)
	if err := mem.SetChunkRows(tab.ChunkRows()); err != nil {
		t.Fatal(err)
	}
	want := adviseTable(t, mem)
	if strings.Count(want, "\n") < 5 {
		t.Fatalf("advise over the fixture rendered too little to compare:\n%s", want)
	}

	for _, tc := range []struct {
		name string
		file []byte
	}{
		{"as written", raw},
		{"past the file", summaries(func(sum, _ map[string]any) { sum["offset"], sum["length"] = 1<<62, 1<<62 })},
		{"over a data region", summaries(func(sum, data map[string]any) { sum["offset"], sum["length"] = data["offset"], data["length"] })},
		{"bad checksum", summaries(func(sum, _ map[string]any) { sum["crc32"] = sum["crc32"].(float64) + 1 })},
		{"garbage bytes", garbage},
	} {
		path := filepath.Join(t.TempDir(), "summaries"+Extension)
		if err := os.WriteFile(path, tc.file, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := OpenTable(path)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, col := range got.Columns() {
			if !reflect.DeepEqual(got.Summary(i), mem.Summary(i)) {
				t.Fatalf("%s: column %q: summary differs from a memory table's", tc.name, col.Name())
			}
		}
		if out := adviseTable(t, got); out != want {
			t.Fatalf("%s: advise output differs from the memory table's:\n--- .chc ---\n%s\n--- memory ---\n%s", tc.name, out, want)
		}
		got.Close()
	}
}

// adviseTable renders the ranked advise of summariesContext over tab.
func adviseTable(t *testing.T, tab *engine.Table) string {
	t.Helper()
	q, err := sdl.ParseBound(summariesContext, tab)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.HBCuts(nil, seg.NewEvaluator(tab), q, core.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return ui.RenderRanked(res, 0)
}
