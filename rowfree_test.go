package charles_test

import (
	"path/filepath"
	"testing"

	"charles"
)

// TestFigure1SessionBuildsNoRows runs a Figure 1 session twice —
// advise a context, zoom into the largest segment of the top answer,
// advise the zoomed context, zoom and advise once more — on a
// 100 000-row VOC saved clustered by departure date and opened mmap'd
// from its .chc, and on a memory sky survey. The candidates' children
// are cached packed-only, and every later cut, cut point, pair side and
// zoomed context reads their words, so the advisor's evaluator builds
// no row ids at all.
func TestFigure1SessionBuildsNoRows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "voc.chc")
	if err := charles.SaveColumnFile(path, charles.GenerateVOC(100000, 7), charles.ColumnFileOptions{ClusterBy: "departure_date"}); err != nil {
		t.Fatal(err)
	}
	voc, err := charles.OpenColumnFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer voc.Close()
	for _, tc := range []struct {
		tab     *charles.Table
		context string
	}{
		{voc, "(tonnage:, built:, trip:, departure_date:)"},
		{voc, "(type_of_boat:, tonnage:, departure_harbour:)"},
		{charles.GenerateSkySurvey(60000, 7), "(magnitude:, redshift:, class:)"},
	} {
		adv := charles.NewAdvisor(tc.tab, charles.DefaultConfig())
		root, err := adv.ParseContext(tc.context)
		if err != nil {
			t.Fatal(err)
		}
		for session := 0; session < 2; session++ {
			q := root
			for step := 0; ; step++ {
				res, err := adv.Advise(q)
				if err != nil {
					t.Fatalf("%s step %d: %v", q, step, err)
				}
				if step == 2 {
					break
				}
				counts := res.Segmentations[0].Seg.Counts
				largest := 0
				for i, n := range counts {
					if n > counts[largest] {
						largest = i
					}
				}
				if q, err = adv.Zoom(res, 0, largest); err != nil {
					t.Fatal(err)
				}
			}
		}
		c := adv.Evaluator().Counters()
		if c.RowMaterializations != 0 || c.NarrowEvals == 0 {
			t.Fatalf("%s %s: %d row materializations over %d narrow evaluations", tc.tab.Name(), tc.context, c.RowMaterializations, c.NarrowEvals)
		}
	}
}
