package charles_test

import (
	"testing"

	"charles"
)

// TestAdviseByteIdenticalAcrossWorkersAndChunkRows is the PR's
// acceptance matrix: the fully rendered ranked answer list must be
// byte-identical at every combination of worker count and chunk
// width. Workers moves the fan-out, the chunk width moves the storage
// sharding — neither may move the output. Each cell builds its own
// table because the chunk width is fixed when a table is built.
func TestAdviseByteIdenticalAcrossWorkersAndChunkRows(t *testing.T) {
	const rows = 6000
	contexts := []string{
		"", // all columns
		"(type_of_boat:, tonnage:, departure_harbour:)",
		"(type_of_boat: {fluit, jacht}, tonnage: [100, 900])",
	}
	render := func(workers, chunkRows int, context string) string {
		tab := charles.GenerateVOC(rows, 1)
		if err := tab.SetChunkRows(chunkRows); err != nil {
			t.Fatal(err)
		}
		cfg := charles.DefaultConfig()
		cfg.Workers = workers
		adv := charles.NewAdvisor(tab, cfg)
		res, err := adv.AdviseString(context)
		if err != nil {
			t.Fatalf("workers=%d chunkRows=%d: %v", workers, chunkRows, err)
		}
		return charles.RenderRanked(res, 0)
	}
	for _, context := range contexts {
		// Reference: sequential advise on the automatic layout.
		want := render(1, 0, context)
		if want == "" {
			t.Fatalf("empty reference rendering for context %q", context)
		}
		for _, workers := range []int{1, 4, 8} {
			// 512 shards the 6000-row table into 12 chunks with a
			// partial tail; 0 is the automatic single-chunk-ish layout.
			for _, chunkRows := range []int{512, 0} {
				if workers == 1 && chunkRows == 0 {
					continue
				}
				got := render(workers, chunkRows, context)
				if got != want {
					t.Errorf("context %q: workers=%d chunkRows=%d output diverged from sequential reference",
						context, workers, chunkRows)
				}
			}
		}
	}
}

// TestAdaptiveAndStreamStableAcrossChunkRows extends the matrix to
// the two other advisory paths: adaptive per-piece cuts and the lazy
// stream must also be layout-independent.
func TestAdaptiveAndStreamStableAcrossChunkRows(t *testing.T) {
	run := func(chunkRows int) (adaptive []string, stream []string) {
		tab := charles.GenerateVOC(3000, 2)
		if err := tab.SetChunkRows(chunkRows); err != nil {
			t.Fatal(err)
		}
		cfg := charles.DefaultConfig()
		cfg.Workers = 4
		adv := charles.NewAdvisor(tab, cfg)
		ctx, err := adv.ParseContext("(type_of_boat:, tonnage:, departure_harbour:)")
		if err != nil {
			t.Fatal(err)
		}
		scored, err := adv.Adaptive(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range scored {
			adaptive = append(adaptive, s.Seg.Key())
		}
		st, err := adv.Stream(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			s, ok, err := st.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			stream = append(stream, s.Seg.Key())
		}
		return adaptive, stream
	}
	wantA, wantS := run(0)
	gotA, gotS := run(512)
	if len(gotA) != len(wantA) {
		t.Fatalf("adaptive count %d != %d across layouts", len(gotA), len(wantA))
	}
	for i := range wantA {
		if gotA[i] != wantA[i] {
			t.Fatalf("adaptive[%d] diverged across layouts", i)
		}
	}
	if len(gotS) != len(wantS) {
		t.Fatalf("stream count %d != %d across layouts", len(gotS), len(wantS))
	}
	for i := range wantS {
		if gotS[i] != wantS[i] {
			t.Fatalf("stream[%d] diverged across layouts", i)
		}
	}
}
