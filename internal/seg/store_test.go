package seg

import (
	"slices"
	"testing"

	"charles/internal/dataset"
	"charles/internal/engine"
	"charles/internal/sdl"
)

// TestAdviseStoresOneForm runs what an advise runs — every HB-cuts
// candidate of a context and every pair's INDEP — on a 100K-row VOC
// under a tonnage range holding about 20% of the rows plus one nominal
// attribute, then walks every entry of the selection store: each entry
// must hold exactly the words of its non-empty chunks and nothing for
// its empty ones.
func TestAdviseStoresOneForm(t *testing.T) {
	tab := dataset.VOC(100000, 7)
	vals := slices.Clone(tab.MustColumn("tonnage").(engine.IntValued).Int64s())
	slices.Sort(vals)
	lo, hi := vals[len(vals)*2/5], vals[len(vals)*3/5]
	ctx, err := sdl.ContextOn(tab, "tonnage", "type_of_boat")
	if err != nil {
		t.Fatal(err)
	}
	ctx = ctx.WithConstraint(sdl.RangeC("tonnage", engine.Int(lo), engine.Int(hi), true, false))
	ev := NewEvaluator(tab)
	n, err := ev.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if share := float64(n) / float64(tab.NumRows()); share < 0.1 || share > 0.3 {
		t.Fatalf("the context holds %.2f of the rows, want about 0.2", share)
	}
	segs := candidates(t, ev, ctx)
	opt := PairOptions{Workers: 2, Memo: NewPairMemo()}
	for _, s1 := range segs {
		for _, s2 := range segs {
			if _, err := IndepOpt(ev, s1, s2, opt); err != nil {
				t.Fatal(err)
			}
		}
	}
	entries, words := 0, 0
	for i := range ev.shards {
		for key, en := range ev.shards[i].m {
			checkOneForm(t, key, en.val.sel)
			entries++
			if holdsWords(en.val.sel) {
				words++
			}
		}
	}
	ctxEnt, ok := ev.cached(ctx.Key())
	if !ok || !holdsWords(ctxEnt.sel) || entries < 5 || words == 0 {
		t.Fatalf("%d entries, %d holding words, context cached %v: the advise left too little to check", entries, words, ok)
	}
}
