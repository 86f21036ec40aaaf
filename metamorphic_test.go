// Metamorphic relations: change the input in a way whose effect on
// the advise output follows from the paper's definitions, and check
// for exactly that effect. Unlike the configuration matrices
// (workers, chunk widths, zone pruning), which only show that two
// configurations agree with each other, a relation ties the output to
// a property of the definitions themselves:
//
//  1. A row permutation changes no multiset, so no count, entropy,
//     INDEP value or ranked rendering may change. A permutation also
//     moves chunks across the storage rule (row ids or words), the zone
//     verdicts (a clustered table takes and skips chunks, a shuffled
//     one scans them) and the int cut's narrow count path.
//  2. A strictly increasing map f on one numeric column maps every
//     order statistic through f — a cut point p becomes f(p) — and
//     leaves every count, and so entropy, INDEP and the ranking,
//     unchanged. A scale that pushes a narrow int column's span past
//     the select's 2 048 buckets checks the count path against the
//     radix path.
package charles_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"charles"
	"charles/internal/engine"
	"charles/internal/sdl"
	"charles/internal/seg"
)

// metaAdvise advises context on tab with a fresh advisor at the given
// chunk width, and returns the result with its evaluator.
func metaAdvise(t *testing.T, tab *engine.Table, chunkRows int, context string) (*charles.Result, *charles.Evaluator) {
	t.Helper()
	cfg := charles.DefaultConfig()
	cfg.Workers = 2
	cfg.ChunkRows = chunkRows
	adv := charles.NewAdvisor(tab, cfg)
	res, err := adv.AdviseString(context)
	if err != nil {
		t.Fatalf("advise %q on %s: %v", context, tab.Name(), err)
	}
	return res, adv.Evaluator()
}

// metaFull is everything relation 1 holds fixed: the rendering, each
// ranked segmentation's key, score and counts, the trace's INDEP
// values, the stop reason, and the INDEP of the two best answers.
func metaFull(t *testing.T, res *charles.Result, ev *charles.Evaluator) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(charles.RenderRanked(res, 0))
	b.WriteString(rankedFingerprint(res))
	for _, st := range res.Trace {
		fmt.Fprintf(&b, "trace %v×%v indep=%v depth=%d\n", st.Left, st.Right, st.Indep, st.Depth)
	}
	fmt.Fprintf(&b, "stop=%v iterations=%d\n", res.StopReason, res.Iterations)
	if len(res.Segmentations) >= 2 {
		ind, err := seg.Indep(ev, res.Segmentations[0].Seg, res.Segmentations[1].Seg)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "indep(top two)=%v\n", ind)
	}
	return b.String()
}

// permuteTable returns tab's rows in the order perm (row r of the
// result is row perm[r] of tab), same column kinds and dictionaries.
func permuteTable(t *testing.T, tab *engine.Table, perm []int) *engine.Table {
	t.Helper()
	cols := make([]engine.Column, tab.NumCols())
	for i := range cols {
		switch c := tab.Column(i).(type) {
		case *engine.IntColumn:
			cols[i] = engine.NewIntColumn(c.Name(), permuted(c.Int64s(), perm))
		case *engine.DateColumn:
			cols[i] = engine.NewDateColumn(c.Name(), permuted(c.Int64s(), perm))
		case *engine.FloatColumn:
			vals := make([]float64, c.Len())
			for r := range vals {
				vals[r] = c.Float64(r)
			}
			cols[i] = engine.NewFloatColumn(c.Name(), permuted(vals, perm))
		case *engine.BoolColumn:
			cols[i] = engine.NewBoolColumn(c.Name(), permuted(c.Bools(), perm))
		case *engine.StringColumn:
			dict := make([]string, c.Cardinality())
			for j := range dict {
				dict[j] = c.DictValue(uint32(j))
			}
			col, err := engine.NewStringColumnFromDict(c.Name(), permuted(c.Codes(), perm), dict)
			if err != nil {
				t.Fatal(err)
			}
			cols[i] = col
		default:
			t.Fatalf("permuteTable: unsupported column %T", c)
		}
	}
	return engine.MustNewTable(tab.Name(), cols...)
}

func permuted[T any](vals []T, perm []int) []T {
	out := make([]T, len(vals))
	for r, p := range perm {
		out[r] = vals[p]
	}
	return out
}

// monotoneMap is one strictly increasing map on a numeric column: the
// column it builds from the old one, and the map on a cut value.
type monotoneMap struct {
	name   string
	column func(c engine.Column) engine.Column
	value  func(v engine.Value) engine.Value
}

// intAffine maps x → a·x + b on an int column (a > 0).
func intAffine(a, b int64) monotoneMap {
	return monotoneMap{
		name: fmt.Sprintf("x→%d·x%+d", a, b),
		column: func(c engine.Column) engine.Column {
			vals := make([]int64, c.Len())
			for r, v := range c.(engine.IntValued).Int64s() {
				vals[r] = a*v + b
			}
			return engine.NewIntColumn(c.Name(), vals)
		},
		value: func(v engine.Value) engine.Value { return engine.Int(a*v.AsInt() + b) },
	}
}

// floatScale maps x → x·2^k on a float column: exact for every value
// the tables hold, NaN to NaN and each zero to itself.
func floatScale(k int) monotoneMap {
	s := math.Ldexp(1, k)
	return monotoneMap{
		name: fmt.Sprintf("x→x·2^%d", k),
		column: func(c engine.Column) engine.Column {
			vals := make([]float64, c.Len())
			fc := c.(engine.FloatValued)
			for r := range vals {
				vals[r] = fc.Float64(r) * s
			}
			return engine.NewFloatColumn(c.Name(), vals)
		},
		value: func(v engine.Value) engine.Value { return engine.Float(v.AsFloat() * s) },
	}
}

// intToDate reads an int column's values as days: the identity on the
// ordinal, a change of kind.
var intToDate = monotoneMap{
	name: "int→date",
	column: func(c engine.Column) engine.Column {
		return engine.NewDateColumn(c.Name(), append([]int64(nil), c.(engine.IntValued).Int64s()...))
	},
	value: func(v engine.Value) engine.Value { return engine.Date(v.AsInt()) },
}

// mapTable returns tab with column attr replaced by m's image.
func mapTable(tab *engine.Table, attr string, m monotoneMap) *engine.Table {
	cols := make([]engine.Column, tab.NumCols())
	for i := range cols {
		cols[i] = tab.Column(i)
		if cols[i].Name() == attr {
			cols[i] = m.column(cols[i])
		}
	}
	return engine.MustNewTable(tab.Name(), cols...)
}

// mappedRanking is relation 2's view of a result: per ranked answer,
// its ranking tuple (score, breadth, simplicity, depth), and its
// canonical form — cut attributes, and each segment's key (with attr's
// cut values passed through m, when m is set) and count. Answers whose
// ranking tuples tie are ordered by key, which the map may reorder,
// so each run of tied answers is compared as a sorted list. ok is
// false when some segment constrains attr by a set: the
// numeric-nominal fallback, whose value order is not preserved by a
// map (README, "Semantics notes").
func mappedRanking(res *charles.Result, attr string, m *monotoneMap) (out string, ok bool) {
	var b strings.Builder
	var block []string
	var last string
	flush := func() {
		sort.Strings(block)
		b.WriteString(strings.Join(block, ""))
		block = block[:0]
	}
	for _, sc := range res.Segmentations {
		tuple := fmt.Sprintf("score=%v breadth=%d simplicity=%d depth=%d\n",
			sc.Score, sc.Metrics.Breadth, sc.Metrics.Simplicity, sc.Metrics.Depth)
		if tuple != last {
			flush()
			b.WriteString(tuple)
			last = tuple
		}
		var e strings.Builder
		fmt.Fprintf(&e, "  %v:", sc.Seg.CutAttrs)
		for i, q := range sc.Seg.Queries {
			c, has := q.Constraint(attr)
			if has && c.Kind == sdl.KindSet {
				return "", false
			}
			if has && c.Kind == sdl.KindRange && m != nil {
				r := c.Range
				q = q.WithConstraint(sdl.RangeC(attr, m.value(r.Lo), m.value(r.Hi), r.LoIncl, r.HiIncl))
			}
			fmt.Fprintf(&e, " %s=%d", q.Key(), sc.Seg.Counts[i])
		}
		e.WriteByte('\n')
		block = append(block, e.String())
	}
	flush()
	fmt.Fprintf(&b, "stop=%v iterations=%d\n", res.StopReason, res.Iterations)
	for _, st := range res.Trace {
		fmt.Fprintf(&b, "trace %v×%v indep=%v depth=%d\n", st.Left, st.Right, st.Indep, st.Depth)
	}
	return b.String(), true
}

// checkPermutation is relation 1 on tab under a random permutation.
func checkPermutation(t *testing.T, tab *engine.Table, chunkRows int, context string, rng *rand.Rand) {
	t.Helper()
	res, ev := metaAdvise(t, tab, chunkRows, context)
	want := metaFull(t, res, ev)
	pres, pev := metaAdvise(t, permuteTable(t, tab, rng.Perm(tab.NumRows())), chunkRows, context)
	if got := metaFull(t, pres, pev); got != want {
		t.Fatalf("relation 1 (row permutation), %s, %d rows, chunk rows %d, context %q:\noriginal:\n%s\npermuted:\n%s",
			tab.Name(), tab.NumRows(), chunkRows, context, want, got)
	}
}

// checkMap is relation 2 on tab's column attr under m. It reports
// whether the relation applied (no fallback set pieces on attr).
func checkMap(t *testing.T, tab *engine.Table, chunkRows int, context, attr string, m monotoneMap) bool {
	t.Helper()
	res, _ := metaAdvise(t, tab, chunkRows, context)
	want, ok1 := mappedRanking(res, attr, &m)
	mres, _ := metaAdvise(t, mapTable(tab, attr, m), chunkRows, context)
	got, ok2 := mappedRanking(mres, attr, nil)
	if !ok1 || !ok2 {
		return false
	}
	if got != want {
		t.Fatalf("relation 2 (%s on %s), %s, %d rows, chunk rows %d, context %q:\noriginal, mapped:\n%s\nadvised on the mapped column:\n%s",
			m.name, attr, tab.Name(), tab.NumRows(), chunkRows, context, want, got)
	}
	return true
}

// metaTable draws a small random table: a wide int, a narrow int with
// many duplicates, a float with NaN, ±0 and duplicates, a string, a
// date and a bool column, its rows clustered on the narrow int one
// time in two, so whole chunks fall to one side of a cut.
func metaTable(rng *rand.Rand) *engine.Table {
	n := 200 + rng.Intn(2800)
	wide, narrow, days := make([]int64, n), make([]int64, n), make([]int64, n)
	floats, strs, bools := make([]float64, n), make([]string, n), make([]bool, n)
	levels := 2 + rng.Intn(6)
	for r := 0; r < n; r++ {
		wide[r] = rng.Int63n(1_000_000) - 500_000
		narrow[r] = int64(rng.Intn(40))
		switch k := rng.Intn(20); {
		case k == 0:
			floats[r] = math.NaN()
		case k == 1:
			floats[r] = math.Copysign(0, -1)
		case k == 2:
			floats[r] = 0
		case k < 10:
			floats[r] = float64(rng.Intn(7)-3) / 4
		default:
			floats[r] = rng.NormFloat64() * 100
		}
		strs[r] = fmt.Sprintf("v%d", min(rng.Intn(levels), rng.Intn(levels)))
		days[r] = int64(rng.Intn(5000))
		bools[r] = rng.Intn(3) == 0
	}
	if rng.Intn(2) == 0 {
		perm := rng.Perm(n)
		sort.SliceStable(perm, func(i, j int) bool { return narrow[perm[i]] < narrow[perm[j]] })
		wide, narrow, days = permuted(wide, perm), permuted(narrow, perm), permuted(days, perm)
		floats, strs, bools = permuted(floats, perm), permuted(strs, perm), permuted(bools, perm)
	}
	return engine.MustNewTable("meta",
		engine.NewIntColumn("wide", wide),
		engine.NewIntColumn("narrow", narrow),
		engine.NewFloatColumn("f", floats),
		engine.NewStringColumn("s", strs),
		engine.NewDateColumn("d", days),
		engine.NewBoolColumn("b", bools),
	)
}

// metaContexts are the contexts the random tables are advised on: all
// columns, and a narrower extent whose chunks the string constraint
// thins out on both sides of the storage rule.
var metaContexts = []string{
	"",
	"(s: {v0, v1}, narrow:, wide:, f:, d:)",
}

// TestMetamorphicPermutation is relation 1 on random small tables at
// 64- and 256-row chunks, and on VOC and the sky survey at 100K rows.
func TestMetamorphicPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 12; i++ {
		tab := metaTable(rng)
		checkPermutation(t, tab, 64<<(2*(i%2)), metaContexts[i%len(metaContexts)], rng)
	}
	if testing.Short() {
		return
	}
	checkPermutation(t, charles.GenerateVOC(100_000, 5), 0,
		"(type_of_boat:, tonnage:, built:, departure_date:, departure_harbour:, trip:)", rng)
	checkPermutation(t, charles.GenerateSkySurvey(100_000, 5), 8192, "", rng)
}

// TestMetamorphicMonotoneMap is relation 2 on random small tables —
// the narrow int scaled past the count window, the wide int by an
// affine map, the float by a power of two, an int read as a date — and
// on VOC's tonnage (span 50–1 200, counted; tripled, selected) and
// built, and the sky survey's magnitude.
func TestMetamorphicMonotoneMap(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	maps := []struct {
		attr string
		m    monotoneMap
	}{
		{"narrow", intAffine(97, -5)},
		{"wide", intAffine(3, 11)},
		{"f", floatScale(3)},
		{"narrow", intToDate},
		{"f", floatScale(-2)},
	}
	applied := 0
	for i := 0; i < 15; i++ {
		tab := metaTable(rng)
		mm := maps[i%len(maps)]
		if checkMap(t, tab, 64<<(2*(i%2)), metaContexts[i%len(metaContexts)], mm.attr, mm.m) {
			applied++
		}
	}
	if applied < 5 {
		t.Fatalf("relation 2 applied to %d of 15 random tables; the numeric-nominal fallback fired on the rest", applied)
	}
	if testing.Short() {
		return
	}
	voc := charles.GenerateVOC(100_000, 5)
	const vocContext = "(type_of_boat:, tonnage:, built:, departure_harbour:, trip:)"
	for _, mm := range []struct {
		attr string
		m    monotoneMap
	}{{"tonnage", intAffine(3, 1)}, {"built", intToDate}} {
		if !checkMap(t, voc, 0, vocContext, mm.attr, mm.m) {
			t.Fatalf("relation 2 (%s on VOC %s) did not apply", mm.m.name, mm.attr)
		}
	}
	if !checkMap(t, charles.GenerateSkySurvey(100_000, 5), 8192, "", "magnitude", floatScale(2)) {
		t.Fatal("relation 2 on the sky survey's magnitude did not apply")
	}
}
