package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"charles"
)

// Op lists are pure functions of (seed, sizes): the program under
// test only ever sees generated inputs. Every list is a balanced
// design over a fixed pool — each entry appears equally often — that
// the seed orders and perturbs (constraint bounds, novel ranges,
// appended rows), so two seeds run statistically the same work and a
// metric's spread across seeds is noise, not input.

// Context is one SDL context aimed at one of the generated tables.
type Context struct {
	Table string // "voc" or "sky"
	SDL   string
}

// ColdContexts returns cold_explore's 12 contexts: 8 over VOC (int,
// date and string kernels) and 4 over the sky survey (float
// kernels), 3-5 attributes each, some range- or set-constrained. The
// seed jitters the constraint bounds only. The pool was picked by
// measured cold cost on the reference box: five contexts at about
// 170-215 ms, four within 242-251 ms, three at 267-307 ms. The median
// of any whole number of rounds then falls inside the middle four's
// band instead of in a gap between two cost clusters, where it would
// flip from run to run.
func ColdContexts(seed int64) []Context {
	rng := rand.New(rand.NewSource(seed ^ 0x636f6c64))
	j := func(base, spread int) int { return base + rng.Intn(2*spread+1) - spread }
	f := func(base, spread float64) float64 { return base + (rng.Float64()*2-1)*spread }
	return []Context{
		{"voc", "(type_of_boat:, tonnage:, departure_harbour:)"},
		{"voc", "(tonnage:, built:, trip:)"},
		{"voc", "(master:, built:, cape_arrival:)"},
		{"voc", "(tonnage:, trip:, departure_harbour:, master:)"},
		{"voc", "(type_of_boat:, yard:, master:, tonnage:)"},
		{"voc", fmt.Sprintf("(tonnage:[%d,%d], built:, departure_harbour:, trip:)", j(200, 10), j(800, 20))},
		{"voc", fmt.Sprintf("(built:[%d,%d], type_of_boat:, master:, trip:, cape_arrival:)", j(1650, 3), j(1750, 3))},
		{"voc", "(departure_harbour:, yard:, built:, departure_date:)"},
		{"sky", "(dec:, magnitude:, redshift:)"},
		{"sky", "(magnitude:, redshift:, class:)"},
		{"sky", "(ra:, redshift:, class:)"},
		{"sky", fmt.Sprintf("(magnitude:[%.3f,%.3f], redshift:, dec:, class:)", f(10, 0.25), f(18, 0.25))},
	}
}

// ColdOps is cold_explore's op list: rounds passes over the contexts,
// each pass in its own seeded order.
func ColdOps(seed int64, rounds int) []Context {
	ctxs := ColdContexts(seed)
	rng := rand.New(rand.NewSource(seed ^ 0x6f7073))
	ops := make([]Context, 0, rounds*len(ctxs))
	for r := 0; r < rounds; r++ {
		for _, i := range rng.Perm(len(ctxs)) {
			ops = append(ops, ctxs[i])
		}
	}
	return ops
}

// DrillRoots is drill_session's root pool.
var DrillRoots = []string{
	"(type_of_boat:, tonnage:, departure_harbour:)",
	"(tonnage:, built:, trip:, departure_date:)",
	"(type_of_boat:, yard:, master:, tonnage:, cape_arrival:)",
	"(departure_harbour:, yard:, built:, departure_date:)",
	"(departure_date:, cape_arrival:, trip:, type_of_boat:)",
	"(tonnage:, trip:, departure_harbour:, master:)",
}

// DrillSteps is the number of zooms after each session's root advise.
const DrillSteps = 3

// Session is one Figure 1 exploration: advise a root, then DrillSteps
// times pick an answer among the top three and one of its segments,
// zoom, and advise again. Picks are raw draws; the runner reduces
// them modulo what the previous result actually offers.
type Session struct {
	Root  int
	Picks [DrillSteps][2]int
}

// DrillVisits is how often each zoom path is walked: analysts come
// back to where they were.
const DrillVisits = 3

// DrillPlan returns drill_session's sessions: sessions/DrillVisits
// fixed zoom paths, roots in equal shares, each walked DrillVisits
// times, in an order the seed picks. Which contexts get visited — and
// so how many advises find everything cached — is the same for every
// seed; what the seed moves is who comes first and pays for the caches
// the rest reuse. The repeat visits are not decoration: they put three
// quarters of the ops on the fully-cached plateau (0.5-0.8 ms), so the
// median measures the cached advise. With every path walked once the
// median fell on the cliff between cached and uncached ops (p45 3 ms,
// p55 7 ms) and moved 10% from run to run.
func DrillPlan(seed int64, sessions int) []Session {
	paths := rand.New(rand.NewSource(0x6472696c))
	plan := make([]Session, sessions)
	for i := range plan {
		if i%DrillVisits != 0 {
			plan[i] = plan[i-1] // another visit of the same path
			continue
		}
		plan[i].Root = (i / DrillVisits) % len(DrillRoots)
		for s := range plan[i].Picks {
			plan[i].Picks[s] = [2]int{paths.Intn(1 << 16), paths.Intn(1 << 16)}
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x6472696c))
	rng.Shuffle(len(plan), func(a, b int) { plan[a], plan[b] = plan[b], plan[a] })
	return plan
}

// HotContexts is serve_hot's hot set: after warm-up every one of them
// is a result-LRU hit.
var HotContexts = []string{
	"(type_of_boat:, tonnage:, departure_harbour:)",
	"(tonnage:, built:, trip:)",
	"(departure_date:, cape_arrival:, trip:, tonnage:)",
	"(type_of_boat:, yard:, master:, tonnage:)",
	"(tonnage:[200,800], built:, departure_harbour:, trip:)",
	"(type_of_boat:{fluit, jacht, pinas}, tonnage:, yard:, departure_date:)",
	"(departure_harbour:, yard:, built:, departure_date:)",
	"(tonnage:, trip:, departure_harbour:, master:)",
}

// A novel context asks for one numeric (int or date) and one nominal
// attribute plus a tonnage range about 120 wide inside [300,480]: 16
// pairs x 1681 ranges nobody has asked before, each keeping roughly a
// fifth of the table (fluits and pinasses). Small contexts are the
// point. A range drawn from the whole domain keeps anything from 35%
// to 98% of the rows, so the miss latency measured the draw; and
// near-whole-table misses each pin some 25 MB of selections in the
// server's evaluator cache, whose multi-GB heap then makes GC cycles
// the main source of latency (150-600 ms for one and the same
// context) — a fact about cache policy that peak_rss_mb already
// reports, drowning the serving plane this workload is about.
var (
	novelNumeric = []string{"built", "trip", "departure_date", "cape_arrival"}
	novelNominal = []string{"type_of_boat", "yard", "departure_harbour", "master"}
)

// ServeOp is one serve_hot op: submit a context and wait for its
// result.
type ServeOp struct {
	SDL string
	Hot bool
}

// ServePlan returns one op list per client: 70% draws from the hot
// set in equal shares, 30% novel contexts, shuffled. Novel pairs
// cycle through a seeded order of all 16 — at the reference size
// every pair is asked exactly sixteen times — so every run covers the
// same mix of int, date and string cuts.
func ServePlan(seed int64, clients, opsPerClient int) [][]ServeOp {
	rng := rand.New(rand.NewSource(seed ^ 0x7365727665))
	var pairs [][2]string
	for _, a := range novelNumeric {
		for _, b := range novelNominal {
			pairs = append(pairs, [2]string{a, b})
		}
	}
	rng.Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })
	seen := map[[2]int]bool{}
	nextPair, nextHot := 0, 0
	plan := make([][]ServeOp, clients)
	for c := range plan {
		misses := (opsPerClient*3 + 5) / 10
		ops := make([]ServeOp, 0, opsPerClient)
		for i := 0; i < opsPerClient-misses; i++ {
			ops = append(ops, ServeOp{SDL: HotContexts[nextHot%len(HotContexts)], Hot: true})
			nextHot++
		}
		for i := 0; i < misses; i++ {
			var r [2]int
			for {
				lo := 300 + rng.Intn(41)
				r = [2]int{lo, lo + 100 + rng.Intn(41)}
				if !seen[r] {
					seen[r] = true
					break
				}
			}
			p := pairs[nextPair%len(pairs)]
			nextPair++
			ops = append(ops, ServeOp{SDL: fmt.Sprintf("(%s:, %s:, tonnage:[%d,%d])", p[0], p[1], r[0], r[1])})
		}
		rng.Shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
		plan[c] = ops
	}
	return plan
}

// ReaderContexts is append_mix's re-advise cycle: four contexts whose
// incremental re-advise costs about the same, so the latency
// distribution has one mode and its tail percentile a neighbourhood.
var ReaderContexts = []string{
	"(type_of_boat:, tonnage:, departure_harbour:)",
	"(tonnage:, built:, trip:)",
	"(tonnage:[200,800], built:, departure_harbour:, trip:)",
	"(type_of_boat:, yard:, master:, tonnage:)",
}

// AppendPlan is append_mix's writer input: batches of rows drawn from
// a donor table generated off the seed, so appended voyages look like
// the table they join and cut points drift rather than jump.
type AppendPlan struct {
	Columns []string
	Kinds   []string
	Batches [][][]charles.Value
}

// NewAppendPlan generates batches × rows VOC rows.
func NewAppendPlan(seed int64, batches, rows int) *AppendPlan {
	donor := charles.GenerateVOC(batches*rows, seed^0x617070656e64)
	p := &AppendPlan{Columns: donor.ColumnNames()}
	for c := 0; c < donor.NumCols(); c++ {
		p.Kinds = append(p.Kinds, donor.Column(c).Kind().String())
	}
	for b := 0; b < batches; b++ {
		batch := make([][]charles.Value, rows)
		for r := range batch {
			row := make([]charles.Value, donor.NumCols())
			for c := range row {
				row[c] = donor.Column(c).Value(b*rows + r)
			}
			batch[r] = row
		}
		p.Batches = append(p.Batches, batch)
	}
	return p
}

// JSONRow renders one row the way POST /append wants it: numbers for
// int and float columns, "YYYY-MM-DD" for dates.
func (p *AppendPlan) JSONRow(row []charles.Value) map[string]any {
	out := make(map[string]any, len(row))
	for c, v := range row {
		switch p.Kinds[c] {
		case "int":
			out[p.Columns[c]] = v.AsInt()
		case "float":
			out[p.Columns[c]] = v.AsFloat()
		case "bool":
			out[p.Columns[c]] = v.AsBool()
		default: // string, date
			out[p.Columns[c]] = v.String()
		}
	}
	return out
}

// Body renders batch b as a POST /append request body.
func (p *AppendPlan) Body(b int) ([]byte, error) {
	rows := make([]map[string]any, len(p.Batches[b]))
	for i, row := range p.Batches[b] {
		rows[i] = p.JSONRow(row)
	}
	return json.Marshal(map[string]any{"rows": rows})
}

// OpListDigest fingerprints a workload's generated inputs: equal
// seeds must give equal digests, different seeds different ones.
func OpListDigest(workload string, seed int64, sz Sizes) string {
	h := sha256.New()
	w := func(format string, a ...any) { fmt.Fprintf(h, format+"\n", a...) }
	w("%s rows=%d", workload, sz.Rows)
	switch workload {
	case ColdExplore:
		for _, op := range ColdOps(seed, sz.ColdRounds) {
			w("%s %s", op.Table, op.SDL)
		}
	case DrillSession:
		for _, s := range DrillPlan(seed, sz.Sessions) {
			w("%d %v", s.Root, s.Picks)
		}
	case ServeHot:
		for c, ops := range ServePlan(seed, sz.Clients, sz.ClientOps) {
			for _, op := range ops {
				w("%d %v %s", c, op.Hot, op.SDL)
			}
		}
	case AppendMix:
		w("reader %d %s", sz.ReaderOps, strings.Join(ReaderContexts, ";"))
		p := NewAppendPlan(seed, sz.AppendBatches, sz.BatchRows)
		for _, b := range p.Batches {
			for _, row := range b {
				w("%v", row)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
