package seg

import (
	"context"
	"fmt"
	"sync"

	"charles/internal/engine"
	"charles/internal/par"
	"charles/internal/sdl"
	"charles/internal/stats"
)

// PairOptions parameterizes the pairwise segmentation operators.
// The zero value — all CPUs, no memo — is the right default for
// direct callers; the advisor core threads Config.Workers and a
// per-advise memo through instead.
type PairOptions struct {
	// Workers bounds the fan-out of the cell loop and the per-query
	// selection gather. Values below 1 mean one worker per available
	// CPU; 1 keeps everything on the calling goroutine.
	Workers int
	// Memo, when non-nil, caches built pair sides — one segmentation's
	// gathered selections — across operator calls. HB-cuts evaluates every candidate against O(n) partners
	// per step, and without the memo each Product/CellCounts/Indep/
	// ChiSquare call rebuilds the same sides; the advisor core shares
	// one memo per advise so each segmentation is assembled exactly
	// once per query.
	Memo *PairMemo
	// Ctx cancels the pairwise operator mid-flight: the selection
	// gather and the contingency cell loop — the per-pair cost drivers
	// — re-check it at every task boundary, so a cancelled advise
	// releases its workers within one cell's worth of work. Nil means
	// "never cancelled".
	Ctx context.Context
}

func (o PairOptions) normalize() PairOptions {
	o.Workers = par.Workers(o.Workers)
	return o
}

// PairMemo caches built pair sides by segmentation key within one
// advise. It is safe for concurrent use: the pair evaluations of one
// HB-cuts step fan out across workers and may request the same
// segmentation at once — both build, one wins, and the identical
// immutable results make either correct.
type PairMemo struct {
	mu sync.RWMutex
	m  map[string]pairSide
}

// NewPairMemo returns an empty pair-side memo for one advise run.
func NewPairMemo() *PairMemo {
	return &PairMemo{m: make(map[string]pairSide)}
}

func (m *PairMemo) get(key string) (pairSide, bool) {
	m.mu.RLock()
	s, ok := m.m[key]
	m.mu.RUnlock()
	return s, ok
}

func (m *PairMemo) put(key string, s pairSide) {
	m.mu.Lock()
	m.m[key] = s
	m.mu.Unlock()
}

// pairSide holds one segmentation's selections as the evaluator caches
// them, each chunk in its own form. A side built for a derived table
// holds every segment but the last.
type pairSide []*engine.ChunkedSelection

// buildSide gathers a segmentation's selections across the worker
// pool, and the cell loop then reuses them |other| times each. With a
// memo in the options the assembled side is shared across every
// operator call of the advise that mentions the same segmentation.
// Task errors are rare but cancellation is not, and it must surface —
// or a half-built side would be memoized as complete. fp is the table
// fingerprint the caller read; derived marks a side for a derived
// table, which leaves out the last segment.
func buildSide(ev *Evaluator, s *Segmentation, opt PairOptions, fp string, derived bool) (pairSide, error) {
	n := len(s.Queries)
	var memoKey string
	if opt.Memo != nil {
		// The shape marker keeps a side without its last segment apart
		// from a whole one. The table fingerprint keys out sides built
		// before a mutation: a memo can outlive one advise (a Stream
		// holds its across Next calls), and a stale side would silently
		// miscount cells. The fingerprint is cached per table version,
		// so this stays a single concatenation on the warm path.
		shape := "\x00"
		if derived {
			shape = "\x00-"
		}
		memoKey = fp + shape + "\x00" + s.Key()
		if side, ok := opt.Memo.get(memoKey); ok {
			ev.count(PairMemoHits)
			return side, nil
		}
		ev.count(PairMemoMisses)
	}
	if derived {
		n--
	}
	side := make(pairSide, n)
	err := par.ForEachCtx(opt.Ctx, opt.Workers, n, func(i int) error {
		ent, err := ev.extent(s.Queries[i])
		side[i] = ent.sel
		return err
	})
	if err != nil {
		return nil, err
	}
	if opt.Memo != nil {
		opt.Memo.put(memoKey, side)
	}
	return side, nil
}

// ProductOpt implements the SDL product S1 × S2 (Definition 8):
// every pairwise conjunction (Q1i, Q2j). Pairs whose extents do not
// overlap are dropped, as are provably empty conjunctions, so the
// result is a partition of the common context with strictly positive
// counts. The counts are the contingency table cellCountsInto fills;
// only cells with a positive count are conjoined, in (i, j) order, so
// the output is identical at every width.
func ProductOpt(ev *Evaluator, s1, s2 *Segmentation, opt PairOptions) (*Segmentation, error) {
	opt = opt.normalize()
	n2 := len(s2.Queries)
	flatPtr := cellScratch.Get(len(s1.Queries) * n2)
	defer cellScratch.Put(flatPtr)
	flat := *flatPtr
	if err := cellCountsInto(ev, s1, s2, opt, flat); err != nil {
		return nil, err
	}
	out := &Segmentation{CutAttrs: mergeAttrs(s1.CutAttrs, s2.CutAttrs)}
	for k, count := range flat {
		if count == 0 {
			continue
		}
		q, nonEmpty, err := sdl.Conjoin(s1.Queries[k/n2], s2.Queries[k%n2])
		if err != nil {
			return nil, err
		}
		if nonEmpty {
			out.Queries = append(out.Queries, q)
			out.Counts = append(out.Counts, count)
		}
	}
	return out, nil
}

// cellCountsInto fills flat (row-major, length n1×n2) with the joint
// contingency table — the shared core of PRODUCT, CellCounts, INDEP
// and the chi-squared rule. The table is a pure function of the table
// version and the two segmentations, so it is served
// from the evaluator's pair-table tier when that holds it at the
// current fingerprint (HB-cuts on a revisited path re-pairs the same
// candidates), and a freshly counted table is stored there. The key
// leaves out the side shape: whole and derived sides count the same
// cells. A cancelled count is never stored.
func cellCountsInto(ev *Evaluator, s1, s2 *Segmentation, opt PairOptions, flat []int) error {
	fp := ev.Table().Fingerprint()
	key := [2]string{s1.Key(), s2.Key()}
	if ev.pairTable(fp, key, flat) {
		ev.count(PairTableHits)
		return nil
	}
	if err := countCells(ev, s1, s2, opt, fp, flat); err != nil {
		return err
	}
	ev.storePairTable(fp, key, flat)
	return nil
}

// countCells counts the contingency table of s1 and s2 at fingerprint
// fp into flat. Each segmentation's selections are gathered once, then the cell loop fans out across opt.Workers; every cell
// writes its own slot, so the table is deterministic at every width.
// Cell errors are impossible once both sides are built; only
// cancellation can surface, and a cancelled table must not be read as
// all-zero counts.
//
// When both segmentations carry partition proofs of one context at
// fp, the table's row sums are s1.Counts and its column sums
// s2.Counts, so only the cells i < n1−1, j < n2−1 are counted: the
// last column is Counts[i] − Σ of its row and the last row
// s2.Counts[j] − Σ of its column. A binary pair then costs one
// intersection instead of four. Any other pair counts every cell.
func countCells(ev *Evaluator, s1, s2 *Segmentation, opt PairOptions, fp string, flat []int) error {
	derived := sameContextAt(s1, s2, fp)
	a, err := buildSide(ev, s1, opt, fp, derived)
	if err != nil {
		return err
	}
	b, err := buildSide(ev, s2, opt, fp, derived)
	if err != nil {
		return err
	}
	n2 := len(s2.Queries)
	m1, m2 := len(a), len(b)
	if err := par.ForEachCtx(opt.Ctx, opt.Workers, m1*m2, func(k int) error {
		i, j := k/m2, k%m2
		flat[i*n2+j] = a[i].AndCount(b[j])
		return nil
	}); err != nil || !derived {
		return err
	}
	last := flat[m1*n2:]
	copy(last, s2.Counts)
	for i := 0; i < m1; i++ {
		row := flat[i*n2 : (i+1)*n2]
		rest := s1.Counts[i]
		for j, c := range row[:m2] {
			rest -= c
			last[j] -= c
		}
		row[m2] = rest
		last[m2] -= rest
	}
	return nil
}

// CellCountsOpt returns the joint contingency table cells[i][j] =
// |R(Q1i) ∩ R(Q2j)| — the raw material for both INDEP and the
// chi-squared stopping rule. The returned table is caller-owned
// fresh memory (never pooled); operators that consume the table
// internally go through cellCountsInto with pooled scratch instead.
func CellCountsOpt(ev *Evaluator, s1, s2 *Segmentation, opt PairOptions) ([][]int, error) {
	opt = opt.normalize()
	n1, n2 := len(s1.Queries), len(s2.Queries)
	flat := make([]int, n1*n2)
	if err := cellCountsInto(ev, s1, s2, opt, flat); err != nil {
		return nil, err
	}
	cells := make([][]int, n1)
	for i := range cells {
		cells[i] = flat[i*n2 : (i+1)*n2 : (i+1)*n2]
	}
	return cells, nil
}

// IndepOpt returns INDEP(S1, S2) = E(S1×S2) / (E(S1) + E(S2)), the
// dependence quotient of Proposition 1: 1 when the segment variables
// are independent, decreasing with the degree of dependence. By
// convention it is 1 when both segmentations are degenerate
// (E(S1)+E(S2) = 0), so degenerate candidates never win the
// most-dependent-pair selection. The contingency table and its
// marginals live in pooled scratch: a warm advise's INDEP loop
// allocates nothing proportional to the cell grid.
func IndepOpt(ev *Evaluator, s1, s2 *Segmentation, opt PairOptions) (float64, error) {
	opt = opt.normalize()
	n1, n2 := len(s1.Queries), len(s2.Queries)
	flatPtr := cellScratch.Get(n1 * n2)
	defer cellScratch.Put(flatPtr)
	flat := *flatPtr
	if err := cellCountsInto(ev, s1, s2, opt, flat); err != nil {
		return 0, err
	}
	return indepFromFlat(flat, n1, n2), nil
}

// indepFromFlat computes the INDEP quotient from a row-major flat
// table, accumulating marginals in pooled scratch.
func indepFromFlat(flat []int, n1, n2 int) float64 {
	if n1 == 0 || n2 == 0 {
		return 1
	}
	margPtr := cellScratch.Get(n1 + n2)
	defer cellScratch.Put(margPtr)
	marg := *margPtr
	clear(marg)
	rows, cols := marg[:n1], marg[n1:]
	for i := 0; i < n1; i++ {
		for j, c := range flat[i*n2 : (i+1)*n2] {
			rows[i] += c
			cols[j] += c
		}
	}
	denom := stats.Entropy(rows) + stats.Entropy(cols)
	if denom == 0 {
		return 1
	}
	return stats.Entropy(flat) / denom
}

// IndepFromCells computes the INDEP quotient from a precomputed
// contingency table.
func IndepFromCells(cells [][]int) float64 {
	if len(cells) == 0 {
		return 1
	}
	n1, n2 := len(cells), len(cells[0])
	flatPtr := cellScratch.Get(n1 * n2)
	defer cellScratch.Put(flatPtr)
	flat := *flatPtr
	clear(flat) // recycled scratch; a short input row must read as zeros
	for i, row := range cells {
		copy(flat[i*n2:(i+1)*n2], row)
	}
	return indepFromFlat(flat, n1, n2)
}

// ChiSquareIndependentOpt applies the Section 4.2 suggestion of
// statistical hypothesis testing as a stopping rule: it reports
// whether the joint distribution of two segmentations is consistent
// with independence at significance alpha. Like IndepOpt it works in
// pooled scratch end to end — the flat table and the float marginals
// the chi-squared statistic needs.
func ChiSquareIndependentOpt(ev *Evaluator, s1, s2 *Segmentation, alpha float64, opt PairOptions) (bool, error) {
	opt = opt.normalize()
	n1, n2 := len(s1.Queries), len(s2.Queries)
	flatPtr := cellScratch.Get(n1 * n2)
	defer cellScratch.Put(flatPtr)
	flat := *flatPtr
	if err := cellCountsInto(ev, s1, s2, opt, flat); err != nil {
		return false, err
	}
	margPtr := marginalScratch.Get(n1 + n2)
	defer marginalScratch.Put(margPtr)
	marg := *margPtr
	return stats.ChiSquareIndependentFlat(flat, n1, n2, marg[:n1], marg[n1:], alpha), nil
}

// ValidatePartition checks Definition 3 exactly: the segments are
// pairwise disjoint and their union is the context's extent. It is
// the workhorse of the property-based tests and costs O(|D| + Σ|Qi|).
func ValidatePartition(ev *Evaluator, context sdl.Query, s *Segmentation) error {
	ctxSel, err := ev.Select(context)
	if err != nil {
		return err
	}
	covered := make(map[int32]int, len(ctxSel))
	for i, q := range s.Queries {
		sel, err := ev.Select(q)
		if err != nil {
			return err
		}
		if len(sel) != s.Counts[i] {
			return fmt.Errorf("seg: segment %d count %d does not match extent %d", i, s.Counts[i], len(sel))
		}
		for _, row := range sel {
			if prev, dup := covered[row]; dup {
				return fmt.Errorf("seg: row %d covered by segments %d and %d: not disjoint", row, prev, i)
			}
			covered[row] = i
		}
	}
	if len(covered) != len(ctxSel) {
		return fmt.Errorf("seg: segments cover %d rows, context has %d: not exhaustive", len(covered), len(ctxSel))
	}
	for _, row := range ctxSel {
		if _, ok := covered[row]; !ok {
			return fmt.Errorf("seg: context row %d not covered by any segment", row)
		}
	}
	return nil
}
