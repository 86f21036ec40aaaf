package seg

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"charles/internal/sdl"
	"charles/internal/stats"
)

// Segmentation is a set of SDL queries partitioning a context's
// extent (Definition 3). Invariants maintained by the constructors
// in this package:
//
//   - Queries are pairwise disjoint and cover the context.
//   - All queries are cut on the same attribute set CutAttrs (the
//     restriction Section 5.2 acknowledges; the adaptive extension
//     in internal/core relaxes it).
//   - Counts[i] == |R(Queries[i])| and every count is positive.
//   - A segmentation is immutable once built: Key caches the
//     canonical identity on first computation, so fields must not be
//     reassigned afterwards (build a new segmentation instead).
type Segmentation struct {
	// Queries are the segments, in deterministic order.
	Queries []sdl.Query
	// CutAttrs lists the attributes the segmentation is based on, in
	// canonical order.
	CutAttrs []string
	// Counts holds each segment's extent size, aligned with Queries.
	Counts []int

	// key is the lazily built canonical identity. The pair-side memo
	// looks segmentations up by key once per operator call — O(n²)
	// times per advise step — and rebuilding the concatenated query
	// strings each time was the single largest steady-state
	// allocation of the warm pairwise path.
	key atomic.Pointer[string]

	// proof, when set, certifies that Queries partition proof.context
	// exactly and Counts are their extents at table version
	// proof.fingerprint. Only the constructors that can establish it
	// set it (singleton, and cutSeg from a proven parent); a
	// segmentation built by hand carries none. The pairwise operators
	// derive a contingency table's last row and column from Counts
	// only under a proof naming the current fingerprint.
	proof *partitionProof
}

// partitionProof is a segmentation's certificate of exact partition:
// the table fingerprint its counts were taken at and the key of the
// context query it partitions.
type partitionProof struct {
	fingerprint string
	context     string
}

// provenAt reports whether s carries a partition proof naming table
// fingerprint fp.
func (s *Segmentation) provenAt(fp string) bool {
	return s.proof != nil && s.proof.fingerprint == fp
}

// sameContextAt reports whether s1 and s2 both carry partition proofs
// naming fingerprint fp and the same context: their contingency table
// has row sums s1.Counts and column sums s2.Counts.
func sameContextAt(s1, s2 *Segmentation, fp string) bool {
	return s1.provenAt(fp) && s2.provenAt(fp) && s1.proof.context == s2.proof.context
}

// Depth returns the number of segments — the "amount of information"
// bounded by maxDepth in HB-cuts (a pie chart with more than a dozen
// slices is hard to read).
func (s *Segmentation) Depth() int { return len(s.Queries) }

// Total returns the context size |D| (the sum of segment counts).
func (s *Segmentation) Total() int {
	t := 0
	for _, c := range s.Counts {
		t += c
	}
	return t
}

// Entropy returns E(S) of Definition 4 in bits, with segment masses
// normalized by the context size |D| rather than |T| so that
// Proposition 1 holds exactly (documented deviation; the two agree
// when the context is the whole table).
func (s *Segmentation) Entropy() float64 { return stats.Entropy(s.Counts) }

// MaxEntropy returns log2(Depth), the entropy of a perfectly
// balanced segmentation of the same depth.
func (s *Segmentation) MaxEntropy() float64 { return stats.MaxEntropy(len(s.Queries)) }

// Balance returns Entropy/MaxEntropy in (0, 1]: 1 for perfectly
// equal segment sizes.
func (s *Segmentation) Balance() float64 { return stats.BalanceRatio(s.Counts) }

// Simplicity returns P(S) of Section 3: the maximum number of
// predicates among the segmentation's queries (lower is simpler).
func (s *Segmentation) Simplicity() int {
	max := 0
	for _, q := range s.Queries {
		if n := q.NumConstraints(); n > max {
			max = n
		}
	}
	return max
}

// Breadth returns the number of distinct constrained columns across
// the segmentation's queries (Principle 2: broad segmentations are
// more informative).
func (s *Segmentation) Breadth() int {
	seen := map[string]struct{}{}
	for _, q := range s.Queries {
		for _, a := range q.ConstrainedAttrs() {
			seen[a] = struct{}{}
		}
	}
	return len(seen)
}

// Cover returns |R(Qi)| / |D| for segment i.
func (s *Segmentation) Cover(i int) float64 {
	t := s.Total()
	if t == 0 {
		return 0
	}
	return float64(s.Counts[i]) / float64(t)
}

// Metrics bundles the Section 3 criteria for ranking and reporting.
type Metrics struct {
	Entropy    float64
	MaxEntropy float64
	Balance    float64
	Depth      int
	Simplicity int
	Breadth    int
}

// ComputeMetrics evaluates all criteria at once.
func (s *Segmentation) ComputeMetrics() Metrics {
	return Metrics{
		Entropy:    s.Entropy(),
		MaxEntropy: s.MaxEntropy(),
		Balance:    s.Balance(),
		Depth:      s.Depth(),
		Simplicity: s.Simplicity(),
		Breadth:    s.Breadth(),
	}
}

// Key returns a canonical identity string: the sorted cut-attribute
// list plus every segment's canonical query string. Two
// segmentations share a key iff they hold the same queries in the
// same order, so the final ranking tie-break in internal/core is
// total and stable. (The previous attrs+depth key collided for
// distinct segmentations with the same attributes and depth —
// different cut points or contexts — leaving ranked order among
// tied candidates to chance.)
// Concurrent first calls may build the key twice; the results are
// identical and either pointer wins.
func (s *Segmentation) Key() string {
	if p := s.key.Load(); p != nil {
		return *p
	}
	var b strings.Builder
	b.WriteString(strings.Join(s.CutAttrs, ","))
	b.WriteByte('#')
	for i, q := range s.Queries {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(q.Key())
	}
	key := b.String()
	s.key.CompareAndSwap(nil, &key)
	return *s.key.Load()
}

// String summarizes the segmentation for logs and errors.
func (s *Segmentation) String() string {
	return fmt.Sprintf("segmentation on [%s] with %d segments", strings.Join(s.CutAttrs, ", "), len(s.Queries))
}

// singleton wraps a context query as a 1-segment segmentation, the
// unit COMPOSE and CUT build from. fp, when non-empty, is the table
// fingerprint count = |R(q)| was taken at, and the segmentation then
// carries the partition proof for context q.
func singleton(q sdl.Query, count int, fp string) *Segmentation {
	s := &Segmentation{Queries: []sdl.Query{q}, CutAttrs: nil, Counts: []int{count}}
	if fp != "" {
		s.proof = &partitionProof{fingerprint: fp, context: q.Key()}
	}
	return s
}

// mergeAttrs returns the sorted union of two attribute sets.
func mergeAttrs(a, b []string) []string {
	seen := make(map[string]struct{}, len(a)+len(b))
	out := make([]string, 0, len(a)+len(b))
	for _, s := range a {
		if _, ok := seen[s]; !ok {
			seen[s] = struct{}{}
			out = append(out, s)
		}
	}
	for _, s := range b {
		if _, ok := seen[s]; !ok {
			seen[s] = struct{}{}
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// addAttr returns the sorted union of attrs and one more attribute.
func addAttr(attrs []string, attr string) []string {
	return mergeAttrs(attrs, []string{attr})
}
