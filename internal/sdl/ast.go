// Package sdl implements the Segmentation Description Language of
// Section 2: conjunctive queries whose predicates are range
// constraints, set constraints, or no constraint at all, over the
// columns of a single relation. The package provides the AST, a
// parser and canonical printer (round-trip safe), constraint algebra
// (intersection, containment), schema binding, and translation to
// SQL WHERE clauses — Charles is "a front-end for SQL systems".
package sdl

import (
	"fmt"
	"sort"
	"strings"

	"charles/internal/engine"
)

// ConstraintKind discriminates the three predicate forms of
// Definition 1.
type ConstraintKind uint8

// The three predicate forms.
const (
	// KindAny is "no constraint": Attr : .
	KindAny ConstraintKind = iota
	// KindRange is a range constraint: Attr : [a0, a1].
	KindRange
	// KindSet is a set constraint: Attr : {a0, ..., aK}.
	KindSet
)

// String names the constraint kind.
func (k ConstraintKind) String() string {
	switch k {
	case KindAny:
		return "any"
	case KindRange:
		return "range"
	case KindSet:
		return "set"
	default:
		return "invalid"
	}
}

// Range is an interval with independently inclusive bounds. The
// paper's surface syntax only shows closed ranges [a0, a1]; cuts
// produce half-open ranges [min, med[, so the printed syntax is
// extended with ')' and '(' delimiters (documented deviation).
type Range struct {
	Lo, Hi         engine.Value
	LoIncl, HiIncl bool
}

// Contains reports whether v lies inside the range. Values must be
// comparable with the bounds (same kind family).
func (r Range) Contains(v engine.Value) bool {
	lo := v.Compare(r.Lo)
	if lo < 0 || (lo == 0 && !r.LoIncl) {
		return false
	}
	hi := v.Compare(r.Hi)
	if hi > 0 || (hi == 0 && !r.HiIncl) {
		return false
	}
	return true
}

// Empty reports whether the range provably contains no value of a
// continuous domain: lo > hi, or lo == hi with an exclusive end.
func (r Range) Empty() bool {
	c := r.Lo.Compare(r.Hi)
	if c > 0 {
		return true
	}
	if c == 0 {
		return !(r.LoIncl && r.HiIncl)
	}
	return false
}

// Constraint is one SDL predicate over a named attribute.
type Constraint struct {
	Attr string
	Kind ConstraintKind
	// Range holds the bounds for KindRange constraints.
	Range Range
	// Set holds the admitted values for KindSet constraints, kept
	// sorted and duplicate-free (canonical form).
	Set []engine.Value
}

// Any returns the unconstrained predicate Attr : .
func Any(attr string) Constraint {
	return Constraint{Attr: attr, Kind: KindAny}
}

// RangeC returns the range predicate Attr : lo..hi with the given
// bound inclusivity.
func RangeC(attr string, lo, hi engine.Value, loIncl, hiIncl bool) Constraint {
	return Constraint{Attr: attr, Kind: KindRange, Range: Range{Lo: lo, Hi: hi, LoIncl: loIncl, HiIncl: hiIncl}}
}

// ClosedRange returns the paper's closed range Attr : [lo, hi].
func ClosedRange(attr string, lo, hi engine.Value) Constraint {
	return RangeC(attr, lo, hi, true, true)
}

// SetC returns the set predicate Attr : {vals...}, canonicalized.
func SetC(attr string, vals ...engine.Value) Constraint {
	return Constraint{Attr: attr, Kind: KindSet, Set: canonicalSet(vals)}
}

func canonicalSet(vals []engine.Value) []engine.Value {
	out := make([]engine.Value, 0, len(vals))
	out = append(out, vals...)
	sort.Slice(out, func(i, j int) bool { return valueLess(out[i], out[j]) })
	dedup := out[:0]
	for i, v := range out {
		if i == 0 || !v.Equal(out[i-1]) {
			dedup = append(dedup, v)
		}
	}
	return dedup
}

// valueLess orders values of mixed kinds deterministically: by kind
// family first, then by value. Within a single column all values
// share a kind, so this only matters for canonical sorting.
func valueLess(a, b engine.Value) bool {
	ka, kb := kindFamily(a.Kind()), kindFamily(b.Kind())
	if ka != kb {
		return ka < kb
	}
	switch ka {
	case familyString:
		return a.AsString() < b.AsString()
	default:
		return a.AsFloat() < b.AsFloat()
	}
}

type family uint8

const (
	familyNumeric family = iota
	familyString
	familyBool
)

func kindFamily(k engine.Kind) family {
	switch k {
	case engine.KindString:
		return familyString
	case engine.KindBool:
		return familyBool
	default:
		return familyNumeric
	}
}

// IsAny reports whether the constraint carries no restriction.
func (c Constraint) IsAny() bool { return c.Kind == KindAny }

// Validate checks structural well-formedness.
func (c Constraint) Validate() error {
	if c.Attr == "" {
		return fmt.Errorf("sdl: constraint with empty attribute")
	}
	switch c.Kind {
	case KindAny:
		return nil
	case KindRange:
		if c.Range.Lo.Kind() == engine.KindInvalid || c.Range.Hi.Kind() == engine.KindInvalid {
			return fmt.Errorf("sdl: %s: range with invalid bound", c.Attr)
		}
		if kindFamily(c.Range.Lo.Kind()) == familyString {
			// Ranges over strings are representable but never produced;
			// allow them (lexicographic) for completeness.
			return nil
		}
		return nil
	case KindSet:
		if len(c.Set) == 0 {
			return fmt.Errorf("sdl: %s: empty set constraint", c.Attr)
		}
		return nil
	default:
		return fmt.Errorf("sdl: %s: invalid constraint kind", c.Attr)
	}
}

// Query is a conjunction of predicates (Definition 2), at most one
// per attribute, kept sorted by attribute name. The zero Query has
// no predicates and selects everything. Queries are immutable;
// mutating operations return copies.
type Query struct {
	constraints []Constraint
	// key is the canonical form, rendered once by the constructors.
	// Every cache in the evaluator looks a query up by it, several
	// times per advise step, so copies share it instead of
	// re-rendering. It is empty only in the zero Query.
	key string
}

// newQuery wraps constraints already in canonical order and renders
// their key.
func newQuery(cs []Constraint) Query {
	return Query{constraints: cs, key: render(cs)}
}

// NewQuery builds a query from predicates, validating each and
// rejecting duplicate attributes.
func NewQuery(cs ...Constraint) (Query, error) {
	sorted := make([]Constraint, len(cs))
	copy(sorted, cs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Attr < sorted[j].Attr })
	for i, c := range sorted {
		if err := c.Validate(); err != nil {
			return Query{}, err
		}
		if i > 0 && sorted[i-1].Attr == c.Attr {
			return Query{}, fmt.Errorf("sdl: duplicate predicate on %q", c.Attr)
		}
	}
	return newQuery(sorted), nil
}

// MustQuery is NewQuery that panics on error, for static queries in
// tests and examples.
func MustQuery(cs ...Constraint) Query {
	q, err := NewQuery(cs...)
	if err != nil {
		panic(err)
	}
	return q
}

// Constraints returns the predicates in canonical (attribute) order.
// The slice must not be mutated.
func (q Query) Constraints() []Constraint { return q.constraints }

// Constraint returns the predicate on attr, if present.
func (q Query) Constraint(attr string) (Constraint, bool) {
	for _, c := range q.constraints {
		if c.Attr == attr {
			return c, true
		}
	}
	return Constraint{}, false
}

// WithConstraint returns a copy of q where the predicate on c.Attr
// is replaced (or added). This is how CUT refines a query.
func (q Query) WithConstraint(c Constraint) Query {
	out := make([]Constraint, 0, len(q.constraints)+1)
	inserted := false
	for _, existing := range q.constraints {
		switch {
		case existing.Attr == c.Attr:
			out = append(out, c)
			inserted = true
		case existing.Attr > c.Attr && !inserted:
			out = append(out, c, existing)
			inserted = true
		default:
			out = append(out, existing)
		}
	}
	if !inserted {
		out = append(out, c)
	}
	return newQuery(out)
}

// Attrs returns every attribute the query mentions, constrained or
// not, in canonical order.
func (q Query) Attrs() []string {
	out := make([]string, len(q.constraints))
	for i, c := range q.constraints {
		out[i] = c.Attr
	}
	return out
}

// ConstrainedAttrs returns the attributes carrying a real (non-Any)
// predicate, in canonical order.
func (q Query) ConstrainedAttrs() []string {
	out := make([]string, 0, len(q.constraints))
	for _, c := range q.constraints {
		if !c.IsAny() {
			out = append(out, c.Attr)
		}
	}
	return out
}

// NumConstraints counts the real (non-Any) predicates — the per-
// query ingredient of the simplicity metric P(S) of Section 3.
func (q Query) NumConstraints() int {
	n := 0
	for _, c := range q.constraints {
		if !c.IsAny() {
			n++
		}
	}
	return n
}

// Equal reports whether two queries have identical canonical forms.
func (q Query) Equal(o Query) bool { return q.Key() == o.Key() }

// Key returns the canonical cache key for the query (its canonical
// string form; constraints and sets are always kept sorted).
func (q Query) Key() string {
	if q.key == "" {
		return "()" // the zero Query
	}
	return q.key
}

var _ fmt.Stringer = Query{}

// String renders the canonical SDL form, e.g.
// (date: [1550-01-01, 1650-12-31], tonnage:, type: {fluit, jacht}).
func (q Query) String() string { return q.Key() }

// render is the canonical SDL form of constraints in canonical order.
func render(cs []Constraint) string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range cs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.String())
	}
	b.WriteByte(')')
	return b.String()
}

// String renders one predicate in SDL surface syntax.
func (c Constraint) String() string {
	var b strings.Builder
	b.WriteString(c.Attr)
	b.WriteByte(':')
	switch c.Kind {
	case KindAny:
		// nothing after the colon
	case KindRange:
		b.WriteByte(' ')
		if c.Range.LoIncl {
			b.WriteByte('[')
		} else {
			b.WriteByte('(')
		}
		b.WriteString(formatLiteral(c.Range.Lo))
		b.WriteString(", ")
		b.WriteString(formatLiteral(c.Range.Hi))
		if c.Range.HiIncl {
			b.WriteByte(']')
		} else {
			b.WriteByte(')')
		}
	case KindSet:
		b.WriteString(" {")
		for i, v := range c.Set {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(formatLiteral(v))
		}
		b.WriteByte('}')
	}
	return b.String()
}

// formatLiteral renders a value as a parseable SDL literal: strings
// are quoted when they could be mistaken for other token types or
// contain delimiters.
func formatLiteral(v engine.Value) string {
	if v.Kind() != engine.KindString {
		return v.String()
	}
	s := v.AsString()
	if needsQuoting(s) {
		return "'" + strings.ReplaceAll(s, "'", "''") + "'"
	}
	return s
}

func needsQuoting(s string) bool {
	if s == "" || s == "true" || s == "false" {
		return true
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9', r == '-', r == '.':
			// allowed inside, but a leading digit/sign/dot lexes as a
			// number or date, so quote those below
		default:
			return true
		}
	}
	r := rune(s[0])
	if (r >= '0' && r <= '9') || r == '-' || r == '.' {
		return true
	}
	return false
}
