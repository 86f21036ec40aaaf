package sdl

import (
	"strings"
	"testing"
	"unsafe"

	"charles/internal/engine"
)

func TestRangeContains(t *testing.T) {
	r := Range{Lo: engine.Int(10), Hi: engine.Int(20), LoIncl: true, HiIncl: false}
	if !r.Contains(engine.Int(10)) || !r.Contains(engine.Int(19)) {
		t.Error("range excludes members")
	}
	if r.Contains(engine.Int(20)) || r.Contains(engine.Int(9)) {
		t.Error("range includes non-members")
	}
}

func TestRangeEmpty(t *testing.T) {
	if (Range{Lo: engine.Int(1), Hi: engine.Int(2), LoIncl: true, HiIncl: true}).Empty() {
		t.Error("[1,2] reported empty")
	}
	if !(Range{Lo: engine.Int(2), Hi: engine.Int(1), LoIncl: true, HiIncl: true}).Empty() {
		t.Error("[2,1] not reported empty")
	}
	if (Range{Lo: engine.Int(3), Hi: engine.Int(3), LoIncl: true, HiIncl: true}).Empty() {
		t.Error("[3,3] reported empty")
	}
	if !(Range{Lo: engine.Int(3), Hi: engine.Int(3), LoIncl: true, HiIncl: false}).Empty() {
		t.Error("[3,3) not reported empty")
	}
}

func TestSetCCanonicalizes(t *testing.T) {
	c := SetC("type", engine.String_("jacht"), engine.String_("fluit"), engine.String_("jacht"))
	if len(c.Set) != 2 {
		t.Fatalf("set = %v, want deduped pair", c.Set)
	}
	if c.Set[0].AsString() != "fluit" || c.Set[1].AsString() != "jacht" {
		t.Fatalf("set not sorted: %v", c.Set)
	}
}

func TestConstraintValidate(t *testing.T) {
	if err := Any("a").Validate(); err != nil {
		t.Errorf("Any invalid: %v", err)
	}
	if err := (Constraint{Attr: "", Kind: KindAny}).Validate(); err == nil {
		t.Error("empty attr accepted")
	}
	if err := (Constraint{Attr: "a", Kind: KindSet}).Validate(); err == nil {
		t.Error("empty set accepted")
	}
	if err := (Constraint{Attr: "a", Kind: KindRange}).Validate(); err == nil {
		t.Error("invalid range bounds accepted")
	}
	if err := ClosedRange("a", engine.Int(1), engine.Int(2)).Validate(); err != nil {
		t.Errorf("valid range rejected: %v", err)
	}
}

func TestNewQueryRejectsDuplicates(t *testing.T) {
	if _, err := NewQuery(Any("a"), Any("a")); err == nil {
		t.Fatal("duplicate predicate accepted")
	}
}

func TestQuerySortsConstraints(t *testing.T) {
	q := MustQuery(Any("zulu"), Any("alpha"), Any("mike"))
	attrs := q.Attrs()
	if attrs[0] != "alpha" || attrs[1] != "mike" || attrs[2] != "zulu" {
		t.Fatalf("attrs not canonical: %v", attrs)
	}
}

func TestWithConstraintReplaceAndAdd(t *testing.T) {
	q := MustQuery(Any("a"), Any("c"))
	q2 := q.WithConstraint(ClosedRange("a", engine.Int(1), engine.Int(5)))
	if c, _ := q2.Constraint("a"); c.Kind != KindRange {
		t.Fatal("replace failed")
	}
	if c, _ := q.Constraint("a"); c.Kind != KindAny {
		t.Fatal("WithConstraint mutated the receiver")
	}
	q3 := q2.WithConstraint(SetC("b", engine.String_("x")))
	attrs := q3.Attrs()
	if len(attrs) != 3 || attrs[0] != "a" || attrs[1] != "b" || attrs[2] != "c" {
		t.Fatalf("add kept order wrong: %v", attrs)
	}
	// Appending past the end also works.
	q4 := q3.WithConstraint(Any("zz"))
	if len(q4.Attrs()) != 4 || q4.Attrs()[3] != "zz" {
		t.Fatalf("append failed: %v", q4.Attrs())
	}
}

func TestQueryCounting(t *testing.T) {
	q := MustQuery(
		Any("built"),
		ClosedRange("tonnage", engine.Int(1000), engine.Int(5000)),
		SetC("type", engine.String_("fluit")),
	)
	if q.NumConstraints() != 2 {
		t.Fatalf("NumConstraints = %d, want 2", q.NumConstraints())
	}
	ca := q.ConstrainedAttrs()
	if len(ca) != 2 || ca[0] != "tonnage" || ca[1] != "type" {
		t.Fatalf("ConstrainedAttrs = %v", ca)
	}
}

func TestQueryStringCanonical(t *testing.T) {
	q := MustQuery(
		SetC("type", engine.String_("jacht"), engine.String_("fluit")),
		Any("built"),
		RangeC("tonnage", engine.Int(1000), engine.Int(1150), true, false),
	)
	want := "(built:, tonnage: [1000, 1150), type: {fluit, jacht})"
	if got := q.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if q.Key() != q.String() {
		t.Fatal("Key() must equal canonical string")
	}
}

func TestQueryEqual(t *testing.T) {
	a := MustQuery(Any("x"), ClosedRange("y", engine.Int(1), engine.Int(2)))
	b := MustQuery(ClosedRange("y", engine.Int(1), engine.Int(2)), Any("x"))
	if !a.Equal(b) {
		t.Fatal("order-insensitive equality failed")
	}
	c := MustQuery(Any("x"))
	if a.Equal(c) {
		t.Fatal("different queries reported equal")
	}
}

func TestZeroQuery(t *testing.T) {
	var q Query
	if q.String() != "()" || q.NumConstraints() != 0 || len(q.Attrs()) != 0 {
		t.Fatalf("zero query misbehaves: %q", q.String())
	}
}

func TestStringLiteralQuoting(t *testing.T) {
	q := MustQuery(SetC("master", engine.String_("Jan de Boer"), engine.String_("O'Neill"), engine.String_("true")))
	want := "(master: {'Jan de Boer', 'O''Neill', 'true'})"
	if got := q.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// renderKey is an independent statement of the canonical form: each
// constraint's surface syntax, in stored order, comma-joined inside
// parentheses.
func renderKey(q Query) string {
	parts := make([]string, 0, len(q.Constraints()))
	for _, c := range q.Constraints() {
		parts = append(parts, c.String())
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// TestQueryKeyRenderedOnce pins the key memo: every constructor leaves
// Key() and String() equal to the canonical rendering of the query it
// returns (a derived query never inherits its parent's key), the key
// survives a parse round trip, copies share its bytes, and a repeated
// Key() allocates nothing.
func TestQueryKeyRenderedOnce(t *testing.T) {
	tab := bindTable(t)
	base := MustQuery(Any("type"), RangeC("tonnage", engine.Int(100), engine.Int(300), true, false))
	with := base.WithConstraint(SetC("type", engine.String_("jacht"), engine.String_("fluit")))
	added := base.WithConstraint(ClosedRange("departure", engine.Date(0), engine.Date(50)))
	conj, ok, err := Conjoin(base, MustQuery(ClosedRange("tonnage", engine.Int(200), engine.Int(400)), Any("armed")))
	if err != nil || !ok {
		t.Fatalf("Conjoin: ok=%v err=%v", ok, err)
	}
	parsed := MustParse("(type: {fluit}, tonnage: [1, 2), speed:)")
	bound, err := ParseBound("type: {fluit, 'O''Neill'}, departure: [1600-01-01, 1650-12-31], armed: {true}", tab)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]Query{
		"zero": {}, "NewQuery": base, "WithConstraint/replace": with, "WithConstraint/insert": added,
		"Conjoin": conj, "Parse": parsed, "ParseBound": bound,
	}
	for name, q := range cases {
		want := renderKey(q)
		if q.Key() != want || q.String() != want {
			t.Errorf("%s: Key() = %q, String() = %q, want %q", name, q.Key(), q.String(), want)
		}
		back, err := Parse(q.Key())
		if err != nil || back.Key() != q.Key() {
			t.Errorf("%s: Parse(Key()) = %q, %v; want %q", name, back.Key(), err, q.Key())
		}
		cp := q
		if q.key != "" && unsafe.StringData(cp.Key()) != unsafe.StringData(q.Key()) {
			t.Errorf("%s: a copy re-rendered its key", name)
		}
		if n := testing.AllocsPerRun(100, func() { _ = q.Key() }); n != 0 {
			t.Errorf("%s: Key() allocates %.1f/op", name, n)
		}
	}
	if got := base.Key(); got != "(tonnage: [100, 300), type:)" {
		t.Fatalf("WithConstraint changed its receiver's key: %q", got)
	}
}
