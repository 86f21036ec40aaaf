package sdl

import (
	"math/rand"
	"strings"
	"testing"

	"charles/internal/engine"
)

func TestParsePaperExample(t *testing.T) {
	// The query from Section 2:
	// (date : [1550,1650], tonnage :, type : {'jacht', 'fluit'})
	q, err := Parse("(date : [1550, 1650], tonnage :, type : {'jacht', 'fluit'})")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Attrs()) != 3 || q.NumConstraints() != 2 {
		t.Fatalf("parsed shape wrong: %s", q)
	}
	d, _ := q.Constraint("date")
	if d.Kind != KindRange || d.Range.Lo.AsInt() != 1550 || !d.Range.HiIncl {
		t.Fatalf("date constraint = %+v", d)
	}
	ty, _ := q.Constraint("type")
	if ty.Kind != KindSet || len(ty.Set) != 2 {
		t.Fatalf("type constraint = %+v", ty)
	}
	if to, _ := q.Constraint("tonnage"); to.Kind != KindAny {
		t.Fatalf("tonnage constraint = %+v", to)
	}
}

func TestParseWithoutParens(t *testing.T) {
	q, err := Parse("tonnage: [1000, 5000], type_of_boat:")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Attrs()) != 2 {
		t.Fatalf("attrs = %v", q.Attrs())
	}
}

func TestParseEmpty(t *testing.T) {
	for _, in := range []string{"", "()", "  "} {
		q, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if len(q.Attrs()) != 0 {
			t.Fatalf("Parse(%q) = %s", in, q)
		}
	}
}

func TestParseLiteralKinds(t *testing.T) {
	q := MustParse("a: {1, 2.5, 1650-03-15, word, 'quoted one', true}")
	c, _ := q.Constraint("a")
	kinds := map[engine.Kind]int{}
	for _, v := range c.Set {
		kinds[v.Kind()]++
	}
	if kinds[engine.KindInt] != 1 || kinds[engine.KindFloat] != 1 ||
		kinds[engine.KindDate] != 1 || kinds[engine.KindString] != 2 ||
		kinds[engine.KindBool] != 1 {
		t.Fatalf("literal kinds = %v", kinds)
	}
}

func TestParseHalfOpenRange(t *testing.T) {
	q := MustParse("ton: [1000, 1150)")
	c, _ := q.Constraint("ton")
	if !c.Range.LoIncl || c.Range.HiIncl {
		t.Fatalf("inclusivity = %+v", c.Range)
	}
	q = MustParse("ton: (1000, 1150]")
	c, _ = q.Constraint("ton")
	if c.Range.LoIncl || !c.Range.HiIncl {
		t.Fatalf("inclusivity = %+v", c.Range)
	}
}

func TestParseNegativeAndFloatNumbers(t *testing.T) {
	q := MustParse("x: [-10, 3.5]")
	c, _ := q.Constraint("x")
	if c.Range.Lo.AsInt() != -10 || c.Range.Hi.AsFloat() != 3.5 {
		t.Fatalf("bounds = %+v", c.Range)
	}
}

func TestParseDates(t *testing.T) {
	q := MustParse("departure: [1650-01-01, 1651-12-31]")
	c, _ := q.Constraint("departure")
	if c.Range.Lo.Kind() != engine.KindDate || c.Range.Lo.String() != "1650-01-01" {
		t.Fatalf("lo = %v", c.Range.Lo)
	}
}

func TestParseQuotedEscapes(t *testing.T) {
	q := MustParse("m: {'O''Neill'}")
	c, _ := q.Constraint("m")
	if c.Set[0].AsString() != "O'Neill" {
		t.Fatalf("escape = %q", c.Set[0].AsString())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"(a:",                 // unclosed paren
		"a: [1, 2",            // unclosed range
		"a: {1, }",            // dangling comma in set
		"a: {}",               // empty set
		"a: [1 2]",            // missing comma
		"a",                   // missing colon
		"a: [1, 2] b: [3, 4]", // missing comma between predicates
		"a: 'unterminated",    // unterminated string
		"a: {1, 2}, a: {3}",   // duplicate attribute
		"1a: {1}",             // bad identifier
		"a: [1-2, 3]",         // malformed literal
		"a: @",                // stray character
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestParseWhitespaceInsensitive(t *testing.T) {
	a := MustParse("(a:[1,2],b:{x,y},c:)")
	b := MustParse(" ( a : [ 1 , 2 ] ,\n b : { x , y } , c : ) ")
	if !a.Equal(b) {
		t.Fatalf("whitespace changed parse: %s vs %s", a, b)
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	queries := []Query{
		MustQuery(Any("a")),
		MustQuery(ClosedRange("tonnage", engine.Int(1000), engine.Int(5000)), Any("built")),
		MustQuery(RangeC("t", engine.Float(1.5), engine.Float(2.5), true, false)),
		MustQuery(SetC("h", engine.String_("bantam"), engine.String_("Ram men kens"))),
		MustQuery(RangeC("d", engine.Date(0), engine.Date(1000), false, true)),
		MustQuery(SetC("armed", engine.Bool(true))),
		MustQuery(SetC("weird", engine.String_("3rd-value"), engine.String_("o'brien"), engine.String_(""))),
		{},
	}
	for _, q := range queries {
		back, err := Parse(q.String())
		if err != nil {
			t.Fatalf("round trip parse of %q: %v", q.String(), err)
		}
		if !q.Equal(back) {
			t.Fatalf("round trip changed query: %q -> %q", q.String(), back.String())
		}
	}
}

func TestPrintParseRoundTripRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	words := []string{"fluit", "jacht", "pinas", "de Ruyter", "O'Neill", "x-1", "1999", "true"}
	for trial := 0; trial < 200; trial++ {
		var cs []Constraint
		nAttrs := 1 + rng.Intn(4)
		for i := 0; i < nAttrs; i++ {
			attr := string(rune('a'+i)) + "_col"
			switch rng.Intn(3) {
			case 0:
				cs = append(cs, Any(attr))
			case 1:
				lo := rng.Int63n(1000)
				hi := lo + rng.Int63n(1000)
				cs = append(cs, RangeC(attr, engine.Int(lo), engine.Int(hi), rng.Intn(2) == 0, rng.Intn(2) == 0))
			default:
				n := 1 + rng.Intn(3)
				vals := make([]engine.Value, n)
				for j := range vals {
					vals[j] = engine.String_(words[rng.Intn(len(words))])
				}
				cs = append(cs, SetC(attr, vals...))
			}
		}
		q := MustQuery(cs...)
		back, err := Parse(q.String())
		if err != nil {
			t.Fatalf("trial %d: parse %q: %v", trial, q.String(), err)
		}
		if !q.Equal(back) {
			t.Fatalf("trial %d: %q -> %q", trial, q.String(), back.String())
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic on bad input")
		}
	}()
	MustParse("(((")
}

func TestParseErrorMessagesCarryOffsets(t *testing.T) {
	_, err := Parse("a: [1, 2")
	if err == nil || !strings.Contains(err.Error(), "offset") {
		t.Fatalf("error %v lacks offset", err)
	}
}

// TestLiteralTable runs each expr through Parse then Bind, and through
// ParseBound, on a table with a float, an int, a date and a string
// column: both must fail with an error holding wantErr, or give the
// query whose key is want, which itself parses and binds back to want.
// The rendered pieces of a float cut — its ±Inf bounds and its {NaN}
// piece — are among them.
func TestLiteralTable(t *testing.T) {
	tab := engine.MustNewTable("lits",
		engine.NewFloatColumn("f", []float64{1}),
		engine.NewIntColumn("i", []int64{1}),
		engine.NewDateColumn("d", []int64{0}),
		engine.NewStringColumn("s", []string{"x"}),
	)
	bind := func(expr string) (Query, error) {
		q, err := Parse(expr)
		if err != nil {
			return Query{}, err
		}
		return Bind(q, tab)
	}
	for _, tc := range []struct{ expr, want, wantErr string }{
		{expr: "(f: [49, +Inf])", want: "(f: [49, +Inf])"},
		{expr: "(f: [-Inf, 2])", want: "(f: [-Inf, 2])"},
		{expr: "(f: {NaN})", want: "(f: {NaN})"},
		{expr: "(f: [1, Inf])", want: "(f: [1, +Inf])"},
		{expr: "(f: {2, NaN, -Inf, 2.0})", want: "(f: {NaN, -Inf, 2})"},
		{expr: "(f: [-0, 1e+06))", want: "(f: [0, 1e+06))"},
		{expr: "(f: (-0.0, 1e-5])", want: "(f: (0, 1e-05])"},
		{expr: "(f: [+Infinity, 2])", wantErr: "malformed number"},
		{expr: "(f: [NaN, 2])", wantErr: "NaN cannot bound a range"},
		{expr: "(i: {NaN})", wantErr: `cannot use string literal "NaN" on a int column`},
		{expr: "(i: [1, +Inf])", wantErr: `cannot use float literal "+Inf" on a int column`},
		{expr: "(i: [-5, 9.0])", want: "(i: [-5, 9])"},
		{expr: "(d: [1650-03-15, 1700-01-01))", want: "(d: [1650-03-15, 1700-01-01))"},
		{expr: "(d: [1650-03, 1700-01-01])", wantErr: "malformed literal"},
		{expr: "(s: {'NaN', Inf, 'O''Neill', '3rd', '+Inf'})", want: "(s: {'+Inf', '3rd', Inf, NaN, 'O''Neill'})"},
		{expr: "(s: {'unterminated})", wantErr: "unterminated string"},
	} {
		got, err := bind(tc.expr)
		once, onceErr := ParseBound(tc.expr, tab)
		if (err == nil) != (onceErr == nil) || err == nil && got.Key() != once.Key() {
			t.Fatalf("%s: Parse then Bind gave %v (%v), ParseBound %v (%v)", tc.expr, got, err, once, onceErr)
		}
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("%s: error %v, want one holding %q", tc.expr, err, tc.wantErr)
			}
			continue
		}
		if err != nil || got.Key() != tc.want {
			t.Fatalf("%s: got %v (%v), want %s", tc.expr, got, err, tc.want)
		}
		if back, err := bind(got.Key()); err != nil || back.Key() != tc.want {
			t.Fatalf("%s: key %s binds back to %v (%v)", tc.expr, got.Key(), back, err)
		}
	}
}

// FuzzParse holds parse ∘ print to a fixed point: Parse never panics,
// and a query it accepts renders a key that parses back to the same
// key. The seeds include the rendered pieces of float cuts.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"(f: [49, +Inf])", "(f: [-Inf, 2])", "(f: {NaN})", "(f: [1, Inf])",
		"(f: {NaN, -Inf, 2})", "(f: [-0, 1e+06))", "(d: [1650-03-15, 1700-01-01), s: {'O''Neill', x})",
		"(a: {1, 1.0, 1970-01-01, 0}, b:, c: (true, false])",
		"(a: {9007199254740993, 9007199254740992.0, 9007199254740992, 9.3e18, -0.0, 0})",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		q, err := Parse(in)
		if err != nil {
			return
		}
		back, err := Parse(q.Key())
		if err != nil {
			t.Fatalf("%q: key %q does not parse: %v", in, q.Key(), err)
		}
		if back.Key() != q.Key() {
			t.Fatalf("%q: key %q parses back to %q", in, q.Key(), back.Key())
		}
	})
}
