package sdl

import (
	"math"
	"testing"

	"charles/internal/engine"
)

func TestWhereClauseEmpty(t *testing.T) {
	if got := WhereClause(MustQuery(Any("a"), Any("b"))); got != "TRUE" {
		t.Fatalf("WhereClause = %q, want TRUE", got)
	}
	if got := WhereClause(Query{}); got != "TRUE" {
		t.Fatalf("WhereClause(zero) = %q", got)
	}
}

func TestWhereClauseRange(t *testing.T) {
	q := MustQuery(RangeC("tonnage", engine.Int(1000), engine.Int(1150), true, false))
	want := "tonnage >= 1000 AND tonnage < 1150"
	if got := WhereClause(q); got != want {
		t.Fatalf("WhereClause = %q, want %q", got, want)
	}
	q = MustQuery(RangeC("t", engine.Int(1), engine.Int(2), false, true))
	want = "t > 1 AND t <= 2"
	if got := WhereClause(q); got != want {
		t.Fatalf("WhereClause = %q, want %q", got, want)
	}
}

func TestWhereClauseSet(t *testing.T) {
	q := MustQuery(SetC("type", engine.String_("fluit"), engine.String_("jacht")))
	want := "type IN ('fluit', 'jacht')"
	if got := WhereClause(q); got != want {
		t.Fatalf("WhereClause = %q, want %q", got, want)
	}
	q = MustQuery(SetC("type", engine.String_("fluit")))
	want = "type = 'fluit'"
	if got := WhereClause(q); got != want {
		t.Fatalf("singleton set = %q, want %q", got, want)
	}
}

func TestWhereClauseQuotingAndKinds(t *testing.T) {
	q := MustQuery(
		SetC("master", engine.String_("O'Neill")),
		ClosedRange("departure", engine.Date(0), engine.Date(1)),
		SetC("armed", engine.Bool(true)),
	)
	got := WhereClause(q)
	want := "armed = TRUE AND departure >= DATE '1970-01-01' AND departure <= DATE '1970-01-02' AND master = 'O''Neill'"
	if got != want {
		t.Fatalf("WhereClause = %q\nwant          %q", got, want)
	}
}

// TestWhereClauseNonFiniteFloats pins the spelling of NaN and the
// infinities, bound from SDL over float columns, in the PostgreSQL
// and DuckDB form, and that finite floats keep theirs.
func TestWhereClauseNonFiniteFloats(t *testing.T) {
	tab := engine.MustNewTable("t",
		engine.NewFloatColumn("f", []float64{2.5, math.NaN()}),
		engine.NewFloatColumn("g", []float64{1.5, math.Inf(1)}))
	const (
		nan    = "CAST('NaN' AS DOUBLE PRECISION)"
		inf    = "CAST('Infinity' AS DOUBLE PRECISION)"
		negInf = "CAST('-Infinity' AS DOUBLE PRECISION)"
	)
	for _, tc := range []struct{ query, want string }{
		{"(f: {NaN, 2.5}, g: [1.5, +Inf])", "f IN (" + nan + ", 2.5) AND g >= 1.5 AND g <= " + inf},
		{"(f: {NaN})", "f = " + nan},
		{"(f: [-Inf, Inf))", "f >= " + negInf + " AND f < " + inf},
		{"(g: {-Inf, 1e300, -0.25})", "g IN (" + negInf + ", -0.25, 1e+300)"},
	} {
		q, err := ParseBound(tc.query, tab)
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		if got := WhereClause(q); got != tc.want {
			t.Errorf("WhereClause(%s) = %q, want %q", tc.query, got, tc.want)
		}
	}
}

func TestSelectCountAndStar(t *testing.T) {
	q := MustQuery(ClosedRange("tonnage", engine.Int(1), engine.Int(2)))
	if got := SelectCount(q, "voyages"); got != "SELECT COUNT(*) FROM voyages WHERE tonnage >= 1 AND tonnage <= 2" {
		t.Fatalf("SelectCount = %q", got)
	}
	if got := SelectStar(q, "voyages"); got != "SELECT * FROM voyages WHERE tonnage >= 1 AND tonnage <= 2" {
		t.Fatalf("SelectStar = %q", got)
	}
}

func TestQuoteIdent(t *testing.T) {
	q := MustQuery(ClosedRange("weird col", engine.Int(1), engine.Int(2)))
	got := WhereClause(q)
	want := `"weird col" >= 1 AND "weird col" <= 2`
	if got != want {
		t.Fatalf("WhereClause = %q, want %q", got, want)
	}
	if got := SelectCount(Query{}, "Table"); got != `SELECT COUNT(*) FROM "Table" WHERE TRUE` {
		t.Fatalf("SelectCount = %q", got)
	}
	if got := SelectStar(MustQuery(SetC("user", engine.String_("x"))), "order"); got != `SELECT * FROM "order" WHERE "user" = 'x'` {
		t.Fatalf("SelectStar = %q", got)
	}
	// PostgreSQL's reserved key words, of both reserved categories, are
	// quoted; names that merely contain one are not.
	for _, tc := range []struct{ name, want string }{
		{"user", `"user"`},
		{"order", `"order"`},
		{"group", `"group"`},
		{"select", `"select"`},
		{"current_user", `"current_user"`},
		{"analyse", `"analyse"`},
		{"with", `"with"`},
		{"left", `"left"`},
		{"is", `"is"`},
		{"authorization", `"authorization"`},
		{"verbose", `"verbose"`},
		{"users", "users"},
		{"ordered", "ordered"},
		{"type", "type"},
		{"date", "date"},
		{"tonnage", "tonnage"},
		{"_x9", "_x9"},
		{"User", `"User"`},
		{"9lives", `"9lives"`},
		{`a"b`, `"a""b"`},
	} {
		if got := quoteIdent(tc.name); got != tc.want {
			t.Errorf("quoteIdent(%q) = %s, want %s", tc.name, got, tc.want)
		}
	}
}
