package engine

import (
	"math"
	"slices"
	"testing"
	"time"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindInt: "int", KindFloat: "float", KindString: "string",
		KindDate: "date", KindBool: "bool", KindInvalid: "invalid",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindInt, KindFloat, KindString, KindDate, KindBool} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("decimal"); err == nil {
		t.Error("ParseKind accepted unknown kind")
	}
}

func TestKindNumeric(t *testing.T) {
	for k, want := range map[Kind]bool{
		KindInt: true, KindFloat: true, KindDate: true,
		KindString: false, KindBool: false,
	} {
		if k.Numeric() != want {
			t.Errorf("%v.Numeric() = %v, want %v", k, k.Numeric(), want)
		}
	}
}

func TestValueAccessors(t *testing.T) {
	if v := Int(42); v.Kind() != KindInt || v.AsInt() != 42 || v.AsFloat() != 42 {
		t.Error("Int value broken")
	}
	if v := Float(2.5); v.Kind() != KindFloat || v.AsFloat() != 2.5 {
		t.Error("Float value broken")
	}
	if v := String_("jacht"); v.Kind() != KindString || v.AsString() != "jacht" {
		t.Error("String value broken")
	}
	if v := Bool(true); v.Kind() != KindBool || !v.AsBool() {
		t.Error("Bool value broken")
	}
	if v := Date(0); v.Kind() != KindDate || v.String() != "1970-01-01" {
		t.Errorf("Date(0) = %q, want 1970-01-01", v.String())
	}
}

func TestValueCompare(t *testing.T) {
	if Int(1).Compare(Int(2)) != -1 || Int(2).Compare(Int(1)) != 1 || Int(2).Compare(Int(2)) != 0 {
		t.Error("int compare broken")
	}
	if String_("a").Compare(String_("b")) != -1 {
		t.Error("string compare broken")
	}
	// Numeric kinds interoperate.
	if Int(3).Compare(Float(3.5)) != -1 {
		t.Error("int/float compare broken")
	}
	if Date(10).Compare(Int(10)) != 0 {
		t.Error("date/int compare broken")
	}
}

func TestValueComparePanicsOnMixedString(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic comparing string with int")
		}
	}()
	String_("a").Compare(Int(1))
}

func TestValueEqual(t *testing.T) {
	if !Int(5).Equal(Int(5)) || Int(5).Equal(Int(6)) {
		t.Error("int equality broken")
	}
	if Int(5).Equal(Float(5)) {
		t.Error("cross-kind values must not be equal")
	}
	if !String_("x").Equal(String_("x")) {
		t.Error("string equality broken")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(-7), "-7"},
		{Float(1.25), "1.25"},
		{String_("fluit"), "fluit"},
		{Bool(false), "false"},
		{Date(DaysFromDate(1650, time.March, 15)), "1650-03-15"},
		{Value{}, "<invalid>"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestDateRoundTrip(t *testing.T) {
	for _, s := range []string{"1602-03-20", "1970-01-01", "2026-06-10", "1799-12-31"} {
		days, err := ParseDays(s)
		if err != nil {
			t.Fatalf("ParseDays(%q): %v", s, err)
		}
		if got := FormatDays(days); got != s {
			t.Errorf("round trip %q -> %d -> %q", s, days, got)
		}
	}
	if _, err := ParseDays("20-03-1602"); err == nil {
		t.Error("ParseDays accepted non-ISO date")
	}
}

func TestDaysFromDateEpoch(t *testing.T) {
	if d := DaysFromDate(1970, time.January, 1); d != 0 {
		t.Fatalf("epoch days = %d, want 0", d)
	}
	if d := DaysFromDate(1970, time.January, 2); d != 1 {
		t.Fatalf("epoch+1 days = %d, want 1", d)
	}
}

// TestFloatColumnCanonicalValues pins how a float column stores its
// values (docs/SEMANTICS.md §1): −0 reads back as +0, every NaN
// payload as the one NaN math.NaN() returns, and every other value —
// ±Inf, subnormals, ±MaxFloat64 — bit-exact, through Float64 and
// Value alike and after an append. The ordinals order the numbers
// as float comparison does, NaN's below all of them.
func TestFloatColumnCanonicalValues(t *testing.T) {
	negZero := math.Copysign(0, -1)
	sub := math.SmallestNonzeroFloat64
	in := []float64{
		negZero, 0, math.NaN(),
		math.Float64frombits(0xfff8000000000001), // negative quiet NaN
		math.Float64frombits(0x7ff0000000000001), // signaling NaN
		math.Float64frombits(0x7fffffffffffffff), // all-ones payload
		math.Inf(1), math.Inf(-1), sub, -sub, 2 * sub, -2 * sub,
		math.MaxFloat64, -math.MaxFloat64, 1.5, -2.25,
	}
	canonical := func(v float64) uint64 {
		switch {
		case v == 0:
			return 0
		case v != v:
			return math.Float64bits(math.NaN())
		}
		return math.Float64bits(v)
	}
	col := NewFloatColumn("v", slices.Clone(in[:len(in)-1]))
	col.appendValue(Float(in[len(in)-1]))
	for r, v := range in {
		for _, got := range []float64{col.Float64(r), col.Value(r).AsFloat()} {
			if math.Float64bits(got) != canonical(v) {
				t.Fatalf("row %d stored %v (%#x): read back %#x, want %#x", r, v, math.Float64bits(v), math.Float64bits(got), canonical(v))
			}
		}
	}
	ords := col.Int64s()
	for i, a := range in {
		for j, b := range in {
			switch {
			case a != a && b == b:
				if ords[i] >= ords[j] {
					t.Fatalf("NaN's ordinal %d not below %v's %d", ords[i], b, ords[j])
				}
			case a == a && b == b && (a < b) != (ords[i] < ords[j]):
				t.Fatalf("%v < %v is %v, ordinals %d < %d is not", a, b, a < b, ords[i], ords[j])
			}
		}
	}
}
