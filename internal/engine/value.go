// Package engine is the columnar storage substrate Charles runs on.
// It plays the role MonetDB plays in the paper: it stores one
// relation as typed column vectors and supports the two operations
// the advisor needs — counts over conjunctive predicates and
// medians/quantiles within a selection — with column-at-a-time
// execution over power-of-two row-range chunks and per-chunk zone
// maps. A deliberately naive row-store executor is included so the
// paper's column-vs-row claim (Section 5.1) can be measured.
//
// Where the column bytes live is abstracted behind ColumnBackend:
// MemoryBackend holds ordinary Go slices, and internal/colfile
// serves zero-copy views over a memory-mapped columnar file
// (docs/FORMAT.md). Everything above
// the backend seam — filters, medians, chunk pruning, the advisor —
// is identical for both, which the round-trip tests pin by comparing
// rendered advise output byte for byte.
package engine

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// Kind enumerates the value types the engine stores.
type Kind uint8

// Supported kinds. Dates are stored as days since the Unix epoch and
// behave like integers for cutting purposes.
const (
	KindInvalid Kind = iota
	KindInt
	KindFloat
	KindString
	KindDate
	KindBool
)

// String returns the lower-case kind name used in schemas.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindDate:
		return "date"
	case KindBool:
		return "bool"
	default:
		return "invalid"
	}
}

// ParseKind parses a schema kind name as produced by Kind.String.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "int":
		return KindInt, nil
	case "float":
		return KindFloat, nil
	case "string":
		return KindString, nil
	case "date":
		return KindDate, nil
	case "bool":
		return KindBool, nil
	default:
		return KindInvalid, fmt.Errorf("engine: unknown kind %q", s)
	}
}

// Numeric reports whether values of this kind are cut with range
// constraints (as opposed to set constraints on nominal values).
func (k Kind) Numeric() bool {
	return k == KindInt || k == KindFloat || k == KindDate
}

// Value is a dynamically typed scalar. Ints, dates (days since
// epoch) and bools share the integer payload; floats and strings use
// their own. Values are small and passed by value.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// String_ returns a string value. The underscore avoids colliding
// with the fmt.Stringer method on Value.
func String_(v string) Value { return Value{kind: KindString, s: v} }

// Date returns a date value from days since the Unix epoch.
func Date(days int64) Value { return Value{kind: KindDate, i: days} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// Kind returns the value's kind.
func (v Value) Kind() Kind { return v.kind }

// AsInt returns the integer payload (ints, dates and bools).
func (v Value) AsInt() int64 { return v.i }

// AsFloat returns the float payload, converting integer payloads so
// numeric comparisons across int/date work naturally.
func (v Value) AsFloat() float64 {
	if v.kind == KindFloat {
		return v.f
	}
	return float64(v.i)
}

// AsString returns the string payload.
func (v Value) AsString() string { return v.s }

// AsBool returns the boolean payload.
func (v Value) AsBool() bool { return v.i != 0 }

// Compare orders two values of the same kind: −1, 0 or +1. Numeric
// kinds (int, float, date) compare with each other through float64.
// It panics when the kinds are not comparable; the SDL layer
// guarantees kind agreement before values meet.
func (v Value) Compare(o Value) int {
	if v.kind == KindString || o.kind == KindString {
		if v.kind != KindString || o.kind != KindString {
			panic("engine: comparing string with non-string value")
		}
		switch {
		case v.s < o.s:
			return -1
		case v.s > o.s:
			return 1
		default:
			return 0
		}
	}
	if v.kind == KindBool || o.kind == KindBool {
		if v.kind != o.kind {
			panic("engine: comparing bool with non-bool value")
		}
	}
	a, b := v.AsFloat(), o.AsFloat()
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports deep equality of kind and payload.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindString:
		return v.s == o.s
	case KindFloat:
		return v.f == o.f || (math.IsNaN(v.f) && math.IsNaN(o.f))
	default:
		return v.i == o.i
	}
}

// String renders the value the way SDL prints literals: dates as
// ISO-8601, floats with minimal digits, strings verbatim.
func (v Value) String() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindDate:
		return FormatDays(v.i)
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	default:
		return "<invalid>"
	}
}

// DaysFromDate converts a civil date to days since the Unix epoch.
func DaysFromDate(year int, month time.Month, day int) int64 {
	t := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return t.Unix() / 86400
}

// FormatDays renders days since the Unix epoch as YYYY-MM-DD.
func FormatDays(days int64) string {
	return time.Unix(days*86400, 0).UTC().Format("2006-01-02")
}

// ParseDays parses a YYYY-MM-DD date into days since the Unix epoch.
func ParseDays(s string) (int64, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return 0, fmt.Errorf("engine: bad date %q: %w", s, err)
	}
	return t.Unix() / 86400, nil
}
