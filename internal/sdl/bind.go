package sdl

import (
	"fmt"
	"math"
	"strconv"

	"charles/internal/engine"
)

// Bind validates the query against a table schema and coerces every
// literal to the kind of its column. Coercions are conservative:
//
//   - int column:    int literals; floats only when integral and finite
//   - float column:  int and float literals, and the words NaN, Inf,
//     +Inf and -Inf, the renderings of the non-finite floats; NaN in
//     a set only
//   - date column:   date literals, ISO strings, ints (days)
//   - string column: any literal, rendered to its string form
//   - bool column:   bool literals and the strings true/false
//
// Unknown attributes are errors: the advisor must not silently drop
// a predicate the user typed.
func Bind(q Query, t *engine.Table) (Query, error) {
	out := q
	for _, c := range q.Constraints() {
		col, ok := t.ColumnByName(c.Attr)
		if !ok {
			return Query{}, fmt.Errorf("sdl: no column %q in table %q", c.Attr, t.Name())
		}
		switch c.Kind {
		case KindAny:
			continue
		case KindRange:
			lo, err := coerce(c.Range.Lo, col.Kind(), c.Attr)
			if err != nil {
				return Query{}, err
			}
			hi, err := coerce(c.Range.Hi, col.Kind(), c.Attr)
			if err != nil {
				return Query{}, err
			}
			if math.IsNaN(lo.AsFloat()) || math.IsNaN(hi.AsFloat()) {
				// No value compares with NaN, so no bound order holds
				// (SEMANTICS.md §1.4); a set lists NaN instead.
				return Query{}, fmt.Errorf("sdl: %s: NaN cannot bound a range", c.Attr)
			}
			out = out.WithConstraint(RangeC(c.Attr, lo, hi, c.Range.LoIncl, c.Range.HiIncl))
		case KindSet:
			vals := make([]engine.Value, len(c.Set))
			for i, v := range c.Set {
				cv, err := coerce(v, col.Kind(), c.Attr)
				if err != nil {
					return Query{}, err
				}
				vals[i] = cv
			}
			out = out.WithConstraint(SetC(c.Attr, vals...))
		}
	}
	return out, nil
}

func coerce(v engine.Value, kind engine.Kind, attr string) (engine.Value, error) {
	if v.Kind() == kind {
		return v, nil
	}
	switch kind {
	case engine.KindInt:
		if v.Kind() == engine.KindFloat {
			f := v.AsFloat()
			if f == math.Trunc(f) && f >= math.MinInt64 && f < math.MaxInt64 {
				return engine.Int(int64(f)), nil
			}
		}
	case engine.KindFloat:
		switch v.Kind() {
		case engine.KindInt:
			return engine.Float(float64(v.AsInt())), nil
		case engine.KindString:
			switch s := v.AsString(); s {
			case "NaN", "Inf", "+Inf", "-Inf":
				f, _ := strconv.ParseFloat(s, 64)
				return engine.Float(f), nil
			}
		}
	case engine.KindDate:
		switch v.Kind() {
		case engine.KindInt:
			return engine.Date(v.AsInt()), nil
		case engine.KindString:
			if days, err := engine.ParseDays(v.AsString()); err == nil {
				return engine.Date(days), nil
			}
		}
	case engine.KindString:
		return engine.String_(v.String()), nil
	case engine.KindBool:
		if v.Kind() == engine.KindString {
			switch v.AsString() {
			case "true":
				return engine.Bool(true), nil
			case "false":
				return engine.Bool(false), nil
			}
		}
	}
	return engine.Value{}, fmt.Errorf("sdl: %s: cannot use %s literal %q on a %s column",
		attr, v.Kind(), v.String(), kind)
}

// ParseBound parses and binds in one step — the entry point the CLI
// and the public API use.
func ParseBound(input string, t *engine.Table) (Query, error) {
	q, err := Parse(input)
	if err != nil {
		return Query{}, err
	}
	return Bind(q, t)
}

// ContextAll returns the context query mentioning every column of
// the table with no constraints: "explore the whole database".
func ContextAll(t *engine.Table) Query {
	cs := make([]Constraint, t.NumCols())
	for i, name := range t.ColumnNames() {
		cs[i] = Any(name)
	}
	return MustQuery(cs...)
}

// ContextOn returns an unconstrained context over the given columns.
func ContextOn(t *engine.Table, columns ...string) (Query, error) {
	cs := make([]Constraint, 0, len(columns))
	for _, name := range columns {
		if _, ok := t.ColumnByName(name); !ok {
			return Query{}, fmt.Errorf("sdl: no column %q in table %q", name, t.Name())
		}
		cs = append(cs, Any(name))
	}
	return NewQuery(cs...)
}
