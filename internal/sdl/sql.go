package sdl

import (
	"fmt"
	"math"
	"strings"

	"charles/internal/engine"
)

// WhereClause translates the query's predicates to a SQL boolean
// expression, the bridge that makes Charles "a front-end for SQL
// systems" (Section 1). Unconstrained predicates contribute nothing;
// a query with no real predicates yields "TRUE". The dialect is
// PostgreSQL's, which DuckDB also reads: strings are quoted with
// doubled single quotes, dates as DATE 'YYYY-MM-DD', and the
// non-finite floats as CAST('NaN' AS DOUBLE PRECISION), 'Infinity'
// and '-Infinity'. Both order NaN above every number, so a two-sided
// range, whose upper bound is a number, still holds no NaN row
// (SEMANTICS.md §1.4).
func WhereClause(q Query) string {
	var parts []string
	for _, c := range q.Constraints() {
		if p := predicateSQL(c); p != "" {
			parts = append(parts, p)
		}
	}
	if len(parts) == 0 {
		return "TRUE"
	}
	return strings.Join(parts, " AND ")
}

// SelectCount renders the counting query Charles pushes to the SQL
// back-end for a segment's cover.
func SelectCount(q Query, table string) string {
	return fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s", quoteIdent(table), WhereClause(q))
}

// SelectStar renders the drill-down query a user submits "for
// further exploration" after picking a segment.
func SelectStar(q Query, table string) string {
	return fmt.Sprintf("SELECT * FROM %s WHERE %s", quoteIdent(table), WhereClause(q))
}

func predicateSQL(c Constraint) string {
	switch c.Kind {
	case KindAny:
		return ""
	case KindRange:
		loOp, hiOp := ">=", "<="
		if !c.Range.LoIncl {
			loOp = ">"
		}
		if !c.Range.HiIncl {
			hiOp = "<"
		}
		return fmt.Sprintf("%s %s %s AND %s %s %s",
			quoteIdent(c.Attr), loOp, sqlLiteral(c.Range.Lo),
			quoteIdent(c.Attr), hiOp, sqlLiteral(c.Range.Hi))
	case KindSet:
		if len(c.Set) == 1 {
			return fmt.Sprintf("%s = %s", quoteIdent(c.Attr), sqlLiteral(c.Set[0]))
		}
		vals := make([]string, len(c.Set))
		for i, v := range c.Set {
			vals[i] = sqlLiteral(v)
		}
		return fmt.Sprintf("%s IN (%s)", quoteIdent(c.Attr), strings.Join(vals, ", "))
	default:
		return ""
	}
}

func sqlLiteral(v engine.Value) string {
	switch v.Kind() {
	case engine.KindString:
		return "'" + strings.ReplaceAll(v.AsString(), "'", "''") + "'"
	case engine.KindDate:
		return "DATE '" + v.String() + "'"
	case engine.KindBool:
		if v.AsBool() {
			return "TRUE"
		}
		return "FALSE"
	case engine.KindFloat:
		switch f := v.AsFloat(); {
		case math.IsNaN(f):
			return "CAST('NaN' AS DOUBLE PRECISION)"
		case math.IsInf(f, 1):
			return "CAST('Infinity' AS DOUBLE PRECISION)"
		case math.IsInf(f, -1):
			return "CAST('-Infinity' AS DOUBLE PRECISION)"
		}
		return v.String()
	default:
		return v.String()
	}
}

// quoteIdent renders name as a SQL identifier: bare when it is a
// lower-case identifier and no reserved key word, double-quoted
// otherwise.
func quoteIdent(name string) string {
	quoted := pgReserved[name]
	for i := 0; i < len(name) && !quoted; i++ {
		c := name[i]
		quoted = !(c == '_' || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9' && i > 0))
	}
	if quoted {
		return `"` + strings.ReplaceAll(name, `"`, `""`) + `"`
	}
	return name
}

// pgReserved holds PostgreSQL's reserved key words, both "reserved"
// categories of the key word appendix (Appendix C). Left bare, such a
// name parses as the key word: `user = 'x'` compares current_user, a
// silently wrong result, and `order` or `select` is a syntax error.
var pgReserved = func() map[string]bool {
	words := strings.Fields(`
		all analyse analyze and any array as asc asymmetric both case cast
		check collate column constraint create current_catalog
		current_date current_role current_time current_timestamp
		current_user default deferrable desc distinct do else end except
		false fetch for foreign from grant group having in initially
		intersect into lateral leading limit localtime localtimestamp not
		null offset on only or order placing primary references returning
		select session_user some symmetric system_user table then to
		trailing true union unique user using variadic when where window
		with
		authorization binary collation concurrently cross current_schema
		freeze full ilike inner is isnull join left like natural notnull
		outer overlaps right similar tablesample verbose`)
	m := make(map[string]bool, len(words))
	for _, w := range words {
		m[w] = true
	}
	return m
}()
