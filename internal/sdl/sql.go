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

func quoteIdent(name string) string {
	for i := 0; i < len(name); i++ {
		c := name[i]
		if !(c == '_' || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9' && i > 0)) {
			return `"` + strings.ReplaceAll(name, `"`, `""`) + `"`
		}
	}
	return name
}
