package engine

import (
	"fmt"
	"math"
	"unsafe"

	"charles/internal/stats"
)

// Column is one attribute of the stored relation: a named, typed,
// immutable vector of values addressed by dense row id.
type Column interface {
	// Name returns the attribute name.
	Name() string
	// Kind returns the column's value kind.
	Kind() Kind
	// Len returns the number of rows.
	Len() int
	// Value returns the value at the given row.
	Value(row int) Value
}

// Numeric is implemented by the int, date and float columns. Each
// stores its values once as order-preserving int64 ordinals — an int
// or a date as itself, a float as floatOrdinal(v) — so one body of
// range kernels, gathers, counts, cuts and zone maps serves all three
// kinds, and values are decoded only at the edges: docs/SEMANTICS.md §1.
type Numeric interface {
	Column
	// Int64s exposes the backing ordinal vector, indexed by row id:
	// the hot loops (filter kernels, gathers, counts, zone maps) index
	// it directly instead of paying an interface call per row.
	Int64s() []int64
	// OrdinalValue decodes an ordinal to its value.
	OrdinalValue(o int64) Value
}

// IntValued is implemented by columns whose values are exposed as
// int64 (integers and dates). Cut logic treats both identically.
type IntValued interface {
	Numeric
	// Int64 returns the raw integer payload at the given row.
	Int64(row int) int64
}

// FloatValued is implemented by columns whose values are exposed as
// float64.
type FloatValued interface {
	Numeric
	// Float64 returns the value at the given row.
	Float64(row int) float64
}

// nanOrdinal is NaN's ordinal: every NaN, whatever its payload, is
// stored as this one value, below −Inf's ordinal.
const nanOrdinal = math.MinInt64

// floatOrdinal maps v to an int64 whose order is the float order:
// stats.Float64Key read as a signed int, so that Int64Key of the
// ordinal is Float64Key(v). −0 shares +0's ordinal, and every NaN has
// nanOrdinal.
func floatOrdinal(v float64) int64 { return stats.Int64FromKey(stats.Float64Key(v)) }

// ordinalFloat inverts floatOrdinal; nanOrdinal decodes to math.NaN().
func ordinalFloat(o int64) float64 {
	if o == nanOrdinal {
		return math.NaN()
	}
	return stats.Float64FromKey(stats.Int64Key(o))
}

// IntColumn is a dense vector of int64 values.
type IntColumn struct {
	name string
	vals []int64
}

// NewIntColumn wraps vals (not copied) as a column.
func NewIntColumn(name string, vals []int64) *IntColumn {
	return &IntColumn{name: name, vals: vals}
}

// Name implements Column.
func (c *IntColumn) Name() string { return c.name }

// Kind implements Column.
func (c *IntColumn) Kind() Kind { return KindInt }

// Len implements Column.
func (c *IntColumn) Len() int { return len(c.vals) }

// Value implements Column.
func (c *IntColumn) Value(row int) Value { return Int(c.vals[row]) }

// Int64 implements IntValued.
func (c *IntColumn) Int64(row int) int64 { return c.vals[row] }

// Int64s implements Numeric: an int is its own ordinal.
func (c *IntColumn) Int64s() []int64 { return c.vals }

// OrdinalValue implements Numeric.
func (c *IntColumn) OrdinalValue(o int64) Value { return Int(o) }

// DateColumn is a dense vector of dates stored as days since epoch.
type DateColumn struct {
	name string
	days []int64
}

// NewDateColumn wraps days-since-epoch values (not copied).
func NewDateColumn(name string, days []int64) *DateColumn {
	return &DateColumn{name: name, days: days}
}

// Name implements Column.
func (c *DateColumn) Name() string { return c.name }

// Kind implements Column.
func (c *DateColumn) Kind() Kind { return KindDate }

// Len implements Column.
func (c *DateColumn) Len() int { return len(c.days) }

// Value implements Column.
func (c *DateColumn) Value(row int) Value { return Date(c.days[row]) }

// Int64 implements IntValued.
func (c *DateColumn) Int64(row int) int64 { return c.days[row] }

// Int64s implements Numeric: a date is its own ordinal.
func (c *DateColumn) Int64s() []int64 { return c.days }

// OrdinalValue implements Numeric.
func (c *DateColumn) OrdinalValue(o int64) Value { return Date(o) }

// FloatColumn is a dense vector of float64 values, each stored as its
// ordinal: −0 reads back as +0, and every NaN as the one NaN.
type FloatColumn struct {
	name string
	ords []int64
}

// NewFloatColumn stores vals as a column of ordinals, converted in
// place: the column takes vals over, as NewIntColumn and NewDateColumn
// take theirs, so building it allocates nothing and a generator's
// floats never live beside a copy. A caller that still needs the
// floats passes a copy.
func NewFloatColumn(name string, vals []float64) *FloatColumn {
	ords := unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(vals))), len(vals))
	for i, v := range vals {
		ords[i] = floatOrdinal(v)
	}
	return &FloatColumn{name: name, ords: ords}
}

// Name implements Column.
func (c *FloatColumn) Name() string { return c.name }

// Kind implements Column.
func (c *FloatColumn) Kind() Kind { return KindFloat }

// Len implements Column.
func (c *FloatColumn) Len() int { return len(c.ords) }

// Value implements Column.
func (c *FloatColumn) Value(row int) Value { return Float(c.Float64(row)) }

// Float64 implements FloatValued.
func (c *FloatColumn) Float64(row int) float64 { return ordinalFloat(c.ords[row]) }

// Int64s implements Numeric.
func (c *FloatColumn) Int64s() []int64 { return c.ords }

// OrdinalValue implements Numeric.
func (c *FloatColumn) OrdinalValue(o int64) Value { return Float(ordinalFloat(o)) }

// StringColumn is a dictionary-encoded vector of strings: each row
// stores a dense uint32 code into a per-column dictionary, the
// layout a column store uses for nominal attributes.
type StringColumn struct {
	name  string
	codes []uint32
	dict  []string
	index map[string]uint32
}

// NewStringColumn dictionary-encodes vals into a new column.
func NewStringColumn(name string, vals []string) *StringColumn {
	c := &StringColumn{
		name:  name,
		codes: make([]uint32, len(vals)),
		index: make(map[string]uint32),
	}
	for i, v := range vals {
		code, ok := c.index[v]
		if !ok {
			code = uint32(len(c.dict))
			c.dict = append(c.dict, v)
			c.index[v] = code
		}
		c.codes[i] = code
	}
	return c
}

// NewStringColumnFromDict wraps an already dictionary-encoded
// vector: codes index into dict (neither is copied). This is the
// constructor storage backends use to rebuild a column from its
// persisted encoding. Dictionary entries must be distinct; codes are
// trusted to be in range — a file reader validates them via its own
// integrity checks, not by scanning here.
func NewStringColumnFromDict(name string, codes []uint32, dict []string) (*StringColumn, error) {
	index := make(map[string]uint32, len(dict))
	for i, v := range dict {
		if _, dup := index[v]; dup {
			return nil, fmt.Errorf("engine: column %q dictionary repeats value %q", name, v)
		}
		index[v] = uint32(i)
	}
	return &StringColumn{name: name, codes: codes, dict: dict, index: index}, nil
}

// Name implements Column.
func (c *StringColumn) Name() string { return c.name }

// Kind implements Column.
func (c *StringColumn) Kind() Kind { return KindString }

// Len implements Column.
func (c *StringColumn) Len() int { return len(c.codes) }

// Value implements Column.
func (c *StringColumn) Value(row int) Value { return String_(c.dict[c.codes[row]]) }

// Str returns the decoded string at the given row.
func (c *StringColumn) Str(row int) string { return c.dict[c.codes[row]] }

// Code returns the dictionary code at the given row.
func (c *StringColumn) Code(row int) uint32 { return c.codes[row] }

// Codes exposes the backing code vector.
func (c *StringColumn) Codes() []uint32 { return c.codes }

// Cardinality returns the number of distinct values in the whole
// column (the dictionary size).
func (c *StringColumn) Cardinality() int { return len(c.dict) }

// DictValue decodes a dictionary code.
func (c *StringColumn) DictValue(code uint32) string { return c.dict[code] }

// CodeOf returns the dictionary code for s, if present.
func (c *StringColumn) CodeOf(s string) (uint32, bool) {
	code, ok := c.index[s]
	return code, ok
}

// BoolColumn is a dense vector of booleans. For cutting purposes a
// bool behaves as a two-value nominal attribute.
type BoolColumn struct {
	name string
	vals []bool
}

// NewBoolColumn wraps vals (not copied) as a column.
func NewBoolColumn(name string, vals []bool) *BoolColumn {
	return &BoolColumn{name: name, vals: vals}
}

// Name implements Column.
func (c *BoolColumn) Name() string { return c.name }

// Kind implements Column.
func (c *BoolColumn) Kind() Kind { return KindBool }

// Len implements Column.
func (c *BoolColumn) Len() int { return len(c.vals) }

// Value implements Column.
func (c *BoolColumn) Value(row int) Value { return Bool(c.vals[row]) }

// Bool returns the raw boolean at the given row.
func (c *BoolColumn) Bool(row int) bool { return c.vals[row] }

// Bools exposes the backing vector for column-at-a-time operators.
func (c *BoolColumn) Bools() []bool { return c.vals }

// validateColumn sanity-checks a column for table construction.
func validateColumn(c Column) error {
	if c == nil {
		return fmt.Errorf("engine: nil column")
	}
	if c.Name() == "" {
		return fmt.Errorf("engine: column with empty name")
	}
	return nil
}
