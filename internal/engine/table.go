package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Table is one relation: a set of equal-length columns with unique
// names. Charles restricts itself to a single relation (Section 2),
// so the table is the whole database as far as the advisor is
// concerned. The schema is fixed at construction; memory-backed
// tables additionally accept row mutation (AppendRows, UpdateRows),
// tracked per chunk by an epoch stamp so derived state invalidates
// at chunk granularity rather than wholesale.
//
// Physically the table is sharded by row range into fixed-width
// chunks: chunks are the unit of parallel scanning and of zone-map
// skipping. The width is fixed while the table is built (SetChunkRows)
// and cannot change once state addressed by it has been handed out.
// The columns stay contiguous — chunking is an addressing scheme over
// them, so row ids remain dense and global.
type Table struct {
	name    string
	cols    []Column
	byName  map[string]int
	rows    int
	backend ColumnBackend

	// id is process-unique; it anchors Fingerprint so two tables can
	// never alias each other's cache entries.
	id uint64

	// mu serializes mutations against each other (not against reads:
	// mutation is not concurrent with advising, see AppendRows).
	mu sync.Mutex

	// chunkRows is the row-range chunk width. sealed is set by the
	// first AllChunked or zone-map build, after which SetChunkRows
	// refuses another width.
	chunkRows int
	sealed    atomic.Bool

	// summaries holds each column's lazily built zone map.
	summaries []atomic.Pointer[ChunkSummary]

	// stamp is the current epoch stamp (version + per-chunk epochs),
	// swapped as one immutable unit by every mutation; fp caches the
	// fingerprint string for the current version.
	stamp atomic.Pointer[EpochStamp]
	fp    atomic.Pointer[string]
}

// NewTable builds a table from in-memory columns, validating that
// names are unique and non-empty and that all columns have the same
// length. It is NewTableFromBackend over a MemoryBackend.
func NewTable(name string, cols ...Column) (*Table, error) {
	return NewTableFromBackend(NewMemoryBackend(name, cols...))
}

// MustNewTable is NewTable that panics on error, for tests and
// generators whose schemas are static.
func MustNewTable(name string, cols ...Column) *Table {
	t, err := NewTable(name, cols...)
	if err != nil {
		panic(err)
	}
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// NumRows returns the row count.
func (t *Table) NumRows() int { return t.rows }

// NumCols returns the column count.
func (t *Table) NumCols() int { return len(t.cols) }

// Columns returns the column list in declaration order.
func (t *Table) Columns() []Column { return t.cols }

// ColumnNames returns the column names in declaration order.
func (t *Table) ColumnNames() []string {
	names := make([]string, len(t.cols))
	for i, c := range t.cols {
		names[i] = c.Name()
	}
	return names
}

// Column returns the i-th column.
func (t *Table) Column(i int) Column { return t.cols[i] }

// ColumnByName looks a column up by name.
func (t *Table) ColumnByName(name string) (Column, bool) {
	i, ok := t.byName[name]
	if !ok {
		return nil, false
	}
	return t.cols[i], true
}

// MustColumn returns the named column or panics; for callers that
// have already validated the schema.
func (t *Table) MustColumn(name string) Column {
	c, ok := t.ColumnByName(name)
	if !ok {
		panic(fmt.Sprintf("engine: no column %q in table %q", name, t.name))
	}
	return c
}

// All returns a selection covering every row of the table.
func (t *Table) All() Selection { return AllRows(t.rows) }

// Backend returns the storage backend the table's columns live in.
func (t *Table) Backend() ColumnBackend { return t.backend }

// Close releases the table's storage backend. For memory-backed
// tables it is a no-op; for file-backed tables it unmaps the file,
// after which no column of the table may be touched again. Close a
// table only once nothing is advising on it.
func (t *Table) Close() error {
	if t.backend == nil {
		return nil
	}
	return t.backend.Close()
}
