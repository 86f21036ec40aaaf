package engine

import (
	"fmt"
	"sync/atomic"

	"charles/internal/fault"
)

// ColumnBackend is the storage seam under a Table: it supplies the
// physical columns. The engine's kernels never see the backend — they
// run on the Column vectors it hands out — so a backend chooses the
// memory the vectors live in: heap slices (MemoryBackend) or a
// read-only mmap of an on-disk columnar file (internal/colfile). Zone
// maps are the table's, built by scanning the columns whatever the
// backend.
type ColumnBackend interface {
	// TableName returns the stored relation's name.
	TableName() string
	// NumRows returns the row count every column must have.
	NumRows() int
	// NumCols returns the number of stored columns.
	NumCols() int
	// Column returns the i-th column in declaration order.
	Column(i int) Column
	// NativeChunkRows is the chunk width the backend stores its pages
	// at, or 0 when it has none. Tables built over the backend default
	// to this width.
	NativeChunkRows() int
	// Close releases backend resources (file mappings, handles).
	// Columns handed out earlier must not be used after Close.
	Close() error
}

// MemoryBackend is the in-memory ColumnBackend: plain Go slices, no
// native chunk width, nothing to close. It is what every table
// built from NewTable, the CSV loader or the dataset generators runs
// on.
type MemoryBackend struct {
	name string
	cols []Column
}

// NewMemoryBackend wraps columns (not copied) as a backend.
func NewMemoryBackend(name string, cols ...Column) *MemoryBackend {
	return &MemoryBackend{name: name, cols: cols}
}

// TableName implements ColumnBackend.
func (b *MemoryBackend) TableName() string { return b.name }

// NumRows implements ColumnBackend.
func (b *MemoryBackend) NumRows() int {
	if len(b.cols) == 0 {
		return 0
	}
	return b.cols[0].Len()
}

// NumCols implements ColumnBackend.
func (b *MemoryBackend) NumCols() int { return len(b.cols) }

// Column implements ColumnBackend.
func (b *MemoryBackend) Column(i int) Column { return b.cols[i] }

// NativeChunkRows implements ColumnBackend.
func (b *MemoryBackend) NativeChunkRows() int { return 0 }

// Close implements ColumnBackend; heap slices need no release.
func (b *MemoryBackend) Close() error { return nil }

// NewTableFromBackend builds a table over a storage backend,
// validating the schema it exposes: at least one column, unique
// non-empty names, equal lengths. The chunk width defaults to the
// backend's native width when it has one.
func NewTableFromBackend(b ColumnBackend) (*Table, error) {
	name := b.TableName()
	n := b.NumCols()
	if n == 0 {
		return nil, fmt.Errorf("engine: table %q has no columns", name)
	}
	t := &Table{name: name, backend: b, byName: make(map[string]int, n), id: tableIDs.Add(1)}
	t.cols = make([]Column, n)
	t.rows = b.NumRows()
	for i := 0; i < n; i++ {
		if err := fault.Inject("engine.backendColumn"); err != nil {
			return nil, fmt.Errorf("engine: table %q: fetching column %d from backend: %w", name, i, err)
		}
		c := b.Column(i)
		if err := validateColumn(c); err != nil {
			return nil, err
		}
		if c.Len() != t.rows {
			return nil, fmt.Errorf("engine: column %q has %d rows, want %d", c.Name(), c.Len(), t.rows)
		}
		if _, dup := t.byName[c.Name()]; dup {
			return nil, fmt.Errorf("engine: duplicate column %q", c.Name())
		}
		t.byName[c.Name()] = i
		//lint:mmaplife Table is the sanctioned retainer: Table.Close closes this backend, so the views cannot outlive their mapping
		t.cols[i] = c
	}
	t.summaries = make([]atomic.Pointer[ChunkSummary], n)
	t.chunkRows = NormalizeChunkRows(b.NativeChunkRows())
	t.resetStamp()
	return t, nil
}
