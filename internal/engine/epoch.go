package engine

import (
	"fmt"
	"sync/atomic"
)

// tableIDs hands every table a process-unique identity so
// fingerprints from different tables can never collide, even when
// the tables hold identical data (two sessions mutating two copies
// must not share cached results).
var tableIDs atomic.Uint64

// EpochStamp is one immutable snapshot of a table's mutation state:
// a monotonically increasing version, the row count at that version,
// and one epoch per chunk of the table's fixed width — the version of
// the last mutation that touched the chunk's rows. Derived state
// (zone maps, cached selections, cut points) records the stamp it was
// built under; comparing that stamp against the table's current one
// yields exactly the set of chunks whose contribution must be
// recomputed, which is what makes a 1% delta cost ~1% of a cold
// advise.
//
// Stamps are never mutated after publication: every AppendRows or
// UpdateRows builds a fresh stamp and swaps it in atomically, so a
// reader holding one sees a consistent (version, rows, epochs)
// triple forever.
type EpochStamp struct {
	version uint64
	nRows   int
	epochs  []uint64
}

// Version returns the table version the stamp describes. Version 0
// is the unmutated table as constructed.
func (s *EpochStamp) Version() uint64 { return s.version }

// NumRows returns the row count at the stamp's version.
func (s *EpochStamp) NumRows() int { return s.nRows }

// NumChunks returns the number of chunks the stamp covers.
func (s *EpochStamp) NumChunks() int { return len(s.epochs) }

// ChunkEpoch returns the version of the last mutation that touched
// chunk c.
func (s *EpochStamp) ChunkEpoch(c int) uint64 { return s.epochs[c] }

// DirtyVs compares the stamp against an older one and returns the
// per-chunk dirty set: dirty[c] is true when chunk c's data changed
// between old and s — its epoch moved, or the chunk did not exist at
// old (rows were appended past it). ok is false when old is nil or not
// actually older; callers then fall back to a full recomputation.
func (s *EpochStamp) DirtyVs(old *EpochStamp) (dirty []bool, ok bool) {
	if old == nil || old.nRows > s.nRows || old.version > s.version {
		return nil, false
	}
	dirty = make([]bool, len(s.epochs))
	for c := range s.epochs {
		dirty[c] = c >= len(old.epochs) || s.epochs[c] != old.epochs[c]
	}
	return dirty, true
}

// Stamp returns the table's current epoch stamp. The stamp is
// immutable; pointer equality with a previously observed stamp means
// nothing changed in between.
func (t *Table) Stamp() *EpochStamp { return t.stamp.Load() }

// Version returns the table's mutation version: 0 as constructed,
// +1 per AppendRows/UpdateRows.
func (t *Table) Version() uint64 { return t.stamp.Load().version }

// Fingerprint identifies the table's logical content within this
// process: it changes on every mutation and never collides across
// tables. Derived-state caches that outlive one advise — the pair
// memo a stream holds across Next calls, a server's result LRU —
// fold it into their keys so entries computed over older data miss
// instead of lying. The string is cached per version, so keying a
// steady-state hot path on it costs a pointer load, not a format call.
func (t *Table) Fingerprint() string {
	if p := t.fp.Load(); p != nil {
		return *p
	}
	s := fmt.Sprintf("t%d@v%d", t.id, t.stamp.Load().version)
	t.fp.Store(&s)
	return s
}

// resetStamp installs a fresh stamp for the current rows at the
// table's chunk width, preserving the version and marking every chunk
// as last touched at that version. It runs while the table is built
// (construction, SetChunkRows before the seal), so no derived state
// holds an older stamp.
func (t *Table) resetStamp() {
	var version uint64
	if s := t.stamp.Load(); s != nil {
		version = s.version
	}
	epochs := make([]uint64, t.NumChunks())
	for c := range epochs {
		epochs[c] = version
	}
	t.stamp.Store(&EpochStamp{version: version, nRows: t.rows, epochs: epochs})
}

// nextStamp clones the current stamp for a table that now holds
// newRows rows, bumps the version, and returns it for dirty-chunk
// marking. Chunks that existed before keep their epochs until the
// caller marks them; brand-new tail chunks start dirty at the new
// version (no prior artifact can cover rows that did not exist).
func (t *Table) nextStamp(newRows int) *EpochStamp {
	old := t.stamp.Load()
	next := &EpochStamp{
		version: old.version + 1,
		nRows:   newRows,
		epochs:  make([]uint64, numChunksFor(newRows, t.chunkRows)),
	}
	copy(next.epochs, old.epochs)
	for c := len(old.epochs); c < len(next.epochs); c++ {
		next.epochs[c] = next.version
	}
	return next
}

// commitStamp publishes a mutation: the new stamp, the new row
// count, and an invalidated fingerprint, in an order that keeps
// concurrent readers consistent (they see either the old world or
// the new one in full, because mutations are not concurrent with
// queries — see AppendRows).
func (t *Table) commitStamp(st *EpochStamp) {
	t.rows = st.nRows
	t.stamp.Store(st)
	t.fp.Store(nil)
}

// mutableColumn is implemented by every in-memory column type. The
// table validates kinds and bounds before calling either method, so
// implementations trust their input — a half-applied mutation must
// be impossible.
type mutableColumn interface {
	appendValue(v Value)
	setValue(row int, v Value)
}

func (c *IntColumn) appendValue(v Value)       { c.vals = append(c.vals, v.AsInt()) }
func (c *IntColumn) setValue(row int, v Value) { c.vals[row] = v.AsInt() }

func (c *DateColumn) appendValue(v Value)       { c.days = append(c.days, v.AsInt()) }
func (c *DateColumn) setValue(row int, v Value) { c.days[row] = v.AsInt() }

func (c *FloatColumn) appendValue(v Value)       { c.ords = append(c.ords, floatOrdinal(v.AsFloat())) }
func (c *FloatColumn) setValue(row int, v Value) { c.ords[row] = floatOrdinal(v.AsFloat()) }

func (c *BoolColumn) appendValue(v Value)       { c.vals = append(c.vals, v.AsBool()) }
func (c *BoolColumn) setValue(row int, v Value) { c.vals[row] = v.AsBool() }

// codeFor returns the dictionary code for s, growing the dictionary
// when the value is new. Growth is append-only: existing codes never
// change meaning, so cached summaries built for a smaller dictionary
// stay decodable (they are rebuilt anyway — the dictionary length is
// part of the summary's identity).
func (c *StringColumn) codeFor(s string) uint32 {
	if code, ok := c.index[s]; ok {
		return code
	}
	code := uint32(len(c.dict))
	c.dict = append(c.dict, s)
	c.index[s] = code
	return code
}

func (c *StringColumn) appendValue(v Value)       { c.codes = append(c.codes, c.codeFor(v.AsString())) }
func (c *StringColumn) setValue(row int, v Value) { c.codes[row] = c.codeFor(v.AsString()) }

// Mutable reports whether the table accepts AppendRows and
// UpdateRows: true exactly for memory-backed tables. Any other
// table's epoch stamp never moves, so state kept only to refresh
// derived results after a mutation is dead weight there.
func (t *Table) Mutable() bool {
	_, ok := t.backend.(*MemoryBackend)
	return ok
}

// mutable returns the table's columns as mutable columns, or an
// error naming the first column that is not in-memory. Mutation is
// gated to memory-backed tables: a colfile-backed table's columns
// alias a read-only mapping — writing through them would fault, and
// the on-disk format is append-free by design (docs/FORMAT.md; a
// segment-file append scheme is a ROADMAP item). Mutate a file's
// data by loading it into memory or re-running ingest.
func (t *Table) mutable() ([]mutableColumn, error) {
	if !t.Mutable() {
		return nil, fmt.Errorf("engine: table %q is not memory-backed (%T): .chc-backed tables are read-only; reload the data in memory to mutate it", t.name, t.backend)
	}
	out := make([]mutableColumn, len(t.cols))
	for i, c := range t.cols {
		mc, ok := c.(mutableColumn)
		if !ok {
			return nil, fmt.Errorf("engine: column %q (%T) does not support mutation", c.Name(), c)
		}
		out[i] = mc
	}
	return out, nil
}

// AppendRows appends rows to a memory-backed table, each row holding
// one Value per column in declaration order with matching kinds.
// Validation is all-or-nothing: a malformed row leaves the table
// untouched. On success the table's version advances and exactly the
// chunks covering the new rows — including the partial tail chunk
// the first new row lands in — are marked dirty, so epoch-aware
// caches re-evaluate only those chunks.
//
// Mutations must not run concurrently with advises on the same
// table: the swap of rows,
// stamp and summaries is not one atomic unit. Concurrent mutations
// against each other are serialized internally.
func (t *Table) AppendRows(rows ...[]Value) error {
	if len(rows) == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cols, err := t.mutable()
	if err != nil {
		return err
	}
	for ri, row := range rows {
		if len(row) != len(t.cols) {
			return fmt.Errorf("engine: append row %d has %d values, table %q has %d columns", ri, len(row), t.name, len(t.cols))
		}
		for i, v := range row {
			if v.Kind() != t.cols[i].Kind() {
				return fmt.Errorf("engine: append row %d: column %q wants %v, got %v", ri, t.cols[i].Name(), t.cols[i].Kind(), v.Kind())
			}
		}
	}
	oldRows := t.rows
	for _, row := range rows {
		for i, v := range row {
			cols[i].appendValue(v)
		}
	}
	st := t.nextStamp(oldRows + len(rows))
	for c := oldRows / t.chunkRows; c < len(st.epochs); c++ {
		st.epochs[c] = st.version
	}
	t.commitStamp(st)
	return nil
}

// UpdateRows overwrites one column's values at the selected rows:
// vals[i] replaces the value at row sel[i]. Kinds and row bounds are
// validated before anything is written, so a malformed update leaves
// the table untouched. Only the chunks containing updated rows are
// marked dirty. The concurrency contract is AppendRows'.
func (t *Table) UpdateRows(sel Selection, column string, vals []Value) error {
	if len(sel) == 0 && len(vals) == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cols, err := t.mutable()
	if err != nil {
		return err
	}
	i, ok := t.byName[column]
	if !ok {
		return fmt.Errorf("engine: no column %q in table %q", column, t.name)
	}
	if len(vals) != len(sel) {
		return fmt.Errorf("engine: update of column %q has %d values for %d rows", column, len(vals), len(sel))
	}
	kind := t.cols[i].Kind()
	for j, row := range sel {
		if row < 0 || int(row) >= t.rows {
			return fmt.Errorf("engine: update row %d out of range [0, %d)", row, t.rows)
		}
		if vals[j].Kind() != kind {
			return fmt.Errorf("engine: update of column %q wants %v, got %v at row %d", column, kind, vals[j].Kind(), row)
		}
	}
	for j, row := range sel {
		cols[i].setValue(int(row), vals[j])
	}
	st := t.nextStamp(t.rows)
	for _, row := range sel {
		st.epochs[int(row)/t.chunkRows] = st.version
	}
	t.commitStamp(st)
	return nil
}
