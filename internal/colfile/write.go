package colfile

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"slices"
	"strings"
	"unsafe"

	"charles/internal/engine"
	"charles/internal/stats"
)

// WriteOptions parameterizes an ingest.
type WriteOptions struct {
	// ChunkRows is the chunk width to persist pages and summaries
	// at; 0 keeps the table's current width. Other values normalize
	// the way engine.SetChunkRows does (power of two in [64, 2^30]).
	ChunkRows int
	// ClusterBy, when non-empty, reorders rows by this column before
	// writing (a stable sort, NaN floats last), so that zone-map and
	// code-presence pruning on the clustered column — and anything
	// correlated with it — skips whole chunks at query time.
	ClusterBy string
}

// Write persists a table to path in the colfile format
// (docs/FORMAT.md), writing to a temporary sibling first and
// renaming into place so a crashed ingest never leaves a partial
// file under the real name.
func Write(path string, t *engine.Table, opts WriteOptions) error {
	if !hostLittleEndian() {
		return fmt.Errorf("colfile: writing requires a little-endian host (§2)")
	}
	if err := checkRows(int64(t.NumRows())); err != nil {
		return fmt.Errorf("colfile: writing %s: %w", path, err)
	}
	chunkRows := opts.ChunkRows
	if chunkRows == 0 {
		chunkRows = t.ChunkRows()
	}
	chunkRows = engine.NormalizeChunkRows(chunkRows)

	cols := t.Columns()
	if opts.ClusterBy != "" {
		var err error
		if cols, err = clusterColumns(t, opts.ClusterBy); err != nil {
			return err
		}
	}
	// A shadow table over the (possibly reordered) columns owns the
	// chunk layout and summary build for the write, leaving the
	// caller's table layout untouched.
	shadow, err := engine.NewTable(t.Name(), cols...)
	if err != nil {
		return fmt.Errorf("colfile: assembling table for write: %w", err)
	}
	shadow.SetChunkRows(chunkRows)
	shadow.WarmSummaries()

	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer os.Remove(tmp)
	if err := writeFile(f, shadow, opts.ClusterBy); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// countingWriter tracks the absolute file offset and sticks at the
// first error, so the region bookkeeping above it stays linear.
type countingWriter struct {
	w   *bufio.Writer
	off int64
	err error
}

func (cw *countingWriter) write(b []byte) {
	if cw.err != nil {
		return
	}
	n, err := cw.w.Write(b)
	cw.off += int64(n)
	cw.err = err
}

// pad8 advances to the next multiple of 8 with zero bytes (§3).
func (cw *countingWriter) pad8() {
	var zeros [8]byte
	if rem := cw.off & 7; rem != 0 {
		cw.write(zeros[:8-rem])
	}
}

// writeFile emits header, per-column regions, footer and trailer.
func writeFile(f *os.File, t *engine.Table, clusterBy string) error {
	cw := &countingWriter{w: bufio.NewWriterSize(f, 1<<20)}

	// Header (§4.1).
	var hdr [headerSize]byte
	copy(hdr[:8], Magic)
	binary.LittleEndian.PutUint32(hdr[8:12], Version)
	binary.LittleEndian.PutUint32(hdr[12:16], 0) // flags
	cw.write(hdr[:])

	ft := footer{
		Version:   Version,
		Table:     t.Name(),
		Rows:      int64(t.NumRows()),
		ChunkRows: int64(t.ChunkRows()),
		ClusterBy: clusterBy,
	}
	nc := t.NumChunks()
	for i, col := range t.Columns() {
		cm := columnMeta{Name: col.Name(), Kind: col.Kind().String()}

		// Value pages (§5): the column's raw vector, viewed as bytes,
		// is exactly the concatenation of its chunk pages.
		data, dict, err := columnBytes(col)
		if err != nil {
			return err
		}
		cw.pad8()
		cm.Data = region{Offset: cw.off, Length: int64(len(data))}
		cm.PageCRCs = make([]uint32, 0, nc)
		pageBytes := int64(t.ChunkRows()) * elemSize(col.Kind())
		for c := 0; c < nc; c++ {
			lo := int64(c) * pageBytes
			hi := lo + pageBytes
			if hi > int64(len(data)) {
				hi = int64(len(data))
			}
			cm.PageCRCs = append(cm.PageCRCs, crc32.ChecksumIEEE(data[lo:hi]))
		}
		cw.write(data)

		// Dictionary region (§6).
		if dict != nil {
			enc := encodeDict(dict)
			cw.pad8()
			cm.Dict = &region{Offset: cw.off, Length: int64(len(enc)), CRC: crc32.ChecksumIEEE(enc)}
			cm.DictCount = int64(len(dict))
			cw.write(enc)
		}

		// Summary region (§7): the zone map the engine just built at
		// the file's chunk width, serialized for the reader to serve
		// back without scanning.
		if s := t.Summary(i); s != nil && nc > 0 {
			enc := encodeSummary(col.Kind(), s.Export())
			cw.pad8()
			cm.Summary = &region{Offset: cw.off, Length: int64(len(enc)), CRC: crc32.ChecksumIEEE(enc)}
			cw.write(enc)
		}
		ft.Columns = append(ft.Columns, cm)
	}

	// Footer (§8) + trailer (§4.2).
	cw.pad8()
	fj, err := json.Marshal(ft)
	if err != nil {
		return fmt.Errorf("colfile: encoding footer: %w", err)
	}
	cw.write(fj)
	var tr [trailerSize]byte
	binary.LittleEndian.PutUint64(tr[0:8], uint64(len(fj)))
	binary.LittleEndian.PutUint32(tr[8:12], crc32.ChecksumIEEE(fj))
	binary.LittleEndian.PutUint32(tr[12:16], 0) // reserved
	copy(tr[16:24], Magic)
	cw.write(tr[:])

	if cw.err != nil {
		return cw.err
	}
	return cw.w.Flush()
}

// columnBytes returns the little-endian byte image of a column's
// value vector (§5) — a zero-copy view of its backing slice, but for a
// float column's, which is decoded — plus the dictionary of a string
// column.
func columnBytes(col engine.Column) (data []byte, dict []string, err error) {
	switch col := col.(type) {
	case *engine.IntColumn:
		return int64Bytes(col.Int64s()), nil, nil
	case *engine.DateColumn:
		return int64Bytes(col.Int64s()), nil, nil
	case *engine.FloatColumn:
		return float64Bytes(floatValues(col)), nil, nil
	case *engine.StringColumn:
		dict = make([]string, col.Cardinality())
		for i := range dict {
			dict[i] = col.DictValue(uint32(i))
		}
		return uint32Bytes(col.Codes()), dict, nil
	case *engine.BoolColumn:
		return boolBytes(col.Bools()), nil, nil
	default:
		return nil, nil, fmt.Errorf("colfile: cannot persist column %q of type %T", col.Name(), col)
	}
}

// clusterColumns returns the table's columns reordered by a stable
// sort on the named column: ints/dates/floats ascending with NaN
// floats last (−0 equal to +0), strings in byte order, bools false
// before true. The sort is a radix permutation over one
// order-preserving key per row, gathered into every column.
func clusterColumns(t *engine.Table, by string) ([]engine.Column, error) {
	key, ok := t.ColumnByName(by)
	if !ok {
		return nil, fmt.Errorf("colfile: cluster column %q does not exist", by)
	}
	keys := make([]uint64, t.NumRows())
	switch key := key.(type) {
	case engine.Numeric:
		// A float ordinal's key is its value's stats.Float64Key, 0 for
		// NaN, which sorts after every number instead.
		nanLast := key.Kind() == engine.KindFloat
		for i, o := range key.Int64s() {
			k := stats.Int64Key(o)
			if nanLast && k == 0 {
				k = ^uint64(0)
			}
			keys[i] = k
		}
	case *engine.StringColumn:
		// Sort the dictionary, not the rows: a code's key is its
		// value's rank in byte order.
		byBytes := make([]uint32, key.Cardinality())
		for i := range byBytes {
			byBytes[i] = uint32(i)
		}
		slices.SortFunc(byBytes, func(a, b uint32) int {
			return strings.Compare(key.DictValue(a), key.DictValue(b))
		})
		rank := make([]uint64, len(byBytes))
		for r, code := range byBytes {
			rank[code] = uint64(r)
		}
		for i, c := range key.Codes() {
			keys[i] = rank[c]
		}
	case *engine.BoolColumn:
		for i, v := range key.Bools() {
			if v {
				keys[i] = 1
			}
		}
	default:
		return nil, fmt.Errorf("colfile: cannot cluster by column %q of type %T", by, key)
	}
	perm := stablePerm(keys)

	out := make([]engine.Column, t.NumCols())
	for ci, col := range t.Columns() {
		switch col := col.(type) {
		case *engine.IntColumn:
			out[ci] = engine.NewIntColumn(col.Name(), gather(col.Int64s(), perm))
		case *engine.DateColumn:
			out[ci] = engine.NewDateColumn(col.Name(), gather(col.Int64s(), perm))
		case *engine.FloatColumn:
			out[ci] = engine.NewFloatColumn(col.Name(), gather(floatValues(col), perm))
		case *engine.StringColumn:
			dict := make([]string, col.Cardinality())
			for i := range dict {
				dict[i] = col.DictValue(uint32(i))
			}
			sc, err := engine.NewStringColumnFromDict(col.Name(), gather(col.Codes(), perm), dict)
			if err != nil {
				return nil, err
			}
			out[ci] = sc
		case *engine.BoolColumn:
			out[ci] = engine.NewBoolColumn(col.Name(), gather(col.Bools(), perm))
		default:
			return nil, fmt.Errorf("colfile: cannot persist column %q of type %T", col.Name(), col)
		}
	}
	return out, nil
}

// permDigitBits is the digit width of stablePerm's counting passes:
// 2^11 counters per digit stay cache resident, as in stats' radix
// select.
const permDigitBits = 11

// stablePerm returns the row order that sorts keys ascending with
// equal keys in input order: an LSD radix sort over permDigitBits-bit
// digits of key − min. It runs one stable counting pass per digit of
// the span max − min, so a narrow span (a date column's days) costs
// two passes whatever the row count. Row ids are int32: Write refuses
// a table past 31-bit row addressing before it clusters.
func stablePerm(keys []uint64) []int32 {
	perm := make([]int32, len(keys))
	for i := range perm {
		perm[i] = int32(i)
	}
	if len(keys) < 2 {
		return perm
	}
	lo, hi := keys[0], keys[0]
	for _, k := range keys[1:] {
		lo, hi = min(lo, k), max(hi, k)
	}
	width := bits.Len64(hi - lo)
	passes := (width + permDigitBits - 1) / permDigitBits
	if passes == 0 {
		return perm
	}
	// One sequential read histograms every digit up front; each pass
	// then turns its histogram into start offsets and scatters.
	const buckets = 1 << permDigitBits
	counts := make([]int, passes*buckets)
	for _, k := range keys {
		k -= lo
		for p := 0; p < passes; p++ {
			counts[p*buckets+int(k>>(p*permDigitBits))&(buckets-1)]++
		}
	}
	next := make([]int32, len(keys))
	for p := 0; p < passes; p++ {
		count := counts[p*buckets : (p+1)*buckets]
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		shift := p * permDigitBits
		for _, r := range perm {
			d := int((keys[r]-lo)>>shift) & (buckets - 1)
			next[count[d]] = r
			count[d]++
		}
		perm, next = next, perm
	}
	return perm
}

// gather returns src reordered by perm: out[i] = src[perm[i]].
func gather[T any](src []T, perm []int32) []T {
	out := make([]T, len(perm))
	for i, r := range perm {
		out[i] = src[r]
	}
	return out
}

// floatValues decodes a float column's values: −0 comes back as +0 and
// every NaN as the one NaN, the canonical values a file stores (§5.1).
func floatValues(col *engine.FloatColumn) []float64 {
	out := make([]float64, col.Len())
	for i := range out {
		out[i] = col.Float64(i)
	}
	return out
}

// Zero-copy little-endian byte views of value vectors (§5). Valid
// only on little-endian hosts, which Write checks up front.

func int64Bytes(v []int64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
}

func float64Bytes(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
}

func uint32Bytes(v []uint32) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*4)
}

func boolBytes(v []bool) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v))
}
