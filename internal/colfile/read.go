package colfile

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
	"unsafe"

	"charles/internal/engine"
	"charles/internal/fault"
)

// File is an opened columnar file: an engine.ColumnBackend whose
// column vectors are zero-copy views into the file's memory mapping,
// so opening reads metadata plus the validity scans over boolean and
// string pages (§5.3, §5.4) and the conversion of float pages into a
// heap copy of ordinals (§5.1); other pages fault in from the page
// cache only when a scan touches them. A File must stay open for as
// long as any table built over it is in use; Close unmaps it.
type File struct {
	path  string
	data  []byte
	unmap func() error

	ft        footer
	cols      []engine.Column
	sums      []*engine.ChunkSummary
	rows      int
	chunkRows int

	closeOnce sync.Once
	closeErr  error
}

// Open maps path and validates its structure (§11): magic and
// version at both ends, checksummed footer, region bounds,
// alignment and lengths, dictionary and summary integrity, and the
// validity of boolean bytes and string dictionary codes — everything
// the engine's zero-copy views would otherwise trust blindly. It
// does not checksum value pages — that reads the whole file; call
// Verify for a full integrity pass. Errors are descriptive and wrap
// no panic: a truncated, corrupt or wrong-version file is reported
// as such.
func Open(path string) (*File, error) {
	if !hostLittleEndian() {
		return nil, fmt.Errorf("colfile: zero-copy reads require a little-endian host (§2)")
	}
	if err := fault.Inject("colfile.open"); err != nil {
		return nil, fmt.Errorf("colfile: opening %s: %w", path, err)
	}
	data, unmap, err := mapFile(path)
	if err != nil {
		return nil, fmt.Errorf("colfile: opening %s: %w", path, err)
	}
	f := &File{path: path, data: data, unmap: unmap}
	if err := f.parse(); err != nil {
		unmap()
		return nil, fmt.Errorf("colfile: %s: %w", path, err)
	}
	return f, nil
}

// OpenTable opens path and builds an engine table over it. Closing
// the table closes the file.
func OpenTable(path string) (*engine.Table, error) {
	f, err := Open(path)
	if err != nil {
		return nil, err
	}
	t, err := engine.NewTableFromBackend(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return t, nil
}

// parse validates the container and materializes columns and
// summaries. The validation order follows §11: fixed trailer and
// header first, then the checksummed footer, then every region the
// footer declares.
func (f *File) parse() error {
	data := f.data
	if len(data) < headerSize+trailerSize {
		return fmt.Errorf("file is %d bytes, smaller than the %d-byte fixed framing (§3)",
			len(data), headerSize+trailerSize)
	}
	if string(data[:8]) != Magic {
		return fmt.Errorf("bad header magic %q, want %q (§4.1) — not a colfile", data[:8], Magic)
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != Version {
		return fmt.Errorf("format version %d, this reader supports only version %d (§10)", v, Version)
	}
	if flags := binary.LittleEndian.Uint32(data[12:16]); flags != 0 {
		return fmt.Errorf("unknown header flags %#x (§4.1)", flags)
	}
	tr := data[len(data)-trailerSize:]
	if string(tr[16:24]) != Magic {
		return fmt.Errorf("bad trailer magic %q, want %q (§4.2) — file is truncated or not a colfile", tr[16:24], Magic)
	}
	footerLen := binary.LittleEndian.Uint64(tr[0:8])
	bodyAndFooter := uint64(len(data) - headerSize - trailerSize)
	if footerLen > bodyAndFooter {
		return fmt.Errorf("trailer claims a %d-byte footer but only %d bytes precede it (§4.2)", footerLen, bodyAndFooter)
	}
	footerStart := int64(len(data)) - trailerSize - int64(footerLen)
	fb := data[footerStart : footerStart+int64(footerLen)]
	if got, want := crc32.ChecksumIEEE(fb), binary.LittleEndian.Uint32(tr[8:12]); got != want {
		return fmt.Errorf("footer checksum mismatch: computed %#x, trailer says %#x (§9)", got, want)
	}
	if err := json.Unmarshal(fb, &f.ft); err != nil {
		return fmt.Errorf("decoding footer JSON: %w (§8)", err)
	}
	if f.ft.Version != Version {
		return fmt.Errorf("footer version %d disagrees with header version %d (§10)", f.ft.Version, Version)
	}
	if err := checkRows(f.ft.Rows); err != nil {
		return err
	}
	f.rows = int(f.ft.Rows)
	if f.ft.ChunkRows != int64(engine.NormalizeChunkRows(int(f.ft.ChunkRows))) {
		return fmt.Errorf("chunk width %d is not a power of two in [64, 2^30] (§8)", f.ft.ChunkRows)
	}
	f.chunkRows = int(f.ft.ChunkRows)
	if len(f.ft.Columns) == 0 {
		return fmt.Errorf("footer declares no columns (§8)")
	}

	nChunks := 0
	if f.rows > 0 {
		nChunks = (f.rows + f.chunkRows - 1) / f.chunkRows
	}
	type span struct{ off, length int64 }
	spans := []span{{0, headerSize}, {footerStart, int64(len(data)) - footerStart}}
	checkRegion := func(what string, r region, align, wantLen int64) error {
		// The end-of-region comparison is phrased as a subtraction so a
		// hostile footer cannot wrap Offset+Length past MaxInt64 into a
		// negative sum that passes the bound (§3, §11).
		if r.Offset < headerSize || r.Length < 0 || r.Offset > footerStart || r.Length > footerStart-r.Offset {
			return fmt.Errorf("%s region at offset %d, length %d falls outside the file body (§3)", what, r.Offset, r.Length)
		}
		if r.Offset%align != 0 {
			return fmt.Errorf("%s region offset %d is not %d-byte aligned (§2)", what, r.Offset, align)
		}
		if wantLen >= 0 && r.Length != wantLen {
			return fmt.Errorf("%s region is %d bytes, want %d (§5)", what, r.Length, wantLen)
		}
		spans = append(spans, span{r.Offset, r.Length})
		return nil
	}

	seen := make(map[string]bool, len(f.ft.Columns))
	f.cols = make([]engine.Column, len(f.ft.Columns))
	f.sums = make([]*engine.ChunkSummary, len(f.ft.Columns))
	for i, cm := range f.ft.Columns {
		what := fmt.Sprintf("column %q data", cm.Name)
		if cm.Name == "" {
			return fmt.Errorf("column %d has an empty name (§8)", i)
		}
		if seen[cm.Name] {
			return fmt.Errorf("duplicate column %q (§8)", cm.Name)
		}
		seen[cm.Name] = true
		kind, err := engine.ParseKind(cm.Kind)
		if err != nil {
			return fmt.Errorf("column %q has unknown kind %q (§8)", cm.Name, cm.Kind)
		}
		if err := checkRegion(what, cm.Data, elemAlign(kind), int64(f.rows)*elemSize(kind)); err != nil {
			return err
		}
		if len(cm.PageCRCs) != nChunks {
			return fmt.Errorf("column %q carries %d page checksums, want one per chunk (%d) (§9)",
				cm.Name, len(cm.PageCRCs), nChunks)
		}
		if err := fault.Inject("colfile.readPage"); err != nil {
			return fmt.Errorf("column %q: reading value pages: %w", cm.Name, err)
		}
		raw := data[cm.Data.Offset : cm.Data.Offset+cm.Data.Length]

		switch kind {
		case engine.KindInt:
			f.cols[i] = engine.NewIntColumn(cm.Name, viewInt64(raw))
		case engine.KindDate:
			f.cols[i] = engine.NewDateColumn(cm.Name, viewInt64(raw))
		case engine.KindFloat:
			// Converted, not viewed: any f64 pattern is accepted (§5.1).
			f.cols[i] = engine.NewFloatColumn(cm.Name, viewFloat64(raw))
		case engine.KindString:
			if cm.Dict == nil {
				return fmt.Errorf("string column %q has no dictionary region (§6)", cm.Name)
			}
			if err := checkRegion(fmt.Sprintf("column %q dictionary", cm.Name), *cm.Dict, 1, -1); err != nil {
				return err
			}
			db := data[cm.Dict.Offset : cm.Dict.Offset+cm.Dict.Length]
			if got := crc32.ChecksumIEEE(db); got != cm.Dict.CRC {
				return fmt.Errorf("column %q dictionary checksum mismatch: computed %#x, footer says %#x (§9)",
					cm.Name, got, cm.Dict.CRC)
			}
			dict, err := decodeDict(db)
			if err != nil {
				return fmt.Errorf("column %q: %w", cm.Name, err)
			}
			if int64(len(dict)) != cm.DictCount {
				return fmt.Errorf("column %q dictionary holds %d entries, footer says %d (§6)",
					cm.Name, len(dict), cm.DictCount)
			}
			// Codes are validated eagerly for the same reason boolean
			// bytes are (§5.3): the engine indexes dict[code] without a
			// bounds check, so an out-of-range code in an otherwise
			// structurally valid file would panic at scan time — after
			// Open promised the file was safe to query. A u32 per row,
			// the scan costs the same as the boolean one.
			codes := viewUint32(raw)
			for row, code := range codes {
				if int64(code) >= cm.DictCount {
					return fmt.Errorf("column %q row %d: dictionary code %d beyond the %d-entry dictionary (§5.3)",
						cm.Name, row, code, cm.DictCount)
				}
			}
			sc, err := engine.NewStringColumnFromDict(cm.Name, codes, dict)
			if err != nil {
				return fmt.Errorf("column %q: %w", cm.Name, err)
			}
			f.cols[i] = sc
		case engine.KindBool:
			// A Go []bool view cannot tolerate bytes other than 0/1
			// (§5.4), so boolean pages are validated eagerly for the
			// same reason string codes are; bool columns are a byte
			// per row, so the scan stays cheap.
			for off, b := range raw {
				if b > 1 {
					return fmt.Errorf("column %q row %d: boolean byte 0x%02x, want 0 or 1 (§5.4)", cm.Name, off, b)
				}
			}
			f.cols[i] = engine.NewBoolColumn(cm.Name, viewBool(raw))
		default:
			return fmt.Errorf("column %q has unstorable kind %v (§8)", cm.Name, kind)
		}

		if cm.Summary != nil && nChunks > 0 {
			if err := checkRegion(fmt.Sprintf("column %q summary", cm.Name), *cm.Summary, 1, -1); err != nil {
				return err
			}
			sb := data[cm.Summary.Offset : cm.Summary.Offset+cm.Summary.Length]
			if got := crc32.ChecksumIEEE(sb); got != cm.Summary.CRC {
				return fmt.Errorf("column %q summary checksum mismatch: computed %#x, footer says %#x (§9)",
					cm.Name, got, cm.Summary.CRC)
			}
			s, err := decodeSummary(kind, sb, nChunks)
			if err != nil {
				return fmt.Errorf("column %q: %w", cm.Name, err)
			}
			f.sums[i] = s
		}
	}

	// No two regions may overlap (§3): a footer crafted to alias one
	// column's pages into another's would otherwise read cleanly.
	sort.Slice(spans, func(a, b int) bool { return spans[a].off < spans[b].off })
	for i := 1; i < len(spans); i++ {
		prev := spans[i-1]
		if prev.off+prev.length > spans[i].off {
			return fmt.Errorf("regions [%d, %d) and [%d, %d) overlap (§3)",
				prev.off, prev.off+prev.length, spans[i].off, spans[i].off+spans[i].length)
		}
	}
	return nil
}

// TableName implements engine.ColumnBackend.
func (f *File) TableName() string { return f.ft.Table }

// NumRows implements engine.ColumnBackend.
func (f *File) NumRows() int { return f.rows }

// NumCols implements engine.ColumnBackend.
func (f *File) NumCols() int { return len(f.cols) }

// Column implements engine.ColumnBackend.
func (f *File) Column(i int) engine.Column { return f.cols[i] }

// ChunkSummary implements engine.ColumnBackend: the persisted zone
// maps are valid only at the file's native chunk width; at any other
// width the table falls back to its lazy scan-time build.
func (f *File) ChunkSummary(col, chunkRows int) (*engine.ChunkSummary, bool) {
	if chunkRows != f.chunkRows || f.sums[col] == nil {
		return nil, false
	}
	return f.sums[col], true
}

// NativeChunkRows implements engine.ColumnBackend.
func (f *File) NativeChunkRows() int { return f.chunkRows }

// ClusterBy returns the column the rows were reordered by at ingest,
// or "" when the file preserves source order.
func (f *File) ClusterBy() string { return f.ft.ClusterBy }

// Path returns the file's path.
func (f *File) Path() string { return f.path }

// Size returns the mapped file size in bytes.
func (f *File) Size() int64 { return int64(len(f.data)) }

// Close unmaps the file. Every column handed out becomes invalid;
// close only after nothing advises on the table anymore.
func (f *File) Close() error {
	f.closeOnce.Do(func() { f.closeErr = f.unmap() })
	return f.closeErr
}

// Verify checksums every value page against the footer's page table
// (§9, §11). It reads the entire file — this is the explicit deep
// check behind charles-ingest -verify, not part of Open. String
// codes need no separate pass here: Open range-checks them (§5.3),
// and any post-open bit damage to a code page shows up as a page
// checksum mismatch.
func (f *File) Verify() error {
	for _, cm := range f.ft.Columns {
		if err := fault.Inject("colfile.verify"); err != nil {
			return fmt.Errorf("colfile: column %q: verifying pages: %w", cm.Name, err)
		}
		raw := f.data[cm.Data.Offset : cm.Data.Offset+cm.Data.Length]
		kind, _ := engine.ParseKind(cm.Kind)
		pageBytes := int64(f.chunkRows) * elemSize(kind)
		for c, want := range cm.PageCRCs {
			lo := int64(c) * pageBytes
			hi := lo + pageBytes
			if hi > int64(len(raw)) {
				hi = int64(len(raw))
			}
			if got := crc32.ChecksumIEEE(raw[lo:hi]); got != want {
				return fmt.Errorf("colfile: column %q page %d checksum mismatch: computed %#x, footer says %#x (§9)",
					cm.Name, c, got, want)
			}
		}
	}
	return nil
}

// Zero-copy typed views over mapped bytes (§5). The offsets were
// alignment-checked in parse, and the mapping base is page-aligned
// (the read-everything fallback allocates 8-aligned), so the
// reinterpretations are well-defined.

func viewInt64(b []byte) []int64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), len(b)/8)
}

func viewFloat64(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
}

func viewUint32(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func viewBool(b []byte) []bool {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*bool)(unsafe.Pointer(&b[0])), len(b))
}
