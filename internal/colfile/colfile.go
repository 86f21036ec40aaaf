// Package colfile reads and writes the Charles columnar file format
// (.chc): a footer-indexed binary file of per-chunk column pages —
// raw values and string dictionaries — designed to be opened by
// memory-mapping so a server starts in milliseconds on tables far
// larger than RAM.
//
// The format is specified normatively in docs/FORMAT.md; section
// references below (§N) point into that document. The reader
// implements engine.ColumnBackend: Open maps the file and hands the
// engine zero-copy column vectors that alias the mapping — but for a
// float column, converted at open to the engine's ordinals in a heap
// copy (§5.1) — so no other row is touched until a scan actually
// needs it. Zone maps are the engine's, built by scanning the columns
// (§7).
//
// Structural validation (magic, version, checksummed footer, region
// bounds and alignment) happens at Open and costs O(columns), not
// O(rows). Full page-checksum verification is a separate, explicit
// pass (File.Verify, charles-ingest -verify) because it faults in
// every byte of the file.
package colfile

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"charles/internal/engine"
)

// Magic opens and closes every colfile (§4): eight fixed bytes that
// identify the format before any length field is trusted.
const Magic = "CHARLCOL"

// Version is the format version this package writes and the only
// one it accepts (§10).
const Version = 1

// headerSize is the fixed byte length of the file header (§4.1):
// magic, u32 version, u32 flags.
const headerSize = 16

// trailerSize is the fixed byte length of the file trailer (§4.2):
// u64 footer length, u32 footer CRC, u32 reserved, magic.
const trailerSize = 24

// Extension is the conventional file suffix.
const Extension = ".chc"

// footer is the file's table of contents, serialized as UTF-8 JSON
// immediately before the trailer (§8). Offsets are absolute file
// offsets; readers must treat them as the only source of region
// placement and must ignore unknown fields (§10).
type footer struct {
	Version   uint32       `json:"version"`
	Table     string       `json:"table"`
	Rows      int64        `json:"rows"`
	ChunkRows int64        `json:"chunk_rows"`
	ClusterBy string       `json:"cluster_by,omitempty"`
	Columns   []columnMeta `json:"columns"`
}

// region locates one contiguous byte range of the file (§3). CRC is
// the IEEE CRC-32 of the region's bytes (§9); zero in the data
// region, whose integrity is tracked per page instead.
type region struct {
	Offset int64  `json:"offset"`
	Length int64  `json:"length"`
	CRC    uint32 `json:"crc32,omitempty"`
}

// columnMeta describes one column (§8): its value-page region, page
// checksums, and — for string columns — the dictionary region. The
// summary entry earlier writers gave each column (§7) is ignored like
// any other unknown field (§10).
type columnMeta struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Data holds the column's value pages, concatenated in chunk
	// order with no padding between pages (§5).
	Data region `json:"data"`
	// PageCRCs[i] is the IEEE CRC-32 of chunk i's page bytes (§9).
	PageCRCs []uint32 `json:"page_crc32s"`
	// Dict locates the dictionary region of a string column (§6).
	Dict *region `json:"dict,omitempty"`
	// DictCount is the number of dictionary entries.
	DictCount int64 `json:"dict_count,omitempty"`
}

// elemSize returns the fixed per-row byte width of a kind's value
// encoding (§5), or 0 for kinds the format does not store.
func elemSize(k engine.Kind) int64 {
	switch k {
	case engine.KindInt, engine.KindDate:
		return 8
	case engine.KindFloat:
		return 8
	case engine.KindString:
		return 4
	case engine.KindBool:
		return 1
	default:
		return 0
	}
}

// elemAlign returns the required 2^n byte alignment of a kind's data
// region (§2): the natural alignment of its element type, so a
// memory-mapped region can be viewed as a typed slice directly.
func elemAlign(k engine.Kind) int64 {
	if k == engine.KindBool {
		return 1
	}
	return elemSize(k)
}

// checkRows bounds a table's row count to the engine's 31-bit row
// addressing (§8). Open refuses a footer past it and Write a table
// past it, so no file outside the bound is written or read, and the
// writer's int32 cluster permutation never sees one.
func checkRows(n int64) error {
	if n < 0 || n > math.MaxInt32 {
		return fmt.Errorf("row count %d outside the engine's 31-bit row addressing (§8)", n)
	}
	return nil
}

// hostLittleEndian reports whether this machine stores integers the
// way the format does (§2). The zero-copy mmap views require it;
// big-endian hosts get a descriptive error instead of garbage.
func hostLittleEndian() bool {
	x := uint16(0x0102)
	return *(*byte)(unsafe.Pointer(&x)) == 0x02
}

// byteReader is a bounds-checked little-endian cursor over a region.
// Every decode path in the package goes through it so corrupt or
// truncated regions produce errors, never panics.
type byteReader struct {
	b   []byte
	off int
	err error
}

func (r *byteReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *byteReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.fail("colfile: region truncated: need %d bytes at offset %d of %d", n, r.off, len(r.b))
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

func (r *byteReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// done reports any accumulated error, and flags trailing garbage:
// a region must be consumed exactly.
func (r *byteReader) done(what string) error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("colfile: %s region has %d trailing bytes", what, len(r.b)-r.off)
	}
	return nil
}

// encodeDict serializes a string dictionary (§6): u32 entry count,
// then for each entry a u32 byte length and the UTF-8 bytes.
func encodeDict(dict []string) []byte {
	size := 4
	for _, s := range dict {
		size += 4 + len(s)
	}
	out := make([]byte, 0, size)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(dict)))
	for _, s := range dict {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(s)))
		out = append(out, s...)
	}
	return out
}

// decodeDict parses a dictionary region (§6).
func decodeDict(b []byte) ([]string, error) {
	r := &byteReader{b: b}
	n := r.u32()
	if r.err != nil {
		return nil, r.err
	}
	// Every entry costs at least its 4-byte length prefix, so the
	// count is bounded by the region size; checking before the
	// allocation keeps a hostile count from sizing the slice.
	if int64(n)*4 > int64(len(b)-4) {
		return nil, fmt.Errorf("colfile: dictionary claims %d entries in a %d-byte region (§6)", n, len(b))
	}
	dict := make([]string, 0, n)
	for i := uint32(0); i < n; i++ {
		slen := r.u32()
		sb := r.take(int(slen))
		if r.err != nil {
			return nil, fmt.Errorf("colfile: dictionary entry %d: %w", i, r.err)
		}
		dict = append(dict, string(sb))
	}
	if err := r.done("dictionary"); err != nil {
		return nil, err
	}
	return dict, nil
}
