// Package colfile reads and writes the Charles columnar file format
// (.chc): a footer-indexed binary file of per-chunk column pages —
// raw values, string dictionaries, and precomputed zone-map and
// code-presence summaries — designed to be opened by memory-mapping
// so a server starts in milliseconds on tables far larger than RAM.
//
// The format is specified normatively in docs/FORMAT.md; section
// references below (§N) point into that document. The reader
// implements engine.ColumnBackend: Open maps the file and hands the
// engine zero-copy column vectors that alias the mapping — but for a
// float column, converted at open to the engine's ordinals in a heap
// copy (§5.1) — plus the persisted chunk summaries at the file's
// native chunk width, so no other row is touched until a scan
// actually needs it.
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

// overflowLen is the sentinel in a sparse code-presence summary
// marking a chunk that held too many distinct codes to list (§7.3).
const overflowLen = 0xFFFFFFFF

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
// checksums, and — for string columns — the dictionary region, plus
// an optional summary region holding the persisted zone map.
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
	// Summary locates the column's persisted zone map (§7).
	Summary *region `json:"summary,omitempty"`
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

func (r *byteReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *byteReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *byteReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
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

// Summary form tags (§7.3).
const (
	summaryFormDenseBits  = 1
	summaryFormSparseList = 2
)

// encodeSummary serializes a column's zone map (§7). The layout is
// keyed by the column kind, which the footer already records, so the
// region itself carries only the string-presence form tag.
func encodeSummary(k engine.Kind, d engine.SummaryData) []byte {
	var out []byte
	switch k {
	case engine.KindInt, engine.KindDate:
		out = make([]byte, 0, 16*len(d.IntMin))
		for _, v := range d.IntMin {
			out = binary.LittleEndian.AppendUint64(out, uint64(v))
		}
		for _, v := range d.IntMax {
			out = binary.LittleEndian.AppendUint64(out, uint64(v))
		}
	case engine.KindFloat:
		out = make([]byte, 0, 17*len(d.FloatMin))
		for _, v := range d.FloatMin {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		for _, v := range d.FloatMax {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		out = appendBools(out, d.FloatPure)
	case engine.KindString:
		out = binary.LittleEndian.AppendUint32(out, uint32(d.DictLen))
		if d.CodeBits != nil {
			out = append(out, summaryFormDenseBits)
			for _, words := range d.CodeBits {
				for _, w := range words {
					out = binary.LittleEndian.AppendUint64(out, w)
				}
			}
		} else {
			out = append(out, summaryFormSparseList)
			for c, list := range d.CodeList {
				if d.CodeOverflow[c] {
					out = binary.LittleEndian.AppendUint32(out, overflowLen)
					continue
				}
				out = binary.LittleEndian.AppendUint32(out, uint32(len(list)))
				for _, code := range list {
					out = binary.LittleEndian.AppendUint32(out, code)
				}
			}
		}
	case engine.KindBool:
		out = appendBools(nil, d.BoolHasTrue)
		out = appendBools(out, d.BoolHasFalse)
	}
	return out
}

// decodeSummary parses a summary region (§7) for a column of kind k
// spanning numChunks chunks, and validates it via the engine's
// importer so a corrupt summary is rejected, not served.
func decodeSummary(k engine.Kind, b []byte, numChunks int) (*engine.ChunkSummary, error) {
	r := &byteReader{b: b}
	var d engine.SummaryData
	switch k {
	case engine.KindInt, engine.KindDate:
		if int64(len(b)) != int64(numChunks)*16 {
			return nil, fmt.Errorf("colfile: int summary region is %d bytes, want %d for %d chunks (§7.1)", len(b), numChunks*16, numChunks)
		}
		d.IntMin = make([]int64, numChunks)
		d.IntMax = make([]int64, numChunks)
		for i := range d.IntMin {
			d.IntMin[i] = int64(r.u64())
		}
		for i := range d.IntMax {
			d.IntMax[i] = int64(r.u64())
		}
	case engine.KindFloat:
		if int64(len(b)) != int64(numChunks)*17 {
			return nil, fmt.Errorf("colfile: float summary region is %d bytes, want %d for %d chunks (§7.2)", len(b), numChunks*17, numChunks)
		}
		d.FloatMin = make([]float64, numChunks)
		d.FloatMax = make([]float64, numChunks)
		for i := range d.FloatMin {
			d.FloatMin[i] = math.Float64frombits(r.u64())
		}
		for i := range d.FloatMax {
			d.FloatMax[i] = math.Float64frombits(r.u64())
		}
		var err error
		if d.FloatPure, err = takeBools(r, numChunks); err != nil {
			return nil, err
		}
	case engine.KindString:
		d.DictLen = int(r.u32())
		form := r.u8()
		switch {
		case r.err != nil:
		case form == summaryFormDenseBits:
			if d.DictLen <= 0 {
				return nil, fmt.Errorf("colfile: dense code summary with dictionary length %d", d.DictLen)
			}
			words := (d.DictLen + 63) / 64
			// The per-chunk word count derives from the in-region
			// DictLen, so bound the total against the region size
			// before any chunk's bitset is allocated.
			if int64(words)*8*int64(numChunks) != int64(len(b))-5 {
				return nil, fmt.Errorf("colfile: dense code summary region is %d bytes, want %d for %d chunks of %d words (§7.3)",
					len(b), 5+words*8*numChunks, numChunks, words)
			}
			d.CodeBits = make([][]uint64, numChunks)
			for c := range d.CodeBits {
				bits := make([]uint64, words)
				for w := range bits {
					bits[w] = r.u64()
				}
				d.CodeBits[c] = bits
			}
		case form == summaryFormSparseList:
			d.CodeList = make([][]uint32, numChunks)
			d.CodeOverflow = make([]bool, numChunks)
			for c := range d.CodeList {
				n := r.u32()
				if n == overflowLen {
					d.CodeOverflow[c] = true
					continue
				}
				if int64(n)*4 > int64(len(b)) {
					return nil, fmt.Errorf("colfile: chunk %d code list claims %d entries in a %d-byte region", c, n, len(b))
				}
				list := make([]uint32, n)
				for i := range list {
					list[i] = r.u32()
				}
				d.CodeList[c] = list
			}
		default:
			return nil, fmt.Errorf("colfile: unknown code summary form %d", form)
		}
	case engine.KindBool:
		var err error
		if d.BoolHasTrue, err = takeBools(r, numChunks); err != nil {
			return nil, err
		}
		if d.BoolHasFalse, err = takeBools(r, numChunks); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("colfile: summary for unsummarized kind %v", k)
	}
	if err := r.done("summary"); err != nil {
		return nil, err
	}
	return engine.ImportSummary(d, numChunks)
}

// appendBools encodes a bool slice as one byte per value (§2).
func appendBools(out []byte, vals []bool) []byte {
	for _, v := range vals {
		if v {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
	}
	return out
}

// takeBools decodes n one-byte booleans, rejecting bytes other than
// 0 and 1 (§2).
func takeBools(r *byteReader, n int) ([]bool, error) {
	b := r.take(n)
	if r.err != nil {
		return nil, r.err
	}
	out := make([]bool, n)
	for i, v := range b {
		if v > 1 {
			return nil, fmt.Errorf("colfile: boolean byte 0x%02x at index %d, want 0 or 1", v, i)
		}
		out[i] = v == 1
	}
	return out, nil
}
