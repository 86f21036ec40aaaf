package colfile

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"charles/internal/engine"
)

// Native Go fuzz targets for the .chc parsers. The corruption suite
// (corrupt_test.go) pins descriptive errors for mutations someone
// thought of; fuzzing searches for the ones nobody did. The contract
// under fuzz is the §11 loader contract: corrupt, truncated or
// hostile input must produce an error or a valid File — never a
// panic — and anything Open accepts must survive Verify, a table
// over it warming its summaries, and Close.
//
// CI runs a short -fuzztime smoke (make fuzz-smoke); longer local
// runs just work: go test -fuzz=FuzzOpenColumnFile ./internal/colfile

// fuzzSeedFile writes a small valid file covering every storable
// kind, and returns its bytes.
// It is the fuzzer's anchor seed: mutations of a structurally valid
// file reach far deeper than random bytes.
func fuzzSeedFile(f *testing.F) []byte {
	f.Helper()
	const rows = 300
	ints := make([]int64, rows)
	floats := make([]float64, rows)
	small := make([]string, rows)
	wide := make([]string, rows)
	bools := make([]bool, rows)
	cities := []string{"amsterdam", "batavia", "galle"}
	for i := 0; i < rows; i++ {
		ints[i] = int64(i*37%501) - 200
		if i%17 == 0 {
			floats[i] = math.NaN()
		} else {
			floats[i] = float64(i%89) / 3
		}
		small[i] = cities[i%len(cities)]
		wide[i] = string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('0'+i%10))
		bools[i] = i%3 == 0
	}
	tab, err := engine.NewTable("fuzzseed",
		engine.NewIntColumn("ints", ints),
		engine.NewFloatColumn("floats", floats),
		engine.NewStringColumn("small", small),
		engine.NewStringColumn("wide", wide),
		engine.NewBoolColumn("bools", bools),
	)
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "seed"+Extension)
	if err := Write(path, tab, WriteOptions{ChunkRows: 64}); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return raw
}

// FuzzOpenColumnFile drives the whole container path: header,
// trailer, checksummed footer, region table, dictionaries, and — when
// Open accepts the input — the deep Verify pass,
// a table over the file warming every column's summary (zone maps
// and codes), and Close. The corruption-suite corpus is reproduced
// as seeds: the valid file plus the same classes of mutation the
// pinned tests apply (flipped magic, truncations, oversized footer
// length, bit flips in the footer JSON and in page data).
func FuzzOpenColumnFile(f *testing.F) {
	raw := fuzzSeedFile(f)
	f.Add(raw)
	// Seed the classic corruption classes so the fuzzer starts where
	// corrupt_test.go's mutation suite left off.
	trunc := raw[:len(raw)/2]
	f.Add(trunc)
	badMagic := append([]byte(nil), raw...)
	copy(badMagic, "NOTACOLF")
	f.Add(badMagic)
	badTrailerLen := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint64(badTrailerLen[len(badTrailerLen)-trailerSize:], uint64(len(raw))*2)
	f.Add(badTrailerLen)
	flipFooter := append([]byte(nil), raw...)
	flipFooter[len(flipFooter)-trailerSize-10] ^= 0x40
	f.Add(flipFooter)
	flipPage := append([]byte(nil), raw...)
	flipPage[headerSize+3] ^= 0x01
	f.Add(flipPage)
	// A CRC-valid footer whose region arithmetic overflows int64.
	// Random mutation almost never reaches the region checks — a
	// mutated footer dies at the trailer CRC first — so the hostile
	// footer classes must be seeded with their checksums recomputed.
	f.Add(rewriteFooter(f, raw, func(ft *footer) {
		ft.Columns[0].Data.Offset = 1 << 62
		ft.Columns[0].Data.Length = math.MaxInt64 - 1<<62 + 100
	}))
	// A file from a writer that still emitted summary regions (§7),
	// whose footer entries the reader skips.
	old, err := os.ReadFile(summariesFixture)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(old)
	f.Add([]byte{})
	f.Add([]byte(Magic))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz"+Extension)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		file, err := Open(path)
		if err != nil {
			if err.Error() == "" {
				t.Fatal("Open returned an empty error: corrupt input must fail descriptively")
			}
			return
		}
		// Structurally valid: the deep integrity pass and the
		// column accessors must hold up without panicking too.
		for i := 0; i < file.NumCols(); i++ {
			col := file.Column(i)
			if col.Len() != file.NumRows() {
				t.Fatalf("column %d has %d rows, file says %d", i, col.Len(), file.NumRows())
			}
		}
		if err := file.Verify(); err != nil && err.Error() == "" {
			t.Fatal("Verify returned an empty error")
		}
		// A table over the file builds every column's summary as it
		// warms, zone map and codes: a read of its every value.
		if tab, err := engine.NewTableFromBackend(file); err == nil {
			tab.WarmSummaries()
		}
		if err := file.Close(); err != nil {
			t.Fatalf("Close after successful Open: %v", err)
		}
	})
}

// FuzzReadPage drives the intra-region parser that Open feeds mapped
// bytes into: the dictionary decoder (§6). It sees raw
// attacker-controlled bytes bounded only by the footer's region
// table, so it must error — never panic or over-read — on any input.
func FuzzReadPage(f *testing.F) {
	dict := encodeDict([]string{"amsterdam", "batavia", ""})
	f.Add(dict)
	f.Add(encodeDict(nil))
	f.Add(dict[:len(dict)-1])                         // truncated last entry
	f.Add(append(slices.Clone(dict), 0))              // trailing byte
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})             // a count past the region
	f.Add([]byte{1, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f}) // an entry length past the region
	f.Add([]byte{1, 0})                               // a truncated count
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := decodeDict(data); err != nil && err.Error() == "" {
			t.Fatal("decodeDict returned an empty error")
		}
	})
}
