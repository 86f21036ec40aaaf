package engine

import "fmt"

// SummaryData is the serializable content of a ChunkSummary: the
// same per-chunk arrays with exported fields, so storage backends
// (internal/colfile) can persist zone maps next to the column data
// and hand them back through ColumnBackend.ChunkSummary without the
// table re-scanning anything. Exactly one kind family is populated:
// Int* for int/date columns, Float* for float columns, the code
// fields for string columns, Bool* for bool columns. Slices are
// shared, not copied — summaries are immutable once built — but for
// the Float* family, which Export decodes from the summary's ordinal
// bounds and ImportSummary encodes back.
type SummaryData struct {
	// Int/date columns: per-chunk [min, max].
	IntMin, IntMax []int64

	// Float columns: per-chunk NaN-ignoring [min, max] plus whether
	// the chunk is NaN-free (all-NaN chunks carry NaN bounds).
	FloatMin, FloatMax []float64
	FloatPure          []bool

	// String columns: presence of dictionary codes per chunk, in
	// exactly one of two forms. DictLen is the dictionary
	// cardinality the presence sets are defined over.
	DictLen int
	// CodeBits is the dense form: per chunk, a bitset of
	// ceil(DictLen/64) words.
	CodeBits [][]uint64
	// CodeList is the sparse form: per chunk, a sorted distinct-code
	// list, meaningless where CodeOverflow marks the chunk as
	// holding too many distinct codes to summarize.
	CodeList     [][]uint32
	CodeOverflow []bool

	// Bool columns: which of the two values each chunk holds.
	BoolHasTrue, BoolHasFalse []bool
}

// Export returns the summary's content for serialization.
func (s *ChunkSummary) Export() SummaryData {
	d := SummaryData{
		DictLen:  s.dictLen,
		CodeBits: s.codeBits, CodeList: s.codeList, CodeOverflow: s.codeOverflow,
		BoolHasTrue: s.boolHasTrue, BoolHasFalse: s.boolHasFalse,
	}
	if s.nan == nil {
		d.IntMin, d.IntMax = s.intMin, s.intMax
	} else {
		d.FloatMin = make([]float64, len(s.nan))
		d.FloatMax = make([]float64, len(s.nan))
		d.FloatPure = make([]bool, len(s.nan))
		for c, nan := range s.nan {
			d.FloatMin[c], d.FloatMax[c], d.FloatPure[c] = ordinalFloat(s.intMin[c]), ordinalFloat(s.intMax[c]), !nan
		}
	}
	return d
}

// ImportSummary validates deserialized summary content against the
// chunk count it claims to describe and wraps it as a ChunkSummary.
// It accepts either string form regardless of dictionary size, so a
// reader stays compatible with writers that chose the form by
// different thresholds.
func ImportSummary(d SummaryData, numChunks int) (*ChunkSummary, error) {
	lengthsOK := func(family string, lens ...int) error {
		for _, n := range lens {
			if n != numChunks {
				return fmt.Errorf("engine: %s summary describes %d chunks, want %d", family, n, numChunks)
			}
		}
		return nil
	}
	families := 0
	s := &ChunkSummary{}
	if d.IntMin != nil || d.IntMax != nil {
		families++
		if err := lengthsOK("int", len(d.IntMin), len(d.IntMax)); err != nil {
			return nil, err
		}
		s.intMin, s.intMax = d.IntMin, d.IntMax
	}
	if d.FloatMin != nil || d.FloatMax != nil || d.FloatPure != nil {
		families++
		if err := lengthsOK("float", len(d.FloatMin), len(d.FloatMax), len(d.FloatPure)); err != nil {
			return nil, err
		}
		s.intMin = make([]int64, numChunks)
		s.intMax = make([]int64, numChunks)
		s.nan = make([]bool, numChunks)
		for c, pure := range d.FloatPure {
			s.intMin[c], s.intMax[c], s.nan[c] = floatOrdinal(d.FloatMin[c]), floatOrdinal(d.FloatMax[c]), !pure
		}
	}
	if d.CodeBits != nil || d.CodeList != nil {
		families++
		if d.DictLen <= 0 {
			return nil, fmt.Errorf("engine: code summary with dictionary length %d", d.DictLen)
		}
		s.dictLen = d.DictLen
		switch {
		case d.CodeBits != nil && d.CodeList != nil:
			return nil, fmt.Errorf("engine: code summary carries both dense and sparse forms")
		case d.CodeBits != nil:
			if err := lengthsOK("code-bitset", len(d.CodeBits)); err != nil {
				return nil, err
			}
			words := (d.DictLen + 63) / 64
			for c, bits := range d.CodeBits {
				if len(bits) != words {
					return nil, fmt.Errorf("engine: chunk %d code bitset has %d words, want %d", c, len(bits), words)
				}
			}
			s.codeBits = d.CodeBits
		default:
			if err := lengthsOK("code-list", len(d.CodeList), len(d.CodeOverflow)); err != nil {
				return nil, err
			}
			for c, list := range d.CodeList {
				for i := 1; i < len(list); i++ {
					if list[i-1] >= list[i] {
						return nil, fmt.Errorf("engine: chunk %d code list is not strictly sorted", c)
					}
				}
				if n := len(list); n > 0 && int(list[n-1]) >= d.DictLen {
					return nil, fmt.Errorf("engine: chunk %d code list holds code %d beyond dictionary length %d",
						c, list[n-1], d.DictLen)
				}
			}
			s.codeList, s.codeOverflow = d.CodeList, d.CodeOverflow
		}
	}
	if d.BoolHasTrue != nil || d.BoolHasFalse != nil {
		families++
		if err := lengthsOK("bool", len(d.BoolHasTrue), len(d.BoolHasFalse)); err != nil {
			return nil, err
		}
		s.boolHasTrue, s.boolHasFalse = d.BoolHasTrue, d.BoolHasFalse
	}
	if families != 1 {
		return nil, fmt.Errorf("engine: summary populates %d kind families, want exactly 1", families)
	}
	return s, nil
}
