package colfile

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"charles/internal/engine"
)

// Palettes for clusterTable: each column draws its values from a
// short list of edge cases, so ties are heavy and every special value
// recurs within a few rows.
var (
	clusterInts = []int64{math.MinInt64, math.MaxInt64, 0, -1, 1, 7, -1 << 40, 1 << 33, 12345678901, math.MinInt64 + 1}
	// Distinct NaN bit patterns: the quiet NaN, one with the sign bit
	// set and one with a payload. All of them must sort last, in input
	// order.
	clusterFloats = []float64{
		math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
		1.5, -2.5, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64,
		math.Float64frombits(0xFFF8000000000001), math.Float64frombits(0x7FF0000000000001),
	}
	// A dictionary whose code order differs from byte order.
	clusterDict = []string{"pear", "apple", "", "Zebra", "äpfel", "apple ", "b"}
)

// clusterTable builds a table from raw bytes, five per row (at most
// 512 rows): one byte picks each column's value from its palette,
// dates spread over a span that needs two radix digits.
func clusterTable(t *testing.T, data []byte) *engine.Table {
	t.Helper()
	rows := min(len(data)/5, 512)
	ints := make([]int64, rows)
	days := make([]int64, rows)
	floats := make([]float64, rows)
	codes := make([]uint32, rows)
	bools := make([]bool, rows)
	for i := 0; i < rows; i++ {
		b := data[i*5 : i*5+5]
		ints[i] = clusterInts[int(b[0])%len(clusterInts)]
		days[i] = int64(int8(b[1])) * 97
		floats[i] = clusterFloats[int(b[2])%len(clusterFloats)]
		codes[i] = uint32(int(b[3]) % len(clusterDict))
		bools[i] = b[4]&1 == 1
	}
	str, err := engine.NewStringColumnFromDict("s", codes, clusterDict)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := engine.NewTable("cluster",
		engine.NewIntColumn("i", ints),
		engine.NewDateColumn("d", days),
		engine.NewFloatColumn("f", floats),
		str,
		engine.NewBoolColumn("b", bools),
	)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// referenceClusterPerm is the clustering order by comparison: the
// comparator clusterColumns replaced, applied by sort.SliceStable.
func referenceClusterPerm(key engine.Column) []int {
	perm := make([]int, key.Len())
	for i := range perm {
		perm[i] = i
	}
	var less func(a, b int) bool
	switch key := key.(type) {
	case engine.IntValued:
		less = func(a, b int) bool { return key.Int64(a) < key.Int64(b) }
	case engine.FloatValued:
		less = func(a, b int) bool {
			av, bv := key.Float64(a), key.Float64(b)
			if av != av || bv != bv {
				return av == av && bv != bv
			}
			return av < bv
		}
	case *engine.StringColumn:
		less = func(a, b int) bool { return key.Str(a) < key.Str(b) }
	case *engine.BoolColumn:
		less = func(a, b int) bool { return !key.Bool(a) && key.Bool(b) }
	}
	sort.SliceStable(perm, func(i, j int) bool { return less(perm[i], perm[j]) })
	return perm
}

// clusterCell is one cell in a form == compares exactly: floats by
// bit pattern, so −0 against +0 and one NaN against another differ.
func clusterCell(col engine.Column, r int) any {
	switch col := col.(type) {
	case engine.IntValued:
		return col.Int64(r)
	case engine.FloatValued:
		return math.Float64bits(col.Float64(r))
	case *engine.StringColumn:
		return col.Str(r)
	case *engine.BoolColumn:
		return col.Bool(r)
	}
	return nil
}

// checkClusterPermutation clusters tab by each column in turn and
// requires every output column to equal its source column gathered
// through the reference permutation: the exact stable order, which a
// sortedness check and a per-column multiset check together do not
// pin.
func checkClusterPermutation(t *testing.T, tab *engine.Table) {
	t.Helper()
	for _, key := range tab.Columns() {
		got, err := clusterColumns(tab, key.Name())
		if err != nil {
			t.Fatalf("cluster by %s: %v", key.Name(), err)
		}
		perm := referenceClusterPerm(key)
		for ci, src := range tab.Columns() {
			out := got[ci]
			if out.Kind() != src.Kind() || out.Len() != len(perm) {
				t.Fatalf("cluster by %s: column %s is %v×%d, want %v×%d",
					key.Name(), src.Name(), out.Kind(), out.Len(), src.Kind(), len(perm))
			}
			for i, r := range perm {
				if g, w := clusterCell(out, i), clusterCell(src, r); g != w {
					t.Fatalf("cluster by %s: column %s row %d = %v, want source row %d = %v",
						key.Name(), src.Name(), i, g, r, w)
				}
			}
		}
	}
}

// TestClusterPermutation pins the exact row order clustering writes,
// for every kind of cluster column, against the stable comparison
// sort it replaced.
func TestClusterPermutation(t *testing.T) {
	rows := func(n int, row func(i int) [5]byte) []byte {
		var out []byte
		for i := 0; i < n; i++ {
			b := row(i)
			out = append(out, b[:]...)
		}
		return out
	}
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"one row", rows(1, func(int) [5]byte { return [5]byte{1, 200, 0, 3, 1} })},
		{"every palette value", rows(65, func(i int) [5]byte {
			b := byte(i)
			return [5]byte{b, b * 37, b, b, b}
		})},
		{"heavy ties", rows(65, func(i int) [5]byte {
			b := byte(i % 2)
			return [5]byte{b, b, b, b, byte(i % 3)}
		})},
		// Float palette: 0 NaN, 1 −0, 2 +0, 3 +Inf, 4 −Inf, 11 and 12
		// NaNs with other bit patterns.
		{"NaNs interleaved with ±0 and ±Inf", rows(65, func(i int) [5]byte {
			f := []byte{0, 1, 11, 2, 3, 12, 4, 0, 2, 1}[i%10]
			return [5]byte{byte(i % 3), byte(i), f, byte(i), byte(i)}
		})},
		{"int extremes", rows(65, func(i int) [5]byte {
			return [5]byte{byte(i % 2), 0, 0, 0, 0} // MinInt64 and MaxInt64 alternate
		})},
		{"random", rows(300, func(int) [5]byte {
			var b [5]byte
			rng.Read(b[:])
			return b
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkClusterPermutation(t, clusterTable(t, tc.data))
		})
	}
}

// FuzzClusterPermutation searches byte-built tables for one whose
// clustered order by any column differs from the stable comparison
// sort's. Run longer locally with:
// go test -fuzz=FuzzClusterPermutation ./internal/colfile
func FuzzClusterPermutation(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 200, 0, 3, 1})
	seed := make([]byte, 65*5)
	for i := range seed {
		seed[i] = byte(i * 7)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkClusterPermutation(t, clusterTable(t, data))
	})
}

// TestCheckRows pins the one row-count bound Write and Open share
// (§8): 0 through MaxInt32 rows are addressable, nothing outside.
func TestCheckRows(t *testing.T) {
	for _, tc := range []struct {
		n  int64
		ok bool
	}{
		{-1, false},
		{0, true},
		{math.MaxInt32, true},
		{math.MaxInt32 + 1, false},
	} {
		if err := checkRows(tc.n); (err == nil) != tc.ok {
			t.Errorf("checkRows(%d) = %v, want ok=%v", tc.n, err, tc.ok)
		}
	}
}
