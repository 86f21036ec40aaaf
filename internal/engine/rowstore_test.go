package engine

import "testing"

func TestRowTableMatchesColumnar(t *testing.T) {
	tab := smallTable(t)
	rt := NewRowTable(tab)
	if rt.NumRows() != tab.NumRows() {
		t.Fatalf("row count = %d, want %d", rt.NumRows(), tab.NumRows())
	}
	tonIdx := rt.ColumnIndex("tonnage")
	if tonIdx < 0 {
		t.Fatal("tonnage column missing from row table")
	}
	if rt.ColumnIndex("nope") != -1 {
		t.Fatal("phantom column resolved")
	}
	r := IntRange{Lo: 150, Hi: 300, LoIncl: true, HiIncl: true}
	rowCount := rt.CountIntRange(tonIdx, r)
	colCount := FilterIntRangeChunked(tab.MustColumn("tonnage").(*IntColumn), tab.AllChunked(), r, nil).Len()
	if rowCount != colCount {
		t.Fatalf("row count %d != column count %d", rowCount, colCount)
	}
	typeIdx := rt.ColumnIndex("type")
	rowSet := rt.CountStringSet(typeIdx, []string{"fluit"})
	colSet := FilterStringSetChunked(tab.MustColumn("type").(*StringColumn), tab.AllChunked(), []string{"fluit"}, nil).Len()
	if rowSet != colSet || rowSet != 2 {
		t.Fatalf("string set counts: row %d col %d, want 2", rowSet, colSet)
	}
	rowMed, ok := rt.MedianInt(tonIdx)
	if !ok {
		t.Fatal("row median not ok")
	}
	colMed, _ := IntMedian(tab.MustColumn("tonnage").(*IntColumn), tab.All())
	if rowMed != colMed {
		t.Fatalf("row median %d != column median %d", rowMed, colMed)
	}
}

func TestRowTableEmpty(t *testing.T) {
	tab := MustNewTable("t", NewIntColumn("v", nil))
	rt := NewRowTable(tab)
	if _, ok := rt.MedianInt(0); ok {
		t.Fatal("median of empty row table reported ok")
	}
	if n := rt.CountIntRange(0, IntRange{Lo: 0, Hi: 10, LoIncl: true, HiIncl: true}); n != 0 {
		t.Fatalf("count on empty table = %d", n)
	}
}
