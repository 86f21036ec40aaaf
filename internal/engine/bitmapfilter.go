package engine

// FilterIntRangeChunkedBitmap is FilterIntRangeChunked under the name
// the engine.filter_int_range_bitmap_ms probe calls.
func FilterIntRangeChunkedBitmap(col IntValued, cs *ChunkedSelection, r IntRange, sum *ChunkSummary) *Bitmap {
	return FilterIntRangeChunked(col, cs, r, sum)
}

// FilterStringSetChunkedBitmap is FilterStringSetChunked under the
// name the engine.bitmap_andcount_us probe calls.
func FilterStringSetChunkedBitmap(col *StringColumn, cs *ChunkedSelection, values []string, sum *ChunkSummary) *Bitmap {
	return FilterStringSetChunked(col, cs, values, sum)
}
