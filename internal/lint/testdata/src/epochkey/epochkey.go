// Package epochkey is the analysistest fixture for the epochkey
// analyzer: raw selection-valued maps — the selection type named
// directly or through its engine.Bitmap alias — and entry literals
// that omit their epoch stamp are flagged; stamped entries, zero
// values, unkeyed literals and justified sites are not.
package epochkey

import "charles/internal/engine"

// entry is the sanctioned cache-entry shape: the payload plus the
// stamp it was computed under.
type entry struct {
	cs    *engine.ChunkedSelection
	stamp *engine.EpochStamp
}

type caches struct {
	good map[string]entry
	sels map[string]*engine.ChunkedSelection // want "map holds raw \\*engine.ChunkedSelection values"
	bms  map[string]*engine.Bitmap           // want "map holds raw \\*engine.ChunkedSelection values"
}

func makeRaw() map[string]*engine.Bitmap { // want "map holds raw \\*engine.ChunkedSelection values"
	m := make(map[string]*engine.Bitmap) // want "map holds raw \\*engine.ChunkedSelection values"
	return m
}

func storeStamped(cs *engine.ChunkedSelection, st *engine.EpochStamp) entry {
	return entry{cs: cs, stamp: st}
}

func storeUnstamped(cs *engine.ChunkedSelection) entry {
	return entry{cs: cs} // want "omits its epoch stamp field \"stamp\""
}

func storeUnkeyed(cs *engine.ChunkedSelection, st *engine.EpochStamp) entry {
	return entry{cs, st} // unkeyed literals list every field
}

func zeroValue() entry {
	return entry{} // a zero value, not a cache insert
}

func justified(cs *engine.ChunkedSelection) entry {
	//lint:epochkey fixture: sentinel entry, the caller stamps it before store
	return entry{cs: cs}
}
