// The evaluator's byte budget: one bound, in bytes, shared by its
// three stores — selections, cut entries and pair tables — and the one
// eviction policy they obey. An entry is charged what it holds when it
// is stored and credited when it is replaced, evicted or dropped with
// its pair-table generation, so the budget's total is always the sum
// over what the stores hold.
package seg

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"charles/internal/engine"
	"charles/internal/sdl"
)

// clock is the byte budget an evaluator's stores charge and the CLOCK
// (second chance) ring every stored entry is on. An entry joins the
// ring just behind the hand, so the newest entry is examined last; a
// read sets its reference bit, and the hand spares an entry whose bit
// is set once, clearing the bit. An entry read since the hand last
// passed it — the extents an advise is cutting, the cached selections
// a delta refresh splices — therefore outlives the entries nothing
// reads again, such as the selections of a context nobody revisits.
//
// Lock order: a store's lock, then mu. The hand takes no store lock
// while it holds mu: it unlinks its victim under mu and deletes it
// from its store afterwards, if the store still holds it.
type clock struct {
	limit atomic.Int64 // bytes; 0 = unbounded
	used  atomic.Int64 // bytes charged by the entries the stores hold

	mu   sync.Mutex
	hand *link // the next link the hand examines; nil on an empty ring
	n    int   // links on the ring
}

// link is one entry's place on the ring.
type link struct {
	prev, next *link // nil while off the ring; guarded by clock.mu
	ref        atomic.Bool
	bytes      int64      // charged; guarded by the home store's lock
	home       *storeBase // the store holding the entry
	entry      evictable  // the entry itself
}

// touch marks l's entry read since the hand last passed it. It writes
// only when the bit is clear, so a hit allocates nothing and rarely
// dirties the entry.
func (l *link) touch() {
	if !l.ref.Load() {
		l.ref.Store(true)
	}
}

// evictable is an entry the hand can take out of its store.
type evictable interface {
	// evict deletes the entry from its store, crediting its bytes, and
	// reports whether the store still held it.
	evict(c *clock) bool
}

// insert puts l on the ring just behind the hand. The caller holds l's
// store lock.
func (c *clock) insert(l *link) {
	c.mu.Lock()
	if c.hand == nil {
		l.prev, l.next, c.hand = l, l, l
	} else {
		l.prev, l.next = c.hand.prev, c.hand
		l.prev.next, c.hand.prev = l, l
	}
	c.n++
	c.mu.Unlock()
}

// unlinkLocked takes l off the ring, if it is on it. The caller holds
// mu.
func (c *clock) unlinkLocked(l *link) {
	if l.next == nil {
		return
	}
	if l.next == l {
		c.hand = nil
	} else {
		l.prev.next, l.next.prev = l.next, l.prev
		if c.hand == l {
			c.hand = l.next
		}
	}
	l.prev, l.next = nil, nil
	c.n--
}

// unlink takes l off the ring, if it is on it.
func (c *clock) unlink(l *link) {
	c.mu.Lock()
	c.unlinkLocked(l)
	c.mu.Unlock()
}

// unlinkHome takes every link of home's entries off the ring: one
// walk around the ring, which is a list, not a map. The caller holds
// home's lock.
func (c *clock) unlinkHome(home *storeBase) {
	c.mu.Lock()
	l := c.hand
	for range c.n {
		next := l.next
		if l.home == home {
			c.unlinkLocked(l)
		}
		l = next
	}
	c.mu.Unlock()
}

// victim advances the hand to the first entry not read since the hand
// last passed it, clearing the reference bits it passes, and returns
// that entry's link unlinked; nil on an empty ring.
func (c *clock) victim() *link {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.hand != nil {
		l := c.hand
		if l.ref.Load() {
			l.ref.Store(false)
			c.hand = l.next
			continue
		}
		c.unlinkLocked(l)
		return l
	}
	return nil
}

// storeBase is the part of a store the ring sees: its lock and the
// bytes its entries charge.
type storeBase struct {
	mu    sync.RWMutex
	bytes int64 // guarded by mu
}

// store is one evaluator store: a map under one lock whose entries are
// charged to the evaluator's budget and linked on its clock ring.
type store[K comparable, V any] struct {
	storeBase
	m map[K]*entry[K, V]
}

// entry is one stored value with its ring link.
type entry[K comparable, V any] struct {
	link
	s   *store[K, V]
	key K
	val V
}

func newStore[K comparable, V any]() store[K, V] {
	return store[K, V]{m: make(map[K]*entry[K, V])}
}

// get returns key's value and marks its entry read.
func (s *store[K, V]) get(key K) (V, bool) {
	s.mu.RLock()
	en, ok := s.m[key]
	var v V
	if ok {
		v = en.val
	}
	s.mu.RUnlock()
	if ok {
		en.touch()
	}
	return v, ok
}

// putLocked stores key → v charging bytes, crediting the entry it
// replaces. The caller holds s.mu and shrinks the budget after
// releasing it.
func (s *store[K, V]) putLocked(c *clock, key K, v V, bytes int64) {
	if old, ok := s.m[key]; ok {
		c.unlink(&old.link)
		s.charge(c, &old.link, -old.bytes)
	}
	en := &entry[K, V]{s: s, key: key, val: v}
	en.home, en.entry = &s.storeBase, en
	s.m[key] = en
	s.charge(c, &en.link, bytes)
	c.insert(&en.link)
}

// put is putLocked under s.mu.
func (s *store[K, V]) put(c *clock, key K, v V, bytes int64) {
	s.mu.Lock()
	s.putLocked(c, key, v, bytes)
	s.mu.Unlock()
}

// charge adds d bytes to l's entry, its store and the budget. The
// caller holds s.mu.
func (s *storeBase) charge(c *clock, l *link, d int64) {
	l.bytes += d
	s.bytes += d
	c.used.Add(d)
}

// dropLocked empties s, crediting every entry. The caller holds s.mu.
func (s *store[K, V]) dropLocked(c *clock) {
	c.unlinkHome(&s.storeBase)
	c.used.Add(-s.bytes)
	s.bytes = 0
	clear(s.m)
}

func (en *entry[K, V]) evict(c *clock) bool {
	s := en.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m[en.key] != en {
		return false
	}
	delete(s.m, en.key)
	s.charge(c, &en.link, -en.bytes)
	return true
}

// SetCacheBudget bounds the bytes the evaluator's stores — selections,
// cut entries and pair tables — hold together; over it, entries are
// evicted by the clock (second chance) until the total is back under
// it. bytes <= 0 means unbounded: the default, right for one-shot
// advisory runs and the paper experiments. Lowering the budget evicts
// at once.
func (e *Evaluator) SetCacheBudget(bytes int64) {
	e.clock.limit.Store(max(bytes, 0))
	e.shrink()
}

// CacheBytes returns the bytes the evaluator's stores are charged.
func (e *Evaluator) CacheBytes() int64 { return e.clock.used.Load() }

// shrink evicts entries until the budget holds or nothing is left on
// the ring. Every store calls it after releasing its lock.
func (e *Evaluator) shrink() {
	c := &e.clock
	for {
		if limit := c.limit.Load(); limit <= 0 || c.used.Load() <= limit {
			return
		}
		l := c.victim()
		if l == nil {
			return
		}
		if l.entry.evict(c) {
			e.count(Evictions)
		}
	}
}

// Sizes the budget charges beyond an entry's payload.
const (
	queryBytes      = int64(unsafe.Sizeof(sdl.Query{}))
	constraintBytes = int64(unsafe.Sizeof(sdl.Constraint{}))
	valueBytes      = int64(unsafe.Sizeof(engine.Value{}))
	sliceBytes      = int64(unsafe.Sizeof([]int(nil)))
)

// selBytes is what a selection entry is charged: its containers
// (engine.ChunkedSelection.Bytes) and its key.
func selBytes(key string, ent cachedSel) int64 {
	return int64(len(key)) + ent.sel.Bytes()
}

// cutBytes is what a cut entry is charged: its key, its child queries,
// its child counts and the per-chunk counts it keeps.
func cutBytes(key string, ent cachedCut) int64 {
	n := int64(len(key)) + 8*int64(len(ent.counts))
	for _, q := range ent.children {
		n += queryBytes + int64(len(q.Key()))
		for _, c := range q.Constraints() {
			n += constraintBytes + valueBytes*int64(len(c.Set))
		}
	}
	if ic := ent.intCounts; ic != nil {
		for _, cells := range ic.Chunks {
			n += sliceBytes + 8*int64(len(cells))
		}
	}
	for _, cells := range ent.strCounts {
		n += sliceBytes + 8*int64(len(cells))
	}
	return n
}

// pairBytes is what a pair table is charged: 8 B per cell and its
// keys.
func pairBytes(key [2]string, cells []int) int64 {
	return int64(len(key[0])+len(key[1])) + 8*int64(len(cells))
}
