// Package cache is the replacement policy PowerDrill layers over its
// in-memory data structures: the scan-resistant 2Q policy of Johnson and
// Shasha (VLDB 1994). The paper (Section 5, "Improved Cache Heuristics")
// replaces LRU because one-time full scans of large tables would otherwise
// flush the working set of the interactive queries.
//
// The cache is byte-budgeted: values carry an explicit size so dictionary
// blobs, column chunks and cached chunk results can share one budget.
package cache

import "fmt"

// kout bounds the ghost queue A1out: the number of evicted probationary
// keys remembered, a fixed count whatever the capacity.
const kout = 1024

// Cache is a byte-budgeted 2Q cache in the policy's full version: a FIFO
// probationary queue A1in for first-time accesses, a ghost queue A1out
// remembering recently evicted first-timers (keys only), and a main LRU
// queue Am for keys proven hot by a second access. A one-time scan streams
// through A1in without ever displacing the hot set in Am.
//
// Entries can be pinned. A pinned entry stays in its queue, so its recency
// and tier keep moving with its accesses, but it is never an eviction
// victim: victim selection skips it, and stops when only pinned entries are
// left — the budget is then transiently exceeded until a pin drops. Pins
// are counted. The memory manager (internal/memmgr) pins the entries
// in-flight scans read; the result cache never pins.
//
// A Cache is not safe for concurrent use; see Synchronized.
type Cache struct {
	capacity int64
	kin      int64 // byte budget for A1in: a quarter of the capacity
	items    map[string]*entry
	ghosts   map[string]*entry // A1out's key-only entries
	a1in, am list
	a1out    list
	stats    Stats
	onEvict  func(key string, value any, size int64)
}

// New creates a cache holding at most capacity bytes. onEvict, when not
// nil, is called inside the mutating call (Put, PutPinned or Unpin) for
// every entry the cache displaces to satisfy its byte budget — never for a
// pinned entry, nor for Remove, Drop or an Unpin with remove set — so
// callers can keep external accounting exact.
func New(capacity int64, onEvict func(key string, value any, size int64)) *Cache {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: invalid capacity %d", capacity))
	}
	return &Cache{
		capacity: capacity,
		kin:      capacity / 4,
		items:    make(map[string]*entry),
		ghosts:   make(map[string]*entry),
		onEvict:  onEvict,
	}
}

// Get returns the cached value and whether it was present.
func (c *Cache) Get(key string) (any, bool) {
	e := c.get(key)
	if e == nil {
		return nil, false
	}
	return e.value, true
}

// get is Get returning the entry, counting the hit or miss.
func (c *Cache) get(key string) *entry {
	e := c.items[key]
	if e == nil {
		c.stats.Misses++
		return nil
	}
	c.stats.Hits++
	// A second access promotes a probationary entry to the hot queue; hits
	// in Am refresh recency as in plain LRU.
	if e.list == &c.a1in {
		c.a1in.remove(e)
		c.am.pushFront(e)
	} else {
		c.am.moveToFront(e)
	}
	return e
}

// Pin is Get that also adds one pin on a hit; pins is the entry's count
// after it.
func (c *Cache) Pin(key string) (value any, pins int, ok bool) {
	e := c.get(key)
	if e == nil {
		return nil, 0, false
	}
	return e.value, e.pin(), true
}

// Put inserts or refreshes a value of the given size in bytes. Entries
// larger than the capacity are not cached. An existing entry keeps its
// pins.
func (c *Cache) Put(key string, value any, size int64) {
	if size > c.capacity {
		c.Remove(key)
		return
	}
	c.insert(key, value, size)
	c.balance()
}

// PutPinned is Put of an entry holding one pin (an existing entry takes the
// value and size and gains a pin). It is admitted whatever its size.
func (c *Cache) PutPinned(key string, value any, size int64) {
	c.insert(key, value, size).pin()
	c.balance()
}

// Unpin drops one pin; pins is the count left, and ok is false when the key
// is absent or unpinned. When the last pin goes with remove set, the entry
// leaves the cache as Remove would. Otherwise the entry is a victim
// candidate again: it is evicted at once if it is larger than the capacity,
// and the cache evicts down to its capacity.
func (c *Cache) Unpin(key string, remove bool) (value any, pins int, ok bool) {
	e := c.items[key]
	if e == nil || e.pins == 0 {
		return nil, 0, false
	}
	pins = e.unpin()
	if pins == 0 {
		switch {
		case remove:
			c.remove(e)
		case e.size > c.capacity:
			c.evict(e)
		default:
			c.balance()
		}
	}
	return e.value, pins, true
}

// Drop removes key unless it is pinned, with no recency or counter effects.
// pins is the entry's count (0 when it was removed), and ok is false when
// the key is absent.
func (c *Cache) Drop(key string) (value any, pins int, ok bool) {
	e := c.items[key]
	if e == nil {
		return nil, 0, false
	}
	if e.pins == 0 {
		c.remove(e)
	}
	return e.value, e.pins, true
}

// Remove drops a key if present, pinned or not, and forgets it as a ghost.
func (c *Cache) Remove(key string) {
	if e := c.items[key]; e != nil {
		c.remove(e)
	}
	c.dropGhost(key)
}

// Keys returns the resident keys, pinned or not — a peek with no recency or
// counter effects.
func (c *Cache) Keys() []string {
	keys := make([]string, 0, len(c.items))
	for k := range c.items {
		keys = append(keys, k)
	}
	return keys
}

// Len returns the number of resident entries.
func (c *Cache) Len() int { return len(c.items) }

// SizeBytes returns the total size of resident entries.
func (c *Cache) SizeBytes() int64 { return c.a1in.bytes + c.am.bytes }

// Stats returns the cumulative hit/miss/eviction counters.
func (c *Cache) Stats() Stats { return c.stats }

// insert stores the value at the front of its queue, keeping an existing
// entry's queue and pins.
func (c *Cache) insert(key string, value any, size int64) *entry {
	if e, ok := c.items[key]; ok {
		l := e.list
		l.remove(e)
		e.value, e.size = value, size
		l.pushFront(e)
		return e
	}
	e := &entry{key: key, value: value, size: size}
	if c.ghosts[key] != nil {
		// Recently evicted from probation and referenced again: hot.
		c.dropGhost(key)
		c.am.pushFront(e)
	} else {
		c.a1in.pushFront(e)
	}
	c.items[key] = e
	return e
}

// balance enforces the byte budgets, evicting from A1in first (into the
// ghost queue) and then from Am. Pinned entries are skipped; when one
// queue holds only pinned entries the victim comes from the other.
func (c *Cache) balance() {
	for c.a1in.bytes+c.am.bytes > c.capacity {
		first, second := &c.am, &c.a1in
		if c.a1in.bytes > c.kin {
			first, second = second, first
		}
		victim := first.victim()
		if victim == nil {
			victim = second.victim()
		}
		if victim == nil {
			return
		}
		c.evict(victim)
	}
}

// evict drops e as a budget eviction; an entry leaving A1in is remembered
// in A1out.
func (c *Cache) evict(e *entry) {
	if e.list == &c.a1in {
		c.addGhost(e.key)
	}
	c.remove(e)
	c.stats.Evictions++
	if c.onEvict != nil {
		c.onEvict(e.key, e.value, e.size)
	}
}

// remove unlinks a resident entry and forgets it.
func (c *Cache) remove(e *entry) {
	e.list.remove(e)
	delete(c.items, e.key)
}

// addGhost remembers an evicted probationary key, forgetting the oldest
// ghost beyond kout. A resident key is never a ghost, so key is new to
// A1out.
func (c *Cache) addGhost(key string) {
	g := &entry{key: key}
	c.ghosts[key] = g
	c.a1out.pushFront(g)
	if c.a1out.n > kout {
		c.dropGhost(c.a1out.tail.key)
	}
}

// dropGhost forgets key as a ghost, if it is one.
func (c *Cache) dropGhost(key string) {
	if g := c.ghosts[key]; g != nil {
		c.a1out.remove(g)
		delete(c.ghosts, key)
	}
}

// Stats holds cumulative cache counters.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// HitRate returns Hits / (Hits+Misses), or 0 before any access.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// entry is a node of one of the queues: a resident entry of A1in or Am, or
// a key-only ghost of A1out.
type entry struct {
	key        string
	value      any
	size       int64
	pins       int
	prev, next *entry
	list       *list
}

// list is a tiny intrusive doubly linked list (container/list would box
// entries behind interface{}; this keeps the hot path allocation-free).
type list struct {
	head, tail *entry
	n          int
	bytes      int64
	// pinned counts the entries with pins > 0, so a list holding only
	// pinned entries is passed over without a walk.
	pinned int
}

func (l *list) pushFront(e *entry) {
	e.list = l
	e.prev = nil
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
	l.n++
	l.bytes += e.size
	if e.pins > 0 {
		l.pinned++
	}
}

func (l *list) remove(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next, e.list = nil, nil, nil
	l.n--
	l.bytes -= e.size
	if e.pins > 0 {
		l.pinned--
	}
}

func (l *list) moveToFront(e *entry) {
	if l.head == e {
		return
	}
	l.remove(e)
	l.pushFront(e)
}

// victim returns the least recent unpinned entry, or nil when every entry
// is pinned.
func (l *list) victim() *entry {
	if l.pinned == l.n {
		return nil
	}
	e := l.tail
	for e.pins > 0 {
		e = e.prev
	}
	return e
}

// pin adds one pin to e and returns the count.
func (e *entry) pin() int {
	e.pins++
	if e.pins == 1 {
		e.list.pinned++
	}
	return e.pins
}

// unpin drops one pin from e and returns the count left.
func (e *entry) unpin() int {
	e.pins--
	if e.pins == 0 {
		e.list.pinned--
	}
	return e.pins
}
