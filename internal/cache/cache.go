// Package cache provides the eviction policies PowerDrill layers over its
// in-memory data structures: classic LRU, the scan-resistant 2Q policy of
// Johnson and Shasha (VLDB 1994), and an adaptive policy in the spirit of
// ARC (Megiddo and Modha). The paper (Section 5, "Improved Cache
// Heuristics") replaces LRU because one-time full scans of large tables
// would otherwise flush the working set of the interactive queries.
//
// All policies implement the byte-budgeted Cache interface; values carry an
// explicit size so dictionary blobs, column layers, and cached chunk results
// can share one budget.
package cache

import "fmt"

// Cache is a byte-budgeted key/value cache with pluggable eviction.
type Cache interface {
	// Get returns the cached value and whether it was present.
	Get(key string) (any, bool)
	// Put inserts or refreshes a value of the given size in bytes.
	// Entries larger than the capacity are not cached. An existing entry
	// keeps its pins.
	Put(key string, value any, size int64)
	// Remove drops a key if present, pinned or not.
	Remove(key string)
	// Len returns the number of resident entries.
	Len() int
	// SizeBytes returns the total size of resident entries.
	SizeBytes() int64
	// Stats returns cumulative hit/miss/eviction counters.
	Stats() Stats
	// Name identifies the policy ("lru", "2q", "arc").
	Name() string
}

// Pinner is implemented by policies whose entries can be pinned. A pinned
// entry stays in the policy's lists, so its recency and frequency tier keep
// moving with its accesses, but it is never an eviction victim: victim
// selection skips it, and stops when only pinned entries are left — the
// budget is then transiently exceeded until a pin drops. Pins are counted.
// The memory manager (internal/memmgr) pins the entries in-flight scans
// read; the result cache never pins.
type Pinner interface {
	// Pin is Get that also adds one pin on a hit; pins is the entry's count
	// after it.
	Pin(key string) (value any, pins int, ok bool)
	// PutPinned is Put of an entry holding one pin (an existing entry takes
	// the value and size and gains a pin). It is admitted whatever its size.
	PutPinned(key string, value any, size int64)
	// Unpin drops one pin; pins is the count left, and ok is false when the
	// key is absent or unpinned. When the last pin goes with remove set,
	// the entry leaves the cache as Remove would. Otherwise the entry is a
	// victim candidate again: it is evicted at once if it is larger than the
	// capacity, and the cache evicts down to its capacity.
	Unpin(key string, remove bool) (value any, pins int, ok bool)
}

// KeyLister is implemented by policies that can enumerate their resident
// keys, pinned or not — a pure peek, with no recency or counter effects.
// The memory manager uses it to drop a whole key namespace at once when a
// store generation is retired (ingest compaction).
type KeyLister interface {
	Keys() []string
}

// EvictionNotifier is implemented by policies that can report budget
// evictions. The callback fires synchronously inside the mutating call
// (Put, PutPinned or Unpin) for every entry the policy displaces to satisfy
// its byte budget — never for a pinned entry, nor for explicit Remove calls
// or an Unpin with remove set — so callers can keep
// external accounting (e.g. resident-byte gauges) exact.
type EvictionNotifier interface {
	OnEvict(fn func(key string, value any, size int64))
}

// core is the state every policy shares: the byte budget, the resident
// entries by key, the counters and the eviction callback.
type core struct {
	capacity int64
	items    map[string]*entry
	stats    Stats
	onEvict  func(key string, value any, size int64)
}

func newCore(policy string, capacity int64) core {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: invalid %s capacity %d", policy, capacity))
	}
	return core{capacity: capacity, items: make(map[string]*entry)}
}

// OnEvict implements EvictionNotifier.
func (c *core) OnEvict(fn func(key string, value any, size int64)) { c.onEvict = fn }

// Keys implements KeyLister: a peek with no recency or counter effects.
func (c *core) Keys() []string {
	keys := make([]string, 0, len(c.items))
	for k := range c.items {
		keys = append(keys, k)
	}
	return keys
}

// Len implements Cache.
func (c *core) Len() int { return len(c.items) }

// Stats implements Cache.
func (c *core) Stats() Stats { return c.stats }

// lookup returns key's entry, counting the hit or miss.
func (c *core) lookup(key string) *entry {
	e := c.items[key]
	if e == nil {
		c.stats.Misses++
		return nil
	}
	c.stats.Hits++
	return e
}

// evicted forgets e, already unlinked from its list, as a budget eviction.
func (c *core) evicted(e *entry) {
	delete(c.items, e.key)
	c.stats.Evictions++
	if c.onEvict != nil {
		c.onEvict(e.key, e.value, e.size)
	}
}

// policy is what the shared pin bookkeeping needs of a policy.
type policy interface {
	Remove(key string)
	// evict unlinks e as a budget eviction.
	evict(e *entry)
	// balance evicts unpinned entries until the budget holds or only
	// pinned ones are left.
	balance()
}

// unpin is the policies' Unpin.
func unpin(p policy, c *core, key string, remove bool) (any, int, bool) {
	e := c.items[key]
	if e == nil || e.pins == 0 {
		return nil, 0, false
	}
	pins := e.unpin()
	if pins == 0 {
		switch {
		case remove:
			p.Remove(key)
		case e.size > c.capacity:
			p.evict(e)
		default:
			p.balance()
		}
	}
	return e.value, pins, true
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

// entry is a doubly-linked-list node used by all policies.
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
