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

// Cache is a byte-budgeted key/value cache with pluggable eviction.
type Cache interface {
	// Get returns the cached value and whether it was present.
	Get(key string) (any, bool)
	// Contains reports whether the key is resident without touching the
	// policy's recency state or hit/miss counters — a pure peek, so callers
	// (e.g. the memory manager's prefetch planner) can ask "would Get hit?"
	// without distorting the eviction order.
	Contains(key string) bool
	// Put inserts or refreshes a value of the given size in bytes.
	// Entries larger than the capacity are not cached.
	Put(key string, value any, size int64)
	// Remove drops a key if present.
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

// Resizer is implemented by policies whose byte capacity can change after
// construction. Shrinking evicts immediately; capacities <= 0 evict
// everything and admit nothing until the capacity grows again. The memory
// manager (internal/memmgr) uses this to shrink the evictable tier while
// columns are pinned by in-flight scans.
type Resizer interface {
	SetCapacity(capacity int64)
}

// KeyLister is implemented by policies that can enumerate their resident
// keys — a pure peek, like Contains, with no recency or counter effects.
// The memory manager uses it to drop a whole key namespace at once when a
// store generation is retired (ingest compaction).
type KeyLister interface {
	Keys() []string
}

// EvictionNotifier is implemented by policies that can report budget
// evictions. The callback fires synchronously inside the mutating call
// (Put, Get or SetCapacity) for every entry the policy displaces to satisfy
// its byte budget — not for explicit Remove calls — so callers can keep
// external accounting (e.g. resident-byte gauges) exact.
type EvictionNotifier interface {
	OnEvict(fn func(key string, value any, size int64))
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
	prev, next *entry
	list       *list
}

// list is a tiny intrusive doubly linked list (container/list would box
// entries behind interface{}; this keeps the hot path allocation-free).
type list struct {
	head, tail *entry
	n          int
	bytes      int64
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
}

func (l *list) moveToFront(e *entry) {
	if l.head == e {
		return
	}
	l.remove(e)
	l.pushFront(e)
}

func (l *list) back() *entry { return l.tail }
