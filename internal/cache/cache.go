// Package cache is the byte-budgeted replacement policy PowerDrill layers
// over its in-memory data: LIRS (Jiang and Zhang, SIGMETRICS 2002). The
// paper (Section 5, "Improved Cache Heuristics") replaces LRU so that
// one-time scans cannot flush the interactive working set. LIRS ranks an
// entry by its reuse distance, not its recency: it resists scans, and keeps
// most of a loop larger than the budget resident — a click's 20 chart
// queries are one — where LRU and 2Q evict each entry just before reuse.
package cache

import "fmt"

const (
	maxGhosts = 1024 // the non-resident HIR keys S holds, whatever the capacity
	hirShare  = 1    // the capacity's share, in percent, left to HIR entries
)

// Cache is a LIRS cache. A resident entry is LIR or HIR. S, the recency
// stack, holds the LIR entries, resident HIR ones and at most maxGhosts
// non-resident HIR keys (ghosts), newest on top; after a LIR hit or a
// demotion it is pruned so its bottom is LIR. Q is a FIFO of the resident
// HIR entries. A hit on a HIR entry still in S, or a miss on a ghost, makes
// the key LIR, and bottom LIR entries are demoted to Q until the LIR bytes
// fit; any other miss enters as HIR.
//
// Pins are counted. A pinned entry keeps its place and tier moving with
// its accesses but is never a victim: that is Q's oldest unpinned entry,
// or, only when all of Q is pinned, the bottom-most unpinned LIR one. With
// every entry pinned the budget is exceeded until a pin drops. The memory
// manager pins what in-flight scans read; the result cache never pins.
// A Cache is not safe for concurrent use; see Synchronized.
type Cache struct {
	capacity, lirCap int64 // lirCap: the LIR entries' byte budget
	items            map[string]*entry
	s, q, g          list // S, Q and the ghosts, newest first
	lir, hir         tier
	stats            Stats
	onEvict          func(key string, value any, size int64)
}

// New creates a cache holding at most capacity bytes. onEvict, if not nil,
// is called inside Put, PutPinned or Unpin for every entry displaced for
// the budget — never for Remove, Drop or an Unpin with remove set.
func New(capacity int64, onEvict func(key string, value any, size int64)) *Cache {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: invalid capacity %d", capacity))
	}
	return &Cache{
		capacity: capacity,
		lirCap:   capacity - capacity/100*hirShare,
		items:    make(map[string]*entry),
		q:        list{q: true},
		g:        list{q: true},
		onEvict:  onEvict,
	}
}

// Get returns the cached value and whether it was present.
func (c *Cache) Get(key string) (any, bool) {
	v, _, ok := c.access(key, 0)
	return v, ok
}

// Pin is Get adding one pin on a hit; pins is the entry's count after it.
func (c *Cache) Pin(key string) (value any, pins int, ok bool) { return c.access(key, 1) }

// access is Pin adding pin pins, counting the hit or miss.
func (c *Cache) access(key string, pin int) (any, int, bool) {
	e := c.items[key]
	if e == nil || e.t == nil {
		c.stats.Misses++
		return nil, 0, false
	}
	c.stats.Hits++
	c.touch(e)
	return e.value, e.addPin(pin), true
}

// Put inserts or refreshes a value of size bytes, keeping its pins. An
// entry larger than the capacity is not cached.
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
	c.insert(key, value, size).addPin(1)
	c.balance()
}

// Unpin drops one pin; pins is the count left, ok false when the key is
// absent or unpinned. The last pin's drop removes the entry when remove is
// set, evicts it when it is larger than the capacity, and else rebalances.
func (c *Cache) Unpin(key string, remove bool) (value any, pins int, ok bool) {
	e := c.items[key]
	if e == nil || e.pins == 0 {
		return nil, 0, false
	}
	value, pins = e.value, e.addPin(-1)
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
	return value, pins, true
}

// Grow adds n bytes to a resident entry's size, with no recency effect,
// and evicts for the budget; pins is the entry's count, ok false when the
// key is not resident.
func (c *Cache) Grow(key string, n int64) (value any, pins int, ok bool) {
	e := c.items[key]
	if e == nil || e.t == nil {
		return nil, 0, false
	}
	t := e.t
	c.setTier(e, nil)
	e.size += n
	c.setTier(e, t)
	c.demote()
	c.balance()
	return e.value, e.pins, true
}

// Drop removes key unless it is pinned, with no recency or counter effects;
// pins is its count (0 if removed), ok false when the key is absent.
func (c *Cache) Drop(key string) (value any, pins int, ok bool) {
	e := c.items[key]
	if e == nil || e.t == nil {
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
}

// Keys returns the resident keys, pinned or not, with no recency effect.
func (c *Cache) Keys() []string {
	keys := make([]string, 0, c.Len())
	for k, e := range c.items {
		if e.t != nil {
			keys = append(keys, k)
		}
	}
	return keys
}

// Len returns the number of resident entries.
func (c *Cache) Len() int { return int(c.lir.n + c.hir.n) }

// SizeBytes returns the total size of resident entries.
func (c *Cache) SizeBytes() int64 { return c.lir.bytes + c.hir.bytes }

// Stats returns the cumulative hit/miss/eviction counters.
func (c *Cache) Stats() Stats { return c.stats }

// touch is a hit's move. A LIR entry goes on top of S, which is pruned; a
// HIR entry still in S becomes LIR; any other goes on top of S and to Q's
// newest end.
func (c *Cache) touch(e *entry) {
	switch {
	case e.t == &c.lir:
		c.s.moveToFront(e)
		c.prune()
	case e.s.in != nil:
		c.q.remove(e)
		c.setTier(e, &c.lir)
		c.s.moveToFront(e)
		c.demote()
	default:
		c.s.pushFront(e)
		c.q.moveToFront(e)
	}
}

// insert stores the value, keeping the pins. A new key or a ghost enters Q
// first, then the entry is touched as on a hit: a new key joins S as HIR,
// and a ghost, still in S, becomes LIR.
func (c *Cache) insert(key string, value any, size int64) *entry {
	e := c.items[key]
	if e == nil {
		e = &entry{key: key}
		c.items[key] = e
	}
	t := e.t
	c.setTier(e, nil)
	e.value, e.size = value, size
	if t == nil {
		c.g.remove(e)
		t = &c.hir
		c.q.pushFront(e)
	}
	c.setTier(e, t)
	c.touch(e)
	return e
}

// demote moves bottom LIR entries to Q's newest end until the LIR bytes fit.
func (c *Cache) demote() {
	for c.lir.bytes > c.lirCap {
		c.prune()
		e := c.s.tail
		c.s.remove(e)
		c.setTier(e, &c.hir)
		c.q.pushFront(e)
		c.prune()
	}
}

// prune drops the HIR entries below S's bottom-most LIR one, if any,
// forgetting the ghosts.
func (c *Cache) prune() {
	for e := c.s.tail; c.lir.n > 0 && e.t != &c.lir; e = c.s.tail {
		c.s.remove(e)
		if e.t == nil {
			c.g.remove(e)
			delete(c.items, e.key)
		}
	}
}

// balance evicts until the budget holds or every resident entry is pinned.
func (c *Cache) balance() {
	for c.SizeBytes() > c.capacity {
		var victim *entry
		if c.hir.pinned < c.hir.n {
			for victim = c.q.tail; victim.pins > 0; victim = victim.q.prev {
			}
		} else if c.lir.pinned < c.lir.n {
			for victim = c.s.tail; victim.t != &c.lir || victim.pins > 0; victim = victim.s.prev {
			}
		} else {
			return
		}
		c.evict(victim)
	}
}

// evict drops e as a budget eviction. An entry in S stays there as a
// ghost, and the oldest ghost beyond maxGhosts is forgotten.
func (c *Cache) evict(e *entry) {
	value := e.value
	c.q.remove(e)
	c.setTier(e, nil)
	e.value = nil
	if e.s.in == nil {
		delete(c.items, e.key)
	} else if c.g.pushFront(e); len(c.items)-c.Len() > maxGhosts {
		c.remove(c.g.tail)
	}
	c.stats.Evictions++
	if c.onEvict != nil {
		c.onEvict(e.key, value, e.size)
	}
}

// remove unlinks e, resident or a ghost, and forgets it.
func (c *Cache) remove(e *entry) {
	c.s.remove(e)
	c.q.remove(e)
	c.g.remove(e)
	c.setTier(e, nil)
	delete(c.items, e.key)
}

// setTier moves e's bytes and pin from its tier to t (nil: not resident).
func (c *Cache) setTier(e *entry, t *tier) {
	e.t.add(e, -1)
	e.t = t
	t.add(e, 1)
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

// entry is a key of S or Q, resident in tier t or a ghost (t nil). Its q
// links chain it into Q when resident HIR, into g when a ghost.
type entry struct {
	key   string
	value any
	size  int64
	pins  int
	t     *tier
	s, q  links
}

// tier counts the resident LIR or HIR entries; pinned counts those with
// pins, so an all-pinned tier is passed over without a walk.
type tier struct{ n, pinned, bytes int64 }

func (t *tier) add(e *entry, sign int64) {
	if t == nil {
		return
	}
	t.n += sign
	t.bytes += sign * e.size
	if e.pins > 0 {
		t.pinned += sign
	}
}

// links are an entry's place in the list in (nil outside any).
type links struct {
	prev, next *entry
	in         *list
}

// list is a tiny intrusive doubly linked list (container/list would box
// entries behind interface{}), through the entries' q links when q is set.
type list struct {
	head, tail *entry
	q          bool
}

func (l *list) at(e *entry) *links {
	if l.q {
		return &e.q
	}
	return &e.s
}

func (l *list) pushFront(e *entry) {
	*l.at(e) = links{next: l.head, in: l}
	if l.head != nil {
		l.at(l.head).prev = e
	} else {
		l.tail = e
	}
	l.head = e
}

// remove unlinks e if it is in l.
func (l *list) remove(e *entry) {
	k := l.at(e)
	if k.in != l {
		return
	}
	if k.prev != nil {
		l.at(k.prev).next = k.next
	} else {
		l.head = k.next
	}
	if k.next != nil {
		l.at(k.next).prev = k.prev
	} else {
		l.tail = k.prev
	}
	*k = links{}
}

// moveToFront puts e, in l or not, at l's front.
func (l *list) moveToFront(e *entry) {
	l.remove(e)
	l.pushFront(e)
}

// addPin adds d pins (−1, 0 or 1) to e and returns the count.
func (e *entry) addPin(d int) int {
	if e.pins == 0 || e.pins+d == 0 {
		e.t.pinned += int64(d)
	}
	e.pins += d
	return e.pins
}
