package cache

// LRU is a least-recently-used cache with a byte budget.
type LRU struct {
	core
	order list
}

// NewLRU creates an LRU cache holding at most capacity bytes.
func NewLRU(capacity int64) *LRU {
	return &LRU{core: newCore("LRU", capacity)}
}

// Name implements Cache.
func (c *LRU) Name() string { return "lru" }

// Get implements Cache.
func (c *LRU) Get(key string) (any, bool) {
	e := c.get(key)
	if e == nil {
		return nil, false
	}
	return e.value, true
}

// get is Get returning the entry.
func (c *LRU) get(key string) *entry {
	e := c.lookup(key)
	if e != nil {
		c.order.moveToFront(e)
	}
	return e
}

// Pin implements Pinner.
func (c *LRU) Pin(key string) (any, int, bool) {
	e := c.get(key)
	if e == nil {
		return nil, 0, false
	}
	return e.value, e.pin(), true
}

// Put implements Cache.
func (c *LRU) Put(key string, value any, size int64) {
	if size > c.capacity {
		c.Remove(key)
		return
	}
	c.insert(key, value, size)
	c.balance()
}

// PutPinned implements Pinner.
func (c *LRU) PutPinned(key string, value any, size int64) {
	c.insert(key, value, size).pin()
	c.balance()
}

// Unpin implements Pinner.
func (c *LRU) Unpin(key string, remove bool) (any, int, bool) {
	return unpin(c, &c.core, key, remove)
}

// insert stores the value at the front, keeping an existing entry's pins.
func (c *LRU) insert(key string, value any, size int64) *entry {
	e, ok := c.items[key]
	if ok {
		c.order.remove(e)
		e.value, e.size = value, size
	} else {
		e = &entry{key: key, value: value, size: size}
		c.items[key] = e
	}
	c.order.pushFront(e)
	return e
}

// Remove implements Cache.
func (c *LRU) Remove(key string) {
	if e, ok := c.items[key]; ok {
		c.order.remove(e)
		delete(c.items, key)
	}
}

func (c *LRU) evict(e *entry) {
	c.order.remove(e)
	c.evicted(e)
}

// balance drops least-recently-used unpinned entries until the budget fits.
func (c *LRU) balance() {
	for c.order.bytes > c.capacity {
		victim := c.order.victim()
		if victim == nil {
			return
		}
		c.evict(victim)
	}
}

// SizeBytes implements Cache.
func (c *LRU) SizeBytes() int64 { return c.order.bytes }

var (
	_ Cache  = (*LRU)(nil)
	_ Pinner = (*LRU)(nil)
)
