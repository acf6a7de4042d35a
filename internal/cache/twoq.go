package cache

// TwoQ implements the 2Q eviction policy (Johnson and Shasha, VLDB 1994) in
// its full version: a FIFO probationary queue A1in for first-time accesses,
// a ghost queue A1out remembering recently evicted first-timers (keys only),
// and a main LRU queue Am for keys proven hot by a second access. A one-time
// scan streams through A1in without ever displacing the hot set in Am,
// which is the property PowerDrill needs (Section 5).
type TwoQ struct {
	core
	kin  int64 // byte budget for A1in (25% of capacity, per the paper)
	kout int   // entry budget for the ghost queue A1out (50% of entries seen)

	ghost map[string]bool // keys in A1out (no values)

	a1in       list
	am         list
	ghostOrder []string // FIFO order of ghost keys
}

// NewTwoQ creates a 2Q cache holding at most capacity bytes.
func NewTwoQ(capacity int64) *TwoQ {
	return &TwoQ{
		core:  newCore("2Q", capacity),
		kin:   capacity / 4,
		kout:  1024,
		ghost: make(map[string]bool),
	}
}

// Name implements Cache.
func (c *TwoQ) Name() string { return "2q" }

// Get implements Cache.
func (c *TwoQ) Get(key string) (any, bool) {
	e := c.get(key)
	if e == nil {
		return nil, false
	}
	return e.value, true
}

// get is Get returning the entry.
func (c *TwoQ) get(key string) *entry {
	e := c.lookup(key)
	if e == nil {
		return nil
	}
	// A second access promotes a probationary page to the hot queue; hits
	// in Am refresh recency as in plain LRU.
	if e.list == &c.a1in {
		c.a1in.remove(e)
		c.am.pushFront(e)
	} else {
		c.am.moveToFront(e)
	}
	return e
}

// Pin implements Pinner.
func (c *TwoQ) Pin(key string) (any, int, bool) {
	e := c.get(key)
	if e == nil {
		return nil, 0, false
	}
	return e.value, e.pin(), true
}

// Put implements Cache.
func (c *TwoQ) Put(key string, value any, size int64) {
	if size > c.capacity {
		c.Remove(key)
		return
	}
	c.insert(key, value, size)
	c.balance()
}

// PutPinned implements Pinner.
func (c *TwoQ) PutPinned(key string, value any, size int64) {
	c.insert(key, value, size).pin()
	c.balance()
}

// Unpin implements Pinner.
func (c *TwoQ) Unpin(key string, remove bool) (any, int, bool) {
	return unpin(c, &c.core, key, remove)
}

// insert stores the value at the front of its queue, keeping an existing
// entry's queue and pins.
func (c *TwoQ) insert(key string, value any, size int64) *entry {
	if e, ok := c.items[key]; ok {
		l := e.list
		l.remove(e)
		e.value, e.size = value, size
		l.pushFront(e)
		return e
	}
	e := &entry{key: key, value: value, size: size}
	if c.ghost[key] {
		// Recently evicted from probation and referenced again: hot.
		delete(c.ghost, key)
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
func (c *TwoQ) balance() {
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

func (c *TwoQ) evict(e *entry) {
	if e.list == &c.a1in {
		c.addGhost(e.key)
	}
	e.list.remove(e)
	c.evicted(e)
}

// addGhost remembers an evicted probationary key.
func (c *TwoQ) addGhost(key string) {
	if c.ghost[key] {
		return
	}
	c.ghost[key] = true
	c.ghostOrder = append(c.ghostOrder, key)
	for len(c.ghostOrder) > c.kout {
		old := c.ghostOrder[0]
		c.ghostOrder = c.ghostOrder[1:]
		delete(c.ghost, old)
	}
}

// Remove implements Cache.
func (c *TwoQ) Remove(key string) {
	if e, ok := c.items[key]; ok {
		e.list.remove(e)
		delete(c.items, key)
	}
	delete(c.ghost, key)
}

// SizeBytes implements Cache.
func (c *TwoQ) SizeBytes() int64 { return c.a1in.bytes + c.am.bytes }

var (
	_ Cache  = (*TwoQ)(nil)
	_ Pinner = (*TwoQ)(nil)
)
