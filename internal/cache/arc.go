package cache

// ARC implements an adaptive replacement cache in the spirit of Megiddo and
// Modha (IEEE Computer 2004), the second policy the paper cites for its
// improved cache heuristics. Two resident lists — T1 (seen once recently)
// and T2 (seen at least twice) — are shadowed by ghost lists B1/B2; hits in
// the ghosts adapt the target size p of T1, so the policy continuously
// tunes itself between recency (LRU-like) and frequency (LFU-like)
// behaviour. Sizes are tracked in bytes rather than pages.
type ARC struct {
	core
	p int64 // adaptive target byte size of t1

	b1, b2 map[string]int64 // ghost key -> last seen size
	b1o    []string         // FIFO order for trimming b1
	b2o    []string
	t1, t2 list
}

// NewARC creates an adaptive cache holding at most capacity bytes.
func NewARC(capacity int64) *ARC {
	return &ARC{
		core: newCore("ARC", capacity),
		b1:   make(map[string]int64),
		b2:   make(map[string]int64),
	}
}

// Name implements Cache.
func (c *ARC) Name() string { return "arc" }

// Get implements Cache.
func (c *ARC) Get(key string) (any, bool) {
	e := c.get(key)
	if e == nil {
		return nil, false
	}
	return e.value, true
}

// get is Get returning the entry.
func (c *ARC) get(key string) *entry {
	e := c.lookup(key)
	if e == nil {
		return nil
	}
	// Any repeat access moves the entry to the frequency list T2.
	if e.list == &c.t1 {
		c.t1.remove(e)
		c.t2.pushFront(e)
	} else {
		c.t2.moveToFront(e)
	}
	return e
}

// Pin implements Pinner.
func (c *ARC) Pin(key string) (any, int, bool) {
	e := c.get(key)
	if e == nil {
		return nil, 0, false
	}
	return e.value, e.pin(), true
}

// Put implements Cache.
func (c *ARC) Put(key string, value any, size int64) {
	if size > c.capacity {
		c.Remove(key)
		return
	}
	c.insert(key, value, size)
	c.balance()
}

// PutPinned implements Pinner.
func (c *ARC) PutPinned(key string, value any, size int64) {
	c.insert(key, value, size).pin()
	c.balance()
}

// Unpin implements Pinner.
func (c *ARC) Unpin(key string, remove bool) (any, int, bool) {
	return unpin(c, &c.core, key, remove)
}

// insert stores the value, adapting p on a ghost hit. An existing entry
// keeps its pins.
func (c *ARC) insert(key string, value any, size int64) *entry {
	if e, ok := c.items[key]; ok {
		e.list.remove(e)
		e.value, e.size = value, size
		// A rewrite counts as a repeat access.
		c.t2.pushFront(e)
		return e
	}
	e := &entry{key: key, value: value, size: size}
	switch {
	case c.b1[key] != 0:
		// Ghost hit in B1: recency is winning, grow p.
		c.p = minInt64(c.capacity, c.p+maxInt64(c.b2Bytes()/maxInt64(c.b1Bytes(), 1), 1)*size)
		c.dropGhost(key)
		c.t2.pushFront(e)
	case c.b2[key] != 0:
		// Ghost hit in B2: frequency is winning, shrink p.
		c.p = maxInt64(0, c.p-maxInt64(c.b1Bytes()/maxInt64(c.b2Bytes(), 1), 1)*size)
		c.dropGhost(key)
		c.t2.pushFront(e)
	default:
		c.t1.pushFront(e)
	}
	c.items[key] = e
	return e
}

// balance evicts resident entries until the byte budget holds, choosing the
// victim list by comparing |T1| with the adaptive target p. Pinned entries
// are skipped; when the chosen list holds only pinned entries the victim
// comes from the other. Ghosts only grow here, so they are trimmed here.
func (c *ARC) balance() {
	evicted := false
	for c.t1.bytes+c.t2.bytes > c.capacity {
		first, second := &c.t2, &c.t1
		if c.t1.bytes > c.p {
			first, second = second, first
		}
		victim := first.victim()
		if victim == nil {
			victim = second.victim()
		}
		if victim == nil {
			break
		}
		c.evict(victim)
		evicted = true
	}
	if evicted {
		c.trimGhosts()
	}
}

func (c *ARC) evict(e *entry) {
	if e.list == &c.t1 {
		c.addGhost(c.b1, &c.b1o, e)
	} else {
		c.addGhost(c.b2, &c.b2o, e)
	}
	e.list.remove(e)
	c.evicted(e)
}

func (c *ARC) addGhost(m map[string]int64, order *[]string, e *entry) {
	if m[e.key] == 0 {
		*order = append(*order, e.key)
	}
	m[e.key] = e.size
}

// dropGhost removes key from whichever ghost list holds it.
func (c *ARC) dropGhost(key string) {
	delete(c.b1, key)
	delete(c.b2, key)
}

// trimGhosts bounds the ghost directories to one capacity's worth of keys
// each (the classic ARC invariant |L1|+|L2| <= 2c, adapted to bytes).
func (c *ARC) trimGhosts() {
	trim := func(m map[string]int64, order *[]string) {
		var total int64
		for _, s := range m {
			total += s
		}
		for total > c.capacity && len(*order) > 0 {
			old := (*order)[0]
			*order = (*order)[1:]
			if sz, ok := m[old]; ok {
				total -= sz
				delete(m, old)
			}
		}
		// Compact order slices of keys already removed via dropGhost.
		if len(*order) > 4*len(m)+16 {
			kept := (*order)[:0]
			for _, k := range *order {
				if _, ok := m[k]; ok {
					kept = append(kept, k)
				}
			}
			*order = kept
		}
	}
	trim(c.b1, &c.b1o)
	trim(c.b2, &c.b2o)
}

func (c *ARC) b1Bytes() int64 {
	var t int64
	for _, s := range c.b1 {
		t += s
	}
	return t
}

func (c *ARC) b2Bytes() int64 {
	var t int64
	for _, s := range c.b2 {
		t += s
	}
	return t
}

// Remove implements Cache.
func (c *ARC) Remove(key string) {
	if e, ok := c.items[key]; ok {
		e.list.remove(e)
		delete(c.items, key)
	}
	c.dropGhost(key)
}

// SizeBytes implements Cache.
func (c *ARC) SizeBytes() int64 { return c.t1.bytes + c.t2.bytes }

var (
	_ Cache  = (*ARC)(nil)
	_ Pinner = (*ARC)(nil)
)

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
