package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// getOrPut is one access of a query: a hit, or a miss that loads and
// inserts the key. It reports the hit.
func getOrPut(c *Cache, key string, size int64) bool {
	if _, ok := c.Get(key); ok {
		return true
	}
	c.Put(key, key, size)
	return false
}

// TestLIRSLoopStaysResident is the gain over 2Q: a loop larger than the
// capacity, as a click's queries cycle their working set through the
// budget. LRU and 2Q evict each key just before its reuse; LIRS keeps the
// LIR part of the loop resident and cycles only the rest through Q.
func TestLIRSLoopStaysResident(t *testing.T) {
	c := New(3000, nil)
	hits, accesses := 0, 0
	for cycle := 0; cycle < 20; cycle++ {
		for i := 0; i < 40; i++ {
			hit := getOrPut(c, fmt.Sprintf("k%d", i), 100)
			if cycle > 0 {
				accesses++
				if hit {
					hits++
				}
			}
			checkLIRS(t, c, cycle*40+i)
		}
	}
	if hits*10 < accesses*6 {
		t.Fatalf("a 40-key loop at capacity for 30 hits %d of %d accesses after the first cycle, want ≥ 60 %%", hits, accesses)
	}
}

// fillLIR puts and hits 99 keys of 10 bytes in a cache of 1000: each hit
// makes its key LIR, so they fill all 990 LIR bytes.
func fillLIR(c *Cache) {
	for i := 0; i < 99; i++ {
		c.Put(fmt.Sprintf("base%d", i), i, 10)
		c.Get(fmt.Sprintf("base%d", i))
	}
	if c.lir.bytes != c.lirCap {
		panic("fillLIR: the LIR bytes are not full")
	}
}

// touchLIR hits every LIR entry, oldest first, so that S's HIR entries and
// ghosts all end below its LIR ones and are pruned.
func touchLIR(c *Cache) {
	var keys []string
	for e := c.s.tail; e != nil; e = e.s.prev {
		if e.t == &c.lir {
			keys = append(keys, e.key)
		}
	}
	for _, k := range keys {
		c.Get(k)
	}
}

// TestLIRSHIRBecomesLIROnReReference: a new key enters as HIR, and a hit
// while it is still in S makes it LIR, which a flood of new keys cannot
// evict. A HIR entry pruned from S stays HIR on its next hit.
func TestLIRSHIRBecomesLIROnReReference(t *testing.T) {
	c := New(1000, nil)
	fillLIR(c)
	c.Put("a", 1, 10)
	if c.items["a"].t != &c.hir {
		t.Fatal("a new key did not enter as HIR")
	}
	c.Get("a")
	if c.items["a"].t != &c.lir || c.items["base0"].t != &c.hir {
		t.Fatal("a hit on a HIR entry in S did not make it LIR and demote S's bottom")
	}
	c.Put("x", 2, 10)
	touchLIR(c)
	if x := c.items["x"]; x.t != &c.hir || x.s.in != nil {
		t.Fatal("the prune kept HIR x in S")
	}
	c.Get("x")
	if c.items["x"].t != &c.hir {
		t.Fatal("a hit on a HIR entry out of S made it LIR")
	}
	c.Get("x")
	if c.items["x"].t != &c.lir {
		t.Fatal("a second hit, in S, did not make x LIR")
	}
	for i := 0; i < 200; i++ {
		c.Put(fmt.Sprintf("flood%d", i), i, 10)
		checkLIRS(t, c, i)
	}
	for _, k := range []string{"a", "x"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("LIR %s evicted by a flood of new keys", k)
		}
	}
}

// TestLIRSGhostReturnsAsLIR: a HIR entry evicted while in S stays there as
// a ghost, and a miss on it admits it as LIR; a ghost pruned from S is
// forgotten and comes back as HIR.
func TestLIRSGhostReturnsAsLIR(t *testing.T) {
	c := New(1000, nil)
	fillLIR(c)
	c.Put("g", 1, 50) // HIR, and larger than Q's 10 bytes: evicted at once
	if _, ok := c.Get("g"); ok {
		t.Fatal("g should have been evicted")
	}
	if g := c.items["g"]; g == nil || g.t != nil || g.s.in != &c.s || g.q.in != &c.g {
		t.Fatal("evicted g is not a ghost in S")
	}
	c.Put("g", 2, 50)
	if c.items["g"].t != &c.lir {
		t.Fatal("a miss on a ghost did not admit it as LIR")
	}
	checkLIRS(t, c, 0)
	for i := 0; i < 20; i++ {
		c.Put(fmt.Sprintf("f%d", i), i, 50)
	}
	if _, ok := c.Get("g"); !ok {
		t.Error("readmitted g lost to new keys")
	}
	touchLIR(c)
	if len(c.items) != c.Len() {
		t.Fatalf("%d ghosts left below S's LIR entries", len(c.items)-c.Len())
	}
	c.Put("f0", 0, 10)
	if c.items["f0"].t != &c.hir {
		t.Fatal("a miss on a forgotten ghost did not admit it as HIR")
	}
}

// TestLIRSStackBottomIsLIR: under a random mix of every call, S's bottom
// is LIR after every prune: after each hit on a LIR entry, and after each
// hit that makes a HIR entry LIR and so demotes the bottom LIR entries. The
// tiers, Q and the ghosts agree with a walk of the lists after every call.
func TestLIRSStackBottomIsLIR(t *testing.T) {
	c := New(1000, nil)
	r := rand.New(rand.NewSource(7))
	pruned := 0
	for op := 0; op < 20000; op++ {
		key := fmt.Sprintf("k%d", r.Intn(300))
		size := int64(r.Intn(120))
		e := c.items[key]
		hitPrunes := e != nil && (e.t == &c.lir || e.t == &c.hir && e.s.in != nil && c.lir.bytes+e.size > c.lirCap)
		prunes := false
		switch r.Intn(8) {
		case 0, 1, 2:
			prunes = getOrPut(c, key, size) && hitPrunes
		case 3:
			c.PutPinned(key, key, size)
		case 4:
			c.Unpin(key, r.Intn(4) == 0)
		case 5:
			_, _, ok := c.Pin(key)
			prunes = ok && hitPrunes
		case 6:
			c.Drop(key)
		case 7:
			c.Remove(key)
		}
		if prunes {
			pruned++
			if c.s.tail.t != &c.lir {
				t.Fatalf("op %d: S's bottom %q is not LIR after a prune", op, c.s.tail.key)
			}
		}
		checkLIRS(t, c, op)
	}
	if pruned < 500 {
		t.Fatalf("only %d prunes checked", pruned)
	}
}

// TestLIRSGhostBound: S holds at most maxGhosts ghosts, and the one
// evicted longest ago is forgotten first.
func TestLIRSGhostBound(t *testing.T) {
	c := New(1000, nil)
	fillLIR(c)
	const n = 3000
	for i := 0; i < n; i++ {
		c.Put(fmt.Sprintf("s%d", i), i, 100) // HIR, evicted at once
	}
	checkLIRS(t, c, 0)
	g := c.g.head
	for i := n - 1; i >= n-maxGhosts; i-- {
		if want := fmt.Sprintf("s%d", i); g == nil || g.key != want {
			t.Fatalf("ghost list diverges at %s", want)
		}
		g = g.q.next
	}
	if g != nil || len(c.items) != 99+maxGhosts {
		t.Fatalf("%d keys held, want %d", len(c.items), 99+maxGhosts)
	}
	oldest, forgotten := fmt.Sprintf("s%d", n-maxGhosts), fmt.Sprintf("s%d", n-maxGhosts-1)
	c.Put(oldest, 0, 100)
	if c.items[oldest].t != &c.lir {
		t.Fatal("the oldest remembered ghost did not come back as LIR")
	}
	c.Put(forgotten, 0, 10)
	if c.items[forgotten].t != &c.hir {
		t.Fatal("a forgotten ghost came back as LIR")
	}
}

// checkLIRS walks S, Q and the ghost list and checks LIRS's structure:
// every LIR entry and every ghost is in S; Q holds exactly the resident
// HIR entries and the ghost list the ghosts, at most maxGhosts of them;
// every key held is mapped to its entry; and the tiers' counts, bytes and
// pins match the walk.
func checkLIRS(t *testing.T, c *Cache, op int) {
	t.Helper()
	var lir, hir tier
	ghosts := 0
	for e := c.s.head; e != nil; e = e.s.next {
		if c.items[e.key] != e || e.s.in != &c.s {
			t.Fatalf("op %d: %q in S but not mapped to its entry", op, e.key)
		}
		switch e.t {
		case &c.lir:
			lir.add(e, 1)
		case nil:
			if e.q.in != &c.g {
				t.Fatalf("op %d: ghost %q not in the ghost list", op, e.key)
			}
		}
	}
	for e := c.q.head; e != nil; e = e.q.next {
		if c.items[e.key] != e || e.t != &c.hir || e.q.in != &c.q {
			t.Fatalf("op %d: %q in Q but not a mapped resident HIR entry", op, e.key)
		}
		hir.add(e, 1)
	}
	for e := c.g.head; e != nil; e = e.q.next {
		if c.items[e.key] != e || e.t != nil || e.s.in != &c.s || e.value != nil {
			t.Fatalf("op %d: %q in the ghost list but not a mapped ghost in S", op, e.key)
		}
		ghosts++
	}
	if lir != c.lir || hir != c.hir {
		t.Fatalf("op %d: tiers LIR %+v HIR %+v, walks %+v %+v", op, c.lir, c.hir, lir, hir)
	}
	if ghosts > maxGhosts || int(lir.n+hir.n)+ghosts != len(c.items) {
		t.Fatalf("op %d: %d LIR, %d HIR and %d ghosts, %d keys mapped", op, lir.n, hir.n, ghosts, len(c.items))
	}
}
