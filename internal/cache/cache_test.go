package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// The tests of behaviour every replacement policy shares run as a subtest
// that keeps the name "2q", after the policy the cache ran before LIRS, so
// that their names stay stable across policies.
func TestBasicPutGet(t *testing.T) {
	t.Run("2q", func(t *testing.T) {
		c := New(1000, nil)
		c.Put("a", 1, 100)
		c.Put("b", 2, 100)
		if v, ok := c.Get("a"); !ok || v.(int) != 1 {
			t.Errorf("Get(a) = %v, %v", v, ok)
		}
		if v, ok := c.Get("b"); !ok || v.(int) != 2 {
			t.Errorf("Get(b) = %v, %v", v, ok)
		}
		if _, ok := c.Get("missing"); ok {
			t.Error("Get(missing) hit")
		}
		if c.Len() != 2 || c.SizeBytes() != 200 {
			t.Errorf("Len=%d Size=%d, want 2/200", c.Len(), c.SizeBytes())
		}
	})
}

func TestUpdateExistingKey(t *testing.T) {
	t.Run("2q", func(t *testing.T) {
		c := New(1000, nil)
		c.Put("k", "old", 100)
		c.Put("k", "new", 300)
		if v, _ := c.Get("k"); v != "new" {
			t.Errorf("value after update = %v", v)
		}
		if c.Len() != 1 || c.SizeBytes() != 300 {
			t.Errorf("Len=%d Size=%d after update, want 1/300", c.Len(), c.SizeBytes())
		}
	})
}

func TestBudgetEnforced(t *testing.T) {
	t.Run("2q", func(t *testing.T) {
		c := New(500, nil)
		for i := 0; i < 50; i++ {
			c.Put(fmt.Sprintf("k%d", i), i, 100)
			if c.SizeBytes() > 500 {
				t.Fatalf("budget exceeded: %d bytes after insert %d", c.SizeBytes(), i)
			}
		}
		if c.Stats().Evictions == 0 {
			t.Error("no evictions despite overflow")
		}
	})
}

func TestOversizeEntryNotCached(t *testing.T) {
	t.Run("2q", func(t *testing.T) {
		c := New(100, nil)
		c.Put("big", "x", 1000)
		if _, ok := c.Get("big"); ok {
			t.Error("oversize entry was cached")
		}
		// An oversize rewrite of an existing key must also drop it.
		c.Put("k", 1, 50)
		c.Put("k", 2, 1000)
		if _, ok := c.Get("k"); ok {
			t.Error("oversize rewrite left stale entry")
		}
	})
}

func TestRemove(t *testing.T) {
	t.Run("2q", func(t *testing.T) {
		c := New(1000, nil)
		c.Put("a", 1, 10)
		c.Remove("a")
		if _, ok := c.Get("a"); ok {
			t.Error("removed key still present")
		}
		c.Remove("never-there") // must not panic
		if c.Len() != 0 || c.SizeBytes() != 0 {
			t.Errorf("Len=%d Size=%d after removals", c.Len(), c.SizeBytes())
		}
	})
}

func TestStatsCounters(t *testing.T) {
	t.Run("2q", func(t *testing.T) {
		c := New(1000, nil)
		c.Put("a", 1, 10)
		c.Get("a")
		c.Get("a")
		c.Get("nope")
		s := c.Stats()
		if s.Hits != 2 || s.Misses != 1 {
			t.Errorf("stats = %+v, want 2 hits 1 miss", s)
		}
		if got := s.HitRate(); got < 0.66 || got > 0.67 {
			t.Errorf("HitRate = %f", got)
		}
		if (Stats{}).HitRate() != 0 {
			t.Error("zero Stats HitRate != 0")
		}
	})
}

// TestScanResistance is the behaviour the paper replaces LRU for: a hot
// working set accessed repeatedly must survive a one-time scan of many cold
// keys. Plain LRU loses the entire working set; LIRS keeps all of it.
func TestScanResistance(t *testing.T) {
	c := New(100*10, nil) // 100 entries of size 10
	hot := make([]string, 50)
	for i := range hot {
		hot[i] = fmt.Sprintf("hot%d", i)
	}
	// Warm the working set with repeated accesses.
	for pass := 0; pass < 5; pass++ {
		for _, k := range hot {
			if _, ok := c.Get(k); !ok {
				c.Put(k, k, 10)
			}
		}
	}
	// One-time scan of 1000 cold keys.
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("scan%d", i)
		if _, ok := c.Get(k); !ok {
			c.Put(k, k, 10)
		}
	}
	for _, k := range hot {
		if _, ok := c.Get(k); !ok {
			t.Errorf("hot key %q lost to a one-time scan", k)
		}
	}
}

// TestDropSkipsPinned: Drop removes an unpinned entry and leaves a pinned
// one where it is, counting no hit, miss or eviction.
func TestDropSkipsPinned(t *testing.T) {
	c := New(1000, nil)
	c.Put("a", 1, 100)
	c.PutPinned("p", 2, 100)
	if v, pins, ok := c.Drop("a"); !ok || pins != 0 || v != 1 {
		t.Fatalf("Drop(a) = %v, %d, %v", v, pins, ok)
	}
	if v, pins, ok := c.Drop("p"); !ok || pins != 1 || v != 2 {
		t.Fatalf("Drop(p) = %v, %d, %v", v, pins, ok)
	}
	if _, _, ok := c.Drop("a"); ok {
		t.Fatal("Drop of an absent key reported it")
	}
	if p := c.items["p"]; c.Len() != 1 || p.t != &c.hir || p.q.in != &c.q {
		t.Fatal("Drop moved the pinned entry out of Q")
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("Drop counted %+v", s)
	}
}

func TestConstructorsPanicOnBadCapacity(t *testing.T) {
	for _, capacity := range []int64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", capacity)
				}
			}()
			New(capacity, nil)
		}()
	}
}

// TestRandomizedConsistency hammers the cache with a random workload and
// checks the structural invariants after every operation.
func TestRandomizedConsistency(t *testing.T) {
	t.Run("2q", func(t *testing.T) {
		c := New(1000, nil)
		r := rand.New(rand.NewSource(42))
		for op := 0; op < 5000; op++ {
			k := fmt.Sprintf("k%d", r.Intn(200))
			switch r.Intn(3) {
			case 0:
				c.Put(k, op, int64(10+r.Intn(90)))
			case 1:
				c.Get(k)
			case 2:
				c.Remove(k)
			}
			if c.SizeBytes() > 1000 {
				t.Fatalf("op %d: budget exceeded (%d bytes)", op, c.SizeBytes())
			}
			if c.SizeBytes() < 0 || c.Len() < 0 {
				t.Fatalf("op %d: negative accounting", op)
			}
		}
	})
}

func BenchmarkGetHit(b *testing.B) {
	c := New(1<<20, nil)
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("k%d", i), i, 64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get("k50")
	}
}

func BenchmarkPutChurn(b *testing.B) {
	c := New(64*1024, nil)
	for i := 0; i < b.N; i++ {
		c.Put(fmt.Sprintf("k%d", i%4096), i, 64)
	}
}

func TestKeysEnumeratesEveryPolicy(t *testing.T) {
	t.Run("2q", func(t *testing.T) {
		c := New(1000, nil)
		c.Put("ns1/a", 1, 100)
		c.Put("ns1/b", 2, 100)
		c.Put("ns2/a", 3, 100)
		keys := c.Keys()
		if len(keys) != 3 {
			t.Fatalf("Keys() = %v, want 3 entries", keys)
		}
		seen := map[string]bool{}
		for _, k := range keys {
			seen[k] = true
		}
		for _, want := range []string{"ns1/a", "ns1/b", "ns2/a"} {
			if !seen[want] {
				t.Errorf("Keys() missing %q: %v", want, keys)
			}
		}
		c.Remove("ns1/b")
		if got := len(c.Keys()); got != 2 {
			t.Errorf("Keys() after Remove = %d entries, want 2", got)
		}
	})
}
