package cache

import (
	"fmt"
	"testing"
)

// FuzzPinnedNeverEvicted runs random Put, pinned insert, Pin, Unpin, Get
// and Remove calls against the cache next to a shadow model of what is
// resident and how often it is pinned. Each input byte triple is one call:
// the operation, the key, and a size (some larger than the capacity). It
// checks that no eviction names a pinned key, that every pinned key stays
// resident, that the budget is exceeded only while every resident entry is
// pinned, that Len and SizeBytes match the model, and that the ghost queue
// A1out is its map's keys, at most kout of them, none resident.
func FuzzPinnedNeverEvicted(f *testing.F) {
	f.Add([]byte{1, 0, 40, 1, 1, 40, 1, 2, 40, 0, 3, 90, 3, 0, 0, 3, 1, 1})
	f.Add([]byte{1, 5, 200, 0, 6, 10, 2, 6, 0, 0, 7, 120, 3, 5, 0, 3, 6, 0, 4, 7, 0})
	f.Add([]byte{0, 1, 60, 4, 1, 0, 2, 1, 0, 0, 2, 60, 0, 3, 60, 5, 1, 0, 3, 1, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const capacity = 1000
		resident := map[string]int64{}
		pins := map[string]int{}
		c := New(capacity, func(key string, _ any, size int64) {
			if pins[key] > 0 {
				t.Fatalf("evicted %q holding %d pins", key, pins[key])
			}
			if got, ok := resident[key]; !ok || got != size {
				t.Fatalf("evicted %q (size %d), model has %d, %v", key, size, got, ok)
			}
			delete(resident, key)
		})
		for i := 0; i+2 < len(ops); i += 3 {
			key := fmt.Sprintf("k%d", ops[i+1]%16)
			size := int64(ops[i+2]) * 8
			_, isResident := resident[key]
			switch ops[i] % 6 {
			case 0:
				if size > capacity {
					delete(resident, key)
					delete(pins, key)
				} else {
					resident[key] = size
				}
				c.Put(key, i, size)
			case 1:
				resident[key] = size
				pins[key]++
				c.PutPinned(key, i, size)
			case 2:
				if isResident {
					pins[key]++
				}
				_, n, ok := c.Pin(key)
				if ok != isResident || n != pins[key] && ok {
					t.Fatalf("Pin(%q) = %d, %v; model %d, %v", key, n, ok, pins[key], isResident)
				}
			case 3:
				remove := size%16 == 0
				held := pins[key] > 0
				if held {
					pins[key]--
					if pins[key] == 0 && remove {
						delete(resident, key)
					}
				}
				_, n, ok := c.Unpin(key, remove)
				if ok != held || n != pins[key] {
					t.Fatalf("Unpin(%q) = %d, %v; model %d, %v", key, n, ok, pins[key], held)
				}
			case 4:
				if _, ok := c.Get(key); ok != isResident {
					t.Fatalf("Get(%q) hit = %v, model %v", key, ok, isResident)
				}
			case 5:
				delete(resident, key)
				delete(pins, key)
				c.Remove(key)
			}
			keys := map[string]bool{}
			for _, k := range c.Keys() {
				keys[k] = true
			}
			var bytes int64
			for k, s := range resident {
				bytes += s
				if !keys[k] {
					t.Fatalf("op %d: %q resident in the model only", i/3, k)
				}
			}
			if c.Len() != len(resident) || c.SizeBytes() != bytes {
				t.Fatalf("op %d: Len %d SizeBytes %d, model %d %d", i/3, c.Len(), c.SizeBytes(), len(resident), bytes)
			}
			for k, n := range pins {
				if n > 0 && !keys[k] {
					t.Fatalf("op %d: pinned %q is not resident", i/3, k)
				}
			}
			if c.SizeBytes() > capacity {
				for k := range resident {
					if pins[k] == 0 {
						t.Fatalf("op %d: %d bytes over a %d budget with %q unpinned", i/3, c.SizeBytes(), capacity, k)
					}
				}
			}
			checkA1out(t, c, i/3)
		}
	})
}

// checkA1out checks that the ghost queue A1out and its map hold the same
// keys, at most kout of them, and that no ghost is resident.
func checkA1out(t *testing.T, c *Cache, op int) {
	t.Helper()
	n := 0
	for g := c.a1out.head; g != nil; g = g.next {
		if c.ghosts[g.key] != g {
			t.Fatalf("op %d: ghost %q queued but not mapped to its entry", op, g.key)
		}
		if c.items[g.key] != nil {
			t.Fatalf("op %d: %q is both resident and a ghost", op, g.key)
		}
		n++
	}
	if n != len(c.ghosts) || n != c.a1out.n || n > kout {
		t.Fatalf("op %d: A1out queues %d keys (count %d), maps %d, bound %d", op, n, c.a1out.n, len(c.ghosts), kout)
	}
}

// TestPinSurvivesScan: a pinned entry outlives a flood that would evict it,
// the budget holds again once its last pin drops, and a second Unpin
// reports no pin.
func TestPinSurvivesScan(t *testing.T) {
	t.Run("2q", func(t *testing.T) {
		c := New(500, nil)
		c.Put("hot", "v", 100)
		if _, n, ok := c.Pin("hot"); !ok || n != 1 {
			t.Fatalf("Pin = %d, %v", n, ok)
		}
		for i := 0; i < 50; i++ {
			c.Put(fmt.Sprintf("scan%d", i), i, 100)
		}
		if _, ok := c.Get("hot"); !ok {
			t.Fatal("pinned entry evicted by a scan")
		}
		if _, n, ok := c.Unpin("hot", false); !ok || n != 0 {
			t.Fatalf("Unpin = %d, %v", n, ok)
		}
		if _, _, ok := c.Unpin("hot", false); ok {
			t.Fatal("Unpin of an unpinned entry reported a pin")
		}
		if c.SizeBytes() > 500 {
			t.Fatalf("over budget after the last unpin: %d", c.SizeBytes())
		}
	})
}

// TestUnpinOversizedEvicts: an entry admitted pinned beyond the capacity is
// dropped, as an eviction, when its last pin goes; with remove it leaves
// without counting one.
func TestUnpinOversizedEvicts(t *testing.T) {
	t.Run("2q", func(t *testing.T) {
		var evicted []string
		c := New(100, func(key string, _ any, _ int64) { evicted = append(evicted, key) })
		c.PutPinned("big", "x", 300)
		c.PutPinned("big", "x", 300)
		if c.SizeBytes() != 300 {
			t.Fatalf("pinned oversized entry not admitted: %d bytes", c.SizeBytes())
		}
		c.Unpin("big", false)
		if c.Len() != 1 {
			t.Fatal("oversized entry dropped while still pinned")
		}
		c.Unpin("big", false)
		if c.Len() != 0 || len(evicted) != 1 || c.Stats().Evictions != 1 {
			t.Fatalf("after the last unpin: len %d, evicted %v", c.Len(), evicted)
		}
		c.PutPinned("big", "x", 300)
		c.Unpin("big", true)
		if c.Len() != 0 || len(evicted) != 1 {
			t.Fatalf("Unpin with remove: len %d, evicted %v", c.Len(), evicted)
		}
	})
}
