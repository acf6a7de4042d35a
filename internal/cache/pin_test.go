package cache

import (
	"fmt"
	"testing"
)

// pinPolicies returns one fresh pinning cache per implementation.
func pinPolicies(capacity int64) []interface {
	Cache
	Pinner
	EvictionNotifier
	KeyLister
} {
	return []interface {
		Cache
		Pinner
		EvictionNotifier
		KeyLister
	}{NewLRU(capacity), NewTwoQ(capacity), NewARC(capacity)}
}

// FuzzPinnedNeverEvicted runs random Put, pinned insert, Pin, Unpin, Get
// and Remove calls against every policy next to a shadow model of what is
// resident and how often it is pinned. Each input byte triple is one call:
// the operation, the key, and a size (some larger than the capacity). It
// checks that no eviction names a pinned key, that every pinned key stays
// resident, that the budget is exceeded only while every resident entry is
// pinned, and that Len and SizeBytes match the model.
func FuzzPinnedNeverEvicted(f *testing.F) {
	f.Add([]byte{1, 0, 40, 1, 1, 40, 1, 2, 40, 0, 3, 90, 3, 0, 0, 3, 1, 1})
	f.Add([]byte{1, 5, 200, 0, 6, 10, 2, 6, 0, 0, 7, 120, 3, 5, 0, 3, 6, 0, 4, 7, 0})
	f.Add([]byte{0, 1, 60, 4, 1, 0, 2, 1, 0, 0, 2, 60, 0, 3, 60, 5, 1, 0, 3, 1, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const capacity = 1000
		for _, c := range pinPolicies(capacity) {
			resident := map[string]int64{}
			pins := map[string]int{}
			c.OnEvict(func(key string, _ any, size int64) {
				if pins[key] > 0 {
					t.Fatalf("%s: evicted %q holding %d pins", c.Name(), key, pins[key])
				}
				if got, ok := resident[key]; !ok || got != size {
					t.Fatalf("%s: evicted %q (size %d), model has %d, %v", c.Name(), key, size, got, ok)
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
						t.Fatalf("%s: Pin(%q) = %d, %v; model %d, %v", c.Name(), key, n, ok, pins[key], isResident)
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
						t.Fatalf("%s: Unpin(%q) = %d, %v; model %d, %v", c.Name(), key, n, ok, pins[key], held)
					}
				case 4:
					if _, ok := c.Get(key); ok != isResident {
						t.Fatalf("%s: Get(%q) hit = %v, model %v", c.Name(), key, ok, isResident)
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
						t.Fatalf("%s: op %d: %q resident in the model only", c.Name(), i/3, k)
					}
				}
				if c.Len() != len(resident) || c.SizeBytes() != bytes {
					t.Fatalf("%s: op %d: Len %d SizeBytes %d, model %d %d", c.Name(), i/3, c.Len(), c.SizeBytes(), len(resident), bytes)
				}
				for k, n := range pins {
					if n > 0 && !keys[k] {
						t.Fatalf("%s: op %d: pinned %q is not resident", c.Name(), i/3, k)
					}
				}
				if c.SizeBytes() > capacity {
					for k := range resident {
						if pins[k] == 0 {
							t.Fatalf("%s: op %d: %d bytes over a %d budget with %q unpinned", c.Name(), i/3, c.SizeBytes(), capacity, k)
						}
					}
				}
			}
		}
	})
}

// TestPinSurvivesScan: a pinned entry outlives a flood that would evict it,
// the budget holds again once its last pin drops, and a second Unpin
// reports no pin.
func TestPinSurvivesScan(t *testing.T) {
	for _, c := range pinPolicies(500) {
		t.Run(c.Name(), func(t *testing.T) {
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
}

// TestUnpinOversizedEvicts: an entry admitted pinned beyond the capacity is
// dropped, as an eviction, when its last pin goes; with remove it leaves
// without counting one.
func TestUnpinOversizedEvicts(t *testing.T) {
	for _, c := range pinPolicies(100) {
		t.Run(c.Name(), func(t *testing.T) {
			var evicted []string
			c.OnEvict(func(key string, _ any, _ int64) { evicted = append(evicted, key) })
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
}
