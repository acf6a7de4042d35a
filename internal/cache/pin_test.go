package cache

import (
	"fmt"
	"testing"
)

// FuzzPinnedNeverEvicted runs fuzzCache over 16 keys, so that pins pile
// up on the few entries the budget holds.
func FuzzPinnedNeverEvicted(f *testing.F) {
	f.Add([]byte{1, 0, 40, 1, 1, 40, 1, 2, 40, 0, 3, 90, 3, 0, 0, 3, 1, 1})
	f.Add([]byte{1, 5, 200, 0, 6, 10, 2, 6, 0, 0, 7, 120, 3, 5, 0, 3, 6, 0, 4, 7, 0})
	f.Add([]byte{0, 1, 60, 4, 1, 0, 2, 1, 0, 0, 2, 60, 0, 3, 60, 5, 1, 0, 3, 1, 0})
	f.Fuzz(func(t *testing.T, ops []byte) { fuzzCache(t, ops, 16) })
}

// FuzzCacheInvariants runs fuzzCache over 256 keys, so that keys leave and
// re-enter S, as ghosts and as LIR entries.
func FuzzCacheInvariants(f *testing.F) {
	f.Add([]byte{0, 1, 10, 4, 1, 0, 0, 2, 10, 0, 3, 10, 4, 2, 0, 0, 4, 100, 0, 5, 100, 4, 3, 0})
	f.Add([]byte{1, 9, 120, 0, 8, 30, 4, 8, 0, 6, 9, 0, 3, 9, 1, 6, 8, 0, 0, 200, 255, 5, 8, 0})
	f.Add([]byte{0, 1, 5, 4, 1, 0, 0, 2, 5, 0, 3, 5, 0, 4, 5, 0, 5, 5, 0, 6, 5, 0, 7, 5, 4, 2, 0, 2, 2, 0, 6, 3, 0})
	f.Fuzz(func(t *testing.T, ops []byte) { fuzzCache(t, ops, 256) })
}

// fuzzCache runs random Put, PutPinned, Pin, Unpin, Get, Remove and Drop
// calls against a cache of 1000 bytes next to a shadow model of what is
// resident and how often it is pinned. Each input byte triple is one call:
// the operation, the key (one of keys) and a size from 0 to twice the
// capacity. After every call it checks that Len, SizeBytes and Keys match
// the model; that no eviction names a pinned key, Drop leaves pinned keys
// where they are, and pinned keys stay resident; that onEvict fires once
// per counted eviction and never inside Drop, Remove or an Unpin with
// remove; that the resident bytes stay within max(capacity, pinned bytes),
// so within the capacity with nothing pinned; and LIRS's structure.
func fuzzCache(t *testing.T, ops []byte, keys int) {
	const capacity = 1000
	resident := map[string]int64{}
	pins := map[string]int{}
	var evicted int64
	removing := false
	c := New(capacity, func(key string, _ any, size int64) {
		if removing {
			t.Fatalf("evicted %q inside Drop, Remove or an Unpin with remove", key)
		}
		if pins[key] > 0 {
			t.Fatalf("evicted %q holding %d pins", key, pins[key])
		}
		if got, ok := resident[key]; !ok || got != size {
			t.Fatalf("evicted %q (size %d), model has %d, %v", key, size, got, ok)
		}
		delete(resident, key)
		evicted++
	})
	for i := 0; i+2 < len(ops); i += 3 {
		key := fmt.Sprintf("k%d", int(ops[i+1])%keys)
		size := int64(ops[i+2]) * 2 * capacity / 255
		_, isResident := resident[key]
		switch ops[i] % 7 {
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
			removing = remove
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
			removing = true
			c.Remove(key)
		case 6:
			if pins[key] == 0 {
				delete(resident, key)
			}
			removing = true
			_, n, ok := c.Drop(key)
			if ok != isResident || n != pins[key] {
				t.Fatalf("Drop(%q) = %d, %v; model %d, %v", key, n, ok, pins[key], isResident)
			}
		}
		removing = false
		op := i / 3
		held := map[string]bool{}
		for _, k := range c.Keys() {
			held[k] = true
		}
		var bytes, pinned int64
		for k, s := range resident {
			bytes += s
			if pins[k] > 0 {
				pinned += s
			}
			if !held[k] {
				t.Fatalf("op %d: %q resident in the model only", op, k)
			}
		}
		if len(held) != len(resident) || c.Len() != len(resident) || c.SizeBytes() != bytes {
			t.Fatalf("op %d: Keys %d Len %d SizeBytes %d, model %d %d", op, len(held), c.Len(), c.SizeBytes(), len(resident), bytes)
		}
		for k, n := range pins {
			if n > 0 && !held[k] {
				t.Fatalf("op %d: pinned %q is not resident", op, k)
			}
		}
		if c.Stats().Evictions != evicted {
			t.Fatalf("op %d: %d evictions counted, onEvict fired %d times", op, c.Stats().Evictions, evicted)
		}
		if c.SizeBytes() > max(capacity, pinned) {
			t.Fatalf("op %d: %d bytes resident over a %d budget with %d pinned", op, c.SizeBytes(), capacity, pinned)
		}
		checkLIRS(t, c, op)
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
