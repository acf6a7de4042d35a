package memmgr

import (
	"sync/atomic"
	"testing"
)

// TestInsertBudgetsPrebuiltValues pins the materialization path: Insert
// registers an already built value as a pinned entry with no cold-load or
// disk accounting, its bytes push cold unpinned entries out of the budget,
// and a second Insert (or Acquire) of the key shares the resident entry.
func TestInsertBudgetsPrebuiltValues(t *testing.T) {
	m := New(1000, "")
	var calls atomic.Int64
	// Fill the budget with a cold, unpinned column.
	if _, _, err := m.Acquire("cold", loader(&calls, 900)); err != nil {
		t.Fatal(err)
	}
	m.Release("cold")
	if st := m.Stats(); st.ResidentBytes != 900 {
		t.Fatalf("resident = %d, want 900", st.ResidentBytes)
	}
	// Inserting 800 pinned bytes leaves room for 200 unpinned ones: the
	// cold entry must be evicted to make room.
	v := m.Insert("virt", []byte("built"), 800, true)
	if v == nil {
		t.Fatal("Insert returned nil")
	}
	st := m.Stats()
	if st.ResidentBytes != 800 || st.PinnedBytes != 800 {
		t.Fatalf("after insert: resident=%d pinned=%d, want 800/800", st.ResidentBytes, st.PinnedBytes)
	}
	if st.Evictions != 1 || st.EvictedBytes != 900 {
		t.Fatalf("insert did not displace the cold entry: %+v", st)
	}
	if st.ColdLoads != 1 || st.DiskBytesRead != 1800 {
		t.Fatalf("insert must not count as a cold load: %+v", st)
	}
	if st.VirtualBytes != 800 {
		t.Fatalf("virtual bytes = %d, want 800", st.VirtualBytes)
	}
	// A racing Insert of the same key pins and returns the resident value,
	// dropping the duplicate.
	if got := m.Insert("virt", []byte("other"), 800, true); string(got.([]byte)) != "built" {
		t.Fatalf("second insert returned %q, want the resident value", got)
	}
	if st := m.Stats(); st.ResidentBytes != 800 || st.VirtualBytes != 800 {
		t.Fatalf("duplicate insert changed accounting: %+v", st)
	}
	m.Release("virt")
	m.Release("virt")
	// Unpinned now; still resident, still virtual.
	if st := m.Stats(); st.PinnedBytes != 0 || st.VirtualBytes != 800 {
		t.Fatalf("after release: %+v", st)
	}
	// Reloading it via AcquireVirtual is a warm hit on the inserted entry.
	_, cold, err := m.AcquireVirtual("virt", loader(&calls, 800))
	if err != nil || cold {
		t.Fatalf("AcquireVirtual after insert: cold=%v err=%v", cold, err)
	}
	m.Release("virt")
}

// TestVirtualBytesFollowsResidency: the gauge grows when a virtual entry
// becomes resident and shrinks on eviction and on oversized drops, across
// both Acquire and Insert entry points.
func TestVirtualBytesFollowsResidency(t *testing.T) {
	m := New(1000, "")
	var calls atomic.Int64
	if _, _, err := m.AcquireVirtual("v1", loader(&calls, 400)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Acquire("p1", loader(&calls, 300)); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.VirtualBytes != 400 {
		t.Fatalf("virtual bytes = %d, want 400 (physical entries must not count)", st.VirtualBytes)
	}
	m.Release("v1")
	m.Release("p1")
	// Displace v1 with a fresh 900-byte load: the policy evicts it, and the
	// gauge must follow.
	if _, _, err := m.Acquire("big", loader(&calls, 900)); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.VirtualBytes != 0 {
		t.Fatalf("virtual bytes = %d after eviction, want 0", st.VirtualBytes)
	}
	m.Release("big")

	// Oversized virtual entry: dropped on release, gauge back to zero.
	m2 := New(100, "")
	m2.Insert("huge", []byte("x"), 500, true)
	if st := m2.Stats(); st.VirtualBytes != 500 {
		t.Fatalf("pinned oversized virtual = %d, want 500", st.VirtualBytes)
	}
	m2.Release("huge")
	if st := m2.Stats(); st.VirtualBytes != 0 || st.ResidentBytes != 0 {
		t.Fatalf("oversized drop left %+v", st)
	}
}
