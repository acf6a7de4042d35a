package dict

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// inBlock reports whether s's bytes start inside d's block.
func inBlock(d *StringArray, s string) bool {
	lo := uintptr(unsafe.Pointer(unsafe.StringData(d.data)))
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	return p >= lo && p < lo+uintptr(len(d.data))
}

// TestStringValuesAreCopies: StringAt reads the block in place, and Value
// returns a copy whose bytes lie outside the block, so a value kept after
// its dictionary is dropped does not keep the block alive.
func TestStringValuesAreCopies(t *testing.T) {
	vals := sortedStrings(500)
	arr := NewStringArray(vals)
	for id := range vals {
		id := uint32(id)
		if s := arr.StringAt(id); !inBlock(arr, s) || s != vals[id] {
			t.Fatalf("StringAt(%d) = %q does not read the block in place", id, s)
		}
		if s := arr.Value(id).Str(); inBlock(arr, s) || s != vals[id] {
			t.Fatalf("Value(%d) = %q lies in the block", id, s)
		}
	}
}

// TestStringArrayHeapIsMemoryBytes: what MemoryBytes charges a string
// array is what it holds. Building one of 10 000 values, with its hashes
// memoized, grows the live heap by within 10 % of MemoryBytes.
func TestStringArrayHeapIsMemoryBytes(t *testing.T) {
	vals := sortedStrings(10_000)
	var before, after runtime.MemStats
	// The first collection can leave some of sortedStrings' garbage
	// counted; the second settles the baseline.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	arr := NewStringArray(vals)
	arr.Hash(0)
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	charged := arr.MemoryBytes()
	t.Logf("heap grew %d bytes, MemoryBytes %d", grew, charged)
	if grew < charged*9/10 || grew > charged*11/10 {
		t.Errorf("a %d-value array grew the heap by %d bytes; MemoryBytes charges %d", arr.Len(), grew, charged)
	}
	runtime.KeepAlive(arr)
	runtime.KeepAlive(vals)
}

// TestStringArrayOfRefuses: the one constructor refuses offsets that do
// not span the block or go back, and values that do not ascend strictly.
func TestStringArrayOfRefuses(t *testing.T) {
	for _, c := range []struct {
		data string
		off  []uint32
	}{
		{"", nil},
		{"ab", []uint32{1, 2}},
		{"ab", []uint32{0, 1}},
		{"ab", []uint32{0, 3}},
		{"abc", []uint32{0, 2, 1, 3}},
		{"ba", []uint32{0, 1, 2}},
		{"aa", []uint32{0, 1, 2}},
		{"a", []uint32{0, 0, 1, 1}},
	} {
		if _, err := StringArrayOf(c.data, c.off); err == nil {
			t.Errorf("StringArrayOf(%q, %v) accepted", c.data, c.off)
		}
	}
	d, err := StringArrayOf(packStrings([]string{"", "a", strings.Repeat("b", 300)}))
	if err != nil || d.Len() != 3 || d.StringAt(0) != "" || d.StringAt(2) != strings.Repeat("b", 300) {
		t.Fatalf("packed block: %v, %d values", err, d.Len())
	}
	if empty := NewStringArray(nil); empty.Len() != 0 || empty.FindGE(d.Value(1)) != 0 {
		t.Fatalf("empty array: %d values", empty.Len())
	}
}
