package dict

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"powerdrill/internal/sketch"
	"powerdrill/internal/value"
)

// sortedStrings produces n sorted distinct strings shaped like the paper's
// table_name field: long shared prefixes with date suffixes.
func sortedStrings(n int) []string {
	set := make(map[string]bool, n)
	r := rand.New(rand.NewSource(int64(n)))
	prefixes := []string{
		"logs.powerdrill.queries_",
		"logs.websearch.sessions_",
		"ads.revenue.daily_",
		"user.tables.tmp_",
	}
	for len(set) < n {
		p := prefixes[r.Intn(len(prefixes))]
		set[fmt.Sprintf("%s2011%02d%02d_%04d", p, r.Intn(12)+1, r.Intn(28)+1, r.Intn(10000))] = true
	}
	out := make([]string, 0, n)
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// stringDicts builds each string dictionary implementation over vals.
func stringDicts(vals []string) map[string]Dict {
	return map[string]Dict{
		"array": NewStringArray(vals),
		"trie":  NewTrie(vals),
	}
}

func TestStringDictsAgree(t *testing.T) {
	vals := sortedStrings(500)
	for name, d := range stringDicts(vals) {
		t.Run(name, func(t *testing.T) {
			if d.Len() != len(vals) {
				t.Fatalf("Len = %d, want %d", d.Len(), len(vals))
			}
			for i, want := range vals {
				if got := d.Value(uint32(i)).Str(); got != want {
					t.Fatalf("Value(%d) = %q, want %q", i, got, want)
				}
				id, ok := d.Lookup(value.String(want))
				if !ok || id != uint32(i) {
					t.Fatalf("Lookup(%q) = %d, %v; want %d", want, id, ok, i)
				}
			}
			for _, probe := range []string{"", "zzz.not.there", "logs.powerdrill.queries_", vals[0] + "x"} {
				if _, ok := d.Lookup(value.String(probe)); ok {
					t.Errorf("Lookup(%q) spuriously found", probe)
				}
			}
			if _, ok := d.Lookup(value.Int64(5)); ok {
				t.Error("Lookup of wrong kind succeeded")
			}
		})
	}
}

func TestFindGEAgreesAcrossImpls(t *testing.T) {
	vals := sortedStrings(300)
	ref := NewStringArray(vals)
	for name, d := range stringDicts(vals) {
		t.Run(name, func(t *testing.T) {
			probes := append([]string{}, vals[10], vals[0], vals[len(vals)-1], "", "\xff\xff", "m")
			for _, v := range vals[:50] {
				probes = append(probes, v+"0", v[:len(v)-1])
			}
			for _, p := range probes {
				want := ref.FindGE(value.String(p))
				if got := d.FindGE(value.String(p)); got != want {
					t.Errorf("FindGE(%q) = %d, want %d", p, got, want)
				}
			}
		})
	}
}

func TestEmptyAndSingletonDicts(t *testing.T) {
	for name, d := range stringDicts(nil) {
		if d.Len() != 0 {
			t.Errorf("%s: empty dict Len = %d", name, d.Len())
		}
		if _, ok := d.Lookup(value.String("x")); ok {
			t.Errorf("%s: empty dict Lookup hit", name)
		}
	}
	single := []string{"only"}
	for name, d := range stringDicts(single) {
		if d.Len() != 1 || d.Value(0).Str() != "only" {
			t.Errorf("%s: singleton dict broken", name)
		}
		if id, ok := d.Lookup(value.String("only")); !ok || id != 0 {
			t.Errorf("%s: singleton Lookup = %d, %v", name, id, ok)
		}
	}
}

func TestEmptyStringValue(t *testing.T) {
	vals := []string{"", "a", "ab"}
	for name, d := range stringDicts(vals) {
		id, ok := d.Lookup(value.String(""))
		if !ok || id != 0 {
			t.Errorf("%s: Lookup(\"\") = %d, %v; want 0, true", name, id, ok)
		}
		if got := d.Value(0).Str(); got != "" {
			t.Errorf("%s: Value(0) = %q, want empty", name, got)
		}
	}
}

func TestConstructorsPanicOnUnsorted(t *testing.T) {
	bad := [][]string{{"b", "a"}, {"a", "a"}}
	for _, vals := range bad {
		for _, build := range []func(){
			func() { NewStringArray(vals) },
			func() { NewTrie(vals) },
			func() { NewByteTrie(vals) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("constructor accepted unsorted input %v", vals)
					}
				}()
				build()
			}()
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewInt64s accepted unsorted input")
			}
		}()
		NewInt64s([]int64{2, 1})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewFloat64s accepted duplicate input")
			}
		}()
		NewFloat64s([]float64{1, 1})
	}()
}

func TestInt64Dict(t *testing.T) {
	vals := []int64{-50, -7, 0, 3, 1000, 1 << 40}
	d := NewInt64s(vals)
	if d.Kind() != value.KindInt64 || d.Len() != len(vals) {
		t.Fatal("basic properties wrong")
	}
	for i, v := range vals {
		if d.Int64At(uint32(i)) != v {
			t.Errorf("Int64At(%d) = %d", i, d.Int64At(uint32(i)))
		}
		id, ok := d.LookupInt64(v)
		if !ok || id != uint32(i) {
			t.Errorf("LookupInt64(%d) = %d, %v", v, id, ok)
		}
	}
	if _, ok := d.LookupInt64(1); ok {
		t.Error("LookupInt64(absent) hit")
	}
	if got := d.FindGE(value.Int64(1)); got != 3 {
		t.Errorf("FindGE(1) = %d, want 3", got)
	}
	if got := d.FindGE(value.Int64(1 << 50)); got != uint32(len(vals)) {
		t.Errorf("FindGE(big) = %d, want %d", got, len(vals))
	}
	if d.MemoryBytes() != int64(len(vals)*8) {
		t.Errorf("MemoryBytes = %d", d.MemoryBytes())
	}
}

func TestFloat64Dict(t *testing.T) {
	vals := []float64{-2.5, 0, 0.25, 1e9}
	d := NewFloat64s(vals)
	if d.Kind() != value.KindFloat64 || d.Len() != len(vals) {
		t.Fatal("basic properties wrong")
	}
	for i, v := range vals {
		id, ok := d.LookupFloat64(v)
		if !ok || id != uint32(i) || d.Float64At(uint32(i)) != v {
			t.Errorf("float dict broken at %d", i)
		}
	}
	if got := d.FindGE(value.Float64(0.1)); got != 2 {
		t.Errorf("FindGE(0.1) = %d, want 2", got)
	}
}

func TestHashDistinctness(t *testing.T) {
	vals := sortedStrings(200)
	for name, d := range stringDicts(vals) {
		seen := map[uint64]bool{}
		for i := 0; i < d.Len(); i++ {
			h := d.Hash(uint32(i))
			if want := sketch.HashString(vals[i]); h != want {
				t.Errorf("%s: Hash(%d) = %#x, want the value's own hash %#x", name, i, h, want)
			}
			if seen[h] {
				t.Errorf("%s: hash collision at id %d", name, i)
			}
			seen[h] = true
		}
	}
	di := NewInt64s([]int64{1, 2, 3})
	df := NewFloat64s([]float64{1.5, 2.5})
	if di.Hash(0) == di.Hash(1) || df.Hash(0) == df.Hash(1) {
		t.Error("numeric hash collision")
	}
}

func TestQuickArrayVsTrie(t *testing.T) {
	f := func(raw []string) bool {
		set := map[string]bool{}
		for _, s := range raw {
			// Nibble tries handle arbitrary bytes; exercise that.
			set[s] = true
		}
		vals := make([]string, 0, len(set))
		for s := range set {
			vals = append(vals, s)
		}
		sort.Strings(vals)
		arr, trie := NewStringArray(vals), NewTrie(vals)
		for i, s := range vals {
			ai, aok := arr.LookupString(s)
			ti, tok := trie.LookupString(s)
			if !aok || !tok || ai != ti || ai != uint32(i) {
				return false
			}
			if trie.StringAt(uint32(i)) != s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMemoryAccounting(t *testing.T) {
	vals := sortedStrings(1000)
	arr := NewStringArray(vals)
	// The block, a 4-byte offset per value and one more, a memoized hash.
	want := int64(4 + len(vals)*(4+8))
	for _, s := range vals {
		want += int64(len(s))
	}
	if arr.MemoryBytes() != want {
		t.Errorf("array MemoryBytes = %d, want %d", arr.MemoryBytes(), want)
	}
	trie := NewTrie(vals)
	if trie.MemoryBytes() <= 0 {
		t.Error("trie MemoryBytes not positive")
	}
}

// TestTrieCompressionOnPrefixData is the Section 3 claim: on fields with
// long common prefixes the trie is dramatically smaller than the verbatim
// sorted array (67.03 MB → 3.37 MB in the paper).
func TestTrieCompressionOnPrefixData(t *testing.T) {
	vals := sortedStrings(20_000)
	arr := NewStringArray(vals)
	trie := NewTrie(vals)
	ratio := float64(arr.MemoryBytes()) / float64(trie.MemoryBytes())
	t.Logf("array %d bytes, trie %d bytes, ratio %.1fx", arr.MemoryBytes(), trie.MemoryBytes(), ratio)
	if ratio < 1.5 {
		t.Errorf("trie ratio %.2f, want ≥1.5 on prefix-heavy data", ratio)
	}
}

func TestByteTrieAblation(t *testing.T) {
	vals := sortedStrings(5000)
	nt := NewTrie(vals)
	bt := NewByteTrie(vals)
	if bt.Len() != len(vals) {
		t.Fatalf("byte trie Len = %d", bt.Len())
	}
	for i, s := range vals {
		id, ok := bt.LookupString(s)
		if !ok || id != uint32(i) {
			t.Fatalf("byte trie LookupString(%q) = %d, %v", s, id, ok)
		}
	}
	if _, ok := bt.LookupString("definitely.not.there"); ok {
		t.Error("byte trie spurious hit")
	}
	t.Logf("nibble trie %d bytes, byte trie %d bytes", nt.MemoryBytes(), bt.MemoryBytes())
}

func TestTrieRebuild(t *testing.T) {
	vals := sortedStrings(300)
	trie := NewTrie(vals)
	back, err := RebuildTrie(trie.Buf(), trie.Root(), trie.Len())
	if err != nil {
		t.Fatalf("RebuildTrie: %v", err)
	}
	for i, s := range vals {
		if back.StringAt(uint32(i)) != s {
			t.Fatalf("rebuilt trie StringAt(%d) = %q", i, back.StringAt(uint32(i)))
		}
	}
	if _, err := RebuildTrie(nil, 5, 10); err == nil {
		t.Error("RebuildTrie accepted corrupt header")
	}
}

func TestStringAtPanicsOutOfRange(t *testing.T) {
	trie := NewTrie([]string{"a"})
	defer func() {
		if recover() == nil {
			t.Error("StringAt(9) did not panic")
		}
	}()
	trie.StringAt(9)
}
