// Package dict implements PowerDrill's global dictionaries (paper,
// Section 2.3): the sorted set of distinct values of one column, mapping a
// value to its integer rank (the global-id) and back. Three storage
// strategies are provided:
//
//   - sorted arrays (the "canonical" implementation of Section 2.3) for
//     strings, int64s and float64s;
//   - a hand-crafted 4-bit trie stored in a flat byte array (Section 3,
//     "Optimize Global-Dictionaries") that exploits long shared prefixes;
//   - sharded dictionaries with Bloom filters (Section 5) that keep only a
//     subset of sub-dictionaries resident and load the rest on demand.
//
// All implementations answer both directions — rank → value and
// value → rank — because query evaluation needs rank lookups for WHERE
// clauses and value lookups only for the final (top-k) result rows.
package dict

import (
	"fmt"
	"sort"
	"sync"

	"powerdrill/internal/sketch"
	"powerdrill/internal/value"
)

// Dict is a sorted global dictionary of distinct values of a single kind.
// Ranks (global-ids) run from 0 to Len()-1 in value order.
type Dict interface {
	// Kind reports the value kind the dictionary stores.
	Kind() value.Kind
	// Len returns the number of distinct values.
	Len() int
	// Value returns the value with the given rank.
	Value(id uint32) value.Value
	// Lookup returns the rank of v and whether v is present.
	Lookup(v value.Value) (uint32, bool)
	// FindGE returns the smallest rank whose value is >= v, or Len() if
	// every value is smaller. It supports range restrictions.
	FindGE(v value.Value) uint32
	// Hash returns a 64-bit hash of the value with the given rank, for
	// count-distinct sketches.
	Hash(id uint32) uint64
	// MemoryBytes returns the in-memory footprint of the dictionary.
	MemoryBytes() int64
}

// findGEByProbe implements FindGE generically via binary search on Value;
// implementations with cheaper direct access override it.
func findGEByProbe(d Dict, v value.Value) uint32 {
	return uint32(sort.Search(d.Len(), func(i int) bool {
		return d.Value(uint32(i)).Compare(v) >= 0
	}))
}

// StringArray is the canonical sorted-array dictionary for strings:
// lookup by rank is an array access, rank of a value a binary search.
type StringArray struct {
	vals []string
	// hashes[id] is Hash(id), computed once, on first use: COUNT(DISTINCT)
	// offers a chunk's values by hash on every query, and hashing a string
	// reads all of it. Dictionaries no COUNT(DISTINCT) reads never pay for
	// it — a cold load does not hash.
	hashOnce sync.Once
	hashes   []uint64
}

// NewStringArray builds a dictionary from strictly sorted, distinct
// strings. It panics if the input is not sorted or has duplicates, which
// would indicate an import-pipeline bug.
func NewStringArray(sorted []string) *StringArray { return must(StringArrayOf(sorted)) }

// StringArrayOf is NewStringArray for input that is not trusted (a decoded
// record): out-of-order input is an error, not a panic.
func StringArrayOf(sorted []string) (*StringArray, error) {
	if err := checkStrings(sorted); err != nil {
		return nil, err
	}
	return &StringArray{vals: sorted}, nil
}

// checkStrings is the one order check of every string dictionary
// constructor: values must ascend strictly.
func checkStrings(sorted []string) error {
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] >= sorted[i] {
			return fmt.Errorf("dict: strings not strictly sorted at %d: %q >= %q", i, sorted[i-1], sorted[i])
		}
	}
	return nil
}

// must turns a checked constructor's error into the panic of its
// trusted-input twin.
func must[T any](d T, err error) T {
	if err != nil {
		panic(err.Error())
	}
	return d
}

// Kind implements Dict.
func (d *StringArray) Kind() value.Kind { return value.KindString }

// Len implements Dict.
func (d *StringArray) Len() int { return len(d.vals) }

// StringAt returns the string with the given rank without boxing.
func (d *StringArray) StringAt(id uint32) string { return d.vals[id] }

// Value implements Dict.
func (d *StringArray) Value(id uint32) value.Value { return value.String(d.vals[id]) }

// LookupString returns the rank of s without boxing.
func (d *StringArray) LookupString(s string) (uint32, bool) {
	i := sort.SearchStrings(d.vals, s)
	if i < len(d.vals) && d.vals[i] == s {
		return uint32(i), true
	}
	return 0, false
}

// Lookup implements Dict.
func (d *StringArray) Lookup(v value.Value) (uint32, bool) {
	if v.Kind() != value.KindString {
		return 0, false
	}
	return d.LookupString(v.Str())
}

// FindGE implements Dict.
func (d *StringArray) FindGE(v value.Value) uint32 {
	if v.Kind() != value.KindString {
		return findGEByProbe(d, v)
	}
	return uint32(sort.SearchStrings(d.vals, v.Str()))
}

// Hash implements Dict.
func (d *StringArray) Hash(id uint32) uint64 {
	d.hashOnce.Do(func() {
		d.hashes = make([]uint64, len(d.vals))
		for i, s := range d.vals {
			d.hashes[i] = sketch.HashString(s)
		}
	})
	return d.hashes[id]
}

// MemoryBytes implements Dict. Each Go string costs a 16-byte header plus
// its bytes, and 8 more for its hash — counted whether or not it has been
// computed yet, so that a budget that admits the dictionary has room for
// them; this mirrors the paper's observation that verbatim dictionaries for
// high-cardinality fields dominate the footprint.
func (d *StringArray) MemoryBytes() int64 {
	total := int64(len(d.vals)) * (16 + 8)
	for _, s := range d.vals {
		total += int64(len(s))
	}
	return total
}

// Strings exposes the backing slice for building derived structures
// (tries, shards). Callers must not modify it.
func (d *StringArray) Strings() []string { return d.vals }

// Int64s is the sorted-array dictionary for int64 values (including
// timestamps stored as epoch microseconds).
type Int64s struct {
	vals []int64
}

// NewInt64s builds a dictionary from strictly sorted, distinct int64s.
func NewInt64s(sorted []int64) *Int64s { return must(Int64sOf(sorted)) }

// Int64sOf is NewInt64s returning an error for out-of-order input.
func Int64sOf(sorted []int64) (*Int64s, error) {
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] >= sorted[i] {
			return nil, fmt.Errorf("dict: int64s not strictly sorted at %d", i)
		}
	}
	return &Int64s{vals: sorted}, nil
}

// Kind implements Dict.
func (d *Int64s) Kind() value.Kind { return value.KindInt64 }

// Len implements Dict.
func (d *Int64s) Len() int { return len(d.vals) }

// Int64At returns the value with the given rank without boxing.
func (d *Int64s) Int64At(id uint32) int64 { return d.vals[id] }

// Values returns the values, indexed by global-id; the caller must not
// write them.
func (d *Int64s) Values() []int64 { return d.vals }

// Value implements Dict.
func (d *Int64s) Value(id uint32) value.Value { return value.Int64(d.vals[id]) }

// LookupInt64 returns the rank of v without boxing.
func (d *Int64s) LookupInt64(v int64) (uint32, bool) {
	i := sort.Search(len(d.vals), func(i int) bool { return d.vals[i] >= v })
	if i < len(d.vals) && d.vals[i] == v {
		return uint32(i), true
	}
	return 0, false
}

// Lookup implements Dict.
func (d *Int64s) Lookup(v value.Value) (uint32, bool) {
	if v.Kind() != value.KindInt64 {
		return 0, false
	}
	return d.LookupInt64(v.Int())
}

// FindGE implements Dict.
func (d *Int64s) FindGE(v value.Value) uint32 {
	if v.Kind() != value.KindInt64 {
		return findGEByProbe(d, v)
	}
	x := v.Int()
	return uint32(sort.Search(len(d.vals), func(i int) bool { return d.vals[i] >= x }))
}

// Hash implements Dict.
func (d *Int64s) Hash(id uint32) uint64 { return sketch.HashUint64(uint64(d.vals[id])) }

// MemoryBytes implements Dict.
func (d *Int64s) MemoryBytes() int64 { return int64(len(d.vals)) * 8 }

// Float64s is the sorted-array dictionary for float64 values.
type Float64s struct {
	vals []float64
}

// NewFloat64s builds a dictionary from strictly sorted, distinct float64s.
// NaN, which orders against nothing, is refused wherever it stands.
func NewFloat64s(sorted []float64) *Float64s { return must(Float64sOf(sorted)) }

// Float64sOf is NewFloat64s returning an error for out-of-order input.
func Float64sOf(sorted []float64) (*Float64s, error) {
	if len(sorted) == 1 && sorted[0] != sorted[0] {
		return nil, fmt.Errorf("dict: float64s hold NaN")
	}
	for i := 1; i < len(sorted); i++ {
		if !(sorted[i-1] < sorted[i]) {
			return nil, fmt.Errorf("dict: float64s not strictly sorted at %d", i)
		}
	}
	return &Float64s{vals: sorted}, nil
}

// Kind implements Dict.
func (d *Float64s) Kind() value.Kind { return value.KindFloat64 }

// Len implements Dict.
func (d *Float64s) Len() int { return len(d.vals) }

// Float64At returns the value with the given rank without boxing.
func (d *Float64s) Float64At(id uint32) float64 { return d.vals[id] }

// Values returns the values, indexed by global-id; the caller must not
// write them.
func (d *Float64s) Values() []float64 { return d.vals }

// Value implements Dict.
func (d *Float64s) Value(id uint32) value.Value { return value.Float64(d.vals[id]) }

// LookupFloat64 returns the rank of v without boxing.
func (d *Float64s) LookupFloat64(v float64) (uint32, bool) {
	i := sort.Search(len(d.vals), func(i int) bool { return d.vals[i] >= v })
	if i < len(d.vals) && d.vals[i] == v {
		return uint32(i), true
	}
	return 0, false
}

// Lookup implements Dict.
func (d *Float64s) Lookup(v value.Value) (uint32, bool) {
	if v.Kind() != value.KindFloat64 {
		return 0, false
	}
	return d.LookupFloat64(v.Float())
}

// FindGE implements Dict.
func (d *Float64s) FindGE(v value.Value) uint32 {
	if v.Kind() != value.KindFloat64 {
		return findGEByProbe(d, v)
	}
	x := v.Float()
	return uint32(sort.Search(len(d.vals), func(i int) bool { return d.vals[i] >= x }))
}

// Hash implements Dict.
func (d *Float64s) Hash(id uint32) uint64 {
	// Hash the bit pattern; distinct floats have distinct patterns (the
	// dictionary never stores NaN, and -0/+0 cannot both be present since
	// they compare equal at build time).
	return sketch.HashUint64(uint64(floatBits(d.vals[id])))
}

// MemoryBytes implements Dict.
func (d *Float64s) MemoryBytes() int64 { return int64(len(d.vals)) * 8 }

var (
	_ Dict = (*StringArray)(nil)
	_ Dict = (*Int64s)(nil)
	_ Dict = (*Float64s)(nil)
)
