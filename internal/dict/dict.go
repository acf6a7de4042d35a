// Package dict implements PowerDrill's global dictionaries (paper,
// Section 2.3): the sorted set of distinct values of one column, mapping a
// value to its integer rank (the global-id) and back. Two storage
// strategies are provided:
//
//   - sorted arrays (the "canonical" implementation of Section 2.3) for
//     strings, int64s and float64s;
//   - a hand-crafted 4-bit trie stored in a flat byte array (Section 3,
//     "Optimize Global-Dictionaries") that exploits long shared prefixes.
//
// Section 5 splits a dictionary into sub-dictionaries, since "when only
// few chunks are active there is no need to have the entire dictionary in
// memory". That is not a third strategy here: a store on disk cuts every
// dictionary into checksummed frames (internal/colstore), and a lazy store
// holds each frame as a dictionary of its own, loading only the frames
// that hold the ids a query reads (Hashes, Strings and Numbers walk them).
//
// All implementations answer both directions — rank → value and
// value → rank — because query evaluation needs rank lookups for WHERE
// clauses and value lookups only for the final (top-k) result rows.
//
// A string array holds its values in one block: the bytes of every value
// end to end, and a uint32 offset per value. Two accessors read it.
// StringAt returns a string inside the block, for code that compares,
// hashes or copies the value while the dictionary is pinned. Value returns
// a copy, and every value that leaves the engine goes through it: the
// memory manager lets a caller keep a value after releasing its pins, and a
// copy keeps no evicted block alive.
package dict

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
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
	// Value returns the value with the given rank. A string is the
	// caller's own: it shares no memory with the dictionary.
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

// Hashes writes Hash(id) of each of ids into dst.
func Hashes(d Dict, ids []uint32, dst []uint64) {
	for k := 0; k < len(ids); {
		f, lo, n := frameAt(d, ids[k])
		for ; k < len(ids) && ids[k]-lo < n; k++ {
			dst[k] = f.Hash(ids[k] - lo)
		}
	}
}

// Strings hands each of ids' values, in order, to each as a string that
// may lie in the dictionary (StringDict.StringAt). d is a string
// dictionary.
func Strings(d Dict, ids []uint32, each func(i int, s string)) {
	for k := 0; k < len(ids); {
		f, lo, n := frameAt(d, ids[k])
		sd := f.(StringDict)
		for ; k < len(ids) && ids[k]-lo < n; k++ {
			each(k, sd.StringAt(ids[k]-lo))
		}
	}
}

// Numbers writes the value of each of ids into dst, as a T: a sorted
// array answers without boxing each one into a value.Value. An int32 must
// hold every value.
func Numbers[T int32 | int64 | float64](d Dict, ids []uint32, dst []T) {
	for k := 0; k < len(ids); {
		switch f, lo, n := frameAt(d, ids[k]); f := f.(type) {
		case *Int64s:
			k = gather(f.vals, lo, ids, dst, k)
		case *Float64s:
			k = gather(f.vals, lo, ids, dst, k)
		default:
			for ; k < len(ids) && ids[k]-lo < n; k++ {
				if v := f.Value(ids[k] - lo); v.Kind() == value.KindInt64 {
					dst[k] = T(v.Int())
				} else {
					dst[k] = T(v.AsFloat())
				}
			}
		}
	}
}

// Table holds numbers by position, at the narrowest width that holds
// them: F64 for a dictionary of any kind but int64, I64 for an int64 one
// whose values leave int32, I32 otherwise. The others are nil.
type Table struct {
	I32 []int32
	I64 []int64
	F64 []float64
}

// NumberTable returns the values of ids, which ascend, in order, as a
// Table whose slice lies in buf's: as Numbers writes them, int64s kept as
// int32s when the first and the last fit.
func NumberTable(d Dict, ids []uint32, buf *Table) Table {
	n := len(ids)
	switch {
	case d.Kind() != value.KindInt64:
		buf.F64 = slices.Grow(buf.F64[:0], n)[:n]
		Numbers(d, ids, buf.F64)
		return Table{F64: buf.F64}
	case n > 0 && (d.Value(ids[0]).Int() < math.MinInt32 || d.Value(ids[n-1]).Int() > math.MaxInt32):
		buf.I64 = slices.Grow(buf.I64[:0], n)[:n]
		Numbers(d, ids, buf.I64)
		return Table{I64: buf.I64}
	}
	buf.I32 = slices.Grow(buf.I32[:0], n)[:n]
	Numbers(d, ids, buf.I32)
	return Table{I32: buf.I32}
}

// Int returns number i of an integer table.
func (t Table) Int(i uint32) int64 {
	if t.I64 != nil {
		return t.I64[i]
	}
	return int64(t.I32[i])
}

// Bytes returns what the table holds, and Clone a copy of it.
func (t Table) Bytes() int64 { return 4*int64(len(t.I32)) + 8*int64(len(t.I64)+len(t.F64)) }

func (t Table) Clone() Table {
	return Table{slices.Clone(t.I32), slices.Clone(t.I64), slices.Clone(t.F64)}
}

// gather writes vals[id−lo] into dst for the ids from k on that vals
// holds, and returns the index past them.
func gather[V int64 | float64, T int32 | int64 | float64](vals []V, lo uint32, ids []uint32, dst []T, k int) int {
	dst = dst[:len(ids)]
	for ; k < len(ids); k++ {
		x := int(ids[k] - lo)
		if x >= len(vals) {
			break
		}
		dst[k] = T(vals[x])
	}
	return k
}

// frameAt returns the frame of d that holds id, the first id it holds and
// how many: d itself, holding every id, unless d is held in frames. The
// bulk readers walk a dictionary held in frames with it beside their ids,
// finding a frame once per run of ids in it rather than once per id.
func frameAt(d Dict, id uint32) (f Dict, lo, n uint32) {
	if fd, ok := d.(framed); ok {
		if f, lo, hi := fd.Frame(id); f != nil {
			return f, lo, hi - lo
		}
		// failed to load: d reads its ids as zero values
	}
	return d, 0, math.MaxUint32
}

// Load readies the values of ids to be read on this goroutine, through the
// dictionary's own Load when it has one: a dictionary held in frames loads
// the frames that hold them at once, rather than each as it is first read.
// Any other holds every value already.
func Load(d Dict, ids []uint32) {
	if f, ok := d.(framed); ok {
		f.Load(ids)
	}
}

// framed is a dictionary held in frames, each a dictionary of its own: a
// lazy store's (internal/colstore). Frame returns the frame that holds id,
// ready to be read on this goroutine, and the ids [lo, hi) it holds; a nil
// frame failed to load, and the dictionary reads its ids as zero values.
type framed interface {
	Frame(id uint32) (f Dict, lo, hi uint32)
	Load(ids []uint32)
}

// StringDict is a string dictionary's zero-copy accessor: StringAt
// returns the value with the given rank without boxing or copying it. The
// string may share memory with the dictionary, so it is for code that
// compares it, hashes it or copies it while the dictionary is pinned; a
// value that is kept goes through Value, which copies.
type StringDict interface {
	Dict
	StringAt(id uint32) string
}

// StringArray is the canonical sorted-array dictionary for strings, held as
// one block: every value end to end in data, value i at
// data[off[i]:off[i+1]]. Lookup by rank is two offset reads, the rank of a
// value a binary search. A dictionary is two allocations however many
// values it holds, and the garbage collector scans no string headers in it.
//
// StringAt returns a string inside the block. Value returns a copy, so a
// rendered value that outlives its query never keeps the block — and with
// it a dictionary the memory manager has evicted — alive.
type StringArray struct {
	data string
	off  []uint32
	// hashes[id] is Hash(id), computed once, on first use: COUNT(DISTINCT)
	// offers a chunk's values by hash on every query, and hashing a string
	// reads all of it. Dictionaries no COUNT(DISTINCT) reads never pay for
	// it — a cold load does not hash.
	hashOnce sync.Once
	hashes   []uint64
}

// NewStringArray builds a dictionary from strictly sorted, distinct
// strings, copied into one block. It panics if the input is not sorted or
// has duplicates, which would indicate an import-pipeline bug.
func NewStringArray(sorted []string) *StringArray { return must(StringArrayOf(packStrings(sorted))) }

// packStrings lays vals end to end in one block, with the offsets
// StringArrayOf takes: vals[i] is data[off[i]:off[i+1]].
func packStrings(vals []string) (data string, off []uint32) {
	total := 0
	for _, s := range vals {
		total += len(s)
	}
	var b strings.Builder
	b.Grow(total)
	off = make([]uint32, len(vals)+1)
	for i, s := range vals {
		b.WriteString(s)
		off[i+1] = uint32(b.Len())
	}
	return b.String(), off
}

// StringArrayOf is the one constructor of a StringArray, for input that is
// not trusted (a decoded record): value i is data[off[i]:off[i+1]]. The
// offsets must run from 0 to len(data) without going back, and the values
// must ascend strictly; anything else is an error, not a panic. The
// dictionary keeps data and off.
func StringArrayOf(data string, off []uint32) (*StringArray, error) {
	if len(off) == 0 || off[0] != 0 || int64(off[len(off)-1]) != int64(len(data)) {
		return nil, fmt.Errorf("dict: string block offsets do not span its %d bytes", len(data))
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return nil, fmt.Errorf("dict: string block offsets go back at %d", i)
		}
	}
	d := &StringArray{data: data, off: off}
	for i := uint32(1); int(i) < d.Len(); i++ {
		if prev, s := d.StringAt(i-1), d.StringAt(i); prev >= s {
			return nil, fmt.Errorf("dict: strings not strictly sorted at %d: %q >= %q", i, prev, s)
		}
	}
	return d, nil
}

// checkStrings is the trie's order check: values must ascend strictly.
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
func (d *StringArray) Len() int { return len(d.off) - 1 }

// StringAt implements StringDict: the string lies inside the block.
func (d *StringArray) StringAt(id uint32) string { return d.data[d.off[id]:d.off[id+1]] }

// Value implements Dict with a copy of the value, which shares no memory
// with the block.
func (d *StringArray) Value(id uint32) value.Value {
	return value.String(strings.Clone(d.StringAt(id)))
}

// search returns the smallest rank whose value is >= s, or Len().
func (d *StringArray) search(s string) uint32 {
	lo, hi := 0, d.Len()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if d.StringAt(uint32(mid)) < s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return uint32(lo)
}

// LookupString returns the rank of s without boxing.
func (d *StringArray) LookupString(s string) (uint32, bool) {
	i := d.search(s)
	if int(i) < d.Len() && d.StringAt(i) == s {
		return i, true
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
	return d.search(v.Str())
}

// Hash implements Dict.
func (d *StringArray) Hash(id uint32) uint64 {
	d.hashOnce.Do(func() {
		d.hashes = make([]uint64, d.Len())
		for i := range d.hashes {
			d.hashes[i] = sketch.HashString(d.StringAt(uint32(i)))
		}
	})
	return d.hashes[id]
}

// MemoryBytes implements Dict: what the dictionary holds — the block, a
// 4-byte offset per value and one more, and 8 bytes per value for its hash,
// counted whether or not it has been computed yet, so that a budget that
// admits the dictionary has room for them. Verbatim dictionaries for
// high-cardinality fields dominate the footprint (Section 3).
func (d *StringArray) MemoryBytes() int64 {
	return int64(len(d.data)) + 4*int64(len(d.off)) + 8*int64(d.Len())
}

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
	_ StringDict = (*StringArray)(nil)
	_ Dict       = (*Int64s)(nil)
	_ Dict       = (*Float64s)(nil)
)
