package colstore

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"powerdrill/internal/dict"
	"powerdrill/internal/enc"
	"powerdrill/internal/memmgr"
)

// derived holds what queries derive from a chunk alone, which is immutable
// (docs/kernels.md): its rows per chunk-id, its values by chunk-id and its
// chunk-ids in hash order. Each table is built by the first query that
// needs it, never by Build, Save or Open, and kept for the chunk's life,
// charged to its memory-manager entry on a lazy store (Manager.Charge) —
// unless the store has a budget: what was read from disk is worth more to
// a budget than what can be derived from it again, so there a table serves
// the query that built it alone.
type derived struct {
	mgr    *memmgr.Manager // the manager, and the key, of the chunk's entry
	key    string
	bytes  atomic.Int64
	counts lazyTable[enc.Raw]
	values lazyTable[dict.Table]
	order  lazyTable[enc.Raw]
}

// lazyTable is one derived table, kept once.
type lazyTable[T any] struct {
	mu  sync.Mutex
	ptr atomic.Pointer[T]
}

// derivedBuilds counts the tables built in the process, kept or not.
var derivedBuilds atomic.Int64

// DerivedBuilds returns how many derived tables the process has built.
// Tests read it to check that a query found its chunks' tables built.
func DerivedBuilds() int64 { return derivedBuilds.Load() }

// keep stores what build makes, n bytes charged to ch, unless a table is
// kept already or ch's manager has a budget.
func (t *lazyTable[T]) keep(ch *Chunk, n int64, build func() T) {
	d := &ch.derived
	if d.mgr != nil && d.mgr.Budget() > 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ptr.Load() == nil {
		v := build()
		t.ptr.Store(&v)
		d.bytes.Add(n)
		if d.mgr != nil {
			d.mgr.Charge(d.key, n)
		}
	}
}

// Counts writes the chunk's rows per chunk-id into dst, one entry a
// chunk-id, from a table of uint16s while the chunk has at most 65 535
// rows, else of uint32s.
func (ch *Chunk) Counts(dst []int64) {
	if t := ch.derived.counts.ptr.Load(); t != nil {
		widen(dst, t.U16)
		widen(dst, t.U32)
		return
	}
	derivedBuilds.Add(1)
	clear(dst)
	ch.Elems.CountInto(dst)
	ch.derived.counts.keep(ch, narrowBytes(len(dst), ch.Rows()), func() enc.Raw { return narrowed(dst, ch.Rows()) })
}

// Values returns the chunk's values by chunk-id, read from d, its column's
// dictionary (dict.NumberTable). A table that is not kept lies in buf.
func (ch *Chunk) Values(d dict.Dict, buf *dict.Table) dict.Table {
	if t := ch.derived.values.ptr.Load(); t != nil {
		return *t
	}
	derivedBuilds.Add(1)
	t := dict.NumberTable(d, ch.GlobalIDs, buf)
	ch.derived.values.keep(ch, t.Bytes(), t.Clone)
	return t
}

// HasValues reports whether the chunk keeps its Values: then reading them
// reads no dictionary.
func (ch *Chunk) HasValues() bool { return ch.derived.values.ptr.Load() != nil }

// HashOrder returns the chunk's chunk-ids in ascending order of their
// values' hashes in d, its column's dictionary, ties in chunk-id order: in
// U16 where the chunk dictionary allows, else in U32.
func (ch *Chunk) HashOrder(d dict.Dict) enc.Raw {
	if t := ch.derived.order.ptr.Load(); t != nil {
		return *t
	}
	derivedBuilds.Add(1)
	hs := make([]uint64, len(ch.GlobalIDs))
	dict.Hashes(d, ch.GlobalIDs, hs)
	t := narrowed(hashOrder(hs), len(hs)-1)
	ch.derived.order.keep(ch, narrowBytes(len(hs), len(hs)-1), func() enc.Raw { return t })
	return t
}

// hashOrder returns the indices of hs in ascending order of their hashes,
// ties in index order: it sorts keys holding a hash's high bits above an
// index, then each run of keys whose high bits tie by the whole hashes.
func hashOrder(hs []uint64) []uint32 {
	shift := uint(bits.Len(uint(len(hs))))
	keys, ids := make([]uint64, len(hs)), make([]uint32, len(hs))
	for i, h := range hs {
		keys[i] = h>>shift<<shift | uint64(i)
	}
	slices.Sort(keys)
	for i, j := 0, 0; i < len(keys); i = j {
		for j = i; j < len(keys) && keys[j]>>shift == keys[i]>>shift; j++ {
			ids[j] = uint32(keys[j] & (1<<shift - 1))
		}
		slices.SortStableFunc(ids[i:j], func(a, b uint32) int { return cmp.Compare(hs[a], hs[b]) })
	}
	return ids
}

// narrowed returns vals, none above most, as uint16s if most allows, else as
// uint32s; narrowBytes is what n of them hold.
func narrowed[T int64 | uint32](vals []T, most int) enc.Raw {
	if most > math.MaxUint16 {
		return enc.Raw{U32: converted[uint32](vals)}
	}
	return enc.Raw{U16: converted[uint16](vals)}
}

func narrowBytes(n, most int) int64 { return int64(n) * int64(2+2*min(1, most>>16)) }

func converted[D uint16 | uint32, S int64 | uint32](src []S) []D {
	dst := make([]D, len(src))
	for i, v := range src {
		dst[i] = D(v)
	}
	return dst
}

func widen[T uint16 | uint32](dst []int64, src []T) {
	for i, v := range src {
		dst[i] = int64(v)
	}
}
