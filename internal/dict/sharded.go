package dict

import (
	"fmt"
	"sync"
	"sync/atomic"

	"powerdrill/internal/bloom"
	"powerdrill/internal/value"
)

// Sharded implements the Section 5 dictionary split: the sorted value
// space is cut into contiguous sub-dictionaries, only some of which need to
// be resident for a given query. Each sub-dictionary carries a Bloom filter
// so a point lookup for an absent value usually answers without loading
// anything. A Loader materializes a sub-dictionary on first access; loads
// are counted so the production simulation can charge them as disk reads.
//
// The global-id of a value is its shard's base rank plus its local rank, so
// the contiguous split preserves the ids the chunk-dictionaries reference.
//
// Unlike the other dictionaries (which are immutable after construction),
// Sharded mutates on reads: a lookup can page a sub-dictionary in. mu makes
// those loads safe under the engine's parallel chunk workers; the routing
// data, filters, and each resident StringArray stay immutable.
type Sharded struct {
	mu     sync.RWMutex // guards shards[i].resident and EvictAll
	shards []shard
	loader Loader
	n      int
	loads  atomic.Int64
	hot    *StringArray // optional always-resident shard of frequent values
	hotIDs map[string]uint32
}

// Loader materializes the sorted strings of one sub-dictionary.
type Loader func(shardIndex int) ([]string, error)

type shard struct {
	base     int    // rank of the first value
	count    int    // number of values
	first    string // smallest value (resident for routing)
	last     string // largest value (resident for routing)
	filter   *bloom.Filter
	resident *StringArray // nil until loaded
}

// ShardedOptions configures NewSharded.
type ShardedOptions struct {
	// ShardSize is the number of values per sub-dictionary (default 8192).
	ShardSize int
	// BloomFP is the per-shard Bloom filter false-positive rate
	// (default 0.01).
	BloomFP float64
	// Hot lists frequent values kept resident regardless of shard loads
	// (the paper's "one of these representing the most frequent values").
	Hot []string
	// Retain keeps every shard resident after construction (no lazy
	// loading); used when the store runs fully in memory.
	Retain bool
}

// NewSharded builds a sharded dictionary over strictly sorted, distinct
// strings. If opts.Retain is false the shard contents are dropped after
// filters are built and reloaded on demand through the loader; the loader
// defaults to an in-memory copy (tests and fully-resident stores) but can
// be replaced with a file-backed one via SetLoader.
func NewSharded(sorted []string, opts ShardedOptions) *Sharded {
	return must(ShardedOf(sorted, opts))
}

// ShardedOf is NewSharded returning an error for out-of-order input. The
// values are copied into one block: retained shards are views of it, and
// the default loader serves reloads from it.
func ShardedOf(sorted []string, opts ShardedOptions) (*Sharded, error) {
	all, err := StringArrayOf(packStrings(sorted))
	if err != nil {
		return nil, err
	}
	if opts.ShardSize <= 0 {
		opts.ShardSize = 8192
	}
	if opts.BloomFP <= 0 || opts.BloomFP >= 1 {
		opts.BloomFP = 0.01
	}
	d := &Sharded{n: all.Len()}
	for base := 0; base < d.n; base += opts.ShardSize {
		end := min(base+opts.ShardSize, d.n)
		f := bloom.NewWithEstimates(end-base, opts.BloomFP)
		for id := base; id < end; id++ {
			f.AddString(all.StringAt(uint32(id)))
		}
		sh := shard{base: base, count: end - base, first: all.StringAt(uint32(base)), last: all.StringAt(uint32(end - 1)), filter: f}
		if opts.Retain {
			sh.resident = all.slice(base, end)
		}
		d.shards = append(d.shards, sh)
	}
	// Default loader: the block, standing in for a disk file in tests.
	size := opts.ShardSize
	d.loader = func(i int) ([]string, error) {
		base := i * size
		if base < 0 || base >= d.n {
			return nil, fmt.Errorf("dict: shard %d out of range", i)
		}
		vals := make([]string, min(base+size, d.n)-base)
		for j := range vals {
			vals[j] = all.StringAt(uint32(base + j))
		}
		return vals, nil
	}
	if len(opts.Hot) > 0 {
		d.hotIDs = make(map[string]uint32, len(opts.Hot))
		for _, s := range opts.Hot {
			if id, ok := d.lookupSlow(s); ok {
				d.hotIDs[s] = id
			}
		}
	}
	return d, nil
}

// SetLoader replaces the shard loader (e.g. with a file-backed one).
func (d *Sharded) SetLoader(l Loader) { d.loader = l }

// ShardFrame is the persistable description of one sub-dictionary: its
// value count, routing bounds, and Bloom filter. A store manifest records
// one frame per shard (plus the shard's byte range in the dictionary
// record) so a reopened store can route and filter lookups — and then load
// only the shards a query actually probes — without ever decoding the full
// dictionary.
type ShardFrame struct {
	Count       int
	First, Last string
	Filter      *bloom.Filter
}

// Frames exports the shard layout for persistence.
func (d *Sharded) Frames() []ShardFrame {
	out := make([]ShardFrame, len(d.shards))
	for i := range d.shards {
		sh := &d.shards[i]
		out[i] = ShardFrame{Count: sh.count, First: sh.first, Last: sh.last, Filter: sh.filter}
	}
	return out
}

// NewShardedFromFrames reconstructs a sharded dictionary from persisted
// frames without loading any values: routing bounds and Bloom filters are
// resident immediately, shard contents page in through the loader on first
// use. Global-ids resolve identically to the dictionary the frames were
// exported from, because a value's id is its shard's cumulative base plus
// its local rank — both fully determined by the frames.
func NewShardedFromFrames(frames []ShardFrame, loader Loader) (*Sharded, error) {
	if loader == nil {
		return nil, fmt.Errorf("dict: NewShardedFromFrames requires a loader")
	}
	d := &Sharded{loader: loader}
	base := 0
	for i, fr := range frames {
		if fr.Count <= 0 || fr.Filter == nil {
			return nil, fmt.Errorf("dict: invalid shard frame %d (count=%d)", i, fr.Count)
		}
		d.shards = append(d.shards, shard{base: base, count: fr.Count, first: fr.First, last: fr.Last, filter: fr.Filter})
		base += fr.Count
	}
	d.n = base
	return d, nil
}

// Kind implements Dict.
func (d *Sharded) Kind() value.Kind { return value.KindString }

// Len implements Dict.
func (d *Sharded) Len() int { return d.n }

// Loads returns how many shard loads have happened (disk reads in the
// production model).
func (d *Sharded) Loads() int64 { return d.loads.Load() }

// EvictAll drops all resident shards (simulating memory pressure).
func (d *Sharded) EvictAll() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range d.shards {
		d.shards[i].resident = nil
	}
}

// shardFor routes a rank to its shard index.
func (d *Sharded) shardFor(id uint32) int {
	lo, hi := 0, len(d.shards)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if d.shards[mid].base <= int(id) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// load makes shard i resident.
func (d *Sharded) load(i int) (*StringArray, error) {
	d.mu.RLock()
	sa := d.shards[i].resident
	d.mu.RUnlock()
	if sa != nil {
		return sa, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	sh := &d.shards[i]
	if sh.resident != nil { // lost the load race: another worker paged it in
		return sh.resident, nil
	}
	vals, err := d.loader(i)
	if err != nil {
		return nil, err
	}
	if len(vals) != sh.count {
		return nil, fmt.Errorf("dict: shard %d loaded %d values, want %d", i, len(vals), sh.count)
	}
	sa, err = StringArrayOf(packStrings(vals))
	if err != nil {
		return nil, fmt.Errorf("dict: shard %d: %w", i, err)
	}
	sh.resident = sa
	d.loads.Add(1)
	return sh.resident, nil
}

// at returns the shard holding rank id, loading it if necessary, and id's
// rank in it.
func (d *Sharded) at(id uint32) (*StringArray, uint32) {
	if int(id) >= d.n {
		panic(fmt.Sprintf("dict: rank %d out of range [0,%d)", id, d.n))
	}
	i := d.shardFor(id)
	sa, err := d.load(i)
	if err != nil {
		panic(fmt.Sprintf("dict: loading shard %d: %v", i, err))
	}
	return sa, id - uint32(d.shards[i].base)
}

// StringAt implements StringDict, loading the rank's shard if necessary.
func (d *Sharded) StringAt(id uint32) string {
	sa, local := d.at(id)
	return sa.StringAt(local)
}

// Value implements Dict: a copy, as the shard's own.
func (d *Sharded) Value(id uint32) value.Value {
	sa, local := d.at(id)
	return sa.Value(local)
}

// lookupSlow resolves a string to its rank, loading shards as needed but
// honouring Bloom filters.
func (d *Sharded) lookupSlow(s string) (uint32, bool) {
	i, ok := d.routeString(s)
	if !ok {
		return 0, false
	}
	sh := &d.shards[i]
	if !sh.filter.TestString(s) {
		return 0, false // definitely absent, no load needed
	}
	sa, err := d.load(i)
	if err != nil {
		return 0, false
	}
	local, ok := sa.LookupString(s)
	if !ok {
		return 0, false // Bloom false positive
	}
	return uint32(sh.base) + local, true
}

// routeString finds the shard whose [first,last] range covers s.
func (d *Sharded) routeString(s string) (int, bool) {
	lo, hi := 0, len(d.shards)-1
	if len(d.shards) == 0 || s < d.shards[0].first {
		return 0, false
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if d.shards[mid].first <= s {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if s > d.shards[lo].last {
		return 0, false
	}
	return lo, true
}

// LookupString returns the rank of s, consulting the hot set and Bloom
// filters before loading any shard.
func (d *Sharded) LookupString(s string) (uint32, bool) {
	if id, ok := d.hotIDs[s]; ok {
		return id, true
	}
	return d.lookupSlow(s)
}

// Lookup implements Dict.
func (d *Sharded) Lookup(v value.Value) (uint32, bool) {
	if v.Kind() != value.KindString {
		return 0, false
	}
	return d.LookupString(v.Str())
}

// FindGE implements Dict.
func (d *Sharded) FindGE(v value.Value) uint32 {
	if v.Kind() != value.KindString {
		return findGEByProbe(d, v)
	}
	s := v.Str()
	if len(d.shards) == 0 || s <= d.shards[0].first {
		return 0
	}
	i, ok := d.routeString(s)
	if !ok {
		// s is beyond the last shard's range or before the first.
		if s > d.shards[len(d.shards)-1].last {
			return uint32(d.n)
		}
		return 0
	}
	sa, err := d.load(i)
	if err != nil {
		panic(fmt.Sprintf("dict: loading shard %d: %v", i, err))
	}
	return uint32(d.shards[i].base) + sa.FindGE(v)
}

// Hash implements Dict: the shard's own, memoized.
func (d *Sharded) Hash(id uint32) uint64 {
	sa, local := d.at(id)
	return sa.Hash(local)
}

// MemoryBytes implements Dict: routing data, filters, and resident shards
// only — the whole point of the split is that evicted shards cost nothing.
func (d *Sharded) MemoryBytes() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var total int64
	for i := range d.shards {
		sh := &d.shards[i]
		total += int64(len(sh.first) + len(sh.last) + 48)
		total += sh.filter.MemoryBytes()
		if sh.resident != nil {
			total += sh.resident.MemoryBytes()
		}
	}
	return total
}

// ResidentShards returns how many shards are currently loaded.
func (d *Sharded) ResidentShards() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := 0
	for i := range d.shards {
		if d.shards[i].resident != nil {
			n++
		}
	}
	return n
}

// Shards returns the total number of sub-dictionaries.
func (d *Sharded) Shards() int { return len(d.shards) }

var _ StringDict = (*Sharded)(nil)
