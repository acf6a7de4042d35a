package colstore

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"powerdrill/internal/dict"
	"powerdrill/internal/enc"
	"powerdrill/internal/partition"
	"powerdrill/internal/reorder"
	"powerdrill/internal/table"
	"powerdrill/internal/value"
)

// StringDictKind selects the global-dictionary implementation for string
// columns, corresponding to the paper's optimization steps.
type StringDictKind string

// The available string dictionary implementations.
const (
	// StringDictArray is the canonical sorted array (Sections 2.3–2.5).
	StringDictArray StringDictKind = "array"
	// StringDictTrie is the hand-crafted 4-bit trie (Section 3).
	StringDictTrie StringDictKind = "trie"
)

// Options configures the import pipeline (Section 2.2 and Section 3).
type Options struct {
	// PartitionFields is the ordered composite-range-partitioning key.
	// Empty means a single chunk (the "Basic" layout of Section 2.5).
	PartitionFields []string
	// MaxChunkRows is the split threshold (default 50'000).
	MaxChunkRows int
	// OptimizeElements selects per-chunk minimal element widths
	// (Section 3 "OptCols"); false stores 32-bit elements ("Basic").
	OptimizeElements bool
	// StringDict selects the string dictionary implementation
	// (default StringDictArray); FromTable refuses any other kind.
	StringDict StringDictKind
	// Reorder sorts rows lexicographically by PartitionFields before
	// partitioning (Section 3 "Reordering Rows").
	Reorder bool
}

func (o Options) withDefaults() Options {
	if o.MaxChunkRows <= 0 {
		o.MaxChunkRows = 50_000
	}
	if o.StringDict == "" {
		o.StringDict = StringDictArray
	}
	return o
}

// Store is a dictionary-encoded, chunked table: the unit a single machine
// serves (one shard of the distributed system).
//
// Concurrency: a Store is safe for concurrent readers. Column data
// (chunk-dictionaries, element sequences, global dictionaries) is immutable
// after construction, so chunk scans never need a lock. The only mutation a
// live store sees is AddVirtualColumn — the Section 5 materialization of an
// expression during query planning — which registers a fully built, and
// from then on immutable, column; mu guards just that registry so column
// lookups stay safe while another query materializes.
type Store struct {
	Name string
	// Bounds are the chunk row boundaries; chunk c covers rows
	// [Bounds[c], Bounds[c+1]) in store order.
	Bounds []int
	// Opts records how the store was built.
	Opts Options

	// mu guards columns, order and metas. metas used to be immutable after
	// OpenLazy, but persisted virtual columns register new metadata at
	// query time, so metadata reads go through meta()/HasColumn.
	mu      sync.RWMutex
	columns map[string]*Column
	order   []string

	// Lazy stores (OpenLazy) keep only metadata here; physical column data
	// lives in the memory manager and loads on demand. lazy itself is
	// immutable after OpenLazy (its mutable fields carry their own lock).
	lazy  *lazySource
	metas map[string]ColumnMeta
}

// NumRows returns the total number of rows.
func (s *Store) NumRows() int { return s.Bounds[len(s.Bounds)-1] }

// NumChunks returns the number of chunks.
func (s *Store) NumChunks() int { return len(s.Bounds) - 1 }

// ChunkRows returns the number of rows in chunk c.
func (s *Store) ChunkRows(c int) int { return s.Bounds[c+1] - s.Bounds[c] }

// Column returns the named column (physical or virtual), or nil.
//
// On a lazy store this loads a cold physical column from disk in full and
// leaves it unpinned (evictable) — it cannot report *why* a load failed,
// only nil. This is the PinSet-first contract: query execution must go
// through a PinSet (or ColumnErr), which pins what it touches and carries
// the error; Column is a convenience for resident stores, tooling and
// tests, and engine code only reaches it on fallback paths that are
// already pinned.
func (s *Store) Column(name string) *Column {
	c, err := s.ColumnErr(name)
	if err != nil {
		return nil
	}
	return c
}

// ColumnErr is Column with the load error surfaced: on a lazy store a cold
// column is loaded in full (dictionary plus every chunk), left unpinned,
// and any disk or decode failure is returned instead of being swallowed
// into nil. The returned column stays valid even if the manager later
// evicts its entries — the data is immutable and the caller's reference
// keeps it alive; eviction only frees the budget.
func (s *Store) ColumnErr(name string) (*Column, error) {
	if c := s.residentColumn(name); c != nil {
		return c, nil
	}
	if s.lazy == nil {
		return nil, fmt.Errorf("colstore: unknown column %q", name)
	}
	ps := s.NewPinSet()
	defer ps.Release()
	return ps.Column(name)
}

// residentColumn looks the name up in the in-memory registry only.
func (s *Store) residentColumn(name string) *Column {
	s.mu.RLock()
	c := s.columns[name]
	s.mu.RUnlock()
	return c
}

// meta looks up a column's lazy-load metadata under the registry lock.
func (s *Store) meta(name string) (ColumnMeta, bool) {
	s.mu.RLock()
	m, ok := s.metas[name]
	s.mu.RUnlock()
	return m, ok
}

// HasColumn reports whether the store knows the column (resident, virtual
// or lazily loadable) without loading any data.
func (s *Store) HasColumn(name string) bool {
	if s.residentColumn(name) != nil {
		return true
	}
	_, ok := s.meta(name)
	return ok
}

// ColumnMeta returns the column's metadata without loading its data.
func (s *Store) ColumnMeta(name string) (ColumnMeta, bool) {
	if m, ok := s.meta(name); ok {
		return m, true
	}
	if c := s.residentColumn(name); c != nil {
		return ColumnMeta{Name: c.Name, Kind: c.Kind, Virtual: c.Virtual}, true
	}
	return ColumnMeta{}, false
}

// Columns returns all column names in declaration order.
func (s *Store) Columns() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.order...)
}

// AddColumn registers a column; it must match the store's chunk layout.
func (s *Store) AddColumn(c *Column) error {
	if err := c.checkAligned(s.Bounds); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.metas[c.Name]; dup {
		return fmt.Errorf("colstore: duplicate column %q", c.Name)
	}
	if _, dup := s.columns[c.Name]; dup {
		return fmt.Errorf("colstore: duplicate column %q", c.Name)
	}
	s.columns[c.Name] = c
	s.order = append(s.order, c.Name)
	return nil
}

// FromTable imports a raw table into a column store. It works in
// global-id space throughout: every column is ranked once into its
// dictionary and order-preserving ids, the optional reorder and the
// partitioner run on the partition fields' ids, and each column's chunks
// are assembled from its ids permuted into store order.
func FromTable(tbl *table.Table, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if opts.StringDict != StringDictArray && opts.StringDict != StringDictTrie {
		return nil, fmt.Errorf("colstore: unknown string dictionary %q (array or trie)", opts.StringDict)
	}
	for _, col := range tbl.Cols {
		if err := checkNaN(col); err != nil {
			return nil, err
		}
	}
	n := tbl.NumRows()
	ids := make([][]uint32, len(tbl.Cols))
	distinct := make([]*table.Column, len(tbl.Cols))
	for i, col := range tbl.Cols {
		ids[i], distinct[i] = col.Rank()
	}
	keys := make([][]uint32, len(opts.PartitionFields))
	for k, f := range opts.PartitionFields {
		i := slices.IndexFunc(tbl.Cols, func(c *table.Column) bool { return c.Name == f })
		if i < 0 {
			return nil, fmt.Errorf("colstore: unknown partition field %q", f)
		}
		keys[k] = ids[i]
	}
	// perm maps store order to table rows; nil is the identity.
	var perm []int
	bounds := []int{0, n}
	if len(keys) > 0 {
		if opts.Reorder {
			perm = reorder.ByKeys(keys, n)
			for k, key := range keys {
				keys[k] = permuteIDs(key, perm, nil)
			}
		}
		res := partition.Partition(keys, n, opts.MaxChunkRows)
		if perm != nil {
			for i, p := range res.Perm {
				res.Perm[i] = perm[p]
			}
		}
		perm, bounds = res.Perm, res.Bounds
	}
	s := &Store{
		Name:    tbl.Name,
		Bounds:  bounds,
		Opts:    opts,
		columns: make(map[string]*Column),
	}
	var buf []uint32
	for i, col := range tbl.Cols {
		gids := ids[i]
		if perm != nil {
			buf = permuteIDs(gids, perm, buf)
			gids = buf
		}
		built, err := s.encodeColumn(col, distinct[i], gids, perm, false)
		if err != nil {
			return nil, err
		}
		if err := s.AddColumn(built); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// permuteIDs returns ids in the order perm gives, in buf if it is large
// enough.
func permuteIDs(ids []uint32, perm []int, buf []uint32) []uint32 {
	if cap(buf) < len(perm) {
		buf = make([]uint32, len(perm))
	}
	buf = buf[:len(perm)]
	for i, p := range perm {
		buf[i] = ids[p]
	}
	return buf
}

// checkNaN refuses a float column holding a NaN: it has no place in an
// ordered dictionary.
func checkNaN(col *table.Column) error {
	if col.Kind == value.KindFloat64 && slices.ContainsFunc(col.Floats, math.IsNaN) {
		return fmt.Errorf("colstore: column %q contains NaN", col.Name)
	}
	return nil
}

// encodeColumn builds a column from its ranks: distinct holds the raw
// column's distinct values, ascending, and gids each row's global-id in
// store order, where store row i is raw row perm[i] (perm nil: raw row i).
func (s *Store) encodeColumn(col, distinct *table.Column, gids []uint32, perm []int, virtual bool) (*Column, error) {
	var d dict.Dict
	switch col.Kind {
	case value.KindString:
		if s.Opts.StringDict == StringDictTrie {
			d = dict.NewTrie(distinct.Strs)
		} else {
			d = dict.NewStringArray(distinct.Strs)
		}
	case value.KindInt64:
		d = dict.NewInt64s(distinct.Ints)
	case value.KindFloat64:
		// −0 and +0 share a global-id; the dictionary keeps the sign of
		// the last zero in store order.
		if z, ok := slices.BinarySearch(distinct.Floats, 0); ok {
			for i := len(gids) - 1; i >= 0; i-- {
				if gids[i] == uint32(z) {
					r := i
					if perm != nil {
						r = perm[i]
					}
					distinct.Floats[z] = col.Floats[r]
					break
				}
			}
		}
		d = dict.NewFloat64s(distinct.Floats)
	default:
		return nil, fmt.Errorf("colstore: column %q has invalid kind", col.Name)
	}
	return s.assemble(col.Name, col.Kind, d, gids, virtual)
}

// assemble cuts a column's per-row global-ids into chunks, builds the
// chunk-dictionaries, and encodes the elements. It needs no map: a
// chunk's distinct global-ids are found through seen, stamped with the
// chunk's number, and their chunk-ids kept in rank, both indexed by
// global-id.
func (s *Store) assemble(name string, kind value.Kind, d dict.Dict, gids []uint32, virtual bool) (*Column, error) {
	if len(gids) != s.NumRows() {
		return nil, fmt.Errorf("colstore: column %q has %d rows, store has %d", name, len(gids), s.NumRows())
	}
	col := &Column{Name: name, Kind: kind, Dict: d, Virtual: virtual, Chunks: make([]*Chunk, s.NumChunks())}
	seen := make([]uint32, d.Len())
	rank := make([]uint32, d.Len())
	var distinct, elems []uint32
	for c := range col.Chunks {
		part := gids[s.Bounds[c]:s.Bounds[c+1]]
		distinct = distinct[:0]
		for _, g := range part {
			if seen[g] != uint32(c+1) {
				seen[g] = uint32(c + 1)
				distinct = append(distinct, g)
			}
		}
		slices.Sort(distinct)
		// Chunk-dictionary: sorted distinct global-ids of the chunk, with
		// no spare capacity; chunk-ids are ranks within it.
		cd := make([]uint32, len(distinct))
		for i, g := range distinct {
			cd[i] = g
			rank[g] = uint32(i)
		}
		elems = slices.Grow(elems[:0], len(part))[:len(part)]
		for i, g := range part {
			elems[i] = rank[g]
		}
		var seq enc.Sequence
		if s.Opts.OptimizeElements {
			seq = enc.Encode(elems, len(cd))
		} else {
			seq = enc.EncodeFixed32(elems)
		}
		col.Chunks[c] = &Chunk{GlobalIDs: cd, Elems: seq}
	}
	return col, nil
}

// buildVirtual dictionary-encodes a materialized raw column into a virtual
// column aligned with the store's chunk layout.
func (s *Store) buildVirtual(raw *table.Column) (*Column, error) {
	if err := checkNaN(raw); err != nil {
		return nil, err
	}
	gids, distinct := raw.Rank()
	return s.encodeColumn(raw, distinct, gids, nil, true)
}

// AddVirtualColumn materializes a raw column of per-row values (computed
// by the expression engine) as a first-class column in the store's own
// format — the Section 5 "virtual fields" mechanism. Its rows must be in
// store row order. Callers racing on the same name must serialize
// externally (the engine's plan lock does); the registry itself is
// mutation-safe.
//
// The column lives in the in-memory registry: always resident, never
// evicted, outside any byte budget. On a budget-managed store prefer
// AddVirtualColumnPinned, which persists the materialization next to the
// store so it can be evicted and reloaded like physical data.
func (s *Store) AddVirtualColumn(raw *table.Column) (*Column, error) {
	if s.HasColumn(raw.Name) {
		// Metadata-only check: on a lazy store, Column(name) here would
		// cold-load the whole column just to prove it exists.
		return nil, fmt.Errorf("colstore: virtual column %q already exists", raw.Name)
	}
	col, err := s.buildVirtual(raw)
	if err != nil {
		return nil, err
	}
	if err := s.AddColumn(col); err != nil {
		return nil, err
	}
	return col, nil
}

// AddVirtualColumnPinned materializes a column like AddVirtualColumn
// and, on a lazy store, persists the new column into the
// store's virtual/ sidecar (see docs/format.md) so it becomes an ordinary
// citizen of the memory subsystem: its global dictionary and chunks are
// registered with the memory manager — charged to the byte budget (cold
// unpinned entries are evicted to make room), evictable once unpinned, and
// reloadable from the sidecar — and pinned into ps for the calling query
// like any physical column. The sidecar also records the column's
// per-chunk value spans, so later restrictions on the expression prune
// chunks from metadata alone.
//
// On fully resident stores, stores with persistence disabled
// (DisableVirtualPersist), or when the sidecar
// cannot be written (read-only store directory), it falls back to
// AddVirtualColumn's in-registry residency: correct, but unevictable and
// outside the budget (reported by UnevictableVirtualBytes).
func (s *Store) AddVirtualColumnPinned(ps *PinSet, raw *table.Column) (*Column, error) {
	if s.lazy == nil || s.lazy.noPersist.Load() {
		return s.AddVirtualColumn(raw)
	}
	name := raw.Name
	if s.HasColumn(name) {
		// Already materialized (possibly by a racing engine): adopt it.
		return ps.Column(name)
	}
	col, err := s.buildVirtual(raw)
	if err != nil {
		return nil, err
	}
	s.lazy.persistMu.Lock()
	if s.HasColumn(name) {
		// Another engine sharing this store won the materialization race
		// (each engine's plan lock only serializes itself): adopt the
		// winner's registered column instead of failing the losing query.
		s.lazy.persistMu.Unlock()
		return ps.Column(name)
	}
	mc, err := s.persistVirtualLocked(col)
	if err != nil {
		s.lazy.persistMu.Unlock()
		// The sidecar could not be written (typically a read-only store
		// directory): keep the query working with in-registry residency.
		if aerr := s.AddColumn(col); aerr != nil {
			return nil, aerr
		}
		return col, nil
	}
	err = s.registerSidecarColumn(mc)
	s.lazy.persistMu.Unlock()
	if err != nil {
		return nil, err
	}
	return ps.adoptVirtual(col)
}

// UnevictableVirtualBytes sums the resident footprint of virtual columns
// living in the in-memory registry — materializations that could not join
// the byte budget (fully resident stores, unwritable store directories,
// DisableVirtualPersist). Budgeted
// virtual columns are accounted by the memory manager instead
// (memmgr.Stats.VirtualBytes).
func (s *Store) UnevictableVirtualBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var total int64
	for _, c := range s.columns {
		if c.Virtual {
			total += c.Memory().Total()
		}
	}
	return total
}

// MemoryFor sums the footprints of the named columns — the per-query
// memory the paper's tables report ("this reflects only the columns
// present in the individual queries").
func (s *Store) MemoryFor(cols ...string) (MemoryBreakdown, error) {
	var m MemoryBreakdown
	for _, name := range cols {
		// One pin at a time: surfaces lazy-load errors and keeps a budgeted
		// store near its budget while measuring.
		ps := s.NewPinSet()
		c, err := ps.Column(name)
		if err != nil {
			ps.Release()
			return m, err
		}
		m.Add(c.Memory())
		ps.Release()
	}
	return m, nil
}

// floatBitsOf converts a float to its bit pattern (helper for column.go).
func floatBitsOf(f float64) uint64 { return math.Float64bits(f) }
