// Package powerdrill is a from-scratch Go implementation of the
// column-store described in "Processing a Trillion Cells per Mouse Click"
// (Hall, Bachmann, Büssow, Gănceanu, Nunkesser — PVLDB 5(11), 2012): the
// engine behind Google's PowerDrill.
//
// The package offers the full pipeline the paper describes:
//
//   - import raw tables with composite range partitioning (Section 2.2)
//     into the doubly dictionary-encoded column layout (Section 2.3);
//   - the Section 3 optimizations: minimal-width element encodings,
//     4-bit-trie global dictionaries, generic compression, row reordering;
//   - a SQL-subset engine with chunk skipping, dense counts-array
//     group-by, materialized virtual fields, per-chunk result caching and
//     approximate count distinct (Sections 2.4, 2.5, 5);
//   - distributed execution over sharded replicas with multi-level
//     aggregation (Section 4).
//
// Quick start:
//
//	tbl := powerdrill.GenerateQueryLogs(100_000, 42)
//	store, err := powerdrill.Build(tbl, powerdrill.Options{
//		PartitionFields: []string{"country", "table_name"},
//	})
//	res, err := store.Query(`SELECT country, COUNT(*) AS c FROM data
//	                         GROUP BY country ORDER BY c DESC LIMIT 10;`)
package powerdrill

import (
	"context"
	"fmt"
	"sync"
	"time"

	"powerdrill/internal/cache"
	"powerdrill/internal/colstore"
	"powerdrill/internal/exec"
	"powerdrill/internal/ingest"
	"powerdrill/internal/memmgr"
	"powerdrill/internal/sql"
	"powerdrill/internal/table"
	"powerdrill/internal/value"
	"powerdrill/internal/workload"
)

// Value is a scalar query value (string, int64 or float64).
type Value = value.Value

// Kind identifies a Value's type.
type Kind = value.Kind

// The scalar kinds.
const (
	KindString  = value.KindString
	KindInt64   = value.KindInt64
	KindFloat64 = value.KindFloat64
)

// Constructors for literals used with the API.
var (
	// String wraps a string as a Value.
	String = value.String
	// Int64 wraps an int64 as a Value.
	Int64 = value.Int64
	// Float64 wraps a float64 as a Value.
	Float64 = value.Float64
)

// Table is a raw, row-ordered table prior to import.
type Table = table.Table

// NewTable creates an empty raw table; add columns with AddStringColumn,
// AddInt64Column and AddFloat64Column.
func NewTable(name string) *Table { return table.New(name) }

// GenerateQueryLogs synthesizes the paper's evaluation dataset: PowerDrill
// query logs with timestamp, table_name, latency, country and user columns
// (Section 2.5's cardinality profile).
func GenerateQueryLogs(rows int, seed int64) *Table {
	return workload.QueryLogs(workload.LogsSpec{Rows: rows, Seed: seed})
}

// StringDictKind selects the string dictionary implementation.
type StringDictKind = colstore.StringDictKind

// The dictionary implementations (paper Sections 2.3 and 3). Build
// refuses any other kind.
const (
	StringDictArray = colstore.StringDictArray
	StringDictTrie  = colstore.StringDictTrie
)

// Options configures the import pipeline. The zero value is the paper's
// "Basic" layout: one chunk, 32-bit elements, sorted-array dictionaries.
type Options struct {
	// PartitionFields is the composite range partitioning key, in order —
	// a "natural primary key" of 3–5 fields. Empty disables partitioning.
	PartitionFields []string
	// MaxChunkRows is the chunk split threshold (default 50'000).
	MaxChunkRows int
	// OptimizeElements stores chunk elements at minimal widths.
	OptimizeElements bool
	// StringDict selects the global-dictionary implementation for string
	// columns.
	StringDict StringDictKind
	// Reorder sorts rows by PartitionFields before chunking, improving
	// compression (Section 3).
	Reorder bool

	// ResultCacheBytes bounds the per-chunk result cache (0 disables).
	ResultCacheBytes int64
	// SketchM tunes approximate COUNT DISTINCT (default 2048).
	SketchM int
	// ExactDistinct computes COUNT DISTINCT exactly (single node only).
	ExactDistinct bool
	// Parallelism is the number of workers one query fans its chunk scans
	// out over; 0 uses all cores (runtime.GOMAXPROCS), 1 is sequential.
	// Concurrent queries share this worker budget through an admission
	// gate, so N queries degrade smoothly instead of spawning
	// N × Parallelism goroutines.
	Parallelism int

	// MemoryBudgetBytes bounds the resident bytes of disk-backed data for
	// stores opened with Open: dictionaries and chunks load lazily on
	// first touch and cold entries are evicted when the budget is
	// exceeded (the paper's Section 5 — only a fraction of the data needs
	// to reside in RAM). Residency is (column, chunk)-granular, so a
	// restricted query is only charged for the chunks its WHERE clause
	// can match; see docs/memory.md for budget semantics and tuning.
	// 0 means unlimited: data still loads lazily but nothing is evicted.
	// Ignored by Build, whose store is fully resident by construction.
	MemoryBudgetBytes int64
	// MemoryPolicy names the eviction policy for Open. LIRS is the only
	// one, so it must be "" or "lirs"; Open and OpenCluster refuse any
	// other name, a removed policy's ("2q", "lru", "arc") included.
	//
	// Deprecated: LIRS is always used; leave MemoryPolicy empty.
	MemoryPolicy string
	// IngestSealRows is the streaming-append buffer size: an Append that
	// fills the in-memory write buffer to this many rows seals it into an
	// on-disk segment (default: MaxChunkRows). See docs/ingest.md.
	IngestSealRows int
	// IngestCompactMinSegments is the live segment count at which the
	// background compactor merges all ingest segments into one
	// (default 4).
	IngestCompactMinSegments int
	// IngestFsyncPolicy controls when write-ahead-log appends reach
	// stable storage: FsyncAlways (fsync before every Append returns —
	// an acknowledged row survives an OS crash), FsyncInterval
	// (timer-driven fsync, the default — a process crash loses nothing,
	// an OS crash at most the last interval), or FsyncNever (the kernel
	// decides). See docs/ingest.md.
	IngestFsyncPolicy string
	// ScrubInterval runs the offline scrub (see Scrub) on this cadence in
	// the background for stores opened from disk: every checksummed byte
	// of the directory is re-verified, read-only, while queries continue.
	// The latest verdict is available from Store.LastScrub and pdserver's
	// /statz last_scrub section. Default 0 = no background scrubbing.
	ScrubInterval time.Duration
}

func (o Options) storeOptions() colstore.Options {
	return colstore.Options{
		PartitionFields:  o.PartitionFields,
		MaxChunkRows:     o.MaxChunkRows,
		OptimizeElements: o.OptimizeElements,
		StringDict:       o.StringDict,
		Reorder:          o.Reorder,
	}
}

func (o Options) engineOptions() exec.Options {
	return exec.Options{
		ResultCacheBytes: o.ResultCacheBytes,
		SketchM:          o.SketchM,
		ExactDistinct:    o.ExactDistinct,
		Parallelism:      o.Parallelism,
	}
}

// Store is an imported, queryable column store (one shard's worth of
// data; see Cluster for the distributed setup).
type Store struct {
	store  *colstore.Store
	engine *exec.Engine
	opts   Options

	// dir is the directory the store was opened from ("" for Build);
	// ing is the streaming-append path, attached by Open when the
	// directory carries ingest generations or lazily by the first Append.
	// closed marks a store Close has run on: Append must fail cleanly
	// rather than re-attach a writer to released file handles.
	dir    string
	ingMu  sync.Mutex
	ing    *ingest.Writer
	closed bool

	// Background scrub loop state (see scrub.go); scrubStop is non-nil
	// while the loop runs.
	scrubMu   sync.Mutex
	scrubLast *ScrubStatus
	scrubStop chan struct{}
	scrubWG   sync.WaitGroup
}

// Build imports a raw table.
func Build(tbl *Table, opts Options) (*Store, error) {
	cs, err := colstore.FromTable(tbl, opts.storeOptions())
	if err != nil {
		return nil, err
	}
	return &Store{store: cs, engine: exec.New(cs, opts.engineOptions()), opts: opts}, nil
}

// Result is a query result: column names, rows of values, what the query
// touched (Stats), and the fraction of rows the answer spans (Coverage, 1
// except for cluster queries that had to serve a partial answer).
type Result = exec.Result

// QueryStats are per-query execution counters (chunks skipped, cached,
// scanned; rows and cells).
type QueryStats = exec.QueryStats

// Query parses and executes a SQL query:
//
//	SELECT expr [AS alias], ... FROM t [WHERE pred]
//	[GROUP BY expr, ...] [ORDER BY expr [ASC|DESC], ...] [LIMIT n]
//
// with AND/OR/NOT/IN/NOT IN/=/!=/</<=/>/>=, the scalar functions date,
// year, month, day, hour, lower, upper, length, and the aggregates
// COUNT(*), COUNT(x), COUNT(DISTINCT x), SUM, MIN, MAX, AVG.
// Stores with an active append path (see Append) answer through a
// snapshot: one bit-for-bit consistent cut of the append stream, pinned
// for the duration of the query while appends, seals and compactions
// continue underneath.
func (s *Store) Query(sqlText string) (*Result, error) {
	return runOn(s, sqlText, func(r runner, stmt *sql.SelectStmt) (*Result, error) {
		return r.RunContext(context.Background(), stmt)
	})
}

// runner answers a store's queries: its engine, or a snapshot of its
// append stream.
type runner interface {
	RunContext(context.Context, *sql.SelectStmt) (*exec.Result, error)
	RunPartialContext(context.Context, *sql.SelectStmt) (*exec.Partial, error)
}

// runOn parses sqlText and runs fn on the store's runner: the engine, or
// on a store with an append path a snapshot of it, held for the call —
// the one way into a node that Query and the serving tree's leaf share.
func runOn[T any](s *Store, sqlText string, fn func(runner, *sql.SelectStmt) (T, error)) (T, error) {
	var zero T
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		return zero, err
	}
	w := s.writer()
	if w == nil {
		return fn(s.engine, stmt)
	}
	snap, err := w.Snapshot()
	if err != nil {
		return zero, err
	}
	defer snap.Release()
	return fn(snap, stmt)
}

// NumRows returns the number of imported rows, including appended rows
// on stores with an active append path.
func (s *Store) NumRows() int {
	if w := s.writer(); w != nil {
		return int(w.Rows())
	}
	return s.store.NumRows()
}

// NumChunks returns the number of chunks the partitioning produced.
func (s *Store) NumChunks() int { return s.store.NumChunks() }

// Columns lists the store's columns, including materialized virtual
// fields.
func (s *Store) Columns() []string { return s.store.Columns() }

// MemoryBreakdown itemizes a column set's footprint by layer.
type MemoryBreakdown = colstore.MemoryBreakdown

// Memory reports the exact in-memory footprint of the named columns — the
// quantity the paper's experiment tables report per query.
func (s *Store) Memory(cols ...string) (MemoryBreakdown, error) {
	return s.store.MemoryFor(cols...)
}

// EngineStats returns cumulative execution counters across all queries.
func (s *Store) EngineStats() exec.Stats { return s.engine.Stats() }

// Save persists the store to a directory; codec may be "" (raw), "zippy",
// "lzoish" or "zlib". A codec compresses every dictionary and chunk
// record individually (see docs/format.md), so a lazily opened store
// cold-reads exact byte ranges even under compression.
func (s *Store) Save(dir, codec string) error {
	return colstore.Save(s.store, dir, codec)
}

// IOStats counts a lazily opened store's physical I/O: file opens, read
// calls, bytes read, and time spent decompressing records.
type IOStats = colstore.IOStats

// IOStats reports the store's physical I/O counters; ok is false for
// stores built in memory, which never touch disk.
func (s *Store) IOStats() (IOStats, bool) { return s.store.IOStats() }

// Close releases the file handles a lazily opened store caches outside
// the memory budget, and — on stores with an active
// append path — seals any buffered rows and stops the background
// compactor. The store stays usable; a no-op for in-memory stores.
func (s *Store) Close() error {
	s.stopScrubLoop()
	var err error
	s.ingMu.Lock()
	if s.ing != nil {
		err = s.ing.Close()
		s.ing = nil
	}
	s.closed = true
	s.ingMu.Unlock()
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// MemoryStats is a snapshot of the memory manager's accounting: budget,
// resident/pinned bytes, cold loads, evictions, hit rate.
type MemoryStats = memmgr.Stats

// CacheStats holds the result cache's hit/miss/eviction counters.
type CacheStats = cache.Stats

// Open loads a store persisted with Save lazily: only the manifest is read
// up front (the returned byte count), and dictionaries and chunks
// materialize from disk on first touch, governed by
// Options.MemoryBudgetBytes. A restricted query loads only the chunks its
// WHERE clause can match (decided from manifest metadata before any chunk
// is read), so the budget a store needs scales with restriction
// selectivity. A store opened this way answers every query bit-for-bit
// identically to a fully resident one; per-query residency and cold-load
// counters appear in Result.Stats (ActiveChunks, ColdChunkLoads, ...),
// cumulative disk bytes in EngineStats — the quantity the paper's
// Figure 5 charges as disk load.
func Open(dir string, opts Options) (*Store, int64, error) {
	if err := validateMemoryPolicy(opts.MemoryPolicy); err != nil {
		return nil, 0, err
	}
	if err := validateFsyncPolicy(opts.IngestFsyncPolicy); err != nil {
		return nil, 0, err
	}
	mgr := memmgr.New(opts.MemoryBudgetBytes, opts.MemoryPolicy)
	cs, stats, err := colstore.OpenLazy(dir, mgr)
	if err != nil {
		return nil, 0, err
	}
	s := &Store{store: cs, engine: exec.New(cs, opts.engineOptions()), opts: opts, dir: dir}
	// A directory that was appended to reopens with its append path
	// attached, so the sealed generations are queryable immediately.
	if ingest.HasGenerations(dir) {
		if _, err := s.ensureWriter(); err != nil {
			return nil, 0, err
		}
	}
	if opts.ScrubInterval > 0 {
		s.startScrubLoop(opts.ScrubInterval)
	}
	return s, stats.BytesRead, nil
}

// ErrOldFormat is what errors.Is matches when Open refuses a store
// directory (or one of its ingest segments) because it was written in an
// older on-disk format generation; the error text names the generation and
// the `pdrill upgrade` command that converts it.
var ErrOldFormat = colstore.ErrOldFormat

// FormatGeneration reports the on-disk format generation of the store at
// dir, read from its manifest alone. Open accepts only the generation this
// build saves (docs/format.md); a lower one needs Upgrade first.
func FormatGeneration(dir string) (int, error) { return colstore.FormatGeneration(dir) }

// Upgrade rewrites the store at oldDir, of any older format generation, as
// a current-format store at newDir, appended rows included: the base and
// every sealed segment are saved again with the same codec and options,
// and the write-ahead log is copied (docs/format.md, "Upgrading older
// stores"). Virtual columns are not carried; they re-materialize on use.
func Upgrade(oldDir, newDir string) error { return ingest.Upgrade(oldDir, newDir) }

// validateMemoryPolicy refuses any policy name but LIRS's, so a config that
// names a removed policy ("2q", "lru", "arc") fails instead of quietly
// running another.
func validateMemoryPolicy(p string) error {
	if p != "" && p != memmgr.Policy {
		return fmt.Errorf("powerdrill: unknown memory policy %q (%s is the only one)", p, memmgr.Policy)
	}
	return nil
}

// WAL fsync policies for Options.IngestFsyncPolicy.
const (
	// FsyncAlways syncs the WAL before every Append returns.
	FsyncAlways = ingest.FsyncAlways
	// FsyncInterval syncs the WAL on a timer and at rotation (default).
	FsyncInterval = ingest.FsyncInterval
	// FsyncNever leaves WAL syncing to the kernel.
	FsyncNever = ingest.FsyncNever
)

// validateFsyncPolicy rejects unknown WAL fsync policy names up front,
// so a typo cannot quietly run with weaker durability than configured.
func validateFsyncPolicy(p string) error {
	switch p {
	case "", ingest.FsyncAlways, ingest.FsyncInterval, ingest.FsyncNever:
		return nil
	}
	return fmt.Errorf("powerdrill: unknown ingest fsync policy %q (want always, interval or never)", p)
}

// MemStats reports the memory manager's accounting; ok is false for stores
// built in memory (Build), which have no manager. Virtual columns that
// could not join the budget (an unwritable store directory) are folded
// in: their bytes count toward both VirtualBytes and ResidentBytes, so the
// gauge covers every byte the engine holds.
func (s *Store) MemStats() (MemoryStats, bool) {
	mgr := s.store.MemManager()
	if mgr == nil {
		return MemoryStats{}, false
	}
	ms := mgr.Stats()
	if unmanaged := s.store.UnevictableVirtualBytes(); unmanaged > 0 {
		ms.VirtualBytes += unmanaged
		ms.ResidentBytes += unmanaged
	}
	return ms, true
}

// VirtualBytes reports the resident footprint of materialized virtual
// columns — budgeted sidecar-backed ones (via the memory manager) plus
// unevictable in-registry ones. Works for both built and lazily opened
// stores; before sidecar persistence these bytes were invisible to every
// stat.
func (s *Store) VirtualBytes() int64 {
	total := s.store.UnevictableVirtualBytes()
	if mgr := s.store.MemManager(); mgr != nil {
		total += mgr.Stats().VirtualBytes
	}
	return total
}

// ResultCacheStats returns the per-chunk result cache's counters; ok is
// false when the cache is disabled.
func (s *Store) ResultCacheStats() (CacheStats, bool) { return s.engine.CacheStats() }

// internalStore exposes the underlying store to sibling files (cluster,
// bench) without widening the public API.
func (s *Store) internalStore() *colstore.Store { return s.store }
