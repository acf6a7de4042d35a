package exec

// This file holds the Engine, its options and statistics, and the query
// planner; see doc.go for the package overview and query lifecycle.

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"powerdrill/internal/cache"
	"powerdrill/internal/colstore"
	"powerdrill/internal/expr"
	"powerdrill/internal/sql"
	"powerdrill/internal/table"
	"powerdrill/internal/value"
)

// Options configures an Engine.
type Options struct {
	// ResultCacheBytes bounds the per-chunk result cache; 0 disables it.
	ResultCacheBytes int64
	// SketchM is the m parameter of the count-distinct approximation
	// (default 2048, the paper's "couple of thousand").
	SketchM int
	// ExactDistinct computes COUNT(DISTINCT x) exactly (for accuracy
	// comparisons); costly for high-cardinality fields.
	ExactDistinct bool
	// DisableSkipping scans every chunk regardless of the restriction —
	// the ablation that isolates Section 2.2's contribution.
	DisableSkipping bool
	// Parallelism is the number of workers a single query fans its chunk
	// scans out over; 0 (the default) means runtime.GOMAXPROCS(0), and 1
	// recovers the fully sequential engine.
	Parallelism int
	// Gate is the cross-query admission controller: concurrent queries
	// share its worker budget instead of each spawning Parallelism
	// goroutines. nil gives the engine its own gate sized to Parallelism;
	// pass one Gate to several engines (cluster leaves) to share a
	// process-wide budget.
	Gate *Gate
}

// Engine executes queries against one store (one shard). See the package
// comment for the concurrency model.
type Engine struct {
	store *colstore.Store
	opts  Options

	// planMu makes "check column exists → materialize → register" atomic:
	// it is held only while a virtual column that does not exist yet is
	// computed and added to the store, the one way a query mutates it.
	planMu sync.Mutex

	// resultCache is internally synchronized; workers and concurrent
	// queries share it directly.
	resultCache *cache.Synchronized

	// gate admits scan workers across concurrent queries (see Gate).
	gate *Gate

	// memo holds the restriction the last group-by evaluated (memo.go).
	memo atomic.Pointer[selection]

	statsMu sync.Mutex
	stats   Stats
}

// Stats accumulates execution counters across queries — the quantities the
// paper reports for production (Section 6): every QueryStats counter summed
// over Queries queries.
type Stats struct {
	Queries int64 `json:"queries"`
	QueryStats
}

// QueryStats are the per-query counters, and the only declaration of an
// engine counter: Add, the partial wire form (declaration order — append
// new fields at the end), Engine.Stats and /statz (the json tag) all walk
// the fields. Every field is an int64 sum.
//
// Every chunk a query covers is skipped, cached or scanned exactly once,
// and so is every row: ChunksSkipped + ChunksCached + ChunksScanned =
// ChunksTotal, and the rows likewise sum to RowsCovered — the split the
// paper reports for production (Sections 5–6). A chunk is skipped when
// the layout's spans prune it, when its chunk dictionary proves no row
// matches, or — in a row scan — when the rank bound rules it out (its span
// on the first ORDER BY key cannot tie the LIMIT-th row held) or the scan
// holds LIMIT rows before reaching it. Of these, only the chunks their
// chunk dictionaries skip were loaded.
type QueryStats struct {
	ChunksTotal   int64 `json:"chunks_total"`
	ChunksSkipped int64 `json:"chunks_skipped"`
	ChunksCached  int64 `json:"chunks_cached"`
	ChunksScanned int64 `json:"chunks_scanned"`
	RowsScanned   int64 `json:"rows_scanned"`
	RowsCached    int64 `json:"rows_cached"`
	RowsSkipped   int64 `json:"rows_skipped"`
	// CellsCovered counts rows × accessed columns over the whole store —
	// the paper's "cells" a full scan would process; CellsScanned counts
	// those actually scanned.
	CellsCovered int64 `json:"cells_covered"`
	CellsScanned int64 `json:"cells_scanned"`
	// ActiveChunks counts chunks the pre-scan residency analysis marked
	// possibly active for this query (ChunksTotal when nothing could be
	// pruned); only these are loaded — and charged to the memory budget —
	// on a chunk-granular lazy store.
	ActiveChunks int64 `json:"active_chunks"`
	// SkippedChunks counts chunks the residency analysis pruned from
	// index spans alone, before any of their data was loaded. They are
	// also included in ChunksSkipped, which additionally counts chunks the
	// precise per-chunk-dictionary classification skipped.
	SkippedChunks int64 `json:"skipped_chunks"`
	// ColdLoads counts columns this query had to load from disk (zero on a
	// warm repeat — the Section 5 "only a fraction of the data needs to be
	// in memory" accounting). A column counts once however many of its
	// chunks came from disk.
	ColdLoads int64 `json:"cold_loads"`
	// ColdChunkLoads counts the individual (column, chunk) entries this
	// query cold-loaded (chunk-granular lazy stores only).
	ColdChunkLoads int64 `json:"cold_chunk_loads"`
	// ColdDictLoads counts the dictionary frames this query cold-loaded
	// (chunk-granular lazy stores only).
	ColdDictLoads int64 `json:"cold_dict_loads"`
	// ColdBytesLoaded sums the resident bytes of those cold loads.
	ColdBytesLoaded int64 `json:"cold_bytes_loaded"`
	// DiskBytesRead sums their on-disk (compressed) bytes — the quantity
	// BenchmarkFigure5 buckets this query's latency by (the paper's
	// Figure 5, latency by bytes loaded from disk).
	DiskBytesRead int64 `json:"disk_bytes_read"`
	// ChecksumVerified / ChecksumFailed count this query's cold loads
	// that passed / failed CRC32C verification. A nonzero failure count
	// means disk corruption was caught before it could reach a result.
	ChecksumVerified int64 `json:"checksum_verified"`
	ChecksumFailed   int64 `json:"checksum_failed"`
	// CacheSkippedChunks counts chunks answered by the cache-aware
	// residency pass from the result cache alone: they are in ChunksCached
	// too, but additionally were never pinned or loaded.
	CacheSkippedChunks int64 `json:"cache_skipped_chunks"`
	// ReadRuns counts the coalesced byte-run reads this query's cold chunk
	// prefetches issued (one ReadAt per run; zero on stores without exact
	// chunk reads).
	ReadRuns int64 `json:"read_runs"`
	// CoalescedReads counts the reads this query's run coalescing saved
	// (a run of m contiguous cold chunks is one read, saving m−1).
	CoalescedReads int64 `json:"coalesced_reads"`
	// BloomSkippedChunks is never written and stays 0: chunks are skipped
	// by their spans and chunk dictionaries, and no per-chunk filter is
	// read. Like ScalarChunks below it is a reserved slot, kept with its
	// tag and position for the partial wire, and goes with the next wire
	// version.
	BloomSkippedChunks int64 `json:"bloom_skipped_chunks"`
	// KernelChunks counts chunks this query aggregated, all of them through
	// the vectorized kernels: ChunksScanned, unless the query is a row
	// scan, which aggregates none. ScalarChunks is never written and stays
	// 0 — a reserved slot, kept with its tag and position because the
	// partial wire walks these fields in declaration order. Both go with
	// the next wire version.
	KernelChunks int64 `json:"kernel_chunks"`
	ScalarChunks int64 `json:"scalar_chunks"`
	// RowsTotal counts the rows the answer SHOULD span: the store's row
	// count for a single engine or leaf partial, the sum over every shard
	// (answering or not) after a cluster merge. RowsCovered counts the
	// rows of the servers that actually contributed. The two are equal
	// unless a shard was abandoned (dead replicas, expired deadline) and
	// the cluster degraded to a partial answer.
	RowsTotal   int64 `json:"rows_total"`
	RowsCovered int64 `json:"rows_covered"`
	// ShardsMissing counts shards absent from a merged answer.
	ShardsMissing int64 `json:"shards_missing"`
	// MasksBuilt counts the chunks whose row mask this query computed: 0
	// when its restriction came from the engine's memo (memo.go).
	MasksBuilt int64 `json:"masks_built"`
}

// Result is a finished query result.
type Result struct {
	Columns []string
	Rows    [][]value.Value
	Stats   QueryStats
	// Coverage is the fraction of rows the answer covers
	// (Stats.RowsCovered / Stats.RowsTotal): 1 for a complete answer,
	// lower when the serving tree degraded to a partial result because a
	// shard's replicas were all dead or out of deadline (the paper's UI
	// reports exactly this fraction next to every answer).
	Coverage float64
}

// New creates an engine over a store.
func New(store *colstore.Store, opts Options) *Engine {
	if opts.SketchM <= 0 {
		opts.SketchM = 2048
	}
	e := &Engine{store: store, opts: opts}
	if opts.ResultCacheBytes > 0 {
		e.resultCache = cache.NewSynchronized(opts.ResultCacheBytes)
	}
	e.gate = opts.Gate
	if e.gate == nil {
		e.gate = NewGate(e.parallelism())
	}
	return e
}

// Store returns the engine's store.
func (e *Engine) Store() *colstore.Store { return e.store }

// Gate returns the engine's admission gate, so satellite engines (ingest
// generations, cluster leaves) can share one process-wide worker budget
// instead of multiplying it.
func (e *Engine) Gate() *Gate { return e.gate }

// Stats returns the cumulative counters.
func (e *Engine) Stats() Stats {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.stats
}

// CacheStats returns the result cache's counters; ok is false when the
// cache is disabled.
func (e *Engine) CacheStats() (cache.Stats, bool) {
	if e.resultCache == nil {
		return cache.Stats{}, false
	}
	return e.resultCache.Stats(), true
}

// Run is RunContext under context.Background().
func (e *Engine) Run(stmt *sql.SelectStmt) (*Result, error) {
	return e.RunContext(context.Background(), stmt)
}

// RunContext executes a parsed statement: prepare decides what must be
// resident and pins it, the scan runs lock-free over the pinned, immutable
// data, fanned out over the workers the admission gate grants, and the
// pins drop when the result is assembled. A query cancelled through ctx
// stops at its next cancellation point (doc.go) and returns ctx.Err(),
// having cached and memoized nothing.
func (e *Engine) RunContext(ctx context.Context, stmt *sql.SelectStmt) (*Result, error) {
	ps := e.store.NewPinSet()
	defer ps.Release()
	p, err := e.prepare(ctx, stmt, ps)
	if err != nil {
		return nil, err
	}
	var (
		res *Result
		qs  QueryStats
	)
	if p.rowScan {
		res, qs, err = e.executeRowScan(p, ps)
		if err != nil {
			return nil, err
		}
	} else {
		// One finalizer: the engine finishes the partial it would emit to a
		// mixer, in id form — keys and MIN/MAX are looked up in the
		// dictionaries, still pinned here, for the rows LIMIT keeps.
		var part *Partial
		part, qs, err = e.runGroupBy(p)
		if err != nil {
			return nil, err
		}
		res, err = finalizePartial(stmt, p.orderCols, part)
		if err != nil {
			return nil, err
		}
	}
	if err := e.finish(p, ps); err != nil {
		return nil, err
	}
	res.Stats = e.closeStats(qs, ps, p)
	res.Coverage = 1
	return res, nil
}

// prepare takes a statement to the point where its scan can start, in three
// steps that each read the one compiled plan (see doc.go): compile it,
// pinning dictionaries only; prune the chunks its restriction provably
// cannot match and answer fully active ones from the result cache; pin
// what is left. On a lazy store the pinning is the query's cold I/O — one
// coalesced read per column, under no lock, so concurrent first-touch
// queries load disjoint data in parallel (the memory manager deduplicates
// identical loads).
func (e *Engine) prepare(ctx context.Context, stmt *sql.SelectStmt, ps *colstore.PinSet) (*plan, error) {
	p, err := e.plan(ctx, stmt, ps)
	if err != nil {
		return nil, err
	}
	e.analyzeResidency(p)
	if p.rowScan {
		// A row scan pins in its own two phases (executeRowScan).
		return p, nil
	}
	e.cacheResidency(p)
	if err := e.pinPlan(p, ps); err != nil {
		return nil, err
	}
	return p, nil
}

// closeStats completes a query's counters with what the scan workers do
// not see — the pin set's cold-load attribution and the rows the answer
// spans — and folds them into the engine's cumulative stats. An engine's answer (and a leaf's partial)
// always covers its whole store — coverage accounting is about server
// availability, not restriction selectivity; the coordinator adds the row
// counts of shards that never answered to RowsTotal alone, which is what
// drives Coverage below 1.
func (e *Engine) closeStats(qs QueryStats, ps *colstore.PinSet, p *plan) QueryStats {
	qs.ColdLoads = ps.ColdLoads
	qs.ColdChunkLoads = ps.ColdChunkLoads
	qs.ColdDictLoads = ps.ColdDictLoads
	qs.ColdBytesLoaded = ps.ColdBytesLoaded
	qs.DiskBytesRead = ps.DiskBytesRead
	qs.ChecksumVerified = ps.ChecksumVerified
	qs.ChecksumFailed = ps.ChecksumFailed
	qs.ReadRuns = ps.ReadRuns
	qs.CoalescedReads = ps.CoalescedReads
	qs.RowsTotal = int64(e.store.NumRows())
	qs.RowsCovered = qs.RowsTotal
	e.statsMu.Lock()
	e.stats.Queries++
	e.stats.Add(qs)
	e.statsMu.Unlock()
	return qs
}

// storeRow adapts a (chunk, row) position of a materialization's pinned
// source columns to the expr.Row interface; a column it does not hold
// reads as invalid, which evaluation reports as unknown.
type storeRow struct {
	cols       map[string]*colstore.Column
	chunk, row int
}

// ColumnValue implements expr.Row.
func (r *storeRow) ColumnValue(name string) value.Value {
	if col := r.cols[name]; col != nil {
		return col.ValueAt(r.chunk, r.row)
	}
	return value.Value{}
}

// materializeOperand resolves an expression used as a restriction, group-by
// or aggregate operand to a column, materializing a virtual field when it
// is not a plain column reference and no earlier query has (Section 5:
// expressions are computed once and stored in the datastore; restrictions
// on them can then skip chunks). The column comes back with its dictionary
// pinned into ps and no chunk: which chunks to pin is decided on the
// compiled plan.
func (e *Engine) materializeOperand(ctx context.Context, x sql.Expr, ps *colstore.PinSet) (*colstore.Column, error) {
	name := e.operandColumn(x)
	if e.store.HasColumn(name) {
		return ps.ColumnDict(name)
	}
	if _, ok := x.(*sql.Ident); ok {
		return nil, fmt.Errorf("exec: unknown column %q", name)
	}
	kind, err := expr.InferKind(x, e.columnKind)
	if err != nil {
		return nil, err
	}
	return e.materialize(ctx, x, name, kind, expr.Eval, ps)
}

// materializePredicate resolves a predicate the restriction cannot decide
// on dictionaries — a comparison of two expressions, an IN list that is not
// all literals — to its predicate field: an int64 virtual field, named by
// the predicate's canonical text, that is 1 at the rows the predicate holds
// at and 0 elsewhere. No comparison is an operand (InferKind refuses it), so
// the name is no operand field's. Evaluated over every row, the predicate
// fails the query at any row it fails at, as an operand expression does.
func (e *Engine) materializePredicate(ctx context.Context, x sql.Expr, ps *colstore.PinSet) (*colstore.Column, error) {
	name := operandName(x)
	if e.store.HasColumn(name) {
		return ps.ColumnDict(name)
	}
	return e.materialize(ctx, x, name, value.KindInt64, func(x sql.Expr, row expr.Row) (value.Value, error) {
		holds, err := expr.EvalPred(x, row)
		if holds {
			return value.Int64(1), err
		}
		return value.Int64(0), err
	}, ps)
}

// materialize computes x with eval over every row into the virtual field
// name of kind, unless a concurrent query did first, and returns it with
// its dictionary pinned into ps — the one place an expression is evaluated
// over a store's rows. The sources are pinned in full before the lock: on a
// lazy store this is where the cold loads happen.
func (e *Engine) materialize(ctx context.Context, x sql.Expr, name string, kind value.Kind, eval func(sql.Expr, expr.Row) (value.Value, error), ps *colstore.PinSet) (*colstore.Column, error) {
	srcs := make(map[string]*colstore.Column, 4)
	if err := e.pinFull(ctx, ps, expr.Columns(x), srcs); err != nil {
		return nil, err
	}
	var err error
	e.planMu.Lock()
	if !e.store.HasColumn(name) { // else a concurrent query materialized it first
		// The per-row interface dispatch of expr's evaluation makes this the
		// costliest part of materialization.
		err = e.addVirtualColumn(ctx, ps, name, kind, func(ci int, col *table.Column, lo, hi int) error {
			row := &storeRow{cols: srcs, chunk: ci}
			for r := range hi - lo {
				row.row = r
				v, err := eval(x, row)
				if err != nil {
					return err
				}
				col.Set(lo+r, v)
			}
			return nil
		})
	}
	e.planMu.Unlock()
	if err != nil {
		return nil, err
	}
	return ps.ColumnDict(name)
}

// columnKind is an expr.KindResolver over the store's column metadata.
func (e *Engine) columnKind(col string) (value.Kind, bool) {
	m, ok := e.store.ColumnMeta(col)
	return m.Kind, ok
}

// operandColumn is the column an operand resolves to: operandName, unless
// a column of that name holds another kind than the expression's. Before
// float literals printed with a point, latency * 2.0 was named
// "(latency * 2)", and a store's sidecar may still hold that float64
// column; latency * 2 then takes a name no expression prints.
func (e *Engine) operandColumn(x sql.Expr) string {
	name := operandName(x)
	m, ok := e.store.ColumnMeta(name)
	if _, id := x.(*sql.Ident); id || !ok {
		return name
	}
	kind, err := expr.InferKind(x, e.columnKind)
	if err != nil || kind == m.Kind {
		return name
	}
	return name + " :: " + kind.String()
}

// addVirtualColumn computes a virtual column chunk by chunk — fill writes
// chunk ci's rows into rows [lo, hi) of the column (disjoint regions, so
// no locks) — and adds it to the store; the caller holds planMu. The
// fan-out goes through the admission gate like every other chunk sweep, so
// a burst of first-touch queries cannot multiply worker goroutines past the
// shared budget.
//
// On a chunk-granular lazy store the materialization is persisted into the
// store's virtual sidecar and its pieces enter the memory budget (evicting
// cold chunks to make room), pinned into ps like any physical column;
// resident stores keep the in-registry path.
func (e *Engine) addVirtualColumn(ctx context.Context, ps *colstore.PinSet, name string, kind value.Kind, fill func(ci int, col *table.Column, lo, hi int) error) error {
	workers, err := e.gate.AcquireUpTo(ctx, e.parallelism())
	if err != nil {
		return err
	}
	col := table.NewColumn(name, kind, e.store.NumRows())
	err = forEachChunk(ctx, e.store.NumChunks(), workers, func(_, ci int) error {
		return fill(ci, col, e.store.Bounds[ci], e.store.Bounds[ci+1])
	})
	e.gate.Release(workers)
	if err != nil {
		return err
	}
	_, err = e.store.AddVirtualColumnPinned(ps, col)
	return err
}

// aggFn enumerates aggregate functions.
type aggFn uint8

const (
	aggCount aggFn = iota
	aggSum
	aggMin
	aggMax
	aggAvg
	aggCountDistinct
)

// aggSpec is one aggregate in the select list.
type aggSpec struct {
	fn     aggFn
	argCol string // "" for COUNT(*)
}

// signature identifies the aggregate for result caching.
func (a aggSpec) signature() string {
	return fmt.Sprintf("%d(%s)", a.fn, a.argCol)
}

// plan is a compiled query: the one object the prune, pin, scan and
// finalize steps read.
type plan struct {
	// ctx is the query's context, which its cancellation points poll.
	ctx       context.Context
	stmt      *sql.SelectStmt
	where     *restriction // nil when no WHERE clause
	groupCols []string     // materialized group-by columns (one per group expr)
	groupKind []value.Kind
	composite string // composite column when len(groupCols) > 1
	aggs      []aggSpec
	columns   []string // output column names: alias, or canonical expression
	rowScan   bool     // no aggregates and no GROUP BY: plain projection
	// orderCols maps each ORDER BY term to the select item it names
	// (orderItems), every one checked to name one.
	orderCols []int
	// accessCols are the physical/virtual columns the scan reads — WHERE
	// leaves, group columns, aggregate arguments, the composite — in the
	// order compiling met them: what pinPlan pins and cell accounting
	// counts.
	accessCols []string
	// cols maps every accessed column to its pinned view, so the scan and
	// finalize phases never go back through the store registry or the
	// memory manager. On a lazy store the views are query-private and their
	// Chunks are populated only at the pinned indices. Read-only after
	// prepare — a row scan fills it between its rounds, never while a
	// worker reads it.
	cols map[string]*colstore.Column
	// active flags the chunks the residency analysis kept (nil = all);
	// the scan skips pruned chunks without touching their data, which on a
	// lazy store was never loaded in the first place. activeCount is their
	// number.
	active      []bool
	activeCount int
	// full flags chunks the spans PROVE fully active (every row matches):
	// exactly the chunks whose partials the result cache can hold. nil
	// under Options.DisableSkipping.
	full []bool
	// pin flags the chunks the query pins (nil = all): the active ones
	// minus those the result cache answered.
	pin []bool
	// cachedParts holds the result-cache partials the cache probe
	// retrieved, by chunk index; the scan returns them without touching
	// (never-loaded) chunk data. Read-only during execution.
	cachedParts map[int]*groupSet
	// fresh holds, by chunk index, the partials of the fully active chunks
	// the scan aggregated, which finish caches.
	fresh []*groupSet
	// cacheSig is the chunk-independent part of the result-cache key.
	cacheSig string
	// sel is the restriction's selection when the memo holds it (sel.ready:
	// where is nil, and the scan reads verdicts and masks from it), or the
	// one the scan fills in and publishes; nil when the plan is not
	// memoized.
	sel *selection
	// The scan's columns, resolved once so no chunk looks them up again:
	// groupCol is the column grouped by (nil for a global aggregate),
	// aggCols[j] aggregate j's argument (nil for COUNT(*)), and aggInt[j]
	// whether that argument is integral (SUM and AVG accumulate in sumI);
	// hasArgs reports whether any aggregate has an argument.
	groupCol *colstore.Column
	aggCols  []*colstore.Column
	aggInt   []bool
	hasArgs  bool
	// emptyAggs holds one column per aggregate, laid out (aggLayout) but
	// holding no array: what every chunk partial and the group table start
	// from.
	emptyAggs []aggColumn
}

// access records that the scan reads the named column.
func (p *plan) access(name string) {
	if !slices.Contains(p.accessCols, name) {
		p.accessCols = append(p.accessCols, name)
	}
}

// plan compiles a statement in one walk: every operand is resolved to a
// column — an expression or a composite nobody materialized yet is
// materialized right here — and the restriction's literals become
// global-id sets and ranges. Only dictionaries are pinned into ps.
func (e *Engine) plan(ctx context.Context, stmt *sql.SelectStmt, ps *colstore.PinSet) (*plan, error) {
	if stmt.From == "" {
		return nil, fmt.Errorf("exec: missing FROM")
	}
	// ORDER BY names output columns: refused here, before anything is loaded,
	// by every engine of every deployment shape alike.
	p := &plan{ctx: ctx, stmt: stmt, orderCols: orderItems(stmt), rowScan: RowScan(stmt)}
	if err := checkOrderItems(stmt, p.orderCols); err != nil {
		return nil, err
	}

	// WHERE: from the memo, or compiled. Only group-bys are memoized: a row
	// scan stops early, so it never evaluates its restriction everywhere.
	if stmt.Where != nil {
		memoize := !p.rowScan && !e.opts.DisableSkipping
		var key string
		if memoize {
			key = stmt.Where.String()
			if s := e.memo.Load(); s != nil && s.key == key {
				p.sel = s
			}
		}
		if p.sel != nil {
			for _, c := range p.sel.cols {
				p.access(c)
			}
		} else {
			w, err := e.compileRestriction(ctx, stmt.Where, ps)
			if err != nil {
				return nil, err
			}
			p.where = w
			w.columnsOf(p.access)
			if memoize {
				p.sel = &selection{key: key, cols: slices.Clone(p.accessCols)}
			}
		}
	}

	// GROUP BY columns (materialized).
	for _, g := range stmt.GroupBy {
		gc, err := e.materializeOperand(ctx, resolveGroupExpr(stmt, g), ps)
		if err != nil {
			return nil, err
		}
		p.groupCols = append(p.groupCols, gc.Name)
		p.groupKind = append(p.groupKind, gc.Kind)
		p.access(gc.Name)
	}

	// Select items: group keys and aggregates.
	if p.rowScan && stmt.Having != nil {
		return nil, fmt.Errorf("exec: HAVING requires GROUP BY or aggregates")
	}

	for _, item := range stmt.Items {
		name := item.Alias
		if name == "" {
			name = item.Expr.String()
		}
		p.columns = append(p.columns, name)
		switch {
		case p.rowScan:
			// A projected column is read for the rows the scan returns
			// alone, so a column that exists pins nothing here: no
			// dictionary, whose values the winners look up (Values).
			name := e.operandColumn(item.Expr)
			if !e.store.HasColumn(name) {
				col, err := e.materializeOperand(ctx, item.Expr, ps)
				if err != nil {
					return nil, err
				}
				name = col.Name
			}
			p.access(name)
			p.groupCols = append(p.groupCols, name) // reuse as projection list
		case sql.HasAggregate(item.Expr):
			call, ok := item.Expr.(*sql.Call)
			if !ok {
				return nil, fmt.Errorf("exec: aggregates must be top-level calls, got %s", item.Expr)
			}
			spec, err := e.compileAggregate(ctx, call, ps)
			if err != nil {
				return nil, err
			}
			if spec.argCol != "" {
				p.access(spec.argCol)
			}
			p.aggs = append(p.aggs, spec)
		default:
			// Must match a group expression; finishedColumns binds it to the
			// key column of that expression.
			col, err := e.materializeOperand(ctx, item.Expr, ps)
			if err != nil {
				return nil, err
			}
			if !slices.Contains(p.groupCols, col.Name) {
				return nil, fmt.Errorf("exec: %s is neither aggregated nor grouped", item.Expr)
			}
		}
	}

	// Multi-column group-by: combine into one composite expression,
	// materialized as an additional virtual column (Section 2.5 footnote:
	// "multiple group-by fields are combined into one expression which is
	// materialized in the datastore").
	if !p.rowScan && len(p.groupCols) > 1 {
		p.composite = compositeName(p.groupCols)
		if !e.store.HasColumn(p.composite) {
			if err := e.materializeComposite(ctx, p.composite, p.groupCols, ps); err != nil {
				return nil, err
			}
		}
		p.access(p.composite)
	}
	p.cacheSig = cacheSigOf(p.groupColumn(), p.aggs)
	// A literal met a frame that failed to load: nothing may run on p.
	return p, ps.Err()
}

// pinPlan pins the plan's access set at the chunks pruning and the cache
// probe left, each column with its dictionary — an aggregation reads
// values everywhere: group keys, aggregate arguments — and
// resolves the scan's columns to the pinned views. A restriction from the
// memo reads no column, so a column only it accesses is not pinned. A SUM
// or AVG argument's frames are pinned only for the chunks that keep no
// value table (Chunk.Values), which workers read.
func (e *Engine) pinPlan(p *plan, ps *colstore.PinSet) error {
	names := make([]string, 0, len(p.accessCols))
	for _, col := range p.accessCols {
		if p.sel == nil || !p.sel.ready || p.aggregates(col) {
			names = append(names, col)
		}
	}
	p.cols = make(map[string]*colstore.Column, len(names))
	workers, err := e.gate.AcquireUpTo(p.ctx, e.parallelism())
	if err != nil {
		return err
	}
	err = e.pinColumns(p.ctx, ps, true, names, p.pin, workers, p.cols)
	e.gate.Release(workers)
	for _, spec := range p.aggs {
		switch {
		case err != nil:
		case spec.fn == aggSum || spec.fn == aggAvg:
			err = ps.PinChunkFrames(p.ctx, spec.argCol, unbuiltValues(p.cols[spec.argCol], p.pin))
		case spec.fn == aggCountDistinct && !e.opts.ExactDistinct:
			err = ps.PinChunkFrames(p.ctx, spec.argCol, p.pin) // read on workers
		}
	}
	if err != nil {
		return err
	}
	if gcol := p.groupColumn(); gcol != "" && !p.rowScan {
		p.groupCol = p.cols[gcol]
	}
	p.aggCols = make([]*colstore.Column, len(p.aggs))
	p.aggInt = make([]bool, len(p.aggs))
	p.emptyAggs = make([]aggColumn, len(p.aggs))
	for j, spec := range p.aggs {
		if spec.argCol != "" {
			p.aggCols[j] = p.cols[spec.argCol]
			p.aggInt[j] = p.aggCols[j].Kind == value.KindInt64
			p.hasArgs = true
		}
		a := &p.emptyAggs[j]
		a.has = aggLayout(spec.fn, p.aggInt[j])
		switch {
		case a.has&(arrMin|arrMax) != 0:
			a.vals.kind = p.aggCols[j].Kind
		case a.has&arrSketch != 0 && e.opts.ExactDistinct:
			a.m = exactM
		case a.has&arrSketch != 0:
			a.m = e.opts.SketchM
		}
	}
	return nil
}

// unbuiltValues flags the pinned chunks of col flagged in active (nil =
// every one) that keep no value table.
func unbuiltValues(col *colstore.Column, active []bool) []bool {
	out := make([]bool, len(col.Chunks))
	for ci, ch := range col.Chunks {
		out[ci] = ch != nil && (active == nil || active[ci]) && !ch.HasValues()
	}
	return out
}

// pinColumns pins the chunks flagged in active (nil = every chunk) of the
// named columns, after their dictionaries when dicts is set, and stores
// their views in views. Cold chunks decode on workers goroutines, which
// the caller holds from the gate. A name only a materialization's source
// mentions may be unknown; it gets no view, and evaluation reports it.
func (e *Engine) pinColumns(ctx context.Context, ps *colstore.PinSet, dicts bool, names []string, active []bool, workers int, views map[string]*colstore.Column) error {
	known := slices.DeleteFunc(slices.Clone(names), func(name string) bool { return !e.store.HasColumn(name) })
	if dicts {
		for _, name := range known {
			if _, err := ps.ColumnDict(name); err != nil {
				return err
			}
		}
	}
	pinned, err := ps.PinChunks(ctx, known, active, workers)
	if err != nil {
		return err
	}
	for i, name := range known {
		views[name] = pinned[i]
	}
	return nil
}

// pinFull pins the named columns whole, dictionaries too, into views — the
// pin of a materialization, which reads every row on workers, so with every
// frame of a paged dictionary its chunks need — decoding on workers it
// holds from the gate for the pin alone.
func (e *Engine) pinFull(ctx context.Context, ps *colstore.PinSet, names []string, views map[string]*colstore.Column) error {
	workers, err := e.gate.AcquireUpTo(ctx, e.parallelism())
	if err != nil {
		return err
	}
	defer e.gate.Release(workers)
	err = e.pinColumns(ctx, ps, true, names, nil, workers, views)
	for _, name := range names {
		if err == nil {
			err = ps.PinChunkFrames(ctx, name, nil)
		}
	}
	return err
}

// aggregates reports whether the scan groups by or aggregates the named
// column.
func (p *plan) aggregates(col string) bool {
	if col == p.composite || slices.Contains(p.groupCols, col) {
		return true
	}
	for _, a := range p.aggs {
		if a.argCol == col {
			return true
		}
	}
	return false
}

// RowScan reports whether stmt is a row scan: a plain projection, with
// neither an aggregate nor a GROUP BY. An engine answers one in two phases
// of its own (rowscan.go), and no partial carries one.
func RowScan(stmt *sql.SelectStmt) bool {
	return len(stmt.GroupBy) == 0 && !slices.ContainsFunc(stmt.Items, func(it sql.SelectItem) bool { return sql.HasAggregate(it.Expr) })
}

// resolveGroupExpr maps a GROUP BY expression, which may be an alias of a
// select item, back to the underlying expression.
func resolveGroupExpr(stmt *sql.SelectStmt, g sql.Expr) sql.Expr {
	if id, ok := g.(*sql.Ident); ok {
		for _, item := range stmt.Items {
			if item.Alias == id.Name && !sql.HasAggregate(item.Expr) {
				return item.Expr
			}
		}
	}
	return g
}

// compileAggregate validates an aggregate call and materializes its
// argument column.
func (e *Engine) compileAggregate(ctx context.Context, call *sql.Call, ps *colstore.PinSet) (aggSpec, error) {
	fn, ok := aggFnFor(call.Name, call.Distinct)
	if !ok {
		return aggSpec{}, fmt.Errorf("exec: unknown aggregate %q", call.Name)
	}
	if call.Star {
		if fn != aggCount {
			return aggSpec{}, fmt.Errorf("exec: %s(*) is not supported", call.Name)
		}
		return aggSpec{fn: aggCount}, nil
	}
	if len(call.Args) != 1 {
		return aggSpec{}, fmt.Errorf("exec: %s expects one argument", call.Name)
	}
	arg, err := e.materializeOperand(ctx, call.Args[0], ps)
	if err != nil {
		return aggSpec{}, err
	}
	if arg.Kind == value.KindString && (fn == aggSum || fn == aggAvg) {
		return aggSpec{}, fmt.Errorf("exec: %s over string column %q", call.Name, arg.Name)
	}
	return aggSpec{fn: fn, argCol: arg.Name}, nil
}

// materializeComposite builds the combined group-by column: per row, the
// group columns' global-ids joined into one string key. Using ids (not
// values) keeps the composite compact and order-preserving per column.
func (e *Engine) materializeComposite(ctx context.Context, name string, cols []string, ps *colstore.PinSet) error {
	views := make(map[string]*colstore.Column, len(cols))
	if err := e.pinFull(ctx, ps, cols, views); err != nil {
		return err
	}
	colRefs := make([]*colstore.Column, len(cols))
	for i, cn := range cols {
		if colRefs[i] = views[cn]; colRefs[i] == nil {
			return fmt.Errorf("exec: unknown column %q", cn)
		}
	}
	e.planMu.Lock()
	defer e.planMu.Unlock()
	if e.store.HasColumn(name) {
		return nil // a concurrent query materialized it first
	}
	return e.addVirtualColumn(ctx, ps, name, value.KindString, func(ci int, col *table.Column, lo, hi int) error {
		buf := make([]byte, 0, 9*len(cols))
		for r := range hi - lo {
			buf = buf[:0]
			for j, c := range colRefs {
				if j > 0 {
					buf = append(buf, 0x1f)
				}
				buf = appendHex32(buf, c.GlobalIDAt(ci, r))
			}
			col.Strs[lo+r] = string(buf)
		}
		return nil
	})
}

// appendHex32 appends v as exactly 8 lowercase hex digits. Fixed width keeps
// lexicographic order == id order; hand-rolled because a fmt.Fprintf("%08x")
// per row per group column dominated multi-column group-by planning.
func appendHex32(dst []byte, v uint32) []byte {
	const digits = "0123456789abcdef"
	for shift := 28; shift >= 0; shift -= 4 {
		dst = append(dst, digits[(v>>uint(shift))&0xf])
	}
	return dst
}

// compositeSub parses the pos-th global-id of a composite key:
// materializeComposite writes each as 8 hex digits, one separator between.
func compositeSub(key string, pos int) (uint32, bool) {
	if len(key) < 9*pos+8 {
		return 0, false
	}
	var id uint32
	for _, c := range []byte(key[9*pos : 9*pos+8]) {
		switch {
		case c >= '0' && c <= '9':
			id = id<<4 | uint32(c-'0')
		case c >= 'a' && c <= 'f':
			id = id<<4 | uint32(c-'a'+10)
		default:
			return 0, false
		}
	}
	return id, true
}
