// Package exec is PowerDrill's query engine: it evaluates the SQL subset
// over a colstore.Store using the mechanisms of Sections 2.4, 2.5 and 5 —
// chunk skipping via chunk-dictionaries, dense counts-array group-by,
// materialized virtual fields, per-chunk result caching for fully active
// chunks, and approximate count distinct.
//
// # Query lifecycle on a lazy store
//
// One Run goes through five phases; the first three decide what must be
// resident, the last two only read pinned, immutable data:
//
//  1. Residency analysis (analyzeResidency, lock-free): the WHERE clause
//     is compiled against global dictionaries and the per-chunk value
//     spans from the store manifest, classifying every chunk as possibly
//     active or provably inactive — before any chunk data is loaded.
//     Only dictionaries are pinned here.
//  2. Prefetch (prefetchColumns, lock-free): the active chunks of every
//     plain column the statement mentions are pinned, cold-loading from
//     disk as needed. Concurrent first-touch queries load disjoint data
//     in parallel; the memory manager deduplicates identical loads.
//  3. Planning (plan, serialized by planMu): the only phase that may
//     mutate the store — materializing virtual columns (which scans every
//     row, so materialization sources are pinned in full). The compiled
//     plan resolves every accessed column to its pinned pointer
//     (plan.cols, restriction.colRef), so later phases never touch the
//     store registry or the manager mutex.
//  4. Scan (executeChunks / executeRowScan): chunks pruned by the
//     residency analysis are skipped without touching their (never
//     loaded) data; surviving chunks get the precise per-chunk-dictionary
//     classification — skip / fully-active (cacheable) / partial — and
//     active ones are aggregated, fanned out over admission-gated
//     workers.
//  5. Finalize: ORDER BY and LIMIT select groups in id space (topk.go),
//     HAVING applies, the surviving rows' keys and values decode through
//     pinned dictionaries, pins release.
//
// # Admission control
//
// Gate is a weighted semaphore admitting scan workers across concurrent
// queries: each fan-out (chunk scans, row scans, virtual-column
// materialization) takes what is available up to its parallelism and
// never blocks below one worker, so N concurrent queries degrade smoothly
// instead of spawning N × Parallelism goroutines. Engines get a private
// gate by default; cluster leaves share one via Options.Gate.
//
// # Concurrency model
//
// The engine is safe for concurrent Query/Run/RunPartial calls, and a
// single query fans its chunk work out over Options.Parallelism workers —
// the in-process analogue of the paper's Section 4 execution tree.
// The invariants that make this work:
//
//   - Store data is immutable after load. Chunk-dictionaries, element
//     sequences and global dictionaries are never written once built, so
//     the scan phase (classify → mask → aggregate) takes no locks at all.
//     The two exceptions hide their own synchronization: the lazily
//     loaded sharded dictionary (dict.Sharded) and the colstore column
//     registry/metadata, which grow when a virtual field materializes
//     (on lazy stores the materialization is persisted into the store's
//     sidecar and budgeted via the memory manager).
//   - Planning is serialized by planMu, keeping "check column exists →
//     materialize → register" atomic without slowing the scan phase.
//   - Chunks are independent units of work. Workers claim chunk indices
//     from a shared counter and produce one partial per chunk plus
//     per-worker QueryStats, each with a scratch of its own (chunkAggCtx);
//     partials then merge in ascending chunk order on the calling
//     goroutine (groupTable), so results — including order-sensitive
//     float sums — are bit-for-bit identical to the sequential engine's.
//   - Shared mutable state is wrapped, not sprinkled with locks: the
//     result cache is behind cache.Synchronized (its eviction policies
//     mutate on Get), and the engine's cumulative Stats accumulate under
//     statsMu once per query, from the already-merged per-query counters.
package exec
