// Package exec is PowerDrill's query engine: it evaluates the SQL subset
// over a colstore.Store using the mechanisms of Sections 2.4, 2.5 and 5 —
// chunk skipping via chunk-dictionaries, dense counts-array group-by,
// materialized virtual fields, per-chunk result caching for fully active
// chunks, and approximate count distinct.
//
// # Query lifecycle on a lazy store
//
// A statement is compiled once, and every later decision reads that one
// compiled plan (prepare runs the first three phases). The first three
// decide what must be resident, the last two only read pinned, immutable
// data:
//
//  1. Compile (plan): one walk resolves every operand — WHERE leaves,
//     group keys, aggregate arguments — to a column; an expression, a
//     predicate the dictionaries cannot decide (as a field of 0s and 1s)
//     or a multi-key composite no earlier query materialized is
//     materialized right here (its sources pinned in full: it evaluates
//     every row, and a row that fails fails the query). Only
//     dictionaries are pinned. Restriction literals become sorted
//     global-id sets and ranges, and each leaf of the restriction tree
//     carries its column's per-chunk value spans from the column's layout
//     record (pinned into the query's PinSet). The result-cache signature
//     is derived from the compiled group column and aggregates.
//  2. Prune (analyzeResidency, cacheResidency): the restriction tree is
//     classified per chunk on the spans — the same AND/OR/NOT fold the
//     scan applies to chunk dictionaries — giving the possibly active and
//     the provably fully active chunks before any chunk data is loaded. Fully active chunks whose partials the result cache holds
//     are answered from it and never pinned.
//  3. Pin (pinPlan): the plan's access set — restriction leaves, group
//     columns, aggregate arguments, the composite — is pinned with its
//     dictionaries at the surviving chunks, cold-loading from disk as
//     needed: one coalesced read per column, decoded on workers taken
//     from the gate for the pin alone, under no lock, so concurrent
//     first-touch queries load disjoint data in parallel (the memory
//     manager deduplicates identical loads). The plan now holds a pinned
//     view of every accessed column (plan.cols, restriction.colRef), so
//     later phases never touch the store registry or the manager mutex.
//  4. Scan (executeChunks / executeRowScan): chunks pruned in phase 2
//     are skipped without touching their (never loaded) data; surviving
//     chunks get the exact classification on their chunk dictionaries —
//     skip / fully active (cacheable) / partial — and active ones are
//     aggregated, fanned out over admission-gated workers. A group-by's
//     first query with a WHERE clause records each chunk's verdict and
//     mask into the engine's one-entry memo (memo.go), keyed by the
//     clause's canonical text, once its scan completes; a later one with
//     the same clause skips compiling the restriction, takes phase 2's
//     sets from the memo, pins only chunks whose verdict is not none and
//     no column only the restriction reads, and reads verdicts and masks
//     here. A hit is safe because an engine's rows never change: every
//     ingest unit, frozen view and leaf has an engine of its own. Row
//     scans and DisableSkipping are not memoized. A row scan skips phase
//     3 and pins in two phases of its own (rowscan.go): it selects on
//     the WHERE columns and the first ORDER BY key, a round of chunks at
//     a time, best-first by that key's spans, skipping unloaded the
//     chunks its rank bound rules out; then it fetches the other ORDER
//     BY keys and the projection at the chunks that hold a candidate
//     only, ranks the candidates and looks up the winners' values.
//  5. Emit and finalize: the merged group table, already laid out as a
//     Partial's columns, is wrapped as one (emitPartial) with keys and
//     MIN/MAX still global-ids beside their pinned dictionaries. RunPartial resolves
//     those to values and hands the partial up the tree; Run finalizes it
//     right there with FinalizePartial — the one finalizer, the same call
//     a cluster root or an ingest snapshot makes on a merged partial:
//     ORDER BY and LIMIT select groups on ids (topk.go), HAVING applies,
//     and only the surviving rows' keys and values decode through the
//     dictionaries. Then the pins release.
//
// # Cancellation
//
// RunContext and RunPartialContext take the caller's context; Run and
// RunPartial are the same calls under context.Background(). The context
// is checked only where the work is already split into pieces, each
// time by a non-blocking poll of the Done channel the piece of work
// captured once — never by ctx.Err() per chunk:
//
//   - at the gate: a query waiting for a worker token leaves when its
//     context is done (Gate.AcquireUpTo);
//   - before each cold batch of a pin (colstore.PinSet.PinChunks): phase
//     3's, a row scan's, a materialization's sources';
//   - before each column's frame pin (colstore.PinSet.PinChunkFrames):
//     phase 3's aggregate arguments', a materialization's sources';
//   - before each chunk claim of a chunk sweep (forEachChunk): phase 4's
//     scan, a row scan's round, a materialization;
//   - before each round of a row scan.
//
// A cancelled query returns ctx.Err() and releases every pin with its
// PinSet. It publishes no memo selection, caches no partial, adds no
// virtual column and folds nothing into the engine's Stats, so whatever
// runs next answers as if it had never started.
//
// # Admission control
//
// Gate is a weighted semaphore — a channel of worker tokens — admitting
// scan workers across concurrent queries: each fan-out (chunk scans, row
// scans, virtual-column materialization, the decode of a pin's cold
// chunks) waits for one token, takes what else is free up to its
// parallelism, and never blocks below one worker, so N concurrent queries
// degrade smoothly instead of spawning N × Parallelism goroutines. A query
// still waiting leaves when its context is done. Engines get a private
// gate by default; cluster leaves share one via Options.Gate.
//
// # Concurrency model
//
// The engine is safe for concurrent Run/RunPartial calls, and a
// single query fans its chunk work out over Options.Parallelism workers —
// the in-process analogue of the paper's Section 4 execution tree.
// The invariants that make this work:
//
//   - Store data is immutable after load. Chunk-dictionaries, element
//     sequences and global dictionaries are never written once built, so
//     the scan phase (classify → mask → aggregate) takes no locks at all.
//     Two exceptions hide their own synchronization: the colstore column
//     registry/metadata, which grows when a virtual field materializes
//     (on lazy stores persisted into the sidecar and budgeted), and the
//     tables a chunk keeps of what the kernels derive from it alone
//     (colstore.Chunk.Counts, Values, HashOrder), each built once.
//   - planMu guards one step only: "check column exists → materialize →
//     register", taken (and the check repeated) just when compiling meets
//     an expression or composite that no query has materialized yet; a
//     query over existing columns never touches it.
//   - Chunks are independent units of work. Workers claim chunk indices
//     from a shared counter, each with a worker of its own (scanWorker: a
//     scratch and a group table indexed by group global-id, taken from the
//     process-wide workerPool and given back after the query), and fold
//     every chunk they claim into their own table, beside per-worker
//     QueryStats. The tables merge once on the calling goroutine
//     (mergeTables): counts, integer sums, MIN/MAX and sketches in any
//     order, float sums from a per-worker log in ascending chunk order, so
//     results — including order-sensitive float sums — are bit-for-bit
//     identical to the sequential engine's. Only a chunk whose partial
//     enters the result cache gets a partial of its own; it is never
//     written once built, so the cache shares it between queries and
//     workers as it is.
//   - Shared mutable state is wrapped, not sprinkled with locks: the
//     result cache is a cache.Synchronized (LIRS mutates its lists on
//     Get), and the engine's cumulative Stats accumulate under
//     statsMu once per query, from the already-merged per-query counters.
package exec
