package exec

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"unsafe"

	"powerdrill/internal/colstore"
	"powerdrill/internal/dict"
	"powerdrill/internal/enc"
	"powerdrill/internal/sketch"
)

// groupSet is aggregate state over a set of groups in the layout a Partial
// gives its aggregates: the groups' global-ids, ascending, and one aggColumn
// per aggregate holding only the arrays aggLayout names, group i's state at
// index i of each. It is a chunk's partial — what the result cache holds for
// a fully active chunk, folded into a worker's groupTable like a scanned
// chunk — and the query's merged group table, which emitPartial wraps.
// Minimum and maximum are global-ids (the global dictionary is sorted, so
// the order of ids is the order of values) and a float sum is one part per
// group; neither is looked up or split until the partial leaves the engine
// (Partial.resolve). No array holds a pointer and no column a dictionary,
// so a cached entry keeps nothing alive outside the memory budget and is
// memory the garbage collector does not scan.
type groupSet struct {
	gids []uint32
	aggs []aggColumn
}

// sizeBytes is the footprint the result cache charges for the set.
func (s *groupSet) sizeBytes() int64 {
	n := 4 * int64(len(s.gids))
	for j := range s.aggs {
		n += s.aggs[j].sizeBytes()
	}
	return n
}

// executeChunks classifies every chunk and aggregates the active ones,
// fanning the per-chunk work (classify, mask, aggregate, cache probe) out
// over the engine's parallelism. Each worker folds every chunk it claims —
// scanned, or a partial from the result cache — into a group table of its
// own, indexed by group global-id; the tables then merge once
// (mergeTables). Counts, integer sums, MIN/MAX and sketches combine in any
// order; float sums, where addition order changes the last ULPs, are added
// in ascending chunk order at the merge — not in the racy order workers
// finish — so the result is bit-for-bit the sequential engine's. A scan
// its context cancels returns the context's error and publishes no memo:
// the chunks it did not claim were never recorded.
func (e *Engine) executeChunks(p *plan) (*groupSet, QueryStats, error) {
	qs := e.scanStats(p)
	nChunks, nCols := e.store.NumChunks(), int64(len(p.accessCols))
	if p.rowScan {
		return nil, qs, fmt.Errorf("exec: internal: row scans do not aggregate")
	}

	// Admission control: take up to the wanted worker count from the shared
	// gate; under concurrent-query pressure the grant shrinks (never below
	// one), so total scan goroutines stay bounded by the gate's capacity.
	workers, err := e.gate.AcquireUpTo(p.ctx, e.chunkWorkers(nChunks))
	if err != nil {
		return nil, qs, err
	}
	defer e.gate.Release(workers)
	ws := workerPool.take(workers)
	defer workerPool.give(ws)
	for _, w := range ws {
		w.begin(p)
	}
	wqs := make([]QueryStats, workers)
	if e.resultCache != nil {
		p.fresh = make([]*groupSet, nChunks)
	}
	err = forEachChunk(p.ctx, nChunks, workers, func(w, ci int) error {
		e.scanChunk(p, ci, nCols, &wqs[w], ws[w])
		return nil
	})
	if err != nil {
		return nil, qs, err
	}
	if p.sel != nil && !p.sel.ready {
		e.publish(p.sel)
	}
	for w := 0; w < workers; w++ {
		qs.Add(wqs[w])
	}
	return mergeTables(p, ws), qs, nil
}

// finish fails a query whose answer met a dictionary frame that failed to
// load (PinSet.Err), and otherwise puts the partials of the fully active
// chunks its scan aggregated into the result cache, in chunk order: a query
// that fails caches nothing.
func (e *Engine) finish(p *plan, ps *colstore.PinSet) error {
	for ci, part := range p.fresh {
		if part != nil && ps.Err() == nil {
			e.resultCache.Put(cacheKey(ci, p), part, part.sizeBytes())
		}
	}
	return ps.Err()
}

// scanStats starts a scan's counters with what is known before it runs:
// the chunks and cells the query covers and the residency analysis' split.
func (e *Engine) scanStats(p *plan) QueryStats {
	n := int64(e.store.NumChunks())
	qs := QueryStats{ChunksTotal: n, ActiveChunks: n, CellsCovered: int64(e.store.NumRows()) * int64(len(p.accessCols))}
	if p.active != nil {
		qs.ActiveChunks = int64(p.activeCount)
		qs.SkippedChunks = n - qs.ActiveChunks
	}
	return qs
}

// scanChunk classifies one chunk and folds its contribution into the
// worker's table — the unit of work one parallel worker claims at a time.
func (e *Engine) scanChunk(p *plan, ci int, nCols int64, qs *QueryStats, w *scanWorker) {
	rows := e.store.ChunkRows(ci)
	if p.active != nil && !p.active[ci] {
		// Pruned by the residency analysis: on a chunk-granular store this
		// chunk's data was never loaded, so don't touch it — the plan's
		// column views have nil entries here.
		qs.ChunksSkipped++
		qs.RowsSkipped += int64(rows)
		return
	}
	if part, ok := p.cachedParts[ci]; ok {
		// Answered by the cache probe: the chunk is fully active and its
		// partial came from the result cache before anything was pinned, so
		// — like a residency-pruned chunk — its data was never loaded and
		// must not be touched.
		qs.ChunksCached++
		qs.CacheSkippedChunks++
		qs.RowsCached += int64(rows)
		w.table.addPartial(part, ci)
		return
	}
	state, mask := e.selectChunk(p, ci, &w.mask, qs)
	var key string
	switch {
	case state == activeNone:
		qs.ChunksSkipped++
		qs.RowsSkipped += int64(rows)
		return
	case state == activeSome:
	case e.resultCache != nil:
		key = cacheKey(ci, p)
		if v, ok := e.resultCache.Get(key); ok {
			qs.ChunksCached++
			qs.RowsCached += int64(rows)
			w.table.addPartial(v.(*groupSet), ci)
			return
		}
	}
	e.aggregateChunk(p, ci, mask, &w.chunkAggCtx)
	if key != "" {
		p.fresh[ci] = w.newPartial(p)
	}
	w.table.add(w.groupGIDs, w.present, w.counts, w.dense, ci)
	qs.ChunksScanned++
	qs.KernelChunks++
	qs.RowsScanned += int64(rows)
	qs.CellsScanned += int64(rows) * nCols
}

// groupColumn returns the single column the engine groups by: the lone
// group column, the composite, or "" for a global aggregate.
func (p *plan) groupColumn() string {
	if p.composite != "" {
		return p.composite
	}
	if len(p.groupCols) == 1 {
		return p.groupCols[0]
	}
	return ""
}

// chunkAggCtx is one scan worker's scratch, reloaded for every chunk the
// worker claims. It holds the per-chunk geometry the kernels read — group
// cardinality and global-ids, the group elements where they lie, and the
// per-aggregate argument tables (distinct offer and global-id of each
// argument chunk-id — computed once per distinct value, not per row, the
// same trick the restriction masks use — and a sum's values, which the
// chunk keeps) — and the dense per-group tables the kernels accumulate in.
// Every buffer keeps its capacity from chunk to chunk and, in workerPool,
// from query to query, so a warm scan allocates nothing per chunk. A worker
// scans one chunk at a time, which is why the scratch is the worker's and
// needs no lock.
type chunkAggCtx struct {
	rows int
	// mask is the restriction's scratch: verdict table and bitmaps.
	mask maskScratch
	// Group geometry: chunk-ids 0..card-1 map to group global-ids. gseq is
	// nil for a global aggregate (card == 1, one implicit group). gelems
	// holds each row's group chunk-id, as the group sequence stores it, and
	// is empty where no kernel needs it: a chunk with one group — a global
	// aggregate, or a chunk that holds a single value of the group column, as
	// every chunk does for a partition field — and a query whose aggregates
	// take no argument. A bit-set or constant sequence stores no element per
	// row; gwide and awide are what the group's and the argument's are
	// widened into (enc.Sequence.Raw), a byte a row.
	card         int
	groupGIDs    []uint32
	gch          *colstore.Chunk
	gseq         enc.Sequence
	gelems       enc.Raw
	gwide, awide []uint8
	// Per-aggregate argument tables: argGIDs and argHash indexed
	// [agg][chunk-id] — the chunk dictionary, and what a chunk-id offers
	// a multi-group chunk's COUNT(DISTINCT): its value's hash, or under
	// Options.ExactDistinct its global-id — argVals [agg], a SUM or AVG
	// argument's values by chunk-id (Chunk.Values), in argBufs when the
	// chunk does not keep them; argChunks is the argument's chunk itself.
	argVals   []dict.Table
	argBufs   []dict.Table
	argGIDs   [][]uint32
	argHash   [][]uint64
	argChunks []*colstore.Chunk

	// counts[g] is the number of selected rows in group g; present lists
	// the groups that have any, ascending — the groups the chunk
	// contributes.
	counts  []int64
	present []int32
	// dense holds the chunk's results, one column per aggregate in the
	// query's layout but for the counts, which are counts: entry g of each
	// array is group g's, and the runs are the present groups', in order.
	// Entries of groups not present are stale.
	dense []aggColumn
	// Kernel accumulators, indexed by group chunk-id: sums and extreme
	// argument chunk-ids. COUNT(DISTINCT) offers lie in bucket, one stretch
	// per group in group order, fill[g] the next free entry of group g's
	// (see buckets).
	sumsI  []int64
	sumsF  []float64
	ext    []uint32
	bucket []uint64
	fill   []int32
	// occ[a] counts the selected rows holding argument chunk-id a, for the
	// argument chunk occOf (see occupancy); bit g*|dict|+a of pairSeen marks
	// the (group, argument) pairs COUNT(DISTINCT) has already offered.
	occ      []int64
	occOf    *colstore.Chunk
	pairSeen []uint64
	// The sparse path's selected rows and their group chunk-ids.
	sel []int32
	gof []uint32
}

// begin lays the dense results out for p's aggregates, keeping the arrays.
func (c *chunkAggCtx) begin(p *plan) {
	c.dense = slices.Grow(c.dense[:0], len(p.emptyAggs))[:len(p.emptyAggs)]
	for j, e := range p.emptyAggs {
		a := &c.dense[j]
		a.has, a.m, a.vals.kind = e.has, e.m, e.vals.kind
	}
}

// occupied lists the groups that received a selected row and returns how
// many there are. c.counts must be final.
func (c *chunkAggCtx) occupied() int {
	c.present = c.present[:0]
	for g, n := range c.counts {
		if n > 0 {
			c.present = append(c.present, int32(g))
		}
	}
	return len(c.present)
}

// release drops the views the scratch holds into the store — chunk
// dictionaries and element sequences — so that a pooled scratch keeps no
// evicted chunk alive outside the memory budget.
func (c *chunkAggCtx) release() {
	c.groupGIDs, c.gch, c.gseq, c.gelems, c.occOf = nil, nil, nil, enc.Raw{}, nil
	clear(c.argGIDs)
	clear(c.argVals)
	clear(c.argChunks)
}

// trim drops the scratch's buffers that hold more than lim bytes and
// returns what the others hold.
func (c *chunkAggCtx) trim(lim int) int {
	n := 0
	c.mask.verdict = kept(c.mask.verdict, lim, &n)
	for i, b := range c.mask.bitmaps {
		if capBytes(b.Words()) > lim {
			c.mask.bitmaps = c.mask.bitmaps[:i]
			break
		}
		n += capBytes(b.Words())
	}
	c.gwide, c.awide = kept(c.gwide, lim, &n), kept(c.awide, lim, &n)
	for j := range c.argHash {
		c.argHash[j] = kept(c.argHash[j], lim, &n)
		b := &c.argBufs[j]
		b.I32, b.I64, b.F64 = kept(b.I32, lim, &n), kept(b.I64, lim, &n), kept(b.F64, lim, &n)
	}
	c.counts, c.present = kept(c.counts, lim, &n), kept(c.present, lim, &n)
	for j := range c.dense {
		a := &c.dense[j]
		a.sumI, a.parts.vals, a.vals.ids = kept(a.sumI, lim, &n), kept(a.parts.vals, lim, &n), kept(a.vals.ids, lim, &n)
		a.hashes.off, a.hashes.vals = kept(a.hashes.off, lim, &n), kept(a.hashes.vals, lim, &n)
	}
	c.sumsI, c.sumsF, c.ext = kept(c.sumsI, lim, &n), kept(c.sumsF, lim, &n), kept(c.ext, lim, &n)
	c.bucket, c.fill = kept(c.bucket, lim, &n), kept(c.fill, lim, &n)
	c.occ, c.pairSeen = kept(c.occ, lim, &n), kept(c.pairSeen, lim, &n)
	c.sel, c.gof = kept(c.sel, lim, &n), kept(c.gof, lim, &n)
	return n
}

// kept returns buf, adding the bytes it holds to *n — or nil, if they are
// more than lim.
func kept[T any](buf []T, lim int, n *int) []T {
	b := capBytes(buf)
	if b > lim {
		return nil
	}
	*n += b
	return buf
}

// capBytes is the memory a slice's backing array holds.
func capBytes[T any](s []T) int {
	var zero T
	return cap(s) * int(unsafe.Sizeof(zero))
}

// groupTable is one scan worker's aggregate state for one query: every
// chunk the worker claims folds into it (add), and at the end of the scan
// the workers' tables merge once (mergeTables). Its arrays are indexed by
// group global-id and sized by the group dictionary, not by the chunks or
// the groups per chunk. Wherever no group was folded in an array holds its
// identity, zero — MIN and MAX keep a key whose larger value wins (see
// keyMask), a sketch an empty run — so a cleared table is ready for the
// next query.
type groupTable struct {
	// counts[gid] is the group's selected rows, positive for every group
	// folded in: the table's groups. (A cached partial of a query none of
	// whose aggregates counts rows holds no counts; it adds one a group.)
	counts []int64
	cols   []tableColumn
	// Float sums are not added here: addition order would then depend on
	// which worker claimed which chunk. The table logs them instead — the
	// chunks folded in, in the (ascending) order they were, ends[k] the end
	// of chunk k's groups in gids and in each float column's parts — and
	// mergeTables adds them, in ascending chunk order, through slot.
	floats bool
	chunks []int32
	ends   []int32
	gids   []uint32
	slot   []int32
	tmp    []uint64 // sketch unions
	iota   []int32  // 0, 1, 2, …: where a partial's groups lie (addPartial)
}

// tableColumn is one aggregate's state in a groupTable: whichever of its
// arrays the aggregate's layout names.
type tableColumn struct {
	sumI []int64
	// keys holds MIN or MAX as id ^ keyMask: the larger key wins, and 0 is
	// no value.
	keys []uint32
	// runs holds each group's sketch so far, or under ExactDistinct its set.
	runs [][]uint64
	// parts logs one float sum per logged group (groupTable.gids).
	parts []uint64
}

// keyMask makes MIN and MAX one maximum: a MIN column's ids are kept
// complemented, which reverses their order.
func keyMask(has aggArrays) uint32 {
	if has&arrMin != 0 {
		return math.MaxUint32
	}
	return 0
}

// begin sizes the table for p: the group dictionary's cardinality (one
// group for a global aggregate), and the arrays p's aggregates name.
func (t *groupTable) begin(p *plan) {
	card := 1
	if p.groupCol != nil {
		card = p.groupCol.Dict.Len()
	}
	t.counts = clean(t.counts, true, card)
	for len(t.cols) < len(p.emptyAggs) {
		t.cols = append(t.cols, tableColumn{})
	}
	t.floats = false
	for j := range t.cols {
		var h aggArrays
		if j < len(p.emptyAggs) {
			h = p.emptyAggs[j].has
		}
		c := &t.cols[j]
		c.sumI = clean(c.sumI, h&arrSumI != 0, card)
		c.keys = clean(c.keys, h&(arrMin|arrMax) != 0, card)
		c.runs = clean(c.runs, h&arrSketch != 0, card)
		t.floats = t.floats || h&arrParts != 0
	}
	t.slot = clean(t.slot, t.floats, card)
}

// clean returns buf with length n if the query uses it, else nil: an array
// the query has no use for is not kept for a later one. A table's arrays
// are zero over their whole capacity between queries, so reslicing
// suffices unless buf must grow.
func clean[T any](buf []T, use bool, n int) []T {
	switch {
	case !use:
		return nil
	case cap(buf) < n:
		return make([]T, n)
	}
	return buf[:n]
}

// add folds a chunk's contribution into the table: group k of it is entry
// at[k] of counts and of aggs' arrays, with global-id gids[at[k]], and run k
// of a sketch column; counts is nil if the contribution does not count rows.
// ci is the chunk; nothing is written through the arrays.
func (t *groupTable) add(gids []uint32, at []int32, counts []int64, aggs []aggColumn, ci int) {
	if len(at) == 0 {
		return
	}
	if counts == nil {
		for _, g := range at {
			t.counts[gids[g]]++
		}
	} else {
		for _, g := range at {
			t.counts[gids[g]] += counts[g]
		}
	}
	if t.floats {
		t.chunks = append(t.chunks, int32(ci))
		for _, g := range at {
			t.gids = append(t.gids, gids[g])
		}
		t.ends = append(t.ends, int32(len(t.gids)))
	}
	for j := range aggs {
		a, c := &aggs[j], &t.cols[j]
		switch {
		case a.has&arrSumI != 0:
			for _, g := range at {
				c.sumI[gids[g]] += a.sumI[g]
			}
		case a.has&arrParts != 0:
			for _, g := range at {
				c.parts = append(c.parts, a.parts.vals[g])
			}
		case a.has&(arrMin|arrMax) != 0:
			mask := keyMask(a.has)
			for _, g := range at {
				gid := gids[g]
				c.keys[gid] = max(c.keys[gid], a.vals.ids[g]^mask)
			}
		case a.has&arrSketch != 0:
			for k, g := range at {
				gid := gids[g]
				in, run := a.hashes.at(k), c.runs[gid]
				if len(run) == 0 {
					c.runs[gid] = append(run, in...)
					continue
				}
				t.tmp = sketch.UnionSorted(t.tmp[:0], run, in, a.m)
				c.runs[gid] = append(run[:0], t.tmp...)
			}
		}
	}
}

// addPartial folds in a chunk's partial from the result cache.
func (t *groupTable) addPartial(part *groupSet, ci int) {
	for len(t.iota) < len(part.gids) {
		t.iota = append(t.iota, int32(len(t.iota)))
	}
	var counts []int64
	for j := range part.aggs {
		if part.aggs[j].has&arrCounts != 0 {
			// Every aggregate that counts counts the same rows.
			counts = part.aggs[j].counts
			break
		}
	}
	t.add(part.gids, t.iota[:len(part.gids)], counts, part.aggs, ci)
}

// reset returns every array to zero and empties the float log. Sketch runs
// are dropped, not kept: a group's may hold m hashes.
func (t *groupTable) reset() {
	clear(t.counts)
	clear(t.slot)
	for j := range t.cols {
		c := &t.cols[j]
		clear(c.sumI)
		clear(c.keys)
		clear(c.runs)
		c.parts = c.parts[:0]
	}
	t.chunks, t.ends, t.gids = t.chunks[:0], t.ends[:0], t.gids[:0]
}

// trim drops the table's arrays that hold more than lim bytes and returns
// what the others hold. The table must be reset.
func (t *groupTable) trim(lim int) int {
	n := 0
	t.counts, t.slot = kept(t.counts, lim, &n), kept(t.slot, lim, &n)
	t.chunks, t.ends, t.gids = kept(t.chunks, lim, &n), kept(t.ends, lim, &n), kept(t.gids, lim, &n)
	t.tmp, t.iota = kept(t.tmp, lim, &n), kept(t.iota, lim, &n)
	for j := range t.cols {
		c := &t.cols[j]
		c.sumI, c.keys = kept(c.sumI, lim, &n), kept(c.keys, lim, &n)
		c.runs, c.parts = kept(c.runs, lim, &n), kept(c.parts, lim, &n)
	}
	return n
}

// scanWorker is what one scan worker works with: its scratch and its group
// table. Row scans use the scratch's mask alone.
type scanWorker struct {
	chunkAggCtx
	table groupTable
	// rowCands and rowTop are a row scan's scratch: a chunk's matching
	// rows, and the heap selecting their best first keys (rowscan.go).
	rowCands []rowCand
	rowTop   []int
	held     int // bytes, while in workerPool
}

// begin readies the worker for p's scan.
func (w *scanWorker) begin(p *plan) {
	w.chunkAggCtx.begin(p)
	w.table.begin(p)
}

// workerPool keeps scan workers between queries, so that a warm query
// neither regrows scratch nor remakes tables. It is process-wide — the
// engines of one process (leaves, ingest units) scan with the same workers
// — and it is outside every byte budget (docs/memory.md), so it is bounded:
// it keeps no buffer larger than poolBuffer and no worker that would take it
// past poolBytes. (A sync.Pool keeps whatever it is given until the garbage
// collector runs twice.) The kernels read a chunk's elements where they lie,
// so what a worker keeps grows with chunk and group dictionaries, not with
// rows: poolBuffer holds a group table array of 8 192 groups, and poolBytes
// four workers grouping by a dictionary of that size. A larger buffer is a
// larger grouping's, made again, once, by the query that needs it.
var workerPool statePool

const (
	poolBytes  = 1 << 20
	poolBuffer = 64 << 10
)

type statePool struct {
	mu   sync.Mutex
	free []*scanWorker
	held int
}

// take returns n workers.
func (s *statePool) take(n int) []*scanWorker {
	ws := make([]*scanWorker, n)
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range ws {
		k := len(s.free) - 1
		if k < 0 {
			ws[i] = &scanWorker{}
			continue
		}
		ws[i], s.free[k] = s.free[k], nil
		s.free = s.free[:k]
		s.held -= ws[i].held
	}
	return ws
}

// give returns workers to the pool, reset and trimmed; those the pool has
// no room for are dropped.
func (s *statePool) give(ws []*scanWorker) {
	for _, w := range ws {
		w.table.reset()
		w.release()
		w.held = w.chunkAggCtx.trim(poolBuffer) + w.table.trim(poolBuffer)
		w.rowCands, w.rowTop = kept(w.rowCands[:0], poolBuffer, &w.held), kept(w.rowTop[:0], poolBuffer, &w.held)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range ws {
		if s.held+w.held <= poolBytes {
			s.free = append(s.free, w)
			s.held += w.held
		}
	}
}

// globalGroup is the chunk dictionary of a global aggregate: one group.
var globalGroup = []uint32{0}

// resized returns buf with length n, reusing its storage when it is large
// enough. The contents are unspecified.
func resized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// zeroed is resized with every element cleared.
func zeroed[T any](buf []T, n int) []T {
	buf = resized(buf, n)
	clear(buf)
	return buf
}

// loadGroups resolves chunk ci's group geometry.
func (c *chunkAggCtx) loadGroups(p *plan, ci int) {
	if p.groupCol == nil {
		c.card, c.groupGIDs, c.gch, c.gseq = 1, globalGroup, nil, nil
		return
	}
	c.gch = p.groupCol.Chunks[ci]
	c.card, c.groupGIDs, c.gseq = c.gch.Cardinality(), c.gch.GlobalIDs, c.gch.Elems
}

// args sizes the per-aggregate argument tables for na aggregates.
func (c *chunkAggCtx) args(na int) {
	if len(c.argChunks) < na {
		c.argVals, c.argBufs = make([]dict.Table, na), make([]dict.Table, na)
		c.argGIDs = make([][]uint32, na)
		c.argHash = make([][]uint64, na)
		c.argChunks = make([]*colstore.Chunk, na)
	}
}

// load resolves chunk ci's group geometry and dense argument tables.
func (c *chunkAggCtx) load(e *Engine, p *plan, ci int) {
	c.rows = e.store.ChunkRows(ci)
	c.loadGroups(p, ci)
	c.occOf = nil
	c.args(len(p.aggs))
	for j, spec := range p.aggs {
		acol := p.aggCols[j]
		if acol == nil {
			continue
		}
		ach := acol.Chunks[ci]
		c.argChunks[j], c.argGIDs[j] = ach, ach.GlobalIDs
		switch {
		case spec.fn == aggSum || spec.fn == aggAvg:
			c.argVals[j] = ach.Values(acol.Dict, &c.argBufs[j])
		case spec.fn == aggCountDistinct && c.card > 1:
			hs := resized(c.argHash[j], len(ach.GlobalIDs))
			if e.opts.ExactDistinct {
				for i, gid := range ach.GlobalIDs {
					hs[i] = uint64(gid)
				}
			} else {
				dict.Hashes(acol.Dict, ach.GlobalIDs, hs)
			}
			c.argHash[j] = hs
		}
	}
}

// distinctOffer is what a value of global-id gid offers COUNT(DISTINCT):
// its hash for the sketch, or under Options.ExactDistinct the id itself.
func distinctOffer(e *Engine, d dict.Dict, gid uint32) uint64 {
	if e.opts.ExactDistinct {
		return uint64(gid)
	}
	return d.Hash(gid)
}

// occupancy tells which argument chunk-ids of aggregate j occur among the
// selected rows: a count per chunk-id, or nil under a full mask, when all of
// them do — a chunk dictionary lists only values the chunk holds. Aggregates
// over one column (MIN and MAX of it, say) share the count.
func (c *chunkAggCtx) occupancy(j int, mask *enc.Bitmap) []int64 {
	if mask == nil {
		return nil
	}
	if ach := c.argChunks[j]; c.occOf != ach {
		c.occ = zeroed(c.occ, len(ach.GlobalIDs))
		ach.Elems.CountIntoMasked(c.occ, mask)
		c.occOf = ach
	}
	return c.occ
}

// newPartial copies the chunk's results into a partial of its own, at its
// exact size — what the result cache holds: the groups that received a
// selected row, in chunk-id order, and for each aggregate the arrays its
// layout names.
func (c *chunkAggCtx) newPartial(p *plan) *groupSet {
	n := len(c.present)
	part := &groupSet{gids: make([]uint32, n), aggs: slices.Clone(p.emptyAggs)}
	for k, g := range c.present {
		part.gids[k] = c.groupGIDs[g]
	}
	for j := range part.aggs {
		a, d := &part.aggs[j], &c.dense[j]
		a.alloc(n)
		for k, g := range c.present {
			if a.has&arrCounts != 0 {
				a.counts[k] = c.counts[g]
			}
			switch {
			case a.has&arrSumI != 0:
				a.sumI[k] = d.sumI[g]
			case a.has&arrParts != 0:
				a.parts.vals[k] = d.parts.vals[g]
			case a.has&(arrMin|arrMax) != 0:
				a.vals.ids[k] = d.vals.ids[g]
			}
		}
		if a.has&arrSketch != 0 && n > 0 {
			a.hashes = runColumn{slices.Clone(d.hashes.off), slices.Clone(d.hashes.vals)}
		}
	}
	return part
}
