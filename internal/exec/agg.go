package exec

import (
	"fmt"

	"powerdrill/internal/colstore"
	"powerdrill/internal/dict"
	"powerdrill/internal/enc"
	"powerdrill/internal/sketch"
)

// accCell accumulates one aggregate for one group. Minimum and maximum are
// tracked as global-ids: the global dictionary is sorted, so the order of
// ids is the order of values and no value needs materializing until the
// final result rows. The cell holds no pointer, so a slice of them — a
// chunk's partial, the group table's slab, a cached partial — is memory the
// garbage collector never scans; COUNT(DISTINCT) state, which does point,
// lives beside it in a distinctCell.
type accCell struct {
	count int64
	sumI  int64
	sumF  float64
	minID uint32
	maxID uint32
	hasMM bool
}

// accCellBytes is the size of an accCell in memory.
const accCellBytes = 40

// merge folds o into c.
func (c *accCell) merge(o *accCell) {
	c.count += o.count
	c.sumI += o.sumI
	c.sumF += o.sumF
	if o.hasMM {
		if !c.hasMM {
			c.minID, c.maxID, c.hasMM = o.minID, o.maxID, true
		} else {
			if o.minID < c.minID {
				c.minID = o.minID
			}
			if o.maxID > c.maxID {
				c.maxID = o.maxID
			}
		}
	}
}

// distinctCell is the COUNT(DISTINCT) state of one aggregate for one group:
// a KMV sketch, or the exact id set under Options.ExactDistinct. Both are
// made on the first value, so a cell of any other aggregate stays zero.
type distinctCell struct {
	sketch *sketch.KMV
	exact  map[uint32]struct{}
}

// addHash offers one value's hash to the sketch (of parameter m).
func (d *distinctCell) addHash(h uint64, m int) {
	if d.sketch == nil {
		d.sketch = sketch.NewKMV(m)
	}
	d.sketch.AddHash(h)
}

// addID adds one value's global-id to the exact set.
func (d *distinctCell) addID(gid uint32) {
	if d.exact == nil {
		d.exact = make(map[uint32]struct{}, 16)
	}
	d.exact[gid] = struct{}{}
}

// merge folds o into d.
func (d *distinctCell) merge(o *distinctCell) {
	if o.sketch != nil {
		if d.sketch == nil {
			d.sketch = sketch.NewKMV(o.sketch.M())
		}
		d.sketch.Merge(o.sketch)
	}
	for g := range o.exact {
		d.addID(g)
	}
}

// count is the cell's COUNT(DISTINCT) answer: the exact set's size, or the
// sketch's estimate.
func (d *distinctCell) count() int64 {
	if d.sketch != nil {
		return d.sketch.Estimate()
	}
	return int64(len(d.exact))
}

// sizeBytes estimates the cache footprint of the cell.
func (d *distinctCell) sizeBytes() int64 {
	s := int64(16)
	if d.sketch != nil {
		s += d.sketch.MemoryBytes()
	}
	return s + int64(len(d.exact))*16
}

// partial is one chunk's aggregate contribution: group global-ids plus a
// flattened [group][agg] accumulator matrix. Partials are what the result
// cache stores for fully active chunks and what the distributed execution
// tree ships between levels.
type partial struct {
	gids []uint32
	accs []accCell // len = len(gids) * nAggs
	// distinct[i] is the COUNT(DISTINCT) state beside accs[i]. It exists
	// only when the plan has a DISTINCT aggregate: any other plan's partials
	// point at nothing but their two arrays.
	distinct []distinctCell
}

func (p *partial) sizeBytes() int64 {
	s := int64(len(p.gids))*4 + int64(len(p.accs))*accCellBytes
	for i := range p.distinct {
		s += p.distinct[i].sizeBytes()
	}
	return s
}

// executeChunks classifies every chunk and aggregates the active ones,
// fanning the per-chunk work (classify, mask, aggregate, cache probe) out
// over the engine's parallelism. Workers produce one *partial per active
// chunk (the same unit the result cache stores and the execution tree
// ships); the partials then merge into the group table in ascending
// chunk order on the calling goroutine. Merging in chunk order — not in
// the racy order workers finish — is what makes the result bit-for-bit
// identical to the sequential engine's even for float SUM/AVG, where
// addition order changes the last ULPs.
func (e *Engine) executeChunks(p *plan) (*groupTable, QueryStats, error) {
	var qs QueryStats
	nChunks := e.store.NumChunks()
	qs.ChunksTotal = nChunks
	nCols := int64(len(p.accessCols))
	qs.CellsCovered = int64(e.store.NumRows()) * nCols
	qs.ActiveChunks = nChunks
	if p.active != nil {
		qs.ActiveChunks = p.activeCount
		qs.SkippedChunks = nChunks - p.activeCount
	}

	if p.rowScan {
		return nil, qs, fmt.Errorf("exec: internal: row scans do not aggregate")
	}

	// Admission control: take up to the wanted worker count from the shared
	// gate; under concurrent-query pressure the grant shrinks (never below
	// one), so total scan goroutines stay bounded by the gate's capacity.
	workers := e.gate.AcquireUpTo(e.chunkWorkers(nChunks))
	defer e.gate.Release(workers)
	parts := make([]*partial, nChunks) // nil entries are skipped chunks
	wqs := make([]QueryStats, workers)
	// One scratch per worker, reused across the chunks it claims: a worker
	// scans one chunk at a time, so nothing in it is shared.
	scratch := make([]chunkAggCtx, workers)
	err := forEachChunk(nChunks, workers, nil, func(w, ci int) error {
		part, err := e.scanChunk(p, ci, nCols, &wqs[w], &scratch[w])
		if err != nil {
			return err
		}
		parts[ci] = part
		return nil
	})
	if err != nil {
		return nil, qs, err
	}
	card, contributed := 1, 0
	if p.groupCol != nil {
		card = p.groupCol.Dict.Len()
	}
	for _, part := range parts {
		if part != nil {
			contributed += len(part.gids)
		}
	}
	groups := newGroupTable(card, len(p.aggs), contributed, p.hasDistinct)
	for _, part := range parts {
		if part != nil {
			groups.merge(part)
		}
	}
	for w := 0; w < workers; w++ {
		qs.Add(wqs[w])
	}
	return groups, qs, nil
}

// scanChunk classifies one chunk and returns its partial contribution (nil
// for skipped chunks) — the unit of work one parallel worker claims at a
// time.
func (e *Engine) scanChunk(p *plan, ci int, nCols int64, qs *QueryStats, sc *chunkAggCtx) (*partial, error) {
	rows := e.store.ChunkRows(ci)
	if p.active != nil && !p.active[ci] {
		// Pruned by the residency analysis: on a chunk-granular store this
		// chunk's data was never loaded, so don't touch it — the plan's
		// column views have nil entries here.
		qs.ChunksSkipped++
		qs.RowsSkipped += int64(rows)
		return nil, nil
	}
	if part, ok := p.cachedParts[ci]; ok {
		// Answered by the cache probe: the chunk is fully active and its
		// partial came from the result cache before anything was pinned, so
		// — like a residency-pruned chunk — its data was never loaded and
		// must not be touched.
		qs.ChunksCached++
		qs.CacheSkippedChunks++
		qs.RowsCached += int64(rows)
		return part, nil
	}
	state := activeAll
	if p.where != nil {
		if e.opts.DisableSkipping {
			state = activeSome
		} else {
			state = p.where.classify(ci, byChunkDict)
		}
	}
	switch state {
	case activeNone:
		qs.ChunksSkipped++
		qs.RowsSkipped += int64(rows)
		return nil, nil
	case activeAll:
		if e.resultCache != nil {
			key := cacheKey(ci, p)
			if v, ok := e.resultCache.Get(key); ok {
				qs.ChunksCached++
				qs.RowsCached += int64(rows)
				return v.(*partial), nil
			}
			part, err := e.aggregateChunk(p, ci, nil, qs, sc)
			if err != nil {
				return nil, err
			}
			e.resultCache.Put(key, part, part.sizeBytes())
			qs.ChunksScanned++
			qs.RowsScanned += int64(rows)
			qs.CellsScanned += int64(rows) * nCols
			return part, nil
		}
		part, err := e.aggregateChunk(p, ci, nil, qs, sc)
		if err != nil {
			return nil, err
		}
		qs.ChunksScanned++
		qs.RowsScanned += int64(rows)
		qs.CellsScanned += int64(rows) * nCols
		return part, nil
	case activeSome:
		mask, err := p.where.mask(e, p, ci, &sc.mask)
		if err != nil {
			return nil, err
		}
		part, err := e.aggregateChunk(p, ci, mask, qs, sc)
		if err != nil {
			return nil, err
		}
		qs.ChunksScanned++
		qs.RowsScanned += int64(rows)
		qs.CellsScanned += int64(rows) * nCols
		return part, nil
	}
	return nil, nil
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

// aggregateChunk computes a chunk's partial aggregates. mask == nil means
// the chunk is fully active. It dispatches to the vectorized kernels
// (kernels.go) unless Options.DisableKernels pins the scalar reference
// path — the oracle the differential fuzzer compares the kernels against.
// Both paths produce bit-for-bit identical partials, including float
// SUM/AVG accumulation order (ascending rows). sc is the calling worker's
// scratch; nothing in the returned partial points into it.
func (e *Engine) aggregateChunk(p *plan, ci int, mask *enc.Bitmap, qs *QueryStats, sc *chunkAggCtx) (*partial, error) {
	if e.opts.DisableKernels {
		if qs != nil {
			qs.ScalarChunks++
		}
		return e.aggregateChunkScalar(p, ci, mask, sc)
	}
	if qs != nil {
		qs.KernelChunks++
	}
	return e.aggregateChunkVec(p, ci, mask, sc)
}

// chunkAggCtx is one scan worker's scratch, reloaded for every chunk the
// worker claims. It holds the per-chunk geometry both aggregation paths
// share — group cardinality and global-ids, materialized group elements,
// and the per-aggregate argument tables (numeric value, hash, and
// global-id of each argument chunk-id — computed once per distinct value,
// not per row, the same trick the restriction masks use) — and the dense
// per-group arrays the kernels accumulate in. Every buffer keeps its
// capacity from chunk to chunk, so after a worker's first chunks a scan
// allocates only the partial it returns. A worker scans one chunk at a
// time, which is why the scratch is the worker's and needs no lock.
type chunkAggCtx struct {
	rows int
	na   int
	// hasDistinct: the plan has a COUNT(DISTINCT), so partials carry the
	// distinct side array.
	hasDistinct bool
	// mask is the restriction's scratch: verdict table and bitmaps.
	mask maskScratch
	// Group geometry: chunk-ids 0..card-1 map to group global-ids. gseq is
	// nil for a global aggregate (card == 1, one implicit group). gelems
	// holds each row's group chunk-id, and is nil where no kernel needs it:
	// a chunk with one group — a global aggregate, or a chunk that holds a
	// single value of the group column, as every chunk does for a
	// partition field — and a query whose aggregates take no argument.
	card      int
	groupGIDs []uint32
	gseq      enc.Sequence
	gelems    []uint32
	gelemsBuf []uint32
	// Per-aggregate argument tables, indexed [agg][chunk-id] (argElems is
	// [agg][row], and empty where the kernels take the aggregate from the
	// chunk dictionary instead of the rows; argChunks is the argument's
	// chunk itself).
	argValsF  [][]float64
	argValsI  [][]int64
	argGIDs   [][]uint32
	argHash   [][]uint64
	argElems  [][]uint32
	argChunks []*colstore.Chunk

	// counts[g] is the number of selected rows in group g; slot[g] is the
	// group's position in the compacted partial (meaningful only where the
	// group is occupied).
	counts []int64
	slot   []int32
	// Kernel accumulators, indexed by group chunk-id.
	sumsI  []int64
	sumsF  []float64
	minIDs []uint32
	maxIDs []uint32
	// occ[a] counts the selected rows holding argument chunk-id a, for the
	// argument chunk occOf (see occupancy); pairSeen[g*|dict|+a] marks the
	// (group, argument) pairs COUNT(DISTINCT) has already offered.
	occ      []int64
	occOf    *colstore.Chunk
	pairSeen []bool
	// The sparse path's selected rows and their group chunk-ids.
	sel []int32
	gof []uint32
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
	c.na, c.hasDistinct = len(p.aggs), p.hasDistinct
	if p.groupCol == nil {
		c.card, c.groupGIDs = 1, globalGroup
		return
	}
	gch := p.groupCol.Chunks[ci]
	c.card, c.groupGIDs, c.gseq = gch.Cardinality(), gch.GlobalIDs, gch.Elems
}

// load resolves chunk ci's group geometry and dense argument tables. With
// dictFed, MIN, MAX and COUNT(DISTINCT) arguments of a single-group chunk
// are not decoded to per-row elements: the kernels answer those from the
// chunk dictionary (kernelMinMax, kernelDistinct).
func (c *chunkAggCtx) load(e *Engine, p *plan, ci int, dictFed bool) {
	c.rows = e.store.ChunkRows(ci)
	c.loadGroups(p, ci)
	c.gelems, c.occOf = nil, nil
	if c.card > 1 && p.hasArgs {
		c.gelemsBuf = c.gseq.Materialize(resized(c.gelemsBuf, c.rows)[:0])
		c.gelems = c.gelemsBuf
	}
	na := c.na
	if c.argElems == nil {
		c.argValsF = make([][]float64, na)
		c.argValsI = make([][]int64, na)
		c.argGIDs = make([][]uint32, na)
		c.argHash = make([][]uint64, na)
		c.argElems = make([][]uint32, na)
		c.argChunks = make([]*colstore.Chunk, na)
	}
	for j, spec := range p.aggs {
		acol := p.aggCols[j]
		if acol == nil {
			continue
		}
		ach := acol.Chunks[ci]
		c.argChunks[j], c.argGIDs[j] = ach, ach.GlobalIDs
		c.argElems[j] = c.argElems[j][:0]
		if !dictFed || c.gelems != nil || spec.fn == aggSum || spec.fn == aggAvg {
			c.argElems[j] = ach.Elems.Materialize(resized(c.argElems[j], c.rows)[:0])
		}
		switch spec.fn {
		case aggSum, aggAvg:
			if p.aggInt[j] {
				c.argValsI[j] = resized(c.argValsI[j], len(ach.GlobalIDs))
				fillInts(c.argValsI[j], acol.Dict, ach.GlobalIDs)
			} else {
				c.argValsF[j] = resized(c.argValsF[j], len(ach.GlobalIDs))
				fillFloats(c.argValsF[j], acol.Dict, ach.GlobalIDs)
			}
		case aggCountDistinct:
			if !e.opts.ExactDistinct {
				hs := resized(c.argHash[j], len(ach.GlobalIDs))
				for i, gid := range ach.GlobalIDs {
					hs[i] = acol.Dict.Hash(gid)
				}
				c.argHash[j] = hs
			}
		}
	}
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

// fillInts looks up the int64 values of gids; the sorted-array dictionary
// answers without boxing each one into a value.Value.
func fillInts(dst []int64, d dict.Dict, gids []uint32) {
	if arr, ok := d.(*dict.Int64s); ok {
		for i, gid := range gids {
			dst[i] = arr.Int64At(gid)
		}
		return
	}
	for i, gid := range gids {
		dst[i] = d.Value(gid).Int()
	}
}

// fillFloats is fillInts for a float column.
func fillFloats(dst []float64, d dict.Dict, gids []uint32) {
	if arr, ok := d.(*dict.Float64s); ok {
		for i, gid := range gids {
			dst[i] = arr.Float64At(gid)
		}
		return
	}
	for i, gid := range gids {
		dst[i] = d.Value(gid).AsFloat()
	}
}

// compact allocates the chunk's partial at its exact size — one entry per
// occupied group, in chunk-id order — records each occupied group's
// position in c.slot, and writes the row counts, which are every cell's
// .count whatever the aggregate (and all there is to COUNT(*)). c.counts
// must be final. A group is occupied when it received a row; a pure GROUP
// BY over a full chunk (no aggregates, no mask) emits every dictionary
// entry.
func (c *chunkAggCtx) compact(everyGroup bool) *partial {
	c.slot = resized(c.slot, c.card)
	n := 0
	for g, cnt := range c.counts {
		if cnt > 0 || everyGroup {
			c.slot[g] = int32(n)
			n++
		}
	}
	part := &partial{gids: make([]uint32, n), accs: make([]accCell, n*c.na)}
	if c.hasDistinct {
		part.distinct = make([]distinctCell, n*c.na)
	}
	for g, cnt := range c.counts {
		if cnt > 0 || everyGroup {
			at := int(c.slot[g])
			part.gids[at] = c.groupGIDs[g]
			for j := at * c.na; j < (at+1)*c.na; j++ {
				part.accs[j].count = cnt
			}
		}
	}
	return part
}

// aggregateChunkScalar is the retained row-at-a-time reference
// implementation — the inner loops of Section 2.4 (dense arrays indexed by
// chunk-id, no hashing), one interface-dispatched add per row. It stays in
// the tree as the differential-fuzzing oracle and the ablation baseline;
// production queries run the kernels in kernels.go.
func (e *Engine) aggregateChunkScalar(p *plan, ci int, mask *enc.Bitmap, c *chunkAggCtx) (*partial, error) {
	c.load(e, p, ci, false)
	rows, card, na, gelems := c.rows, c.card, c.na, c.gelems
	if c.gseq != nil && gelems == nil {
		// The reference path takes every row's group from the sequence,
		// also where the kernels see a single-group chunk.
		gelems = c.gseq.Materialize(nil)
	}

	accs := make([]accCell, card*na)
	var dist []distinctCell
	if p.hasDistinct {
		dist = make([]distinctCell, card*na)
	}
	add := func(r int) {
		g := 0
		if gelems != nil {
			g = int(gelems[r])
		}
		base := g * na
		for j, spec := range p.aggs {
			cell := &accs[base+j]
			switch spec.fn {
			case aggCount:
				cell.count++
			case aggSum, aggAvg:
				cell.count++
				if p.aggInt[j] {
					cell.sumI += c.argValsI[j][c.argElems[j][r]]
				} else {
					cell.sumF += c.argValsF[j][c.argElems[j][r]]
				}
			case aggMin, aggMax:
				cell.count++
				gid := c.argGIDs[j][c.argElems[j][r]]
				if !cell.hasMM {
					cell.minID, cell.maxID, cell.hasMM = gid, gid, true
				} else {
					if gid < cell.minID {
						cell.minID = gid
					}
					if gid > cell.maxID {
						cell.maxID = gid
					}
				}
			case aggCountDistinct:
				cell.count++
				if e.opts.ExactDistinct {
					dist[base+j].addID(c.argGIDs[j][c.argElems[j][r]])
				} else {
					dist[base+j].addHash(c.argHash[j][c.argElems[j][r]], e.opts.SketchM)
				}
			}
		}
	}

	// Fast path: a single COUNT(*) over a full chunk is the pure
	// counts[elements[row]]++ loop (20 ms for 5M rows in the paper).
	if mask == nil && na == 1 && p.aggs[0].fn == aggCount && c.gseq != nil {
		counts := make([]int64, card)
		c.gseq.CountInto(counts)
		for g := 0; g < card; g++ {
			accs[g].count = counts[g]
		}
	} else if mask == nil {
		for r := 0; r < rows; r++ {
			add(r)
		}
	} else {
		mask.ForEach(add)
	}

	// Compact: keep only groups that actually received rows.
	part := &partial{}
	for g := 0; g < card; g++ {
		contributed := false
		for j := 0; j < na; j++ {
			if accs[g*na+j].count > 0 {
				contributed = true
				break
			}
		}
		if na == 0 {
			// Pure GROUP BY with no aggregates: a group exists if any row
			// maps to it; with no mask every dictionary entry occurs.
			contributed = mask == nil
			if mask != nil {
				// Recheck occupancy below via counts pass.
				contributed = groupOccupied(gelems, mask, g)
			}
		}
		if contributed {
			part.gids = append(part.gids, c.groupGIDs[g])
			part.accs = append(part.accs, accs[g*na:(g+1)*na]...)
			if dist != nil {
				part.distinct = append(part.distinct, dist[g*na:(g+1)*na]...)
			}
		}
	}
	return part, nil
}

// groupOccupied reports whether any selected row maps to group g.
func groupOccupied(gelems []uint32, mask *enc.Bitmap, g int) bool {
	found := false
	mask.ForEach(func(r int) {
		if !found && int(gelems[r]) == g {
			found = true
		}
	})
	return found
}
