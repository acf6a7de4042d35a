package exec

// Vectorized aggregation kernels — the batch-at-a-time rewrite of the
// Section 2.4 inner loops. Where the scalar reference path (agg.go)
// dispatches a closure per row that switches over every aggregate, the
// kernels run one type-specialized pass per aggregate over the chunk's
// materialized element arrays, driven either by the full row range or by
// the surviving-row bitmap's words (64 rows per branch-free word probe).
//
// Identity with the scalar path is a hard requirement (the differential
// fuzzer enforces it): the sum kernels visit rows in ascending order, so
// float SUM/AVG accumulate in exactly the scalar order, bit for bit; a KMV
// sketch is offered the same set of hashes, so it retains the same hashes
// and gives the same estimate (the order they arrive in, and with it the
// sketch's internal layout, is not part of the contract); and the
// compaction step reproduces the scalar occupancy rules exactly.
//
// Where a chunk holds one group — a global aggregate, or any chunk when
// grouping by a partition field — MIN, MAX and COUNT(DISTINCT) do not visit
// rows at all: the argument's chunk dictionary is the sorted list of values
// that occur, so under a full mask its first and last entries are the
// extremes and its entries are the distinct values, and under a partial mask
// the same holds for the entries CountIntoMasked finds occupied.

import (
	"math"
	"math/bits"

	"powerdrill/internal/enc"
	"powerdrill/internal/sketch"
)

// aggregateChunkVec computes a chunk's partial aggregates with the
// vectorized kernels. mask == nil means the chunk is fully active.
func (e *Engine) aggregateChunkVec(p *plan, ci int, mask *enc.Bitmap, c *chunkAggCtx) (*partial, error) {
	if mask != nil {
		// Sparse masks skip the dense per-chunk tables entirely: building
		// them costs O(rows) per chunk (materialized element arrays plus
		// per-distinct-value lookup tables), which dominates when only a
		// few rows survive the restriction. The gather path is O(selected).
		if n := mask.Count(); n*8 <= e.store.ChunkRows(ci) {
			return e.aggregateChunkVecSparse(p, ci, mask, n, c)
		}
	}
	c.load(e, p, ci, true)

	// Row counts per group drive every kernel: they are each cell's .count
	// (all aggregate kinds count selected rows identically) and the
	// occupancy test of the compaction step.
	c.counts = zeroed(c.counts, c.card)
	switch {
	case c.gseq == nil: // global aggregate: one implicit group
		if mask == nil {
			c.counts[0] = int64(c.rows)
		} else {
			c.counts[0] = int64(mask.Count())
		}
	case mask == nil:
		c.gseq.CountInto(c.counts)
	default:
		c.gseq.CountIntoMasked(c.counts, mask)
	}

	// Compact first, then aggregate: the counts already say which groups
	// received rows, so the partial is allocated at its exact size and the
	// kernels write each occupied group's cell where it will stay.
	// counts[g] > 0 is exactly the scalar path's occupancy verdict (every
	// aggregate kind counts every selected row); the one asymmetry is the
	// scalar rule that a pure GROUP BY over a full chunk emits every
	// dictionary entry.
	part := c.compact(c.na == 0 && mask == nil)
	if len(part.gids) == 0 {
		return part, nil // no row selected (or none there): nothing to aggregate
	}
	for j, spec := range p.aggs {
		switch spec.fn {
		case aggSum, aggAvg:
			if p.aggInt[j] {
				kernelSumInt(part.accs, j, c, mask)
			} else {
				kernelSumFloat(part.accs, j, c, mask)
			}
		case aggMin, aggMax:
			kernelMinMax(part.accs, j, c, mask)
		case aggCountDistinct:
			kernelDistinct(e, part.distinct, j, c, mask)
		}
	}
	return part, nil
}

// aggregateChunkVecSparse is the low-selectivity kernel: it gathers the
// surviving row indices once from the bitmap words, then reads the group
// and argument sequences point-wise for just those rows — no materialized
// element arrays, no per-distinct-value tables. Values and hashes come from
// the same dictionary calls the dense tables are built from, and rows are
// visited in ascending order, so the partial is bit-identical to the dense
// kernels' and the scalar path's.
func (e *Engine) aggregateChunkVecSparse(p *plan, ci int, mask *enc.Bitmap, nsel int, c *chunkAggCtx) (*partial, error) {
	sel := resized(c.sel, nsel)[:0]
	for wi, w := range mask.Words() {
		base := wi * 64
		for w != 0 {
			sel = append(sel, int32(base+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	c.sel = sel

	c.loadGroups(p, ci)
	na := c.na
	c.counts = zeroed(c.counts, c.card)
	if c.gseq == nil {
		c.counts[0] = int64(len(sel))
	} else {
		c.gof = resized(c.gof, len(sel))
		for i, r := range sel {
			g := c.gseq.At(int(r))
			c.gof[i] = g
			c.counts[g]++
		}
	}
	// mask != nil here, so occupancy is exactly counts[g] > 0 on every
	// path (including the pure-GROUP-BY na == 0 case).
	part := c.compact(false)
	accs, dist, gof, slot := part.accs, part.distinct, c.gof, c.slot
	// at is where selected row i's cell for aggregate j lies in the partial.
	at := func(i, j int) int {
		if c.gseq == nil {
			return j
		}
		return int(slot[gof[i]])*na + j
	}
	for j, spec := range p.aggs {
		acol := p.aggCols[j]
		if acol == nil {
			continue // COUNT(*): compact wrote the counts, all of it
		}
		ach := acol.Chunks[ci]
		agids, aseq := ach.GlobalIDs, ach.Elems
		switch spec.fn {
		case aggSum, aggAvg:
			if p.aggInt[j] {
				for i, r := range sel {
					accs[at(i, j)].sumI += acol.Dict.Value(agids[aseq.At(int(r))]).Int()
				}
			} else {
				for i, r := range sel {
					accs[at(i, j)].sumF += acol.Dict.Value(agids[aseq.At(int(r))]).AsFloat()
				}
			}
		case aggMin, aggMax:
			for i, r := range sel {
				gid := agids[aseq.At(int(r))]
				cell := &accs[at(i, j)]
				if !cell.hasMM {
					cell.minID, cell.maxID, cell.hasMM = gid, gid, true
					continue
				}
				if gid < cell.minID {
					cell.minID = gid
				}
				if gid > cell.maxID {
					cell.maxID = gid
				}
			}
		case aggCountDistinct:
			if e.opts.ExactDistinct {
				for i, r := range sel {
					dist[at(i, j)].addID(agids[aseq.At(int(r))])
				}
			} else {
				for i, r := range sel {
					dist[at(i, j)].addHash(acol.Dict.Hash(agids[aseq.At(int(r))]), e.opts.SketchM)
				}
			}
		}
	}
	return part, nil
}

// occupied calls fn(g, cell) for every group g of the chunk that received a
// row, cell being the group's accumulator for aggregate j in the compacted
// partial: how a kernel moves its dense per-group results into place.
func (c *chunkAggCtx) occupied(accs []accCell, j int, fn func(g int, cell *accCell)) {
	for g, n := range c.counts {
		if n > 0 {
			fn(g, &accs[int(c.slot[g])*c.na+j])
		}
	}
}

// kernelSumInt accumulates SUM/AVG over an int64 column: dense per-group
// sums indexed by group chunk-id, values looked up per distinct argument
// chunk-id.
func kernelSumInt(accs []accCell, j int, c *chunkAggCtx, mask *enc.Bitmap) {
	vals, ae, ge := c.argValsI[j], c.argElems[j], c.gelems
	c.sumsI = zeroed(c.sumsI, c.card)
	sums := c.sumsI
	switch {
	case ge == nil && mask == nil:
		var s int64
		for _, a := range ae {
			s += vals[a]
		}
		sums[0] = s
	case ge == nil:
		var s int64
		for wi, w := range mask.Words() {
			base := wi * 64
			for w != 0 {
				r := base + bits.TrailingZeros64(w)
				w &= w - 1
				s += vals[ae[r]]
			}
		}
		sums[0] = s
	case mask == nil:
		for r, a := range ae {
			sums[ge[r]] += vals[a]
		}
	default:
		for wi, w := range mask.Words() {
			base := wi * 64
			for w != 0 {
				r := base + bits.TrailingZeros64(w)
				w &= w - 1
				sums[ge[r]] += vals[ae[r]]
			}
		}
	}
	c.occupied(accs, j, func(g int, cell *accCell) { cell.sumI = sums[g] })
}

// kernelSumFloat is kernelSumInt for float64 columns. Ascending row order
// keeps the float accumulation bit-identical to the scalar path.
func kernelSumFloat(accs []accCell, j int, c *chunkAggCtx, mask *enc.Bitmap) {
	vals, ae, ge := c.argValsF[j], c.argElems[j], c.gelems
	c.sumsF = zeroed(c.sumsF, c.card)
	sums := c.sumsF
	switch {
	case ge == nil && mask == nil:
		var s float64
		for _, a := range ae {
			s += vals[a]
		}
		sums[0] = s
	case ge == nil:
		var s float64
		for wi, w := range mask.Words() {
			base := wi * 64
			for w != 0 {
				r := base + bits.TrailingZeros64(w)
				w &= w - 1
				s += vals[ae[r]]
			}
		}
		sums[0] = s
	case mask == nil:
		for r, a := range ae {
			sums[ge[r]] += vals[a]
		}
	default:
		for wi, w := range mask.Words() {
			base := wi * 64
			for w != 0 {
				r := base + bits.TrailingZeros64(w)
				w &= w - 1
				sums[ge[r]] += vals[ae[r]]
			}
		}
	}
	c.occupied(accs, j, func(g int, cell *accCell) { cell.sumF = sums[g] })
}

// kernelMinMax tracks per-group global-id extremes. One kernel serves both
// MIN and MAX: the cell carries both ids and finalize picks the right one.
// A single-group chunk is answered from the argument's chunk dictionary:
// the first and last occupied entries.
func kernelMinMax(accs []accCell, j int, c *chunkAggCtx, mask *enc.Bitmap) {
	gids, ae, ge := c.argGIDs[j], c.argElems[j], c.gelems
	if ge == nil {
		first, last := 0, len(gids)-1
		if occ := c.occupancy(j, mask); occ != nil {
			for occ[first] == 0 {
				first++
			}
			for occ[last] == 0 {
				last--
			}
		}
		accs[j].minID, accs[j].maxID, accs[j].hasMM = gids[first], gids[last], true
		return
	}
	// Chunk-ids ascend with the global-ids they stand for, so a group's
	// extreme chunk-ids name its extreme values. Every selected row counts
	// into its group, so the occupied groups are the ones that saw a value.
	c.minIDs = resized(c.minIDs, c.card)
	c.maxIDs = zeroed(c.maxIDs, c.card)
	lo, hi := c.minIDs, c.maxIDs
	for g := range lo {
		lo[g] = math.MaxUint32
	}
	if mask == nil {
		for r, a := range ae {
			g := ge[r]
			lo[g], hi[g] = min(lo[g], a), max(hi[g], a)
		}
	} else {
		for wi, w := range mask.Words() {
			base := wi * 64
			for ; w != 0; w &= w - 1 {
				r := base + bits.TrailingZeros64(w)
				g, a := ge[r], ae[r]
				lo[g], hi[g] = min(lo[g], a), max(hi[g], a)
			}
		}
	}
	c.occupied(accs, j, func(g int, cell *accCell) {
		cell.minID, cell.maxID, cell.hasMM = gids[lo[g]], gids[hi[g]], true
	})
}

// pairSeenCap bounds the (group, argument chunk-id) table kernelDistinct
// dedupes through, in entries; it is cleared for every chunk that uses it.
const pairSeenCap = 1 << 16

// kernelDistinct feeds COUNT(DISTINCT x) accumulators: per-group KMV
// sketches (hash per distinct argument id, precomputed) or exact id sets,
// both made on a group's first value, like the scalar path. A single-group
// chunk offers the occupied entries of the argument's chunk dictionary, each
// once. Otherwise rows are visited, and a (group, value) pair
// is offered the first time it is seen: a repeated offer never changes a
// sketch or a set, so skipping it — one flag instead of a hash-set probe
// per row — leaves exactly the state offering every row would.
func kernelDistinct(e *Engine, dist []distinctCell, j int, c *chunkAggCtx, mask *enc.Bitmap) {
	gids, hs, ge := c.argGIDs[j], c.argHash[j], c.gelems
	offer := func(d *distinctCell, a uint32) {
		if e.opts.ExactDistinct {
			d.addID(gids[a])
		} else {
			d.addHash(hs[a], e.opts.SketchM)
		}
	}
	if ge == nil {
		d, occ := &dist[j], c.occupancy(j, mask)
		if e.opts.ExactDistinct {
			for a, gid := range gids {
				if occ == nil || occ[a] > 0 {
					d.addID(gid)
				}
			}
			return
		}
		// hs is scratch, filled for this chunk: keep the occupied entries'
		// hashes and hand them to the sketch in one step.
		if occ != nil {
			n := 0
			for a, h := range hs {
				if occ[a] > 0 {
					hs[n] = h
					n++
				}
			}
			hs = hs[:n]
		}
		if d.sketch == nil {
			d.sketch = sketch.NewKMV(e.opts.SketchM)
		}
		d.sketch.AddDictionary(hs)
		return
	}
	ae, slot, nd := c.argElems[j], c.slot, len(gids)
	var seen []bool
	if c.card*nd <= pairSeenCap {
		c.pairSeen = zeroed(c.pairSeen, c.card*nd)
		seen = c.pairSeen
	}
	visit := func(r int) {
		g, a := ge[r], ae[r]
		if seen != nil {
			pair := int(g)*nd + int(a)
			if seen[pair] {
				return
			}
			seen[pair] = true
		}
		// A selected row's group is occupied, so it has a slot.
		offer(&dist[int(slot[g])*c.na+j], a)
	}
	if mask == nil {
		for r := 0; r < c.rows; r++ {
			visit(r)
		}
		return
	}
	for wi, w := range mask.Words() {
		base := wi * 64
		for ; w != 0; w &= w - 1 {
			visit(base + bits.TrailingZeros64(w))
		}
	}
}
