package exec

// Vectorized aggregation kernels — the batch-at-a-time rewrite of the
// Section 2.4 inner loops. Where the scalar reference path (agg.go)
// dispatches a closure per row that switches over every aggregate, the
// kernels run one type-specialized pass per aggregate over the chunk's
// materialized element arrays, driven either by the full row range or by
// the surviving-row bitmap's words (64 rows per branch-free word probe).
//
// Bit-for-bit identity with the scalar path is a hard requirement (the
// differential fuzzer enforces it): every kernel visits rows in ascending
// order, so float SUM/AVG accumulate in exactly the scalar order, KMV
// sketches ingest hashes in the same sequence, and the compaction step
// reproduces the scalar occupancy rules exactly.

import (
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
	c.load(e, p, ci)

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
			kernelDistinct(e, part.accs, j, c, mask)
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
	accs, gof, slot := part.accs, c.gof, c.slot
	// cell is selected row i's accumulator for aggregate j.
	cell := func(i, j int) *accCell {
		if c.gseq == nil {
			return &accs[j]
		}
		return &accs[int(slot[gof[i]])*na+j]
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
					cell(i, j).sumI += acol.Dict.Value(agids[aseq.At(int(r))]).Int()
				}
			} else {
				for i, r := range sel {
					cell(i, j).sumF += acol.Dict.Value(agids[aseq.At(int(r))]).AsFloat()
				}
			}
		case aggMin, aggMax:
			for i, r := range sel {
				gid := agids[aseq.At(int(r))]
				cell := cell(i, j)
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
					cell := cell(i, j)
					if cell.exact == nil {
						cell.exact = make(map[uint32]struct{}, 16)
					}
					cell.exact[agids[aseq.At(int(r))]] = struct{}{}
				}
			} else {
				for i, r := range sel {
					cell := cell(i, j)
					if cell.sketch == nil {
						cell.sketch = sketch.NewKMV(e.opts.SketchM)
					}
					cell.sketch.AddHash(acol.Dict.Hash(agids[aseq.At(int(r))]))
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
func kernelMinMax(accs []accCell, j int, c *chunkAggCtx, mask *enc.Bitmap) {
	gids, ae, ge := c.argGIDs[j], c.argElems[j], c.gelems
	c.minIDs = resized(c.minIDs, c.card)
	c.maxIDs = resized(c.maxIDs, c.card)
	c.seen = zeroed(c.seen, c.card)
	minIDs, maxIDs, seen := c.minIDs, c.maxIDs, c.seen
	visit := func(g int, gid uint32) {
		if !seen[g] {
			minIDs[g], maxIDs[g], seen[g] = gid, gid, true
			return
		}
		if gid < minIDs[g] {
			minIDs[g] = gid
		}
		if gid > maxIDs[g] {
			maxIDs[g] = gid
		}
	}
	switch {
	case mask == nil && ge == nil:
		for _, a := range ae {
			visit(0, gids[a])
		}
	case mask == nil:
		for r, a := range ae {
			visit(int(ge[r]), gids[a])
		}
	case ge == nil:
		for wi, w := range mask.Words() {
			base := wi * 64
			for w != 0 {
				r := base + bits.TrailingZeros64(w)
				w &= w - 1
				visit(0, gids[ae[r]])
			}
		}
	default:
		for wi, w := range mask.Words() {
			base := wi * 64
			for w != 0 {
				r := base + bits.TrailingZeros64(w)
				w &= w - 1
				visit(int(ge[r]), gids[ae[r]])
			}
		}
	}
	c.occupied(accs, j, func(g int, cell *accCell) {
		if seen[g] {
			cell.minID, cell.maxID, cell.hasMM = minIDs[g], maxIDs[g], true
		}
	})
}

// kernelDistinct feeds COUNT(DISTINCT x) accumulators: per-group KMV
// sketches (hash per distinct argument id, precomputed) or exact id sets.
// Sketches and sets allocate lazily on first row, like the scalar path.
func kernelDistinct(e *Engine, accs []accCell, j int, c *chunkAggCtx, mask *enc.Bitmap) {
	ae, ge, slot := c.argElems[j], c.gelems, c.slot
	// cell is row r's accumulator: a selected row's group is occupied.
	cell := func(r int) *accCell {
		if ge == nil {
			return &accs[j]
		}
		return &accs[int(slot[ge[r]])*c.na+j]
	}
	var visit func(r int)
	if e.opts.ExactDistinct {
		gids := c.argGIDs[j]
		visit = func(r int) {
			cell := cell(r)
			if cell.exact == nil {
				cell.exact = make(map[uint32]struct{}, 16)
			}
			cell.exact[gids[ae[r]]] = struct{}{}
		}
	} else {
		hs := c.argHash[j]
		visit = func(r int) {
			cell := cell(r)
			if cell.sketch == nil {
				cell.sketch = sketch.NewKMV(e.opts.SketchM)
			}
			cell.sketch.AddHash(hs[ae[r]])
		}
	}
	if mask == nil {
		for r := 0; r < c.rows; r++ {
			visit(r)
		}
	} else {
		for wi, w := range mask.Words() {
			base := wi * 64
			for w != 0 {
				r := base + bits.TrailingZeros64(w)
				w &= w - 1
				visit(r)
			}
		}
	}
}
