package exec

// Vectorized aggregation kernels — the batch-at-a-time form of the
// Section 2.4 inner loops, and the only one. Where a row-at-a-time loop
// would switch over every aggregate at every row, the kernels run one
// type-specialized pass per aggregate over the chunk's
// element arrays where they lie — generic over the width each sequence
// stores its elements at, so a 1- or 2-byte element is read as 1 or 2 bytes
// and nothing is copied — driven either by the full row range or by the
// surviving-row bitmap's words (64 rows per branch-free word probe), into a
// dense table indexed by group chunk-id: the chunk's results, which the
// worker's group table folds in as they lie.
//
// Identity with a row-wise reference that shares none of this code is a
// hard requirement (FuzzScanKernelsVsReference enforces it): the sum
// kernels visit rows in ascending order, so float SUM/AVG accumulate in
// row order, bit for bit; a COUNT(DISTINCT) group is offered the set of
// its rows' values, so it keeps their m smallest hashes; and the result
// holds exactly the groups that received a selected row.
//
// Where a chunk holds one group — a global aggregate, or any chunk when
// grouping by a partition field — MIN, MAX and COUNT(DISTINCT) do not visit
// rows at all: the argument's chunk dictionary is the sorted list of values
// that occur, so under a full mask its first and last entries are the
// extremes and its entries are the distinct values, and under a partial mask
// the same holds for the entries CountIntoMasked finds occupied. What
// depends on a chunk alone — full-mask group counts, SUM's values by
// chunk-id, the chunk-ids in hash order — is read from the tables the chunk
// keeps (colstore's derived.go).

import (
	"math"
	"math/bits"
	"slices"

	"powerdrill/internal/dict"
	"powerdrill/internal/enc"
)

// aggregateChunk aggregates a chunk with the vectorized kernels into c, the
// calling worker's scratch: c.present lists the groups that received a
// selected row and c.dense holds each aggregate's results over the chunk's
// groups (see dense). mask == nil means the chunk is fully active.
func (e *Engine) aggregateChunk(p *plan, ci int, mask *enc.Bitmap, c *chunkAggCtx) {
	if mask != nil {
		// Sparse masks skip the dense per-chunk tables entirely: building
		// them costs O(distinct values) per chunk and a dense pass O(rows),
		// which dominates when only a few rows survive the restriction. The
		// gather path is O(selected).
		if n := mask.Count(); n*8 <= e.store.ChunkRows(ci) {
			e.aggregateChunkVecSparse(p, ci, mask, n, c)
			return
		}
	}
	c.load(e, p, ci)
	c.gelems = enc.Raw{}
	if c.card > 1 && p.hasArgs {
		c.gelems = c.gseq.Raw(&c.gwide)
	}

	// Row counts per group drive every kernel: they are every counts
	// array, and which groups the chunk contributes.
	c.counts = zeroed(c.counts, c.card)
	switch {
	case c.gseq == nil: // global aggregate: one implicit group
		if mask == nil {
			c.counts[0] = int64(c.rows)
		} else {
			c.counts[0] = int64(mask.Count())
		}
	case mask == nil:
		c.gch.Counts(c.counts)
	default:
		c.gseq.CountIntoMasked(c.counts, mask)
	}

	if c.occupied() == 0 {
		return // no row selected (or none there): nothing to aggregate
	}
	single := c.card == 1
	for j, spec := range p.aggs {
		a := &c.dense[j]
		switch {
		case spec.fn == aggCount:
		case single && (spec.fn == aggMin || spec.fn == aggMax):
			dictMinMax(a, j, c, mask)
		case single && spec.fn == aggCountDistinct:
			dictDistinct(e, a, j, c, p.aggCols[j].Dict, mask)
		default:
			c.rowKernel(p, j, mask)
		}
	}
}

// rowKernel runs aggregate j's kernel over the chunk's rows, reading the
// group and argument elements at the widths they are stored at. It is the
// one place an element width picks a kernel: a single-group chunk's group
// elements are empty, and go as bytes.
func (c *chunkAggCtx) rowKernel(p *plan, j int, mask *enc.Bitmap) {
	g, x := c.gelems, c.argChunks[j].Elems.Raw(&c.awide)
	switch {
	case g.U16 != nil && x.U16 != nil:
		kernel(c, p, j, g.U16, x.U16, mask)
	case g.U16 != nil && x.U32 != nil:
		kernel(c, p, j, g.U16, x.U32, mask)
	case g.U16 != nil:
		kernel(c, p, j, g.U16, x.U8, mask)
	case g.U32 != nil && x.U16 != nil:
		kernel(c, p, j, g.U32, x.U16, mask)
	case g.U32 != nil && x.U32 != nil:
		kernel(c, p, j, g.U32, x.U32, mask)
	case g.U32 != nil:
		kernel(c, p, j, g.U32, x.U8, mask)
	case x.U16 != nil:
		kernel(c, p, j, g.U8, x.U16, mask)
	case x.U32 != nil:
		kernel(c, p, j, g.U8, x.U32, mask)
	default:
		kernel(c, p, j, g.U8, x.U8, mask)
	}
}

// kernel is aggregate j's row kernel at one pair of element widths: ge is
// each row's group chunk-id, or nil for a single-group chunk, and ae each
// row's argument chunk-id.
func kernel[G, A enc.Elem](c *chunkAggCtx, p *plan, j int, ge []G, ae []A, mask *enc.Bitmap) {
	a := &c.dense[j]
	switch p.aggs[j].fn {
	case aggSum, aggAvg:
		switch v := c.argVals[j]; {
		case !p.aggInt[j]:
			c.sumsF = zeroed(c.sumsF, c.card)
			kernelSum(c.sumsF, v.F64, ge, ae, mask)
			c.floatParts(a, c.sumsF)
		case v.I64 != nil:
			a.sumI = zeroed(a.sumI, c.card)
			kernelSum(a.sumI, v.I64, ge, ae, mask)
		default:
			a.sumI = zeroed(a.sumI, c.card)
			kernelSum(a.sumI, v.I32, ge, ae, mask)
		}
	case aggMin, aggMax:
		kernelMinMax(a, c, c.argGIDs[j], ge, ae, mask)
	case aggCountDistinct:
		kernelDistinct(a, c, c.argHash[j], ge, ae, mask)
	}
}

// aggregateChunkVecSparse is the low-selectivity kernel: it gathers the
// surviving row indices once from the bitmap words, then reads the group
// and argument sequences point-wise for just those rows — no per-distinct-
// value tables. A value is the dictionary's, as the dense kernels gather it,
// an offer the one the dense tables hold, and rows are visited in ascending
// order, so the results are bit-identical to the dense kernels'.
func (e *Engine) aggregateChunkVecSparse(p *plan, ci int, mask *enc.Bitmap, nsel int, c *chunkAggCtx) {
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
	c.counts = zeroed(c.counts, c.card)
	c.gof = zeroed(c.gof, len(sel)) // all group 0 for a global aggregate
	if c.gseq == nil {
		c.counts[0] = int64(len(sel))
	} else {
		for i, r := range sel {
			g := c.gseq.At(int(r))
			c.gof[i] = g
			c.counts[g]++
		}
	}
	c.occupied()
	c.args(len(p.aggs))
	for j, spec := range p.aggs {
		acol := p.aggCols[j]
		if acol == nil {
			continue // COUNT(*): the counts are all of it
		}
		a := &c.dense[j]
		ach := acol.Chunks[ci]
		agids, aseq := ach.GlobalIDs, ach.Elems
		switch spec.fn {
		case aggSum, aggAvg:
			if v := ach.Values(acol.Dict, &c.argBufs[j]); p.aggInt[j] {
				sums := zeroed(a.sumI, c.card)
				for i, r := range sel {
					sums[c.gof[i]] += v.Int(aseq.At(int(r)))
				}
				a.sumI = sums
			} else {
				sums := zeroed(c.sumsF, c.card)
				for i, r := range sel {
					sums[c.gof[i]] += v.F64[aseq.At(int(r))]
				}
				c.sumsF = sums
				c.floatParts(a, sums)
			}
		case aggMin, aggMax:
			ext, flip := c.extremes(a)
			for i, r := range sel {
				g := c.gof[i]
				ext[g] = min(ext[g], aseq.At(int(r))^flip)
			}
			c.extremeIDs(a, agids, flip)
		case aggCountDistinct:
			fill := c.buckets(math.MaxInt)
			for i, r := range sel {
				g := c.gof[i]
				c.bucket[fill[g]] = distinctOffer(e, acol.Dict, agids[aseq.At(int(r))])
				fill[g]++
			}
			c.fillRuns(a, math.MaxInt)
		}
	}
}

// floatParts writes the occupied groups' float sums into the column's
// parts, as float bits.
func (c *chunkAggCtx) floatParts(a *aggColumn, src []float64) {
	a.parts.vals = resized(a.parts.vals, c.card)
	for _, g := range c.present {
		a.parts.vals[g] = math.Float64bits(src[g])
	}
}

// extremes readies the dense table MIN or MAX tracks its argument chunk-ids
// in. One minimum serves both: a MAX column stores its chunk-ids flipped
// (x ^ flip), which reverses their order.
func (c *chunkAggCtx) extremes(a *aggColumn) (ext []uint32, flip uint32) {
	if a.has&arrMax != 0 {
		flip = math.MaxUint32
	}
	c.ext = resized(c.ext, c.card)
	for g := range c.ext {
		c.ext[g] = math.MaxUint32
	}
	return c.ext, flip
}

// extremeIDs writes the occupied groups' extremes into the column, as the
// global-ids the chunk-ids stand for.
func (c *chunkAggCtx) extremeIDs(a *aggColumn, gids []uint32, flip uint32) {
	a.vals.ids = resized(a.vals.ids, c.card)
	for _, g := range c.present {
		a.vals.ids[g] = gids[c.ext[g]^flip]
	}
}

// buckets lays out the COUNT(DISTINCT) offers of one aggregate: group g's go
// to bucket[fill[g]], fill[g]++, in a bucket as large as the group's
// selected rows or most, whichever is less — no larger than it can be
// offered; most is the number of distinct values when no group is offered
// one twice. The buckets lie in group order, so a group's starts where the
// previous group's ends.
func (c *chunkAggCtx) buckets(most int) []int32 {
	c.fill = resized(c.fill, c.card)
	at := int32(0)
	for g, n := range c.counts {
		c.fill[g] = at
		at += int32(min(n, int64(most)))
	}
	c.bucket = resized(c.bucket, int(at))
	return c.fill
}

// fillRuns writes the column's runs from the buckets: each occupied group's
// offers, ascending, each value once, cut at the m smallest — a KMV sketch's
// retained hashes, or an exact set of global-ids, whose m never cuts. The
// runs are packed down the scratch, then copied into the column, one per
// occupied group in group order. most is what buckets was given.
func (c *chunkAggCtx) fillRuns(a *aggColumn, most int) {
	a.hashes.off = append(a.hashes.off[:0], 0)
	start, n := 0, 0
	for g, cnt := range c.counts {
		if cnt == 0 {
			continue
		}
		run := c.bucket[start:c.fill[g]]
		start += int(min(cnt, int64(most)))
		slices.Sort(run)
		run = slices.Compact(run)
		n += copy(c.bucket[n:], run[:min(len(run), a.m)])
		a.hashes.off = append(a.hashes.off, uint32(n))
	}
	a.hashes.vals = append(a.hashes.vals[:0], c.bucket[:n]...)
}

// kernelSum accumulates SUM/AVG: dense per-group sums indexed by group
// chunk-id, each row's value read from the chunk's values, indexed by
// chunk-id, at their width. Ascending row order keeps a float accumulation
// bit-identical to a row-at-a-time sum.
func kernelSum[T int64 | float64, V int32 | int64 | float64, G, A enc.Elem](sums []T, vals []V, ge []G, ae []A, mask *enc.Bitmap) {
	switch {
	case ge == nil && mask == nil:
		var s T
		for _, x := range ae {
			s += T(vals[x])
		}
		sums[0] = s
	case ge == nil:
		var s T
		for wi, w := range mask.Words() {
			base := wi * 64
			for ; w != 0; w &= w - 1 {
				s += T(vals[ae[base+bits.TrailingZeros64(w)]])
			}
		}
		sums[0] = s
	case mask == nil:
		ge = ge[:len(ae)]
		for r, x := range ae {
			sums[ge[r]] += T(vals[x])
		}
	default:
		for wi, w := range mask.Words() {
			base := wi * 64
			for ; w != 0; w &= w - 1 {
				r := base + bits.TrailingZeros64(w)
				sums[ge[r]] += T(vals[ae[r]])
			}
		}
	}
}

// kernelMinMax tracks per-group global-id extremes in a multi-group chunk:
// MIN or MAX, whichever the column holds. Chunk-ids ascend with the
// global-ids they stand for, so a group's extreme chunk-ids name its
// extreme values. Every selected row counts into its group, so the occupied
// groups are the ones that saw a value.
func kernelMinMax[G, A enc.Elem](a *aggColumn, c *chunkAggCtx, gids []uint32, ge []G, ae []A, mask *enc.Bitmap) {
	ext, flip := c.extremes(a)
	if mask == nil {
		ge = ge[:len(ae)]
		for r, x := range ae {
			g := ge[r]
			ext[g] = min(ext[g], uint32(x)^flip)
		}
	} else {
		for wi, w := range mask.Words() {
			base := wi * 64
			for ; w != 0; w &= w - 1 {
				r := base + bits.TrailingZeros64(w)
				g := ge[r]
				ext[g] = min(ext[g], uint32(ae[r])^flip)
			}
		}
	}
	c.extremeIDs(a, gids, flip)
}

// dictMinMax answers MIN or MAX of a single-group chunk from the argument's
// chunk dictionary: the first or last occupied entry.
func dictMinMax(a *aggColumn, j int, c *chunkAggCtx, mask *enc.Bitmap) {
	gids := c.argGIDs[j]
	first, last := 0, len(gids)-1
	if occ := c.occupancy(j, mask); occ != nil {
		for occ[first] == 0 {
			first++
		}
		for occ[last] == 0 {
			last--
		}
	}
	a.vals.ids = resized(a.vals.ids, 1)
	a.vals.ids[0] = gids[first]
	if a.has&arrMax != 0 {
		a.vals.ids[0] = gids[last]
	}
}

// pairSeenCap bounds the (group, argument chunk-id) table kernelDistinct
// dedupes through, in entries (one bit each); it is cleared for every chunk
// that uses it.
const pairSeenCap = 1 << 16

// kernelDistinct feeds COUNT(DISTINCT x) of a multi-group chunk: each
// group's bucket receives the offers hs (hash, or global-id under
// Options.ExactDistinct, precomputed per argument chunk-id) of the values its
// rows hold, and fillRuns turns the buckets into runs. A (group, value) pair
// is offered the first time it is seen: a repeated offer never changes a
// run, so skipping it — one flag instead of a bucket entry per row — leaves
// exactly the run offering every row would.
func kernelDistinct[G, A enc.Elem](a *aggColumn, c *chunkAggCtx, hs []uint64, ge []G, ae []A, mask *enc.Bitmap) {
	nd, most := len(hs), math.MaxInt
	var seen []uint64
	if c.card*nd <= pairSeenCap {
		c.pairSeen = zeroed(c.pairSeen, (c.card*nd+63)/64)
		seen, most = c.pairSeen, nd
	}
	fill := c.buckets(most)
	visit := func(r int) {
		g, x := ge[r], ae[r]
		if seen != nil {
			pair := int(g)*nd + int(x)
			if seen[pair/64]&(1<<(pair%64)) != 0 {
				return
			}
			seen[pair/64] |= 1 << (pair % 64)
		}
		c.bucket[fill[g]] = hs[x]
		fill[g]++
	}
	if mask == nil {
		for r := range ae {
			visit(r)
		}
	} else {
		for wi, w := range mask.Words() {
			base := wi * 64
			for ; w != 0; w &= w - 1 {
				visit(base + bits.TrailingZeros64(w))
			}
		}
	}
	c.fillRuns(a, most)
}

// dictDistinct writes COUNT(DISTINCT x)'s run for a single-group chunk, as
// fillRuns would: the offers of the occupied chunk dictionary entries,
// ascending and each once, the m smallest. Global-ids (ExactDistinct)
// ascend with chunk-ids; hashes are walked in the chunk's hash order.
func dictDistinct(e *Engine, a *aggColumn, j int, c *chunkAggCtx, d dict.Dict, mask *enc.Bitmap) {
	ach, occ := c.argChunks[j], c.occupancy(j, mask)
	a.hashes.vals = a.hashes.vals[:0]
	if e.opts.ExactDistinct {
		for id, gid := range ach.GlobalIDs {
			if occ == nil || occ[id] > 0 {
				a.hashes.vals = append(a.hashes.vals, uint64(gid))
			}
		}
	} else if order := ach.HashOrder(d); order.U16 != nil {
		walkDistinct(a, order.U16, ach.GlobalIDs, d, occ)
	} else {
		walkDistinct(a, order.U32, ach.GlobalIDs, d, occ)
	}
	a.hashes.off = append(a.hashes.off[:0], 0, uint32(len(a.hashes.vals)))
}

// walkDistinct appends the hashes of order's chunk-ids that occ occupies
// (all, if nil), a hash equal to the last skipped, until the run holds m.
func walkDistinct[T uint16 | uint32](a *aggColumn, order []T, gids []uint32, d dict.Dict, occ []int64) {
	for _, id := range order {
		if occ != nil && occ[id] == 0 {
			continue
		}
		h, n := d.Hash(gids[id]), len(a.hashes.vals)
		if n > 0 && a.hashes.vals[n-1] == h {
			continue
		} else if n == a.m {
			break
		}
		a.hashes.vals = append(a.hashes.vals, h)
	}
}
