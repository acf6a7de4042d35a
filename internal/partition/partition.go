// Package partition implements the paper's composite range partitioning
// (Section 2.2): the user names an ordered set of fields — a "natural
// primary key", typically 3–5 fields chosen by a domain expert — and the
// data is split iteratively into chunks until no chunk exceeds the row
// threshold (the paper uses 50'000).
//
// A range split only ever compares values of one field, so the
// partitioner works on each field's order-preserving ids (table.Column's
// Rank; the column store's global-ids) and never looks at a value. The
// layout is defined by these rules, and FuzzPartitionVsReference holds
// them against a partitioner over boxed values:
//
//   - Heaviest first: the paper splits the chunk with the most rows next,
//     the earlier-created chunk first on a tie (the table itself is
//     first). A split reads only its own chunk's rows, so this order
//     decides when a chunk is split, never how: the oracle keeps it, and
//     Partition splits in whatever order is cheapest.
//   - A chunk splits on the first field, in key order, that has two or
//     more distinct values among its rows; a chunk with none stays whole,
//     however large.
//   - The pivot is one of the first 4 097 distinct values met in the
//     chunk's row order: the one that puts the share of rows below it
//     nearest to half (counting only rows holding one of those values),
//     the earliest such value on a tie. Rows below the pivot go left, the
//     rest right, each side keeping its row order.
//   - Chunks are laid out in order of their minimum-id tuples, field by
//     field, then by their first row.
//
// The output is a permutation of the rows plus chunk boundaries, so the
// column store can lay chunks out contiguously. The lexicographic chunk
// order keeps neighbouring chunks similar — the property the Zippy and
// reordering experiments of Section 3 build on.
package partition

import (
	"cmp"
	"slices"
)

// Result describes the produced layout.
type Result struct {
	// Perm maps new row order to original row indices: chunk c covers
	// Perm[Bounds[c]:Bounds[c+1]].
	Perm []int
	// Bounds has one entry per chunk boundary; len(Bounds) = chunks+1.
	Bounds []int
}

// NumChunks returns the number of chunks.
func (r *Result) NumChunks() int { return len(r.Bounds) - 1 }

// maxDistinct bounds the distinct values a split weighs: enough
// resolution for a balanced pivot.
const maxDistinct = 4097

// chunk is a work item: the rows at positions lo..hi-1. Fields before
// from are constant on it: they were on the chunk it was split from. mins
// holds its minimum id per field once it is final.
type chunk struct {
	lo, hi, from int
	mins         []uint32
}

// partitioner holds one run's rows and the scratch every split reuses.
// Each field's ids move with their rows, so every pass reads a chunk's
// ids in sequence.
type partitioner struct {
	// rows[i] is the row at position i, ids[f][i] its id in field f;
	// chunk c holds positions c.lo..c.hi-1, its rows ascending.
	rows []uint32
	ids  [][]uint32
	tmp  []uint32 // the right side of the split in progress, rows long
	// stamp[id] == epoch marks id as one of the current split's distinct
	// values, and count[id] is then its row count.
	stamp, count []uint32
	epoch        uint32
	distinct     []uint32
}

// Partition splits rows 0..rows-1 into chunks of at most maxChunkRows rows
// (as far as the key allows). keys holds, for each split field in key
// order, every row's order-preserving id: keys[f][r] < keys[f][s] exactly
// when row r's value of field f sorts before row s's.
func Partition(keys [][]uint32, rows, maxChunkRows int) *Result {
	if rows == 0 {
		return &Result{Perm: []int{}, Bounds: []int{0, 0}}
	}
	p := &partitioner{rows: make([]uint32, rows), ids: make([][]uint32, len(keys)), tmp: make([]uint32, rows)}
	for i := range p.rows {
		p.rows[i] = uint32(i)
	}
	var card uint32
	for f, ids := range keys {
		p.ids[f] = slices.Clone(ids)
		for _, id := range ids {
			card = max(card, id+1)
		}
	}
	p.stamp = make([]uint32, card)
	p.count = make([]uint32, card)

	todo, done := []chunk{{lo: 0, hi: rows}}, []chunk(nil)
	for len(todo) > 0 {
		c := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		mid, f := 0, len(keys)
		if c.hi-c.lo > maxChunkRows {
			mid, f = p.split(c)
		}
		if f == len(keys) {
			done = append(done, c)
			continue
		}
		todo = append(todo, chunk{lo: c.lo, hi: mid, from: f}, chunk{lo: mid, hi: c.hi, from: f})
	}

	mins := make([]uint32, 0, len(done)*len(keys))
	for i, c := range done {
		for _, ids := range p.ids {
			mins = append(mins, slices.Min(ids[c.lo:c.hi]))
		}
		done[i].mins = mins[i*len(keys) : (i+1)*len(keys)]
	}
	slices.SortFunc(done, func(a, b chunk) int {
		if c := slices.Compare(a.mins, b.mins); c != 0 {
			return c
		}
		return cmp.Compare(p.rows[a.lo], p.rows[b.lo])
	})

	res := &Result{Perm: make([]int, 0, rows), Bounds: make([]int, 1, len(done)+1)}
	for _, c := range done {
		for _, r := range p.rows[c.lo:c.hi] {
			res.Perm = append(res.Perm, int(r))
		}
		res.Bounds = append(res.Bounds, len(res.Perm))
	}
	return res
}

// split performs one balanced range split of c on the first field with at
// least two distinct values among its rows, in place: the rows below the
// pivot end up at positions c.lo..mid-1, the rest at mid..c.hi-1, both in
// row order. It returns the field split on, or len(keys) if every field is
// constant on the chunk.
func (p *partitioner) split(c chunk) (mid, field int) {
	for f := c.from; f < len(p.ids); f++ {
		side := p.ids[f][c.lo:c.hi]
		pivot, ok := p.pivot(side)
		if !ok {
			continue
		}
		for g, ids := range p.ids {
			if g != f {
				p.stableSplit(ids[c.lo:c.hi], side, pivot)
			}
		}
		p.stableSplit(p.rows[c.lo:c.hi], side, pivot)
		return c.lo + p.stableSplit(side, side, pivot), f
	}
	return 0, len(p.ids)
}

// stableSplit moves the entries of a whose side entry is below pivot to
// the front and the rest behind them, each in order, and returns how many
// went to the front. side must be moved last: its entries decide. The
// loop is branch-free: every entry is written to both sides, and only the
// side it belongs to advances.
func (p *partitioner) stableSplit(a, side []uint32, pivot uint32) int {
	right := p.tmp[:len(a)]
	l, r := 0, 0
	for i, v := range a {
		below := int((uint64(side[i]) - uint64(pivot)) >> 63)
		a[l], right[r] = v, v
		l += below
		r += 1 - below
	}
	copy(a[l:], right[:r])
	return l
}

// pivot picks, among the first maxDistinct distinct ids in row order, the
// id v such that splitting into {rows < v} and {rows >= v} is as even as
// possible, with both sides non-empty. It reports ok=false if the rows
// hold fewer than two distinct ids.
func (p *partitioner) pivot(ids []uint32) (uint32, bool) {
	p.epoch++
	distinct := p.distinct[:0]
	lo, hi := ^uint32(0), uint32(0)
	for _, id := range ids {
		switch {
		case p.stamp[id] == p.epoch:
			p.count[id]++
		case len(distinct) < maxDistinct:
			p.stamp[id] = p.epoch
			p.count[id] = 1
			distinct = append(distinct, id)
			lo, hi = min(lo, id), max(hi, id)
		}
	}
	if len(distinct) < 2 {
		p.distinct = distinct
		return 0, false
	}
	if int(hi-lo) < len(ids) {
		// A span no wider than the rows is walked in id order, cheaper
		// than a sort.
		distinct = distinct[:0]
		for id := lo; id <= hi; id++ {
			if p.stamp[id] == p.epoch {
				distinct = append(distinct, id)
			}
		}
	} else {
		slices.Sort(distinct)
	}
	p.distinct = distinct
	half := len(ids) / 2
	acc, best, bestDiff := 0, 1, len(ids)
	for i, id := range distinct[:len(distinct)-1] {
		acc += int(p.count[id])
		if diff := max(acc-half, half-acc); diff < bestDiff {
			bestDiff = diff
			best = i + 1
		}
	}
	return distinct[best], true
}
