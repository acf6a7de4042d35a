package exec

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"

	"powerdrill/internal/sketch"
	"powerdrill/internal/value"
)

// MergePartials folds src into dst (same query shape): dst becomes their
// merge, src is left as it was.
func MergePartials(dst, src *Partial) error {
	merged, err := MergeAll([]*Partial{dst, src})
	if err != nil {
		return err
	}
	*dst = *merged
	return nil
}

// MergeAll re-aggregates the partials of one query, in order — what every
// inner node of the execution tree does with its children's replies. Groups
// come out in first-seen order; counts and integer sums add, float parts
// concatenate in child order, MIN and MAX keep the first of equal values,
// sketches union to their m smallest hashes. The result shares nothing with
// the inputs it merged, which are left untouched; of a single input it is a
// copy sharing that input's (never written) columns.
func MergeAll(parts []*Partial) (*Partial, error) {
	out := &Partial{}
	var shape *Partial    // the first input that has columns
	var inputs []*Partial // those that have groups
	total := 0
	for _, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("exec: merging nil partials")
		}
		if shape == nil || len(shape.Columns) == 0 && shape.n == 0 {
			shape = p
		} else if err := shape.checkSameShape(p); err != nil {
			return nil, err
		}
		out.Stats.Add(p.Stats)
		if p.n > 0 {
			inputs, total = append(inputs, p), total+p.n
		}
	}
	if len(parts) == 0 {
		return out, nil
	}
	if len(parts) == 1 {
		*out = *shape
		return out, nil
	}
	// Room for every input's groups: the key columns never grow, at the
	// price of unused room for the groups the inputs share.
	out.Columns = shape.Columns
	out.keys, out.aggs = make([]valueColumn, len(shape.keys)), make([]aggColumn, len(shape.aggs))
	for k := range out.keys {
		arena := 0
		for _, p := range inputs {
			arena += len(p.keys[k].arena)
		}
		out.keys[k] = newValueColumn(shape.keys[k].kind, total)
		out.keys[k].arena = make([]byte, 0, arena)
	}

	// Output slots, in first-seen order: an open-addressing table (a power
	// of two, at most half full) over a hash of the raw key cells holds 1 +
	// the slot, slotHash each slot's hash, and slots[pi][i] the slot of
	// group i of input pi.
	table := make([]int32, 1<<bits.Len(uint(2*total)))
	mask := uint64(len(table) - 1)
	slotHash := make([]uint64, 0, total)
	flat, hashes := make([]int32, total), []uint64(nil)
	slots := make([][]int32, len(inputs))
	for pi, p := range inputs {
		slots[pi], flat = flat[:p.n:p.n], flat[p.n:]
		hashes = p.hashKeys(resized(hashes, p.n))
		for i, h := range hashes {
			at := h & mask
			for ; table[at] != 0; at = (at + 1) & mask {
				if s := int(table[at] - 1); slotHash[s] == h && out.sameKey(s, p, i) {
					break
				}
			}
			if table[at] == 0 {
				for k := range out.keys {
					out.keys[k].appendFrom(&p.keys[k], i)
				}
				slotHash = append(slotHash, h)
				out.n++
				table[at] = int32(out.n)
			}
			slots[pi][i] = table[at] - 1
		}
	}
	aggs := make([][]aggColumn, len(inputs))
	for pi, p := range inputs {
		aggs[pi] = p.aggs
	}
	for j := range out.aggs {
		s := &shape.aggs[j]
		out.aggs[j] = aggColumn{has: s.has, m: s.m, vals: valueColumn{kind: s.vals.kind}}
		out.aggs[j].fold(out.n, j, aggs, slots)
	}
	return out, nil
}

// checkSameShape reports how o's columns differ from p's, if they do.
func (p *Partial) checkSameShape(o *Partial) error {
	if len(o.Columns) != len(p.Columns) {
		return fmt.Errorf("exec: merging partials with %d vs %d columns", len(o.Columns), len(p.Columns))
	}
	if len(o.keys) != len(p.keys) || len(o.aggs) != len(p.aggs) {
		return fmt.Errorf("exec: merging partials with %d keys and %d aggregates vs %d and %d",
			len(o.keys), len(o.aggs), len(p.keys), len(p.aggs))
	}
	for k := range p.keys {
		if o.keys[k].kind != p.keys[k].kind {
			return fmt.Errorf("exec: merging key column %d of kind %s vs %s", k, o.keys[k].kind, p.keys[k].kind)
		}
	}
	for j := range p.aggs {
		a, b := &p.aggs[j], &o.aggs[j]
		if a.has != b.has || a.vals.kind != b.vals.kind || a.m != b.m {
			return fmt.Errorf("exec: merging aggregate column %d of layout %#x (kind %s, m=%d) vs %#x (kind %s, m=%d)",
				j, b.has, b.vals.kind, b.m, a.has, a.vals.kind, a.m)
		}
	}
	return nil
}

var keySeed = maphash.MakeSeed()

// hashKeys fills hs[i] with a hash of group i's raw key cells, one key
// column at a time.
func (p *Partial) hashKeys(hs []uint64) []uint64 {
	const mul = 0x9e3779b97f4a7c15
	mix := func(h, cell uint64) uint64 {
		h = (h ^ cell) * mul
		return h ^ h>>32
	}
	clear(hs)
	for k := range p.keys {
		switch c := &p.keys[k]; c.kind {
		case value.KindInt64:
			for i, v := range c.ints {
				hs[i] = mix(hs[i], uint64(v))
			}
		case value.KindFloat64:
			for i, v := range c.flts {
				hs[i] = mix(hs[i], math.Float64bits(v))
			}
		default:
			for i := range hs {
				hs[i] = mix(hs[i], maphash.Bytes(keySeed, c.bytesAt(i)))
			}
		}
	}
	return hs
}

// sameKey reports whether p's group s and o's group i have the same key:
// cell for cell, floats by their bits.
func (p *Partial) sameKey(s int, o *Partial, i int) bool {
	for k := range p.keys {
		c, d := &p.keys[k], &o.keys[k]
		switch c.kind {
		case value.KindInt64:
			if c.ints[s] != d.ints[i] {
				return false
			}
		case value.KindFloat64:
			if math.Float64bits(c.flts[s]) != math.Float64bits(d.flts[i]) {
				return false
			}
		default:
			if !bytes.Equal(c.bytesAt(s), d.bytesAt(i)) {
				return false
			}
		}
	}
	return true
}

// less reports whether value i orders before value j of o, a column of the
// same kind, as value.Compare orders them.
func (c *valueColumn) less(i int, o *valueColumn, j int) bool {
	switch c.kind {
	case value.KindInt64:
		return c.ints[i] < o.ints[j]
	case value.KindFloat64:
		return c.flts[i] < o.flts[j]
	}
	return bytes.Compare(c.bytesAt(i), o.bytesAt(j)) < 0
}

// fold fills a, whose layout (has, m, vals.kind) is set, with the merge of
// the inputs' aggregate columns j over n output groups, inputs in order:
// group i of inputs[pi] goes to group slots[pi][i]. Counts and integer sums
// add, float parts concatenate, MIN and MAX compare values, sketches union.
func (a *aggColumn) fold(n, j int, inputs [][]aggColumn, slots [][]int32) {
	if a.has&arrCounts != 0 {
		a.counts = make([]int64, n)
		for pi, in := range inputs {
			for i, s := range slots[pi] {
				a.counts[s] += in[j].counts[i]
			}
		}
	}
	if a.has&arrSumI != 0 {
		a.sumI = make([]int64, n)
		for pi, in := range inputs {
			for i, s := range slots[pi] {
				a.sumI[s] += in[j].sumI[i]
			}
		}
	}
	if a.has&arrParts != 0 {
		// Count each group's parts, turn the counts into offsets, then copy
		// the runs in, in child order.
		off := make([]uint32, n+1)
		for pi, in := range inputs {
			for i, s := range slots[pi] {
				off[s+1] += uint32(len(in[j].parts.at(i)))
			}
		}
		next := make([]uint32, n)
		for s := range next {
			next[s] = off[s]
			off[s+1] += off[s]
		}
		a.parts = runColumn{off, make([]uint64, off[n])}
		for pi, in := range inputs {
			for i, s := range slots[pi] {
				next[s] += uint32(copy(a.parts.vals[next[s]:], in[j].parts.at(i)))
			}
		}
	}
	if a.has&(arrMin|arrMax) != 0 {
		// Find each group's winner where it lies, then gather: a string that
		// loses later is never copied.
		type ref struct {
			col *valueColumn
			i   int32
		}
		best := make([]ref, n)
		for pi, in := range inputs {
			src := &in[j].vals
			for i, s := range slots[pi] {
				b := &best[s]
				if b.col == nil || a.has&arrMin != 0 && src.less(i, b.col, int(b.i)) ||
					a.has&arrMax != 0 && b.col.less(int(b.i), src, i) {
					*b = ref{src, int32(i)}
				}
			}
		}
		a.vals = newValueColumn(a.vals.kind, n)
		for _, b := range best {
			a.vals.appendFrom(b.col, int(b.i))
		}
	}
	if a.has&arrSketch != 0 {
		// Give each group room for min(m, the hashes offered), union the runs
		// into it in child order, then close the gaps.
		room := make([]uint32, n+1)
		for pi, in := range inputs {
			for i, s := range slots[pi] {
				room[s+1] += uint32(len(in[j].hashes.at(i)))
			}
		}
		for s := 0; s < n; s++ {
			room[s+1] = room[s] + min(room[s+1], uint32(a.m))
		}
		hashes, off := make([]uint64, room[n]), make([]uint32, n+1)
		held := off[1:] // each group's hashes so far, until the gaps close
		var scratch []uint64
		for pi, in := range inputs {
			for i, s := range slots[pi] {
				run, dst := in[j].hashes.at(i), hashes[room[s]:room[s+1]]
				if held[s] > 0 {
					scratch = sketch.UnionSorted(scratch[:0], dst[:held[s]], run, a.m)
					run = scratch
				}
				held[s] = uint32(copy(dst, run))
			}
		}
		end := uint32(0)
		for s := 0; s < n; s++ {
			end += uint32(copy(hashes[end:], hashes[room[s]:room[s]+held[s]]))
			held[s] = end
		}
		a.hashes = runColumn{off, hashes[:end]}
	}
}

// mergeTables merges the scan workers' tables into the query's group table:
// the groups any worker saw, in ascending global-id order — a partial's
// emit order — each aggregate combined across the workers into fresh
// arrays of the engine's form. Counts, integer sums, MIN/MAX and sketch
// runs combine in any order. Float sums are added from +0, group by group,
// in ascending chunk order, replaying the workers' logs: the sequential
// engine's order, so the sums are the same to the bit at any parallelism
// (TestParallelFloatSumDeterminism). The aggregates that count share one
// counts array: a partial's columns are never written once built.
func mergeTables(p *plan, ws []*scanWorker) *groupSet {
	counts := ws[0].table.counts
	for _, w := range ws[1:] {
		for gid, n := range w.table.counts {
			counts[gid] += n
		}
	}
	n := 0
	for _, c := range counts {
		if c > 0 {
			n++
		}
	}
	out := &groupSet{gids: make([]uint32, 0, n), aggs: slices.Clone(p.emptyAggs)}
	for gid, c := range counts {
		if c > 0 {
			out.gids = append(out.gids, uint32(gid))
		}
	}
	var rows []int64
	for j := range out.aggs {
		a := &out.aggs[j]
		if a.has&arrCounts != 0 {
			if rows == nil {
				rows = make([]int64, n)
				for k, gid := range out.gids {
					rows[k] = counts[gid]
				}
			}
			a.counts = rows
		}
		switch {
		case a.has&arrSumI != 0:
			a.sumI = make([]int64, n)
			for _, w := range ws {
				for k, gid := range out.gids {
					a.sumI[k] += w.table.cols[j].sumI[gid]
				}
			}
		case a.has&arrParts != 0:
			a.parts.vals = make([]uint64, n)
		case a.has&(arrMin|arrMax) != 0:
			mask := keyMask(a.has)
			a.vals.ids = make([]uint32, n)
			for k, gid := range out.gids {
				key := uint32(0)
				for _, w := range ws {
					key = max(key, w.table.cols[j].keys[gid])
				}
				a.vals.ids[k] = key ^ mask
			}
		case a.has&arrSketch != 0:
			t0, room := &ws[0].table, 0
			for _, gid := range out.gids {
				held := 0
				for _, w := range ws {
					held += len(w.table.cols[j].runs[gid])
				}
				room += min(held, a.m)
			}
			a.hashes.off, a.hashes.vals = make([]uint32, 1, n+1), make([]uint64, 0, room)
			for _, gid := range out.gids {
				start := len(a.hashes.vals)
				for _, w := range ws {
					switch run := w.table.cols[j].runs[gid]; {
					case len(run) == 0:
					case len(a.hashes.vals) == start:
						a.hashes.vals = append(a.hashes.vals, run...)
					default:
						t0.tmp = sketch.UnionSorted(t0.tmp[:0], a.hashes.vals[start:], run, a.m)
						a.hashes.vals = append(a.hashes.vals[:start], t0.tmp...)
					}
				}
				a.hashes.endRun()
			}
		}
	}
	if ws[0].table.floats {
		addFloats(out, ws)
	}
	return out
}

// addFloats adds the workers' logged float sums into out's, chunk by chunk
// in ascending order: each worker logged its chunks ascending, so the next
// chunk is the smallest one some worker has not replayed yet.
func addFloats(out *groupSet, ws []*scanWorker) {
	slot := ws[0].table.slot
	for k, gid := range out.gids {
		slot[gid] = int32(k)
	}
	next := make([]int, len(ws))
	for {
		w := -1
		for i, wk := range ws {
			if next[i] < len(wk.table.chunks) && (w < 0 || wk.table.chunks[next[i]] < ws[w].table.chunks[next[w]]) {
				w = i
			}
		}
		if w < 0 {
			return
		}
		t, c := &ws[w].table, next[w]
		next[w]++
		start := int32(0)
		if c > 0 {
			start = t.ends[c-1]
		}
		for j := range out.aggs {
			if out.aggs[j].has&arrParts == 0 {
				continue
			}
			sums, parts := out.aggs[j].parts.vals, t.cols[j].parts
			for e := start; e < t.ends[c]; e++ {
				s := slot[t.gids[e]]
				sums[s] = math.Float64bits(math.Float64frombits(sums[s]) + math.Float64frombits(parts[e]))
			}
		}
	}
}
