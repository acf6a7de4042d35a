package exec

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"

	"powerdrill/internal/dict"
	"powerdrill/internal/sketch"
	"powerdrill/internal/sql"
	"powerdrill/internal/value"
)

// Partial is a mergeable aggregate result: what a leaf server returns and
// what every level of the Section 4 execution tree re-aggregates. All
// supported aggregates are associative — SUM, MIN, MAX, COUNT directly;
// AVG decomposed into SUM and COUNT; COUNT DISTINCT as a mergeable KMV
// sketch (the paper: exact count distinct cannot be multi-level aggregated,
// "therefore, we use an approximative technique").
//
// A partial is columnar from the leaf's group table to the root's top-k:
// n groups, one key column per GROUP BY expression and one aggregate column
// per aggregate, each an array (or a few) over the groups. A partial that
// leaves its engine holds group keys as values, not global-ids: different
// shards have different dictionaries, so ids are meaningless across
// machines (see valueColumn's id form for the one that stays). The columns
// are never written after the partial is built — a merge builds new ones —
// so partials may share them, and a decoded partial may alias its payload.
type Partial struct {
	// Columns are the output column names (for assembling the final
	// result at the root).
	Columns []string
	// Stats carries the leaf's execution counters up the tree.
	Stats QueryStats

	n    int           // groups
	keys []valueColumn // one per GROUP BY expression, in GROUP BY order
	aggs []aggColumn   // one per aggregate, in select-list order
}

// NumGroups returns the number of groups the partial holds.
func (p *Partial) NumGroups() int { return p.n }

// valueColumn holds one value of one kind per group: a key column, or the
// values of a MIN or MAX. Strings lie end to end in one byte arena, string
// i at arena[off[i]:off[i+1]].
//
// A column the engine emits starts in a fourth form, the id form: value i is
// dict's value of global-id ids[i]. The dictionary is sorted, so the ids
// compare as the values do, and a value is looked up only when it is
// rendered — for the groups LIMIT keeps (Section 2.5). The form lives under
// the query's pins: Engine.Run finalizes it there, RunPartial resolves it
// (see resolve) before the partial leaves, so a merge, the wire and every
// other holder of a Partial meet the three value forms only. Below the
// emitted partial — in a groupSet — a MIN or MAX column is its ids alone,
// with no dictionary.
type valueColumn struct {
	kind  value.Kind
	ints  []int64
	flts  []float64
	off   []uint32
	arena []byte
	ids   []uint32
	dict  dict.Dict // non-nil: the id form
}

// newValueColumn returns an empty column with room for n values.
func newValueColumn(kind value.Kind, n int) valueColumn {
	c := valueColumn{kind: kind}
	switch kind {
	case value.KindInt64:
		c.ints = make([]int64, 0, n)
	case value.KindFloat64:
		c.flts = make([]float64, 0, n)
	default:
		c.off = make([]uint32, 1, n+1)
	}
	return c
}

func (c *valueColumn) bytesAt(i int) []byte { return c.arena[c.off[i]:c.off[i+1]] }

// appendString copies s into a string column's arena.
func (c *valueColumn) appendString(s string) {
	if c.arena == nil {
		// A sorted dictionary's neighbours are about as long as each other:
		// room for as many strings as the column expects, a little longer
		// than the first, mostly saves growing.
		c.arena = make([]byte, 0, (len(s)+len(s)/8+1)*cap(c.off))
	}
	c.arena = append(c.arena, s...)
	c.off = append(c.off, uint32(len(c.arena)))
}

// appendFrom adds value i of src, a column of the same kind.
func (c *valueColumn) appendFrom(src *valueColumn, i int) {
	switch c.kind {
	case value.KindInt64:
		c.ints = append(c.ints, src.ints[i])
	case value.KindFloat64:
		c.flts = append(c.flts, src.flts[i])
	default:
		c.arena = append(c.arena, src.bytesAt(i)...)
		c.off = append(c.off, uint32(len(c.arena)))
	}
}

// value renders value i.
func (c *valueColumn) value(i int) value.Value {
	if c.dict != nil {
		return c.dict.Value(c.ids[i])
	}
	switch c.kind {
	case value.KindInt64:
		return value.Int64(c.ints[i])
	case value.KindFloat64:
		return value.Float64(c.flts[i])
	}
	return value.String(string(c.bytesAt(i)))
}

// comparer orders two of the column's values as compareOrderValues orders
// their renderings.
func (c *valueColumn) comparer() func(a, b int) int {
	if c.dict != nil {
		return func(a, b int) int { return compareInts(int64(c.ids[a]), int64(c.ids[b])) }
	}
	switch c.kind {
	case value.KindInt64:
		return func(a, b int) int { return compareInts(c.ints[a], c.ints[b]) }
	case value.KindFloat64:
		return func(a, b int) int { return compareFloats(c.flts[a], c.flts[b]) }
	}
	return func(a, b int) int { return bytes.Compare(c.bytesAt(a), c.bytesAt(b)) }
}

// aggArrays names the arrays an aggregate column holds — only those its
// aggregate merges. It is the column's presence mask on the wire.
type aggArrays uint8

const (
	arrCounts aggArrays = 1 << iota // row counts: COUNT, SUM, AVG
	arrSumI                         // integer sums: SUM, AVG of an int column
	arrParts                        // per-leaf float sums: SUM, AVG of a float column
	arrMin                          // vals holds minima
	arrMax                          // vals holds maxima (never with arrMin)
	arrSketch                       // KMV sketches: COUNT DISTINCT
)

// runColumn holds a run of 8-byte values per group, group i's at
// vals[off[i]:off[i+1]] — or, with off nil, one value per group: an engine's
// float sums before they leave it (see aggColumn.resolve).
type runColumn struct {
	off  []uint32
	vals []uint64
}

func (r *runColumn) at(i int) []uint64 {
	if r.off == nil {
		return r.vals[i : i+1]
	}
	return r.vals[r.off[i]:r.off[i+1]]
}

// endRun closes the run of the group whose values were just appended.
func (r *runColumn) endRun() { r.off = append(r.off, uint32(len(r.vals))) }

// aggColumn is one aggregate's mergeable state over the groups.
type aggColumn struct {
	has    aggArrays
	counts []int64
	sumI   []int64
	// parts holds, as float bits, each group's per-leaf float sums, one per
	// contributing leaf. Float addition is not associative, so folding a
	// running sum level by level would make SUM/AVG depend on how the tree
	// groups its merges; concatenating the parts is associative, and the
	// root folds them in one canonical order (see sumFloat) — the answer is
	// bit-for-bit identical whatever the topology.
	parts runColumn
	vals  valueColumn
	// hashes holds each group's sketch: its retained hashes, ascending, at
	// most m of them. Under Options.ExactDistinct an engine holds each
	// group's global-ids instead, ascending, with an m no run reaches
	// (exactM); such a column never leaves the engine, as exact sets do not
	// merge across machines — RunPartial refuses the option.
	hashes runColumn
	m      int
}

// exactM is the m of an exact COUNT(DISTINCT) column: no run is cut.
const exactM = math.MaxInt32

// alloc gives the column zeroed arrays for n groups in the engine's own
// form: counts and sums, MIN or MAX ids, float sums one per group, and room
// for the offsets of n runs.
func (a *aggColumn) alloc(n int) {
	if a.has&arrCounts != 0 {
		a.counts = make([]int64, n)
	}
	if a.has&arrSumI != 0 {
		a.sumI = make([]int64, n)
	}
	if a.has&arrParts != 0 {
		a.parts.vals = make([]uint64, n)
	}
	if a.has&(arrMin|arrMax) != 0 {
		a.vals.ids = make([]uint32, n)
	}
	if a.has&arrSketch != 0 {
		a.hashes.off = make([]uint32, 1, n+1)
	}
}

// sizeBytes is the footprint of the column's arrays.
func (a *aggColumn) sizeBytes() int64 {
	return 8*int64(len(a.counts)+len(a.sumI)+len(a.parts.vals)+len(a.hashes.vals)) +
		4*int64(len(a.parts.off)+len(a.vals.ids)+len(a.hashes.off))
}

// aggLayout is the arrays a leaf emits for an aggregate.
func aggLayout(fn aggFn, isInt bool) aggArrays {
	switch fn {
	case aggCount:
		return arrCounts
	case aggSum, aggAvg:
		if isInt {
			return arrCounts | arrSumI
		}
		return arrCounts | arrParts
	case aggMin:
		return arrMin
	case aggMax:
		return arrMax
	}
	return arrSketch
}

// sumFloat is group i's float total: its per-leaf parts folded
// smallest-first by the IEEE-754 total order (sign-magnitude bit trick, so
// ±0 and NaN payloads order deterministically too).
func (a *aggColumn) sumFloat(i int) float64 {
	var buf [8]float64
	parts := buf[:0]
	for _, bits := range a.parts.at(i) {
		parts = append(parts, math.Float64frombits(bits))
	}
	slices.SortFunc(parts, func(x, y float64) int { return compareInts(floatOrd(x), floatOrd(y)) })
	var sum float64
	for _, v := range parts {
		sum += v
	}
	return sum
}

// floatOrd maps a float64 to an int64 whose natural order is the IEEE-754
// total order (negatives descending by magnitude, then ±0, positives
// ascending, NaNs at the extremes by payload).
func floatOrd(f float64) int64 {
	b := int64(math.Float64bits(f))
	if b < 0 {
		return b ^ math.MaxInt64
	}
	return b
}

// RunPartial is RunPartialContext under context.Background().
func (e *Engine) RunPartial(stmt *sql.SelectStmt) (*Partial, error) {
	return e.RunPartialContext(context.Background(), stmt)
}

// RunPartialContext executes a statement but stops before finalization: no
// AVG division, no ORDER BY, no LIMIT — those happen once, at the root.
// The partial it returns holds values only, and nothing of the store's: it
// is resolved before the query's pins drop. Cancellation through ctx is as
// in RunContext.
func (e *Engine) RunPartialContext(ctx context.Context, stmt *sql.SelectStmt) (*Partial, error) {
	if e.opts.ExactDistinct {
		return nil, fmt.Errorf("exec: exact count distinct is not multi-level aggregatable (Section 4); use sketches")
	}
	ps := e.store.NewPinSet()
	defer ps.Release()
	p, err := e.prepare(ctx, stmt, ps)
	if err != nil {
		return nil, err
	}
	if p.rowScan {
		return nil, fmt.Errorf("exec: row scans are not distributed; aggregate or group the query")
	}
	out, qs, err := e.runGroupBy(p)
	if err != nil {
		return nil, err
	}
	out.resolve()
	if err := e.finish(p, ps); err != nil {
		return nil, err
	}
	out.Stats = e.closeStats(qs, ps, p)
	return out, nil
}

// resolve turns what an engine's own partial refers to under the query's
// pins — dictionaries by id — and its one-per-group float sums into the
// values and runs a partial holds anywhere else.
func (p *Partial) resolve() {
	for k := range p.keys {
		p.keys[k].resolve()
	}
	for j := range p.aggs {
		p.aggs[j].resolve()
	}
}

// runGroupBy scans the plan's chunks and emits the merged group table as a
// partial in id form, valid while the plan's pins are held.
func (e *Engine) runGroupBy(p *plan) (*Partial, QueryStats, error) {
	groups, qs, err := e.executeChunks(p)
	if err != nil {
		return nil, qs, err
	}
	out, err := e.emitPartial(p, groups)
	return out, qs, err
}

// resolve turns the column from the engine's form into the one it merges
// in: MIN/MAX ids into values, float sums into runs of one part.
func (a *aggColumn) resolve() {
	a.vals.resolve()
	if a.has&arrParts != 0 && a.parts.off == nil {
		a.parts.off = make([]uint32, len(a.parts.vals)+1)
		for i := range a.parts.off {
			a.parts.off[i] = uint32(i)
		}
	}
}

// resolve turns a column in id form into the value form of its kind: ids
// mean nothing on another shard, or once the dictionary's pin is dropped.
func (c *valueColumn) resolve() {
	d, ids := c.dict, c.ids
	if d == nil {
		return
	}
	*c = newValueColumn(c.kind, len(ids))
	switch c.kind {
	case value.KindInt64:
		c.ints = c.ints[:len(ids)]
		dict.Numbers(d, ids, c.ints)
	case value.KindFloat64:
		c.flts = c.flts[:len(ids)]
		dict.Numbers(d, ids, c.flts)
	default:
		// The arena is the copy: read the dictionary in place.
		dict.Load(d, ids)
		dict.Strings(d, ids, func(_ int, s string) { c.appendString(s) })
	}
}

// emitPartial wraps the group table as the query's partial, in ascending
// group global-id order: the aggregate columns are the table's arrays as
// they lie, with MIN and MAX given the dictionaries their ids index, and a
// single key is the table's global-ids beside the group dictionary
// (valueColumn's id form). Only a composite key is split, into one id
// column per group column. No value is looked up here.
func (e *Engine) emitPartial(p *plan, groups *groupSet) (*Partial, error) {
	n := len(groups.gids)
	out := &Partial{Columns: p.columns, n: n, keys: make([]valueColumn, len(p.groupCols)), aggs: slices.Clone(groups.aggs)}
	switch {
	case p.composite != "":
		// The composite key spells out each group column's global-id.
		for k := range out.keys {
			out.keys[k] = valueColumn{kind: p.groupKind[k], ids: make([]uint32, n), dict: p.cols[p.groupCols[k]].Dict}
		}
		keys := p.groupCol.Dict.(dict.StringDict)
		dict.Load(keys, groups.gids)
		for i, gid := range groups.gids {
			key := keys.StringAt(gid)
			for k := range out.keys {
				sub, ok := compositeSub(key, k)
				if !ok || len(key) != 9*len(out.keys)-1 {
					return nil, fmt.Errorf("exec: corrupt composite key %q", key)
				}
				out.keys[k].ids[i] = sub
			}
		}
	case len(out.keys) == 1:
		out.keys[0] = valueColumn{kind: p.groupKind[0], ids: groups.gids, dict: p.groupCol.Dict}
	}
	for j := range out.aggs {
		if a := &out.aggs[j]; a.has&(arrMin|arrMax) != 0 {
			a.vals.dict = p.aggCols[j].Dict
		}
	}
	return out, nil
}

// FinalizePartial turns a fully merged partial into the final result,
// applying AVG division, sketch estimation, HAVING, ORDER BY and LIMIT —
// the work the root of the tree does ("the root executes any having
// statements", Section 4), and the one finishing step there is: Engine.Run
// ends in it too, over the partial its own scan emitted. The selection
// compares one column of finished values per ORDER BY term, where it lies —
// ids in an engine's own partial, values in a merged one — and renders
// value.Values for the groups LIMIT keeps: "the original table name string
// values need to be looked up in the dictionary" for those alone (Section
// 2.5).
func FinalizePartial(stmt *sql.SelectStmt, p *Partial) (*Result, error) {
	return finalizePartial(stmt, orderItems(stmt), p)
}

// finalizePartial is FinalizePartial given the select items stmt's ORDER
// BY terms name: an engine's plan computed them already.
func finalizePartial(stmt *sql.SelectStmt, items []int, p *Partial) (*Result, error) {
	res := &Result{Columns: p.Columns, Stats: p.Stats, Coverage: 1}
	if p.Stats.RowsTotal > 0 {
		res.Coverage = float64(p.Stats.RowsCovered) / float64(p.Stats.RowsTotal)
	}
	cols, err := finishedColumns(stmt, p)
	if err != nil {
		return nil, err
	}
	// ORDER BY keys that match no output column are ignored, as in
	// rowOrderTerms: every engine's plan has refused them, and the root of a
	// tree none of whose shards answered has nothing to order.
	var terms []orderTerm
	for k, idx := range items {
		if idx >= 0 {
			terms = append(terms, orderTerm{cmp: cols[idx].comparer(), desc: stmt.OrderBy[k].Desc})
		}
	}
	sel, err := newRowSelection(stmt, p.Columns, terms, func(i int) ([]value.Value, error) {
		row := make([]value.Value, len(cols))
		for k := range cols {
			row[k] = cols[k].value(i)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < p.n; i++ {
		if err := sel.offer(i); err != nil {
			return nil, err
		}
	}
	if res.Rows, err = sel.rows(); err != nil {
		return nil, err
	}
	return res, nil
}

// finishedColumns returns stmt's select items as columns over p's groups:
// an aggregate finished from the aggregate column of its position among
// the aggregates, a group key the key column of its GROUP BY position —
// which need not be its position in the select list, so a key item finds
// it the way the planner matches select items: by the column it resolves
// to. A partial without groups has empty columns: the root of a tree whose
// shards all failed holds one that has none to bind.
func finishedColumns(stmt *sql.SelectStmt, p *Partial) ([]valueColumn, error) {
	groupCols := make([]string, len(stmt.GroupBy))
	for i, g := range stmt.GroupBy {
		groupCols[i] = operandName(resolveGroupExpr(stmt, g))
	}
	cols := make([]valueColumn, len(stmt.Items))
	agg := 0
	for i, item := range stmt.Items {
		if !sql.HasAggregate(item.Expr) {
			key := slices.Index(groupCols, operandName(item.Expr))
			if key < 0 {
				return nil, fmt.Errorf("exec: %s is neither aggregated nor grouped", item.Expr)
			}
			if p.n > 0 {
				if key >= len(p.keys) {
					return nil, fmt.Errorf("exec: partial has %d key columns, %s is key %d", len(p.keys), item.Expr, key)
				}
				cols[i] = p.keys[key]
			}
			continue
		}
		call, ok := item.Expr.(*sql.Call)
		if !ok {
			return nil, fmt.Errorf("exec: aggregates must be top-level calls, got %s", item.Expr)
		}
		fn, ok := aggFnFor(call.Name, call.Distinct)
		if !ok {
			return nil, fmt.Errorf("exec: unknown aggregate %q", call.Name)
		}
		if p.n > 0 {
			// The column must be laid out as a leaf lays out fn's.
			if agg >= len(p.aggs) || p.aggs[agg].has != aggLayout(fn, true) && p.aggs[agg].has != aggLayout(fn, false) {
				return nil, fmt.Errorf("exec: partial holds no column that finishes %s", item.Expr)
			}
			cols[i] = p.aggs[agg].finished(fn, p.n)
		}
		agg++
	}
	return cols, nil
}

// finished returns the aggregate's values over the n groups as fn finishes
// them. Counts, integer sums and MIN/MAX values are the column's own
// arrays; what needs folding — float parts, a sketch — is finished once per
// group, not once per comparison.
func (a *aggColumn) finished(fn aggFn, n int) valueColumn {
	switch {
	case fn == aggMin || fn == aggMax:
		return a.vals
	case fn == aggCount:
		return valueColumn{kind: value.KindInt64, ints: a.counts}
	case fn == aggSum && a.has&arrSumI != 0:
		return valueColumn{kind: value.KindInt64, ints: a.sumI}
	case fn == aggCountDistinct:
		ints := make([]int64, n)
		for i := range ints {
			ints[i] = sketch.EstimateSorted(a.hashes.at(i), a.m)
		}
		return valueColumn{kind: value.KindInt64, ints: ints}
	}
	flts := make([]float64, n)
	for i := range flts {
		switch {
		case fn == aggSum:
			flts[i] = a.sumFloat(i)
		case a.counts[i] == 0: // the AVG of a group that saw no row is 0
		case a.has&arrSumI != 0:
			flts[i] = float64(a.sumI[i]) / float64(a.counts[i])
		default:
			flts[i] = a.sumFloat(i) / float64(a.counts[i])
		}
	}
	return valueColumn{kind: value.KindFloat64, flts: flts}
}

// ApplyOrderLimit applies stmt's ORDER BY and LIMIT to an assembled
// result — the root step of any multi-part row-scan merge. Ingest
// snapshots use it after concatenating per-generation scans, mirroring
// what FinalizePartial does for aggregates.
func ApplyOrderLimit(stmt *sql.SelectStmt, res *Result) {
	res.Rows = orderRows(stmt, orderItems(stmt), res.Rows)
}
