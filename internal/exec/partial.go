package exec

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

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
// Group keys are values, not global-ids: different shards have different
// dictionaries, so ids are meaningless across machines.
type Partial struct {
	// Columns are the output column names (for assembling the final
	// result at the root).
	Columns []string
	// Groups holds one entry per group key present on this server.
	Groups []PartialGroup
	// Stats carries the leaf's execution counters up the tree.
	Stats QueryStats
}

// PartialGroup is one group's mergeable accumulators.
type PartialGroup struct {
	Keys  []value.Value
	Cells []PartialCell
}

// PartialCell is one aggregate's mergeable state.
type PartialCell struct {
	Count int64
	SumI  int64
	SumF  float64
	// SumIsInt records whether the summed column is integral, so the root
	// can render SUM with the right kind.
	SumIsInt bool
	// SumFParts holds the per-leaf float sums that SumF totals, one entry
	// per contributing leaf. Float addition is not associative, so folding
	// SumF level by level would make SUM/AVG depend on how the tree groups
	// its merges; concatenating the parts is associative, and the root
	// folds them in one canonical order (see sumFloat) — the answer is
	// bit-for-bit identical whatever the topology.
	SumFParts []float64
	Min       value.Value
	Max       value.Value
	Sketch    []byte // marshaled KMV for COUNT DISTINCT
}

// sumFloat is the cell's float total. With per-part sums present they are
// folded smallest-first by the IEEE-754 total order (sign-magnitude bit
// trick, so ±0 and NaN payloads order deterministically too); without
// them (int sums, pre-part encoders) the running SumF stands in.
func (c *PartialCell) sumFloat() float64 {
	if len(c.SumFParts) == 0 {
		return c.SumF
	}
	parts := append([]float64(nil), c.SumFParts...)
	sort.Slice(parts, func(i, j int) bool { return floatOrd(parts[i]) < floatOrd(parts[j]) })
	var sum float64
	for _, v := range parts {
		sum += v
	}
	return sum
}

// floatOrd maps a float64 to a uint64 whose natural order is the IEEE-754
// total order (negatives descending by magnitude, then ±0, positives
// ascending, NaNs at the extremes by payload).
func floatOrd(f float64) uint64 {
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// RunPartial executes a statement but stops before finalization: no AVG
// division, no ORDER BY, no LIMIT — those happen once, at the root.
func (e *Engine) RunPartial(stmt *sql.SelectStmt) (*Partial, error) {
	if e.opts.ExactDistinct {
		return nil, fmt.Errorf("exec: exact count distinct is not multi-level aggregatable (Section 4); use sketches")
	}
	ps := e.store.NewPinSet()
	defer ps.Release()
	p, err := e.prepare(stmt, ps)
	if err != nil {
		return nil, err
	}
	if p.rowScan {
		return nil, fmt.Errorf("exec: row scans are not distributed; aggregate or group the query")
	}
	groups, qs, err := e.executeChunks(p)
	if err != nil {
		return nil, err
	}
	out := &Partial{}
	for _, it := range p.items {
		out.Columns = append(out.Columns, it.name)
	}
	if out.Groups, err = e.partialGroups(p, groups); err != nil {
		return nil, err
	}
	out.Stats = e.closeStats(qs, ps, p)
	return out, nil
}

// partialGroups converts the group table to its mergeable form, in
// ascending group global-id order: keys become values and MIN/MAX ids the
// values they name, because ids mean nothing on another shard.
func (e *Engine) partialGroups(p *plan, groups *groupTable) ([]PartialGroup, error) {
	out := make([]PartialGroup, 0, groups.n)
	err := groups.forEach(func(gid uint32) error {
		accs, dist := groups.accs(gid), groups.dist(gid)
		keys, err := e.groupKeyValues(p, gid)
		if err != nil {
			return err
		}
		pg := PartialGroup{Keys: keys, Cells: make([]PartialCell, len(p.aggs))}
		for j := range p.aggs {
			cell := &pg.Cells[j]
			cell.Count, cell.SumI, cell.SumF = accs[j].count, accs[j].sumI, accs[j].sumF
			cell.SumIsInt = p.aggInt[j]
			if fn := p.aggs[j].fn; (fn == aggSum || fn == aggAvg) && !cell.SumIsInt {
				cell.SumFParts = []float64{cell.SumF}
			}
			if accs[j].hasMM {
				cell.Min = p.aggCols[j].Dict.Value(accs[j].minID)
				cell.Max = p.aggCols[j].Dict.Value(accs[j].maxID)
			}
			if dist != nil && dist[j].sketch != nil {
				cell.Sketch = dist[j].sketch.Marshal()
			}
		}
		out = append(out, pg)
		return nil
	})
	return out, err
}

// keyString renders a group key for merge hashing.
func keyString(keys []value.Value) string {
	var b strings.Builder
	for _, k := range keys {
		b.WriteByte(byte(k.Kind()))
		b.WriteString(k.String())
		b.WriteByte(0x1f)
	}
	return b.String()
}

// MergePartials folds src into dst (same query shape). This is the
// re-aggregation every inner node of the execution tree performs.
func MergePartials(dst, src *Partial) error {
	if dst == nil || src == nil {
		return fmt.Errorf("exec: merging nil partials")
	}
	if len(dst.Columns) == 0 {
		dst.Columns = src.Columns
	}
	if len(src.Columns) != len(dst.Columns) {
		return fmt.Errorf("exec: merging partials with %d vs %d columns", len(src.Columns), len(dst.Columns))
	}
	index := make(map[string]int, len(dst.Groups))
	for i, g := range dst.Groups {
		index[keyString(g.Keys)] = i
	}
	for _, g := range src.Groups {
		k := keyString(g.Keys)
		di, ok := index[k]
		if !ok {
			dst.Groups = append(dst.Groups, g)
			index[k] = len(dst.Groups) - 1
			continue
		}
		d := &dst.Groups[di]
		if len(d.Cells) != len(g.Cells) {
			return fmt.Errorf("exec: merging groups with %d vs %d cells", len(d.Cells), len(g.Cells))
		}
		for j := range d.Cells {
			if err := d.Cells[j].merge(&g.Cells[j]); err != nil {
				return err
			}
		}
	}
	dst.Stats.Add(src.Stats)
	return nil
}

func (c *PartialCell) merge(o *PartialCell) error {
	c.Count += o.Count
	c.SumI += o.SumI
	c.SumF += o.SumF
	c.SumFParts = append(c.SumFParts, o.SumFParts...)
	c.SumIsInt = c.SumIsInt || o.SumIsInt
	if o.Min.IsValid() && (!c.Min.IsValid() || o.Min.Compare(c.Min) < 0) {
		c.Min = o.Min
	}
	if o.Max.IsValid() && (!c.Max.IsValid() || o.Max.Compare(c.Max) > 0) {
		c.Max = o.Max
	}
	if len(o.Sketch) > 0 {
		if len(c.Sketch) == 0 {
			c.Sketch = append([]byte(nil), o.Sketch...)
			return nil
		}
		a, err := sketch.UnmarshalKMV(c.Sketch)
		if err != nil {
			return fmt.Errorf("exec: merge sketch: %w", err)
		}
		b, err := sketch.UnmarshalKMV(o.Sketch)
		if err != nil {
			return fmt.Errorf("exec: merge sketch: %w", err)
		}
		a.Merge(b)
		c.Sketch = a.Marshal()
	}
	return nil
}

// FinalizePartial turns a fully merged partial into the final result,
// applying AVG division, sketch estimation, HAVING, ORDER BY and LIMIT —
// the work the root of the tree does ("the root executes any having
// statements", Section 4). Group keys are values here, not ids (see
// Partial), and arrive in merge order, so the selection compares one
// order-key column per ORDER BY term — an aggregate's finished values, or
// the key values themselves, reached only when the terms before tie — and
// renders rows for the groups LIMIT keeps.
func FinalizePartial(stmt *sql.SelectStmt, p *Partial) (*Result, error) {
	res := &Result{Columns: p.Columns, Stats: p.Stats, Coverage: 1}
	if p.Stats.RowsTotal > 0 {
		res.Coverage = float64(p.Stats.RowsCovered) / float64(p.Stats.RowsTotal)
	}
	specs, err := partialItemSpecs(stmt)
	if err != nil {
		return nil, err
	}
	terms, err := partialOrderTerms(stmt, specs, p.Groups)
	if err != nil {
		return nil, err
	}
	sel, err := newRowSelection(stmt, p.Columns, terms,
		func(i int) ([]value.Value, error) { return partialRow(specs, &p.Groups[i]) })
	if err != nil {
		return nil, err
	}
	for i := range p.Groups {
		if err := sel.offer(i); err != nil {
			return nil, err
		}
	}
	if res.Rows, err = sel.rows(); err != nil {
		return nil, err
	}
	return res, nil
}

// partialOrderTerms compiles stmt's ORDER BY for merged groups. ORDER BY
// keys that match no output column are ignored, as in rowOrderTerms.
func partialOrderTerms(stmt *sql.SelectStmt, specs []partialItemSpec, groups []PartialGroup) ([]orderTerm, error) {
	var terms []orderTerm
	for k, idx := range orderItems(stmt) {
		if idx < 0 {
			continue
		}
		spec := specs[idx]
		term := orderTerm{desc: stmt.OrderBy[k].Desc}
		if spec.cellIdx < 0 {
			term.cmp = func(a, b int) int {
				return compareOrderValues(groups[a].Keys[spec.keyIdx], groups[b].Keys[spec.keyIdx])
			}
		} else {
			// A merged cell's value needs folding (float parts, a sketch to
			// decode), so the term's values are computed once per group.
			vals := make([]value.Value, len(groups))
			for i := range groups {
				v, err := spec.value(&groups[i].Cells[spec.cellIdx])
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
			term.cmp = func(a, b int) int { return compareOrderValues(vals[a], vals[b]) }
		}
		terms = append(terms, term)
	}
	return terms, nil
}

// partialRow renders one merged group's result row.
func partialRow(specs []partialItemSpec, g *PartialGroup) ([]value.Value, error) {
	row := make([]value.Value, len(specs))
	for i, spec := range specs {
		if spec.cellIdx < 0 {
			row[i] = g.Keys[spec.keyIdx]
			continue
		}
		v, err := spec.value(&g.Cells[spec.cellIdx])
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	return row, nil
}

// partialItemSpec describes how one select item draws from a partial: an
// aggregate from cell cellIdx, or (cellIdx < 0) group key keyIdx.
type partialItemSpec struct {
	fn      aggFn
	cellIdx int
	keyIdx  int
}

// value renders the item's aggregate from its merged cell.
func (s partialItemSpec) value(cell *PartialCell) (value.Value, error) {
	switch s.fn {
	case aggCount:
		return value.Int64(cell.Count), nil
	case aggSum:
		if cell.SumIsInt {
			return value.Int64(cell.SumI), nil
		}
		return value.Float64(cell.sumFloat()), nil
	case aggAvg:
		if cell.Count == 0 {
			return value.Float64(0), nil
		}
		total := cell.sumFloat()
		if cell.SumIsInt {
			total = float64(cell.SumI)
		}
		return value.Float64(total / float64(cell.Count)), nil
	case aggMin:
		return cell.Min, nil
	case aggMax:
		return cell.Max, nil
	}
	// COUNT(DISTINCT)
	if len(cell.Sketch) == 0 {
		return value.Int64(0), nil
	}
	k, err := sketch.UnmarshalKMV(cell.Sketch)
	if err != nil {
		return value.Value{}, err
	}
	return value.Int64(k.Estimate()), nil
}

// partialItemSpecs maps select items to (aggregate, cell index) or group
// key position. A group's Keys are in GROUP BY order (partialGroups), which
// need not be the order of the select list, so a key item finds its
// position the way the planner matches select items: by the column it
// resolves to.
func partialItemSpecs(stmt *sql.SelectStmt) ([]partialItemSpec, error) {
	groupCols := make([]string, len(stmt.GroupBy))
	for i, g := range stmt.GroupBy {
		groupCols[i] = operandName(resolveGroupExpr(stmt, g))
	}
	specs := make([]partialItemSpec, 0, len(stmt.Items))
	cell := 0
	for _, item := range stmt.Items {
		if !sql.HasAggregate(item.Expr) {
			key := slices.Index(groupCols, operandName(item.Expr))
			if key < 0 {
				return nil, fmt.Errorf("exec: %s is neither aggregated nor grouped", item.Expr)
			}
			specs = append(specs, partialItemSpec{cellIdx: -1, keyIdx: key})
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
		specs = append(specs, partialItemSpec{fn: fn, cellIdx: cell})
		cell++
	}
	return specs, nil
}

// ApplyOrderLimit applies stmt's ORDER BY and LIMIT to an assembled
// result — the root step of any multi-part row-scan merge. Ingest
// snapshots use it after concatenating per-generation scans, mirroring
// what FinalizePartial does for aggregates.
func ApplyOrderLimit(stmt *sql.SelectStmt, res *Result) { res.Rows = orderRows(stmt, res.Rows) }
