package exec

// The row-wise partial this package shipped before partials became
// columnar, kept as the reference the columnar merge and finalize are
// pinned to (as topk_fuzz_test.go keeps referenceOrderLimit): one struct per
// group, one fat cell per aggregate, a merge through rendered key strings
// and a finalize that computes a value per group per ORDER BY term. Sketches
// are held as sketch.KMV values instead of marshalled bytes; nothing else
// differs from the deleted code.

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"powerdrill/internal/sketch"
	"powerdrill/internal/sql"
	"powerdrill/internal/value"
)

type refPartial struct {
	Columns []string
	Groups  []refGroup
	Stats   QueryStats
}

type refGroup struct {
	Keys  []value.Value
	Cells []refCell
}

type refCell struct {
	Count     int64
	SumI      int64
	SumIsInt  bool
	SumFParts []float64
	Min, Max  value.Value
	Sketch    *sketch.KMV
}

func (c *refCell) sumFloat() float64 {
	parts := append([]float64(nil), c.SumFParts...)
	sort.Slice(parts, func(i, j int) bool { return floatOrd(parts[i]) < floatOrd(parts[j]) })
	var sum float64
	for _, v := range parts {
		sum += v
	}
	return sum
}

func refKeyString(keys []value.Value) string {
	var b strings.Builder
	for _, k := range keys {
		b.WriteByte(byte(k.Kind()))
		b.WriteString(k.String())
		b.WriteByte(0x1f)
	}
	return b.String()
}

// referenceMerge is the deleted MergePartials, except that it copies what
// it adopts from src (the aliasing TestMergeLeavesSourcesUntouched pins).
func referenceMerge(dst, src *refPartial) error {
	if len(dst.Columns) == 0 {
		dst.Columns = src.Columns
	}
	if len(src.Columns) != len(dst.Columns) {
		return fmt.Errorf("merging partials with %d vs %d columns", len(src.Columns), len(dst.Columns))
	}
	index := make(map[string]int, len(dst.Groups))
	for i, g := range dst.Groups {
		index[refKeyString(g.Keys)] = i
	}
	for _, g := range src.Groups {
		k := refKeyString(g.Keys)
		di, ok := index[k]
		if !ok {
			cp := refGroup{Keys: g.Keys, Cells: make([]refCell, len(g.Cells))}
			for j := range cp.Cells {
				cp.Cells[j].merge(&g.Cells[j])
			}
			dst.Groups = append(dst.Groups, cp)
			index[k] = len(dst.Groups) - 1
			continue
		}
		d := &dst.Groups[di]
		if len(d.Cells) != len(g.Cells) {
			return fmt.Errorf("merging groups with %d vs %d cells", len(d.Cells), len(g.Cells))
		}
		for j := range d.Cells {
			d.Cells[j].merge(&g.Cells[j])
		}
	}
	dst.Stats.Add(src.Stats)
	return nil
}

func (c *refCell) merge(o *refCell) {
	c.Count += o.Count
	c.SumI += o.SumI
	c.SumFParts = append(c.SumFParts, o.SumFParts...)
	c.SumIsInt = c.SumIsInt || o.SumIsInt
	if o.Min.IsValid() && (!c.Min.IsValid() || o.Min.Compare(c.Min) < 0) {
		c.Min = o.Min
	}
	if o.Max.IsValid() && (!c.Max.IsValid() || o.Max.Compare(c.Max) > 0) {
		c.Max = o.Max
	}
	if o.Sketch != nil {
		if c.Sketch == nil {
			c.Sketch = sketch.NewKMV(o.Sketch.M())
		}
		c.Sketch.Merge(o.Sketch)
	}
}

// refItemSpec describes how one select item draws from a row-wise partial:
// an aggregate from cell cellIdx, or (cellIdx < 0) group key keyIdx.
type refItemSpec struct {
	fn      aggFn
	cellIdx int
	keyIdx  int
}

func (s refItemSpec) value(cell *refCell) value.Value {
	switch s.fn {
	case aggCount:
		return value.Int64(cell.Count)
	case aggSum:
		if cell.SumIsInt {
			return value.Int64(cell.SumI)
		}
		return value.Float64(cell.sumFloat())
	case aggAvg:
		if cell.Count == 0 {
			return value.Float64(0)
		}
		total := cell.sumFloat()
		if cell.SumIsInt {
			total = float64(cell.SumI)
		}
		return value.Float64(total / float64(cell.Count))
	case aggMin:
		return cell.Min
	case aggMax:
		return cell.Max
	}
	if cell.Sketch == nil {
		return value.Int64(0)
	}
	return value.Int64(cell.Sketch.Estimate())
}

// refItemSpecs maps select items to cells and keys the way
// finishedColumns binds them to columns.
func refItemSpecs(t testing.TB, stmt *sql.SelectStmt) []refItemSpec {
	if _, err := finishedColumns(stmt, &Partial{}); err != nil {
		t.Fatal(err)
	}
	groupCols := make([]string, len(stmt.GroupBy))
	for i, g := range stmt.GroupBy {
		groupCols[i] = operandName(resolveGroupExpr(stmt, g))
	}
	specs := make([]refItemSpec, len(stmt.Items))
	cell := 0
	for i, item := range stmt.Items {
		if call, ok := item.Expr.(*sql.Call); ok {
			fn, _ := aggFnFor(call.Name, call.Distinct)
			specs[i] = refItemSpec{fn: fn, cellIdx: cell}
			cell++
			continue
		}
		specs[i] = refItemSpec{cellIdx: -1}
		for specs[i].keyIdx = 0; groupCols[specs[i].keyIdx] != operandName(item.Expr); specs[i].keyIdx++ {
		}
	}
	return specs
}

func refRow(specs []refItemSpec, g *refGroup) []value.Value {
	row := make([]value.Value, len(specs))
	for i, spec := range specs {
		if spec.cellIdx < 0 {
			row[i] = g.Keys[spec.keyIdx]
		} else {
			row[i] = spec.value(&g.Cells[spec.cellIdx])
		}
	}
	return row
}

// referenceFinalize is the deleted FinalizePartial: a value per group per
// ORDER BY term, compared by compareOrderValues, behind the same
// rowSelection.
func referenceFinalize(t testing.TB, stmt *sql.SelectStmt, p *refPartial) *Result {
	res := &Result{Columns: p.Columns, Stats: p.Stats, Coverage: 1}
	if p.Stats.RowsTotal > 0 {
		res.Coverage = float64(p.Stats.RowsCovered) / float64(p.Stats.RowsTotal)
	}
	specs := refItemSpecs(t, stmt)
	var terms []orderTerm
	for k, idx := range orderItems(stmt) {
		if idx < 0 {
			continue
		}
		spec := specs[idx]
		vals := make([]value.Value, len(p.Groups))
		for i := range p.Groups {
			if spec.cellIdx < 0 {
				vals[i] = p.Groups[i].Keys[spec.keyIdx]
			} else {
				vals[i] = spec.value(&p.Groups[i].Cells[spec.cellIdx])
			}
		}
		terms = append(terms, orderTerm{
			cmp:  func(a, b int) int { return compareOrderValues(vals[a], vals[b]) },
			desc: stmt.OrderBy[k].Desc,
		})
	}
	sel, err := newRowSelection(stmt, p.Columns, terms,
		func(i int) ([]value.Value, error) { return refRow(specs, &p.Groups[i]), nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Groups {
		if err := sel.offer(i); err != nil {
			t.Fatal(err)
		}
	}
	if res.Rows, err = sel.rows(); err != nil {
		t.Fatal(err)
	}
	return res
}

// referenceMergeFinalize merges row-wise partials in order and finalizes
// the result: what any tree over the same children must answer.
func referenceMergeFinalize(t testing.TB, stmt *sql.SelectStmt, parts []*refPartial) *Result {
	merged := &refPartial{}
	for _, p := range parts {
		if err := referenceMerge(merged, p); err != nil {
			t.Fatal(err)
		}
	}
	return referenceFinalize(t, stmt, merged)
}

// columnar converts a row-wise partial, whose groups all have cells of the
// given layouts and keys and MIN/MAX values of one kind per column: the
// shape every leaf emits. keyKinds and valKinds supply the kinds a partial
// without groups cannot show.
func (p *refPartial) columnar(layouts []aggArrays, keyKinds, valKinds []value.Kind, m int) *Partial {
	n := len(p.Groups)
	out := &Partial{Columns: p.Columns, Stats: p.Stats, n: n,
		keys: make([]valueColumn, len(keyKinds)), aggs: make([]aggColumn, len(layouts))}
	for k := range out.keys {
		out.keys[k] = newValueColumn(keyKinds[k], n)
	}
	for j, has := range layouts {
		a := &out.aggs[j]
		a.has = has
		if has&arrCounts != 0 {
			a.counts = make([]int64, 0, n)
		}
		if has&arrSumI != 0 {
			a.sumI = make([]int64, 0, n)
		}
		if has&arrParts != 0 {
			a.parts.off = []uint32{0}
		}
		if has&(arrMin|arrMax) != 0 {
			a.vals = newValueColumn(valKinds[j], n)
		}
		if has&arrSketch != 0 {
			a.m, a.hashes.off = m, []uint32{0}
		}
	}
	for _, g := range p.Groups {
		for k := range out.keys {
			out.keys[k].append(g.Keys[k])
		}
		for j := range out.aggs {
			a, c := &out.aggs[j], &g.Cells[j]
			if a.has&arrCounts != 0 {
				a.counts = append(a.counts, c.Count)
			}
			if a.has&arrSumI != 0 {
				a.sumI = append(a.sumI, c.SumI)
			}
			if a.has&arrParts != 0 {
				for _, v := range c.SumFParts {
					a.parts.vals = append(a.parts.vals, math.Float64bits(v))
				}
				a.parts.endRun()
			}
			if a.has&arrMin != 0 {
				a.vals.append(c.Min)
			}
			if a.has&arrMax != 0 {
				a.vals.append(c.Max)
			}
			if a.has&arrSketch != 0 {
				if c.Sketch != nil {
					a.hashes.vals = c.Sketch.AppendHashes(a.hashes.vals)
				}
				a.hashes.endRun()
			}
		}
	}
	return out
}

// rowwise is the inverse of columnar.
func (p *Partial) rowwise() *refPartial {
	out := &refPartial{Columns: p.Columns, Stats: p.Stats, Groups: make([]refGroup, p.n)}
	for i := range out.Groups {
		g := &out.Groups[i]
		for k := range p.keys {
			g.Keys = append(g.Keys, p.keys[k].value(i))
		}
		g.Cells = make([]refCell, len(p.aggs))
		for j := range p.aggs {
			a, c := &p.aggs[j], &g.Cells[j]
			if a.has&arrCounts != 0 {
				c.Count = a.counts[i]
			}
			if a.has&arrSumI != 0 {
				c.SumI, c.SumIsInt = a.sumI[i], true
			}
			if a.has&arrParts != 0 {
				for _, bits := range a.parts.at(i) {
					c.SumFParts = append(c.SumFParts, math.Float64frombits(bits))
				}
			}
			if a.has&arrMin != 0 {
				c.Min = a.vals.value(i)
			}
			if a.has&arrMax != 0 {
				c.Max = a.vals.value(i)
			}
			if a.has&arrSketch != 0 {
				c.Sketch = sketch.NewKMV(max(a.m, 1))
				for _, h := range a.hashes.at(i) {
					c.Sketch.AddHash(h)
				}
			}
		}
	}
	return out
}

// layoutsOf returns the conversion parameters of an existing partial.
func (p *Partial) layoutsOf() (layouts []aggArrays, keyKinds, valKinds []value.Kind, m int) {
	for k := range p.keys {
		keyKinds = append(keyKinds, p.keys[k].kind)
	}
	for j := range p.aggs {
		layouts = append(layouts, p.aggs[j].has)
		valKinds = append(valKinds, p.aggs[j].vals.kind)
		m = max(m, p.aggs[j].m)
	}
	return layouts, keyKinds, valKinds, m
}

// String renders the partial with floats and sketches spelled out, so that
// two renderings are equal exactly when the partials are, NaNs included.
func (p *refPartial) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%q %+v\n", p.Columns, p.Stats)
	for _, g := range p.Groups {
		fmt.Fprintf(&b, "%v:", g.Keys)
		for _, c := range g.Cells {
			fmt.Fprintf(&b, " {n=%d i=%d/%v f=%x min=%v max=%v", c.Count, c.SumI, c.SumIsInt, c.SumFParts, c.Min, c.Max)
			if c.Sketch != nil {
				fmt.Fprintf(&b, " m=%d %x", c.Sketch.M(), c.Sketch.RetainedHashes())
			}
			b.WriteString("}")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// append adds a value of the column's kind.
func (c *valueColumn) append(v value.Value) {
	switch c.kind {
	case value.KindInt64:
		c.ints = append(c.ints, v.Int())
	case value.KindFloat64:
		c.flts = append(c.flts, v.Float())
	default:
		c.appendString(v.Str())
	}
}
