package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"powerdrill/internal/colstore"
	"powerdrill/internal/expr"
	"powerdrill/internal/sketch"
	"powerdrill/internal/sql"
	"powerdrill/internal/table"
	"powerdrill/internal/value"
)

// FuzzScanKernelsVsReference is the differential fuzzer that backs the
// bit-for-bit identity claim in kernels.go: it generates a random table
// (mixed column types, duplicate and empty strings, uneven chunk sizes down
// to single rows and up to thousands, elements of every width but 4 bytes
// — OptimizeElements off gives those) and a random query (a restriction tree up to three levels
// deep over =, !=, <, <=, >, >=, IN, NOT, AND, OR, whose leaves on the
// partition column are decided "all" or "none" by most chunk dictionaries
// and whose selective leaves leave a sparse mask for the ones after them;
// GROUP BY over any column — the partition column makes single-group
// chunks — or none; 1–3 aggregates from COUNT/SUM/AVG/MIN/MAX/
// COUNT(DISTINCT)), then runs it through the engine and through
// referencePartial, a row-wise aggregation that shares none of the scan,
// and requires the same partial, group by group and cell by cell —
// float parts by their bits, sketches by their retained hashes — and the
// same finished rows, or the same error (requireMatchesReference). Bits
// of shape turn on ExactDistinct and DisableSkipping, the latter so that
// chunks the classification would settle reach the masked kernels with
// full and empty masks.
func FuzzScanKernelsVsReference(f *testing.F) {
	f.Add(int64(1), uint16(100), uint16(0))
	f.Add(int64(2012), uint16(1000), uint16(7))
	f.Add(int64(-7), uint16(1), uint16(3))
	f.Add(int64(42), uint16(4095), uint16(65535))
	f.Add(int64(99), uint16(64), uint16(129))
	f.Add(int64(3), uint16(7000), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, shape uint16) {
		diffScanVsReference(t, seed, int(rows)%8192, shape)
	})
}

// TestScanKernelsVsReferenceSweep runs the differential trial over a fixed
// range of seeds, sizes and shapes, so that a plain `go test` — not only a
// fuzzing run — walks the restriction and kernel branches.
func TestScanKernelsVsReferenceSweep(t *testing.T) {
	for seed := int64(0); seed < 1000; seed++ {
		diffScanVsReference(t, seed, 1+int(seed*37%1500), uint16(seed))
	}
}

// diffScanVsReference is one differential trial.
func diffScanVsReference(t *testing.T, seed int64, rows int, shape uint16) {
	t.Helper()
	if rows == 0 {
		rows = 1
	}
	defer func() {
		if t.Failed() {
			t.Logf("trial: seed %d, rows %d, shape %d", seed, rows, shape)
		}
	}()
	rng := rand.New(rand.NewSource(seed))

	// Table: string s (small domain, includes the empty string), int64 n,
	// float64 fv, and a monotone partition column p that splits the store
	// into uneven chunks (MaxChunkRows below can force 1-row chunks). One
	// table in four is wide: domains of up to 1 000 strings, 3 000 integers
	// and 4 000 floats, so chunks store 2-byte elements, and chunks as large
	// as the partition column allows — over 4 096 rows, when rows is.
	strCard := 1 + rng.Intn(1+rng.Intn(32))
	intCard := 1 + rng.Intn(1+rng.Intn(64))
	fvCard, maxChunkRows := 400, 1+rng.Intn(300)
	if rng.Intn(4) == 0 {
		strCard, intCard, fvCard, maxChunkRows = 1+rng.Intn(1000), 1+rng.Intn(3000), 4000, rows
	}
	pEvery := 1 + rng.Intn(rows)
	s := make([]string, rows)
	n := make([]int64, rows)
	fv := make([]float64, rows)
	p := make([]string, rows)
	for i := 0; i < rows; i++ {
		if v := rng.Intn(strCard); v == 0 {
			s[i] = "" // empty string is a legal dictionary value
		} else {
			s[i] = fmt.Sprintf("v%02d", v)
		}
		n[i] = int64(rng.Intn(intCard))
		fv[i] = float64(rng.Intn(fvCard)) / 4
		p[i] = fmt.Sprintf("p%03d", i/pEvery)
	}
	tbl := table.New("data").
		AddStringColumn("s", s).
		AddInt64Column("n", n).
		AddFloat64Column("fv", fv).
		AddStringColumn("p", p)
	store, err := colstore.FromTable(tbl, colstore.Options{
		PartitionFields:  []string{"p"},
		MaxChunkRows:     maxChunkRows,
		OptimizeElements: shape&1 == 0,
	})
	if err != nil {
		t.Fatalf("FromTable: %v", err)
	}

	q := randomKernelQuery(rng, strCard, intCard, (rows-1)/pEvery)
	opts := Options{
		Parallelism:     1 + rng.Intn(4),
		ExactDistinct:   shape&2 != 0,
		DisableSkipping: shape&4 != 0,
	}
	requireMatchesReference(t, store, opts, q)
}

// requireMatchesReference runs q on an engine over store with opts and on
// referencePartial, and demands the same partial, group by group, and the
// same finished rows, bit for bit, from the engine's first run and from a
// run after the tables its chunks keep were built. Errors: the engine evaluates a predicate
// field at every row, skipping or not, so it must raise the reference's
// error or, with the reference, none. It returns the engine's result, nil
// if the query failed.
func requireMatchesReference(t *testing.T, store *colstore.Store, opts Options, q string) *Result {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	e := New(store, opts)
	want, werr := referencePartial(t, store, stmt, e.opts)
	res, err := query(e, q)
	switch {
	case err != nil && (werr == nil || err.Error() != werr.Error()):
		t.Fatalf("error divergence for %q:\n  engine:    %v\n  reference: %v", q, err, werr)
	case err != nil:
		return nil
	case werr != nil:
		t.Fatalf("error divergence for %q:\n  engine:    none\n  reference: %v", q, werr)
	}
	part, err := enginePartial(e, stmt)
	if err != nil {
		t.Fatalf("partial %q: %v", q, err)
	}
	got := part.rowwise()
	got.Stats, want.Columns = QueryStats{}, got.Columns
	sortRefGroups(got)
	sortRefGroups(want)
	if len(got.Groups) != len(want.Groups) {
		t.Fatalf("group divergence for %q:\n  engine:\n%s  reference:\n%s", q, got, want)
	}
	for i := range got.Groups {
		if g, w := &got.Groups[i], &want.Groups[i]; !sameRefGroup(g, w) {
			t.Fatalf("group %d diverges for %q:\n  engine:\n%s  reference:\n%s", i, q,
				&refPartial{Groups: []refGroup{*g}}, &refPartial{Groups: []refGroup{*w}})
		}
	}
	rows := referenceFinalize(t, stmt, want).Rows
	if !slices.EqualFunc(res.Rows, rows, func(a, b []value.Value) bool { return slices.EqualFunc(a, b, sameBits) }) {
		t.Fatalf("row divergence for %q:\n  engine:    %v\n  reference: %v", q, res.Rows, rows)
	}
	// The runs above built the tables the chunks keep; another reads them.
	again, err := query(e, q)
	if err != nil {
		t.Fatalf("second run of %q: %v", q, err)
	}
	if !slices.EqualFunc(again.Rows, rows, func(a, b []value.Value) bool { return slices.EqualFunc(a, b, sameBits) }) {
		t.Fatalf("row divergence for %q on a second run:\n  engine:    %v\n  reference: %v", q, again.Rows, rows)
	}
	return res
}

// enginePartial is e's RunPartial for stmt, also under ExactDistinct,
// which RunPartial refuses only because exact sets do not merge across
// shards.
func enginePartial(e *Engine, stmt *sql.SelectStmt) (*Partial, error) {
	if !e.opts.ExactDistinct {
		return e.RunPartial(stmt)
	}
	ps := e.store.NewPinSet()
	defer ps.Release()
	p, err := e.prepare(context.Background(), stmt, ps)
	if err != nil {
		return nil, err
	}
	out, _, err := e.runGroupBy(p)
	if err != nil {
		return nil, err
	}
	out.resolve()
	return out, nil
}

// referencePartial aggregates stmt over store row by row, with none of the
// engine's scan: naiveGroups selects and groups the store's rows, read
// chunk by chunk through the dictionaries, and each group's cells
// accumulate per row and are totalled at the end — the shape of maho's
// Aggregator (SNIPPETS.md §3). A float sum adds a chunk's rows in
// ascending order and then the chunks' sums in chunk order, the order the
// engine's merge fixes (addFloats). COUNT(DISTINCT) offers a value's hash,
// or under ExactDistinct its global-id, to a KMV of opts.SketchM (exact:
// exactM). A failing comparison reads as false, and the first error comes
// back beside the partial. Columns are left to the caller.
func referencePartial(t testing.TB, store *colstore.Store, stmt *sql.SelectStmt, opts Options) (*refPartial, error) {
	t.Helper()
	chunkOf, rowOf := make([]int, 0, store.NumRows()), make([]int, 0, store.NumRows())
	for ci := 0; ci < store.NumChunks(); ci++ {
		for r := 0; r < store.ChunkRows(ci); r++ {
			chunkOf, rowOf = append(chunkOf, ci), append(rowOf, r)
		}
	}
	// One row, moved from row to row: what rowAt returns is read before
	// rowAt is called again.
	row := &refStoreRow{store: store, cols: map[string]*colstore.Column{}}
	rowAt := func(i int) expr.Row {
		row.ci, row.r = chunkOf[i], rowOf[i]
		return row
	}
	groups, werr := naiveGroups(stmt, len(chunkOf), rowAt)
	m := opts.SketchM
	if opts.ExactDistinct {
		m = exactM
	}
	out := &refPartial{}
	for _, g := range groups {
		rg := refGroup{Keys: g.keys}
		for _, item := range stmt.Items {
			call, ok := item.Expr.(*sql.Call)
			if !ok {
				continue
			}
			var c refCell
			name := strings.ToLower(call.Name)
			switch {
			case name == "count" && !call.Distinct:
				c.Count = int64(len(g.rows))
			case name == "count":
				c.Sketch = sketch.NewKMV(m)
			case name == "sum" || name == "avg":
				c.Count = int64(len(g.rows))
			}
			rows := g.rows
			if call.Star {
				rows = nil // COUNT(*): the count is all of it
			}
			chunk, run, part := -1, 0.0, 0.0
			for _, i := range rows {
				v, err := expr.Eval(call.Args[0], rowAt(i))
				if err != nil {
					t.Fatalf("reference: %s: %v", call, err)
				}
				switch name {
				case "sum", "avg":
					if v.Kind() == value.KindInt64 {
						c.SumI, c.SumIsInt = c.SumI+v.Int(), true
						continue
					}
					if chunkOf[i] != chunk {
						chunk, part, run = chunkOf[i], part+run, 0
					}
					run += v.Float()
				case "min":
					if !c.Min.IsValid() || v.Compare(c.Min) < 0 {
						c.Min = v
					}
				case "max":
					if !c.Max.IsValid() || v.Compare(c.Max) > 0 {
						c.Max = v
					}
				case "count":
					if c.Sketch != nil {
						c.Sketch.AddHash(distinctRef(t, store, call, v, opts.ExactDistinct))
					}
				}
			}
			if chunk >= 0 {
				c.SumFParts = []float64{part + run}
			}
			rg.Cells = append(rg.Cells, c)
		}
		out.Groups = append(out.Groups, rg)
	}
	return out, werr
}

// refStoreRow is row r of chunk ci of a store, as expr reads rows: each
// column's value through its chunk dictionary and global dictionary.
type refStoreRow struct {
	store *colstore.Store
	cols  map[string]*colstore.Column
	ci, r int
}

func (x *refStoreRow) ColumnValue(name string) value.Value {
	col, ok := x.cols[name]
	if !ok {
		col = x.store.Column(name)
		x.cols[name] = col
	}
	if col == nil {
		return value.Value{}
	}
	return col.ValueAt(x.ci, x.r)
}

// distinctRef is what v offers COUNT(DISTINCT call's column): the hash the
// sketch takes for a value of its kind or, exact, its global-id.
func distinctRef(t testing.TB, store *colstore.Store, call *sql.Call, v value.Value, exact bool) uint64 {
	if exact {
		id, ok := store.Column(call.Args[0].String()).Dict.Lookup(v)
		if !ok {
			t.Fatalf("reference: %v is not in %s's dictionary", v, call.Args[0])
		}
		return uint64(id)
	}
	switch v.Kind() {
	case value.KindInt64:
		return sketch.HashUint64(uint64(v.Int()))
	case value.KindFloat64:
		return sketch.HashUint64(math.Float64bits(v.Float()))
	}
	return sketch.HashString(v.Str())
}

// sortRefGroups orders a partial's groups by their keys.
func sortRefGroups(p *refPartial) {
	slices.SortFunc(p.Groups, func(a, b refGroup) int {
		for k := range a.Keys {
			if c := a.Keys[k].Compare(b.Keys[k]); c != 0 {
				return c
			}
		}
		return 0
	})
}

// sameRefGroup reports whether two groups are equal, key for key and cell
// for cell: floats by their bits, sketches by the hashes they retain.
func sameRefGroup(a, b *refGroup) bool {
	if !slices.EqualFunc(a.Keys, b.Keys, sameBits) || len(a.Cells) != len(b.Cells) {
		return false
	}
	for j := range a.Cells {
		x, y := &a.Cells[j], &b.Cells[j]
		if x.Count != y.Count || x.SumI != y.SumI || x.SumIsInt != y.SumIsInt ||
			!slices.EqualFunc(x.SumFParts, y.SumFParts, func(f, g float64) bool { return math.Float64bits(f) == math.Float64bits(g) }) ||
			!sameBits(x.Min, y.Min) || !sameBits(x.Max, y.Max) || (x.Sketch == nil) != (y.Sketch == nil) {
			return false
		}
		if x.Sketch != nil && (x.Sketch.M() != y.Sketch.M() || !slices.Equal(x.Sketch.RetainedHashes(), y.Sketch.RetainedHashes())) {
			return false
		}
	}
	return true
}

// sameBits reports whether two values are equal, floats by their bits.
func sameBits(a, b value.Value) bool {
	if a.Kind() == value.KindFloat64 && b.Kind() == value.KindFloat64 {
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	return a == b
}

// randomKernelQuery assembles a query from the engine's restriction and
// aggregate grammar.
func randomKernelQuery(rng *rand.Rand, strCard, intCard, lastPart int) string {
	strLit := func() string {
		// Mix of present values, the empty string, and guaranteed misses.
		switch rng.Intn(4) {
		case 0:
			return `""`
		case 1:
			return `"missing"`
		default:
			return fmt.Sprintf(`"v%02d"`, rng.Intn(strCard+2))
		}
	}
	intLit := func() string { return fmt.Sprintf("%d", rng.Intn(intCard+2)) }
	// A value of the partition column: one past the last is a miss.
	partLit := func() string { return fmt.Sprintf(`"p%03d"`, rng.Intn(lastPart+2)) }
	preds := []func() string{
		func() string { return fmt.Sprintf("s = %s", strLit()) },
		func() string { return fmt.Sprintf("s != %s", strLit()) },
		func() string { return fmt.Sprintf("n = %s", intLit()) },
		func() string { return fmt.Sprintf("n < %s", intLit()) },
		func() string { return fmt.Sprintf("n >= %s", intLit()) },
		func() string { return fmt.Sprintf("n > %d.5", rng.Intn(intCard+1)) }, // fractional bound on int column
		func() string { return fmt.Sprintf("fv <= %.2f", float64(rng.Intn(400))/4) },
		func() string { return fmt.Sprintf("s IN (%s, %s, %s)", strLit(), strLit(), strLit()) },
		func() string { return fmt.Sprintf("n NOT IN (%s, %s)", intLit(), intLit()) },
		func() string { return fmt.Sprintf("NOT s = %s", strLit()) },
		// On the partition column: all or none of a chunk, for most chunks.
		func() string { return fmt.Sprintf("p = %s", partLit()) },
		func() string { return fmt.Sprintf("p != %s", partLit()) },
		func() string { return fmt.Sprintf("p >= %s", partLit()) },
		func() string { return fmt.Sprintf("p IN (%s, %s)", partLit(), partLit()) },
		// A predicate field: evaluated at every row, and now and then one
		// that fails.
		func() string {
			if rng.Intn(8) == 0 {
				return "s < n"
			}
			return "n = n"
		},
	}
	// tree draws a restriction tree: a leaf, or at depth > 0 a NOT, or an
	// AND or OR of two to four subtrees. A long AND is the shape whose first
	// selective leaves leave few rows for the rest to be probed at.
	var tree func(depth int) string
	tree = func(depth int) string {
		if depth == 0 || rng.Intn(3) == 0 {
			return preds[rng.Intn(len(preds))]()
		}
		if rng.Intn(5) == 0 {
			return "NOT (" + tree(depth-1) + ")"
		}
		op := " AND "
		if rng.Intn(3) == 0 {
			op = " OR "
		}
		out := "(" + tree(depth-1)
		for i := 1 + rng.Intn(3); i > 0; i-- {
			out += op + tree(depth-1)
		}
		return out + ")"
	}
	var where string
	if depth := rng.Intn(4); depth > 0 {
		where = " WHERE " + tree(depth-1)
	}

	aggs := []string{"COUNT(*)", "SUM(n)", "SUM(fv)", "AVG(fv)", "AVG(n)", "MIN(s)", "MAX(n)", "MIN(fv)", "MAX(s)", "COUNT(DISTINCT s)", "COUNT(DISTINCT n)"}
	rng.Shuffle(len(aggs), func(i, j int) { aggs[i], aggs[j] = aggs[j], aggs[i] })
	na := 1 + rng.Intn(3)

	sel := ""
	group := ""
	switch rng.Intn(4) {
	case 0: // global aggregate, no GROUP BY
	case 1:
		sel, group = "s, ", " GROUP BY s"
	case 2:
		sel, group = "p, ", " GROUP BY p"
	default:
		sel, group = "n, ", " GROUP BY n"
	}
	for i := 0; i < na; i++ {
		sel += fmt.Sprintf("%s AS a%d, ", aggs[i], i)
	}
	sel = sel[:len(sel)-2]

	order := ""
	if rng.Intn(3) == 0 {
		order = fmt.Sprintf(" ORDER BY a0 DESC LIMIT %d", 1+rng.Intn(20))
	}
	return fmt.Sprintf("SELECT %s FROM data%s%s%s;", sel, where, group, order)
}
