package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"powerdrill/internal/colstore"
	"powerdrill/internal/expr"
	"powerdrill/internal/memmgr"
	"powerdrill/internal/sql"
	"powerdrill/internal/table"
	"powerdrill/internal/value"
)

// FuzzRowScanVsReference is the differential fuzzer of the two-phase row
// scan (rowscan.go). It generates a small table full of ties — a few
// distinct values per column, a constant column c and a unique one u — or,
// with allTies, one where every column but u is constant, in chunks of up
// to 40 rows and with string dictionaries of every kind; and a row scan
// over it: 1–5 projected columns; 0–3 ORDER BY keys, ASC or DESC, among
// them the constant and the unique key and now and then a key that is not
// projected, which must be refused; LIMIT absent, 0, 1, a few, or at least
// the row count; and a WHERE of IN, range and predicate-field leaves under
// AND, OR and NOT. The query runs on a resident Build at Parallelism 1 and
// 3, and on the same store saved, with or without a codec, and opened
// lazily under a budget below one column — every load evicts, and the
// fetch phase loads what the select phase never pinned — at Parallelism 1
// and 4. Every run must return the reference's rows bit for bit
// (refRowScan: every matching row, stably sorted) or fail where it fails;
// its chunks and rows must each split into skipped and scanned; and each
// deployment's counters must be the same at both parallelisms.
func FuzzRowScanVsReference(f *testing.F) {
	f.Add(int64(1), uint16(200), false, uint8(3))
	f.Add(int64(2), uint16(150), true, uint8(3))  // all ties
	f.Add(int64(3), uint16(120), false, uint8(1)) // LIMIT 0
	f.Add(int64(4), uint16(120), true, uint8(1))  // all ties, LIMIT 0
	f.Add(int64(5), uint16(0), false, uint8(2))
	f.Add(int64(6), uint16(299), false, uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, allTies bool, limitMode uint8) {
		diffRowScan(t, seed, int(rows)%300, allTies, limitMode)
	})
}

// TestRowScanVsReferenceSweep runs the differential trial over a fixed
// range of seeds, so that a plain `go test` walks it too.
func TestRowScanVsReferenceSweep(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		diffRowScan(t, seed, int(seed*53%300), seed%7 == 0, uint8(seed))
	}
}

// diffRowScan is one differential trial.
func diffRowScan(t *testing.T, seed int64, rows int, allTies bool, limitMode uint8) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tbl := rowScanTable(rng, rows, allTies)
	fields := [][]string{{"k"}, {"k", "u"}, {"i", "s", "u"}, {"u"}, {"s", "k", "i"}}[rng.Intn(5)]
	if allTies {
		fields = []string{"u"}
	}
	opts := colstore.Options{
		PartitionFields: fields, MaxChunkRows: 1 + rng.Intn(40), OptimizeElements: true,
		StringDict: []colstore.StringDictKind{colstore.StringDictArray, colstore.StringDictTrie}[rng.Intn(2)],
	}
	resident, err := colstore.FromTable(tbl, opts)
	if err != nil {
		t.Fatal(err)
	}
	q := randomRowScan(rng, rows, limitMode)
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	want, werr := refRowScan(resident, stmt)

	check := func(name string, res *Result, err error) {
		t.Helper()
		if (err != nil) != (werr != nil) {
			t.Fatalf("%s %s: error %v, reference error %v", name, q, err, werr)
		}
		if err != nil {
			return
		}
		if len(res.Rows) != len(want) {
			t.Fatalf("%s %s: %d rows, reference %d\ngot  %v\nwant %v", name, q, len(res.Rows), len(want), res.Rows, want)
		}
		for i := range want {
			if !slices.EqualFunc(res.Rows[i], want[i], sameBits) {
				t.Fatalf("%s %s: row %d is %v, reference %v", name, q, i, res.Rows[i], want[i])
			}
		}
		st := res.Stats
		if st.ChunksSkipped+st.ChunksCached+st.ChunksScanned != st.ChunksTotal ||
			st.RowsSkipped+st.RowsCached+st.RowsScanned != int64(resident.NumRows()) {
			t.Fatalf("%s %s: splits do not sum: %+v", name, q, st)
		}
	}
	// run answers q on a fresh engine at each parallelism, and requires
	// the same counters of every one.
	run := func(name string, store func() *colstore.Store, par ...int) {
		t.Helper()
		var first *QueryStats
		for _, p := range par {
			res, err := New(store(), Options{Parallelism: p}).Run(stmt)
			check(fmt.Sprintf("%s p%d", name, p), res, err)
			if err != nil {
				continue
			}
			if first == nil {
				first = &res.Stats
			} else if !reflect.DeepEqual(*first, res.Stats) {
				t.Fatalf("%s %s: counters differ across parallelism:\n%+v\n%+v", name, q, *first, res.Stats)
			}
		}
	}
	run("resident", func() *colstore.Store { return resident }, 1, 3)

	dir := t.TempDir()
	if err := colstore.Save(resident, dir, []string{"", "zippy"}[rng.Intn(2)]); err != nil {
		t.Fatal(err)
	}
	budget := int64(-1)
	for _, name := range resident.Columns() {
		m, err := resident.MemoryFor(name)
		if err != nil {
			t.Fatal(err)
		}
		if budget < 0 || m.Total() < budget {
			budget = m.Total()
		}
	}
	run("lazy", func() *colstore.Store {
		s, _, err := colstore.OpenLazy(dir, memmgr.New(max(budget/2, 1), ""))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}, 1, 4)
}

// rowScanTable is a small table of ties: k, s, i and f take a few values
// each, c one, and u a different one per row. With allTies every column
// but u is constant, and u alone splits the table into chunks.
func rowScanTable(rng *rand.Rand, rows int, allTies bool) *table.Table {
	k, s := make([]string, rows), make([]string, rows)
	i, u, c := make([]int64, rows), make([]int64, rows), make([]int64, rows)
	f := make([]float64, rows)
	perm := rng.Perm(rows)
	for r := 0; r < rows; r++ {
		k[r], s[r], i[r], u[r], c[r], f[r] = "k", "a", 1, int64(perm[r]), 7, 0.5
		if allTies {
			continue
		}
		k[r] = string(rune('a' + rng.Intn(3)))
		s[r] = string(rune('a' + rng.Intn(1+rng.Intn(6))))
		i[r] = int64(rng.Intn(8) - 3)
		f[r] = float64(rng.Intn(5))/2 - 1
	}
	return table.New("data").AddStringColumn("k", k).AddStringColumn("s", s).
		AddInt64Column("i", i).AddInt64Column("u", u).AddInt64Column("c", c).AddFloat64Column("f", f)
}

// randomRowScan assembles a row scan over rowScanTable's columns.
func randomRowScan(rng *rand.Rand, rows int, limitMode uint8) string {
	cols := []string{"k", "s", "i", "u", "c", "f"}
	rng.Shuffle(len(cols), func(a, b int) { cols[a], cols[b] = cols[b], cols[a] })
	proj := cols[:1+rng.Intn(5)]
	var b strings.Builder
	b.WriteString("SELECT " + strings.Join(proj, ", ") + " FROM data")
	if w := randomRowScanWhere(rng, rng.Intn(4)); w != "" {
		b.WriteString(" WHERE " + w)
	}
	if n := rng.Intn(4); n > 0 {
		keys := slices.Clone(proj)
		rng.Shuffle(len(keys), func(a, b int) { keys[a], keys[b] = keys[b], keys[a] })
		keys = keys[:min(n, len(keys))]
		if rng.Intn(12) == 0 {
			keys[rng.Intn(len(keys))] = cols[len(cols)-1] // maybe not projected
		}
		for j, key := range keys {
			keys[j] = key + []string{"", " ASC", " DESC"}[rng.Intn(3)]
		}
		b.WriteString(" ORDER BY " + strings.Join(keys, ", "))
	}
	switch limitMode % 5 {
	case 1:
		b.WriteString(" LIMIT 0")
	case 2:
		b.WriteString(" LIMIT 1")
	case 3:
		fmt.Fprintf(&b, " LIMIT %d", 2+rng.Intn(10))
	case 4:
		fmt.Fprintf(&b, " LIMIT %d", rows+rng.Intn(3))
	}
	return b.String() + ";"
}

// randomRowScanWhere is a restriction of n leaves — IN, ranges and row
// predicates — under AND, OR and NOT.
func randomRowScanWhere(rng *rand.Rand, n int) string {
	if n == 0 {
		return ""
	}
	if n > 1 {
		l := 1 + rng.Intn(n-1)
		op := []string{" AND ", " OR "}[rng.Intn(2)]
		return "(" + randomRowScanWhere(rng, l) + op + randomRowScanWhere(rng, n-l) + ")"
	}
	var leaf string
	switch rng.Intn(7) {
	case 0:
		leaf = fmt.Sprintf(`s IN ("%c", "%c")`, 'a'+rng.Intn(6), 'a'+rng.Intn(6))
	case 1:
		leaf = fmt.Sprintf("i IN (%d, %d)", rng.Intn(8)-3, rng.Intn(8)-3)
	case 2:
		leaf = fmt.Sprintf("i %s %d", []string{"<", "<=", ">", ">="}[rng.Intn(4)], rng.Intn(8)-3)
	case 3:
		leaf = fmt.Sprintf("u < %d", rng.Intn(300))
	case 4:
		leaf = fmt.Sprintf("f >= %g", float64(rng.Intn(5))/2-1)
	case 5:
		leaf = "i < u" // a predicate field
	default:
		leaf = "s != k" // a predicate field
	}
	if rng.Intn(5) == 0 {
		return "NOT " + leaf
	}
	return leaf
}

// refRowScan answers a row scan by reading store row by row, in its row
// order: every row WHERE keeps (naiveGroups), projected, stably sorted by
// the ORDER BY keys — each of which must name a select item, by alias or
// by its expression — and cut at the LIMIT.
func refRowScan(store *colstore.Store, stmt *sql.SelectStmt) ([][]value.Value, error) {
	keys := make([]int, len(stmt.OrderBy))
	for k, o := range stmt.OrderBy {
		keys[k] = -1
		for i, item := range stmt.Items {
			if item.Alias == o.Expr.String() || item.Expr.String() == o.Expr.String() {
				keys[k] = i
				break
			}
		}
		if keys[k] < 0 {
			return nil, fmt.Errorf("reference: ORDER BY %s names no output column", o.Expr)
		}
	}
	var chunkOf, rowOf []int
	for ci := 0; ci < store.NumChunks(); ci++ {
		for r := 0; r < store.ChunkRows(ci); r++ {
			chunkOf, rowOf = append(chunkOf, ci), append(rowOf, r)
		}
	}
	row := &refStoreRow{store: store, cols: map[string]*colstore.Column{}}
	rowAt := func(i int) expr.Row {
		row.ci, row.r = chunkOf[i], rowOf[i]
		return row
	}
	groups, err := naiveGroups(stmt, len(chunkOf), rowAt)
	if err != nil {
		return nil, err
	}
	var out [][]value.Value
	for _, g := range groups {
		for _, i := range g.rows {
			vals := make([]value.Value, len(stmt.Items))
			for j, item := range stmt.Items {
				if vals[j], err = expr.Eval(item.Expr, rowAt(i)); err != nil {
					return nil, err
				}
			}
			out = append(out, vals)
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		for k, col := range keys {
			if c := out[a][col].Compare(out[b][col]); c != 0 {
				return (c < 0) != stmt.OrderBy[k].Desc
			}
		}
		return false
	})
	if stmt.Limit >= 0 && len(out) > stmt.Limit {
		out = out[:stmt.Limit]
	}
	return out, nil
}
