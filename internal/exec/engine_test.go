package exec

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"powerdrill/internal/colstore"
	"powerdrill/internal/expr"
	"powerdrill/internal/memmgr"
	"powerdrill/internal/sql"
	"powerdrill/internal/table"
	"powerdrill/internal/value"
	"powerdrill/internal/workload"
)

// query parses src and runs it on e.
func query(e *Engine, src string) (*Result, error) {
	stmt, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	return e.RunContext(context.Background(), stmt)
}

func logs(rows int) *table.Table {
	return workload.QueryLogs(workload.LogsSpec{Rows: rows, Seed: 31})
}

func buildEngine(t testing.TB, tbl *table.Table, opts colstore.Options, eopts Options) *Engine {
	t.Helper()
	s, err := colstore.FromTable(tbl, opts)
	if err != nil {
		t.Fatal(err)
	}
	return New(s, eopts)
}

func chunkedOpts() colstore.Options {
	return colstore.Options{
		PartitionFields:  []string{"country", "table_name"},
		MaxChunkRows:     500,
		OptimizeElements: true,
	}
}

// naiveRun evaluates a statement row-by-row over the raw table — the
// reference the engine must agree with.
func naiveRun(t *testing.T, tbl *table.Table, src string) [][]value.Value {
	t.Helper()
	stmt, err := sql.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	rowAt := func(i int) expr.Row {
		m := expr.MapRow{}
		for _, c := range tbl.Cols {
			m[c.Name] = c.Value(i)
		}
		return m
	}
	groups, err := naiveGroups(stmt, tbl.NumRows(), rowAt)
	if err != nil {
		t.Fatalf("naive %q: %v", src, err)
	}
	hasAgg := false
	for _, item := range stmt.Items {
		if sql.HasAggregate(item.Expr) {
			hasAgg = true
		}
	}
	var out [][]value.Value
	for _, g := range groups {
		if !hasAgg && len(stmt.GroupBy) == 0 {
			// Plain projection: the one group holds the selected rows.
			for _, r := range g.rows {
				var vals []value.Value
				for _, item := range stmt.Items {
					v, err := expr.Eval(item.Expr, rowAt(r))
					if err != nil {
						t.Fatalf("naive eval: %v", err)
					}
					vals = append(vals, v)
				}
				out = append(out, vals)
			}
			continue
		}
		var vals []value.Value
		for _, item := range stmt.Items {
			if !sql.HasAggregate(item.Expr) {
				v, err := expr.Eval(naiveResolve(stmt, item.Expr), rowAt(g.rows[0]))
				if err != nil {
					t.Fatalf("naive key eval: %v", err)
				}
				vals = append(vals, v)
				continue
			}
			call := item.Expr.(*sql.Call)
			vals = append(vals, naiveAgg(t, call, g.rows, rowAt))
		}
		out = append(out, vals)
	}
	return applyNaiveOrderLimit(t, stmt, out)
}

// naiveGroup is a group of selected rows: its GROUP BY values and its rows,
// ascending.
type naiveGroup struct {
	keys []value.Value
	rows []int
}

// naiveGroups selects the rows i < n, read through rowAt, that satisfy
// stmt's WHERE clause (rowMatches) and groups them by its GROUP BY
// expressions, groups in the order their first rows come. Without GROUP BY
// every selected row is in one group; with no row selected there is none.
// The error is the first a comparison in WHERE raised, which read as false
// there, or the first a GROUP BY expression raised.
func naiveGroups(stmt *sql.SelectStmt, n int, rowAt func(int) expr.Row) ([]*naiveGroup, error) {
	var groups []*naiveGroup
	index := map[string]*naiveGroup{}
	var first error
	for i := 0; i < n; i++ {
		row := rowAt(i)
		if stmt.Where != nil {
			ok, err := rowMatches(stmt.Where, row)
			if first == nil {
				first = err
			}
			if !ok {
				continue
			}
		}
		keys := make([]value.Value, len(stmt.GroupBy))
		for k, g := range stmt.GroupBy {
			v, err := expr.Eval(naiveResolve(stmt, g), row)
			if err != nil {
				return nil, err
			}
			keys[k] = v
		}
		k := refKeyString(keys)
		g := index[k]
		if g == nil {
			g = &naiveGroup{keys: keys}
			index[k] = g
			groups = append(groups, g)
		}
		g.rows = append(g.rows, i)
	}
	return groups, first
}

// naiveResolve maps a GROUP BY expression that names a select item's alias
// to the item's expression.
func naiveResolve(stmt *sql.SelectStmt, g sql.Expr) sql.Expr {
	if id, ok := g.(*sql.Ident); ok {
		for _, item := range stmt.Items {
			if item.Alias == id.Name && !sql.HasAggregate(item.Expr) {
				return item.Expr
			}
		}
	}
	return g
}

// rowMatches decides where for one row as a restriction tree decides it:
// AND, OR and NOT fold their operands' verdicts, and every comparison is
// evaluated, so that one that fails is reported whichever way the others
// decide the row. A failing comparison reads as false; the error returned
// is the first.
func rowMatches(where sql.Expr, row expr.Row) (bool, error) {
	switch n := where.(type) {
	case *sql.Binary:
		if n.Op == sql.OpAnd || n.Op == sql.OpOr {
			l, lerr := rowMatches(n.L, row)
			r, rerr := rowMatches(n.R, row)
			if lerr == nil {
				lerr = rerr
			}
			if n.Op == sql.OpAnd {
				return l && r, lerr
			}
			return l || r, lerr
		}
	case *sql.Not:
		ok, err := rowMatches(n.X, row)
		return !ok, err
	}
	ok, err := expr.EvalPred(where, row)
	return ok && err == nil, err
}

func naiveAgg(t *testing.T, call *sql.Call, rows []int, rowAt func(int) expr.Row) value.Value {
	t.Helper()
	name := strings.ToLower(call.Name)
	if call.Star {
		return value.Int64(int64(len(rows)))
	}
	var vals []value.Value
	for _, r := range rows {
		v, err := expr.Eval(call.Args[0], rowAt(r))
		if err != nil {
			t.Fatalf("naive agg eval: %v", err)
		}
		vals = append(vals, v)
	}
	switch name {
	case "count":
		if call.Distinct {
			set := map[string]bool{}
			for _, v := range vals {
				set[v.String()] = true
			}
			return value.Int64(int64(len(set)))
		}
		return value.Int64(int64(len(vals)))
	case "sum":
		if vals[0].Kind() == value.KindInt64 {
			var s int64
			for _, v := range vals {
				s += v.Int()
			}
			return value.Int64(s)
		}
		var s float64
		for _, v := range vals {
			s += v.AsFloat()
		}
		return value.Float64(s)
	case "avg":
		var s float64
		for _, v := range vals {
			s += v.AsFloat()
		}
		return value.Float64(s / float64(len(vals)))
	case "min", "max":
		best := vals[0]
		for _, v := range vals[1:] {
			c := v.Compare(best)
			if (name == "min" && c < 0) || (name == "max" && c > 0) {
				best = v
			}
		}
		return best
	}
	t.Fatalf("naive agg: unknown %q", name)
	return value.Value{}
}

func applyNaiveOrderLimit(t *testing.T, stmt *sql.SelectStmt, rows [][]value.Value) [][]value.Value {
	t.Helper()
	if len(stmt.OrderBy) > 0 {
		cols := map[string]int{}
		for i, item := range stmt.Items {
			if item.Alias != "" {
				cols[item.Alias] = i
			}
			cols[item.Expr.String()] = i
		}
		keys := make([]int, len(stmt.OrderBy))
		for i, o := range stmt.OrderBy {
			idx, ok := cols[o.Expr.String()]
			if !ok {
				t.Fatalf("naive order: %s unresolved", o.Expr)
			}
			keys[i] = idx
		}
		sort.SliceStable(rows, func(a, b int) bool {
			for i, k := range keys {
				c := rows[a][k].Compare(rows[b][k])
				if c == 0 {
					continue
				}
				if stmt.OrderBy[i].Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	if stmt.Limit >= 0 && len(rows) > stmt.Limit {
		rows = rows[:stmt.Limit]
	}
	return rows
}

// sortRows canonicalizes row order for unordered comparison.
func sortRows(rows [][]value.Value) {
	sort.Slice(rows, func(a, b int) bool {
		for i := range rows[a] {
			if c := rows[a][i].Compare(rows[b][i]); c != 0 {
				return c < 0
			}
		}
		return false
	})
}

// equalRows compares row sets with float tolerance.
func equalRows(a, b [][]value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			av, bv := a[i][j], b[i][j]
			if av.Kind() == value.KindFloat64 && bv.Kind() == value.KindFloat64 {
				af, bf := av.Float(), bv.Float()
				scale := math.Max(math.Abs(af), math.Abs(bf))
				if math.Abs(af-bf) > 1e-9*math.Max(scale, 1) {
					return false
				}
				continue
			}
			if !av.Equal(bv) {
				return false
			}
		}
	}
	return true
}

// checkAgainstNaive runs src on the engine and on the reference and
// compares. Queries with ORDER BY may tie arbitrarily, so comparison is
// done on the sorted row sets unless the query has a LIMIT (where ties cut
// differently); such queries should order deterministically.
func checkAgainstNaive(t *testing.T, e *Engine, tbl *table.Table, src string) {
	t.Helper()
	got, err := query(e, src)
	if err != nil {
		t.Fatalf("engine %q: %v", src, err)
	}
	want := naiveRun(t, tbl, src)
	g := append([][]value.Value{}, got.Rows...)
	w := append([][]value.Value{}, want...)
	sortRows(g)
	sortRows(w)
	if !equalRows(g, w) {
		t.Fatalf("query %q:\n got %d rows: %v\nwant %d rows: %v", src, len(g), render(g), len(w), render(w))
	}
}

func render(rows [][]value.Value) string {
	var b strings.Builder
	for i, r := range rows {
		if i >= 10 {
			fmt.Fprintf(&b, " …(%d more)", len(rows)-10)
			break
		}
		b.WriteString("[")
		for j, v := range r {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(v.String())
		}
		b.WriteString("] ")
	}
	return b.String()
}

// queryCorpus are the statements the engine must agree with the reference
// on. They cover every operator, aggregate and clause of the subset.
func queryCorpus() []string {
	return []string{
		// The three paper queries (Section 2.5).
		`SELECT country, COUNT(*) as c FROM data GROUP BY country ORDER BY c DESC, country ASC LIMIT 10;`,
		`SELECT date(timestamp) as d, COUNT(*), SUM(latency) FROM data GROUP BY d ORDER BY d ASC LIMIT 10;`,
		`SELECT table_name, COUNT(*) as c FROM data GROUP BY table_name ORDER BY c DESC, table_name ASC LIMIT 10;`,
		// The Section 2.4 example shape.
		`SELECT country, COUNT(*) as c FROM data WHERE country IN ("de", "fr") GROUP BY country ORDER BY c DESC LIMIT 10;`,
		// Operators.
		`SELECT country, COUNT(*) FROM data WHERE country = "us" GROUP BY country;`,
		`SELECT country, COUNT(*) FROM data WHERE country != "us" GROUP BY country;`,
		`SELECT country, COUNT(*) FROM data WHERE country NOT IN ("us", "de", "gb") GROUP BY country;`,
		`SELECT country, COUNT(*) FROM data WHERE NOT country = "us" AND latency > 500 GROUP BY country;`,
		`SELECT country, COUNT(*) FROM data WHERE country = "us" OR country = "jp" GROUP BY country;`,
		`SELECT country, COUNT(*) FROM data WHERE latency >= 100 AND latency < 2000 GROUP BY country;`,
		`SELECT country, COUNT(*) FROM data WHERE latency <= 50 OR latency > 5000 GROUP BY country;`,
		`SELECT country, COUNT(*) FROM data WHERE latency > 100.5 GROUP BY country;`,
		`SELECT country, COUNT(*) FROM data WHERE latency = 105 GROUP BY country;`,
		// Virtual-field restriction (Section 5).
		`SELECT country, COUNT(*) FROM data WHERE date(timestamp) IN ("2011-01-02", "2011-01-03") GROUP BY country;`,
		`SELECT year(timestamp), month(timestamp), COUNT(*) FROM data GROUP BY year(timestamp), month(timestamp);`,
		// Aggregates.
		`SELECT country, SUM(latency), MIN(latency), MAX(latency), AVG(latency) FROM data GROUP BY country;`,
		`SELECT user, MIN(table_name), MAX(table_name) FROM data GROUP BY user;`,
		`SELECT COUNT(*) FROM data;`,
		`SELECT COUNT(*), SUM(latency) FROM data WHERE country IN ("de");`,
		// Multi-column group-by.
		`SELECT country, user, COUNT(*) FROM data GROUP BY country, user;`,
		`SELECT country, date(timestamp) as d, SUM(latency) FROM data WHERE country IN ("us", "de") GROUP BY country, d;`,
		// Row scans.
		`SELECT country, latency FROM data WHERE latency > 9000;`,
		`SELECT table_name FROM data WHERE country = "at" AND latency < 20;`,
		// Arithmetic in aggregates and group keys.
		`SELECT country, SUM(latency * 2) FROM data GROUP BY country;`,
		`SELECT length(country), COUNT(*) FROM data GROUP BY length(country);`,
	}
}

func TestEngineAgainstNaiveAllVariants(t *testing.T) {
	tbl := logs(2000)
	layouts := map[string]colstore.Options{
		"basic":   {},
		"chunked": chunkedOpts(),
		"reorder": {PartitionFields: []string{"country", "table_name"}, MaxChunkRows: 300,
			OptimizeElements: true, StringDict: colstore.StringDictTrie, Reorder: true},
	}
	for lname, lopts := range layouts {
		e := buildEngine(t, tbl, lopts, Options{ExactDistinct: true})
		t.Run(lname, func(t *testing.T) {
			for _, q := range queryCorpus() {
				checkAgainstNaive(t, e, tbl, q)
			}
		})
	}
}

func TestEngineSkippingDisabledSameResults(t *testing.T) {
	tbl := logs(1500)
	normal := buildEngine(t, tbl, chunkedOpts(), Options{})
	noskip := buildEngine(t, tbl, chunkedOpts(), Options{DisableSkipping: true})
	q := `SELECT country, COUNT(*) as c FROM data WHERE country IN ("de") GROUP BY country;`
	a, err := query(normal, q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := query(noskip, q)
	if err != nil {
		t.Fatal(err)
	}
	sortRows(a.Rows)
	sortRows(b.Rows)
	if !equalRows(a.Rows, b.Rows) {
		t.Fatal("skipping changed results")
	}
	if a.Stats.ChunksSkipped == 0 {
		t.Error("selective query skipped nothing")
	}
	if b.Stats.ChunksSkipped != 0 {
		t.Error("disabled skipping still skipped")
	}
	if b.Stats.RowsScanned <= a.Stats.RowsScanned {
		t.Errorf("skipping did not reduce scanned rows: %d vs %d", a.Stats.RowsScanned, b.Stats.RowsScanned)
	}
}

func TestSkippingStatsOnDrillDown(t *testing.T) {
	tbl := logs(5000)
	e := buildEngine(t, tbl, chunkedOpts(), Options{})
	// Restricting on the first partition field must skip most chunks.
	res, err := query(e, `SELECT user, COUNT(*) FROM data WHERE country IN ("at") GROUP BY user;`)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.ChunksSkipped == 0 || st.ChunksSkipped+st.ChunksScanned+st.ChunksCached != st.ChunksTotal {
		t.Errorf("stats inconsistent: %+v", st)
	}
	frac := float64(st.ChunksSkipped) / float64(st.ChunksTotal)
	if frac < 0.5 {
		t.Errorf("only %.0f%% chunks skipped for a rare country", frac*100)
	}
	if st.CellsScanned >= st.CellsCovered {
		t.Errorf("cells scanned %d not below covered %d", st.CellsScanned, st.CellsCovered)
	}
}

func TestResultCacheHitsOnFullyActiveChunks(t *testing.T) {
	tbl := logs(3000)
	e := buildEngine(t, tbl, chunkedOpts(), Options{ResultCacheBytes: 16 << 20})
	q := `SELECT country, COUNT(*) FROM data GROUP BY country;`
	first, err := query(e, q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.ChunksCached != 0 {
		t.Error("first run hit cache")
	}
	second, err := query(e, q)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.ChunksCached != second.Stats.ChunksTotal {
		t.Errorf("second run cached %d/%d chunks", second.Stats.ChunksCached, second.Stats.ChunksTotal)
	}
	sortRows(first.Rows)
	sortRows(second.Rows)
	if !equalRows(first.Rows, second.Rows) {
		t.Error("cached results differ")
	}
	// A restricted query over fully-active chunks reuses the same cache
	// entries: a restriction on a partition-field value makes matching
	// chunks fully active.
	res, err := query(e, `SELECT country, COUNT(*) FROM data WHERE country IN ("us") GROUP BY country;`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ChunksCached == 0 {
		t.Log("note: no fully-active chunk reuse for restricted query (acceptable if few us-only chunks)")
	}
}

func TestCountDistinctApproximation(t *testing.T) {
	tbl := logs(20_000)
	exact := buildEngine(t, tbl, chunkedOpts(), Options{ExactDistinct: true})
	approx := buildEngine(t, tbl, chunkedOpts(), Options{SketchM: 2048})
	q := `SELECT COUNT(DISTINCT table_name) FROM data;`
	er, err := query(exact, q)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := query(approx, q)
	if err != nil {
		t.Fatal(err)
	}
	ev, av := float64(er.Rows[0][0].Int()), float64(ar.Rows[0][0].Int())
	if ev == 0 {
		t.Fatal("exact distinct is zero")
	}
	rel := math.Abs(ev-av) / ev
	t.Logf("count distinct: exact=%v approx=%v rel=%.4f", ev, av, rel)
	if rel > 0.15 {
		t.Errorf("approximation error %.3f too large", rel)
	}
	// Grouped count distinct.
	gq := `SELECT country, COUNT(DISTINCT user) FROM data GROUP BY country;`
	eg, err := query(exact, gq)
	if err != nil {
		t.Fatal(err)
	}
	ag, err := query(approx, gq)
	if err != nil {
		t.Fatal(err)
	}
	// Per-country user counts are far below m, so the sketch is exact.
	sortRows(eg.Rows)
	sortRows(ag.Rows)
	if !equalRows(eg.Rows, ag.Rows) {
		t.Error("grouped count distinct below m should be exact")
	}
}

func TestVirtualFieldReuse(t *testing.T) {
	tbl := logs(1000)
	e := buildEngine(t, tbl, chunkedOpts(), Options{})
	before := len(e.Store().Columns())
	if _, err := query(e, `SELECT date(timestamp), COUNT(*) FROM data GROUP BY date(timestamp);`); err != nil {
		t.Fatal(err)
	}
	afterFirst := len(e.Store().Columns())
	if afterFirst != before+1 {
		t.Fatalf("expected one virtual column, got %d new", afterFirst-before)
	}
	if _, err := query(e, `SELECT date(timestamp), SUM(latency) FROM data GROUP BY date(timestamp);`); err != nil {
		t.Fatal(err)
	}
	if got := len(e.Store().Columns()); got != afterFirst {
		t.Errorf("second query added %d columns; virtual field not reused", got-afterFirst)
	}
	col := e.Store().Column("date(timestamp)")
	if col == nil || !col.Virtual {
		t.Fatal("virtual column missing or unflagged")
	}
}

func TestVirtualFieldSkipping(t *testing.T) {
	tbl := logs(5000)
	// Partition by timestamp so date restrictions align with chunks.
	e := buildEngine(t, tbl, colstore.Options{
		PartitionFields:  []string{"timestamp"},
		MaxChunkRows:     200,
		OptimizeElements: true,
	}, Options{})
	res, err := query(e, `SELECT country, COUNT(*) FROM data WHERE date(timestamp) IN ("2011-01-05") GROUP BY country;`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ChunksSkipped == 0 {
		t.Error("restriction on materialized date() skipped nothing despite timestamp partitioning")
	}
}

func TestEngineErrors(t *testing.T) {
	tbl := logs(200)
	e := buildEngine(t, tbl, colstore.Options{}, Options{})
	for _, q := range []string{
		`SELECT nope FROM data;`,
		`SELECT country FROM data GROUP BY country ORDER BY nothere;`,
		`SELECT latency FROM data GROUP BY country;`,
		`SELECT SUM(country) FROM data;`,
		`SELECT AVG(table_name) FROM data;`,
		`SELECT bogus(latency) FROM data;`,
		`SELECT MIN(*) FROM data;`,
		`SELECT country, COUNT(*) FROM data WHERE latency IN ("abc") GROUP BY country;`,
		`not sql at all`,
	} {
		if _, err := query(e, q); err == nil {
			t.Errorf("%q succeeded, want error", q)
		}
	}
}

func TestCumulativeStats(t *testing.T) {
	tbl := logs(1000)
	e := buildEngine(t, tbl, chunkedOpts(), Options{})
	for i := 0; i < 3; i++ {
		if _, err := query(e, `SELECT country, COUNT(*) FROM data GROUP BY country;`); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Queries != 3 {
		t.Errorf("Queries = %d", st.Queries)
	}
	if st.ChunksTotal == 0 || st.RowsTotal != 3000 {
		t.Errorf("stats = %+v", st)
	}
}

func TestMinMaxOverStrings(t *testing.T) {
	tbl := logs(500)
	e := buildEngine(t, tbl, chunkedOpts(), Options{})
	res, err := query(e, `SELECT MIN(country), MAX(country) FROM data;`)
	if err != nil {
		t.Fatal(err)
	}
	min, max := res.Rows[0][0].Str(), res.Rows[0][1].Str()
	counts := map[string]bool{}
	for _, c := range tbl.Column("country").Strs {
		counts[c] = true
	}
	for c := range counts {
		if c < min || c > max {
			t.Errorf("country %q outside [%q, %q]", c, min, max)
		}
	}
}

func TestEmptyResultQueries(t *testing.T) {
	tbl := logs(300)
	e := buildEngine(t, tbl, chunkedOpts(), Options{})
	res, err := query(e, `SELECT country, COUNT(*) FROM data WHERE country IN ("zz") GROUP BY country;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("got %d rows for impossible restriction", len(res.Rows))
	}
	if res.Stats.ChunksSkipped != res.Stats.ChunksTotal {
		t.Errorf("impossible restriction scanned chunks: %+v", res.Stats)
	}
	// Global aggregate over empty selection.
	res2, err := query(e, `SELECT COUNT(*) FROM data WHERE country IN ("zz");`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != 0 {
		// A global COUNT over nothing legitimately yields no groups in
		// this engine (PowerDrill's UI never issues ungrouped queries);
		// document the behaviour rather than assert SQL semantics.
		t.Logf("global count over empty selection: %d rows", len(res2.Rows))
	}
}

func BenchmarkQuery1CountsArray(b *testing.B) {
	tbl := logs(100_000)
	e := buildEngine(b, tbl, colstore.Options{OptimizeElements: true}, Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query(e, `SELECT country, COUNT(*) as c FROM data GROUP BY country ORDER BY c DESC LIMIT 10;`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrepare times a chart's fixed cost before its first row is
// scanned — compile, prune, pin, release; parse excluded — for the click's
// three-conjunct restriction on a warm resident and a warm lazy store.
func BenchmarkPrepare(b *testing.B) {
	dir := savedReorderedStore(b, 100_000, "")
	resident, _, err := colstore.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	lazy, _, err := colstore.OpenLazy(dir, memmgr.New(1<<30, ""))
	if err != nil {
		b.Fatal(err)
	}
	in := func(col string) string { // the column's three smallest values
		d := resident.Column(col).Dict
		return fmt.Sprintf("%s IN (%q, %q, %q)", col, d.Value(0).Str(), d.Value(1).Str(), d.Value(2).Str())
	}
	stmt, err := sql.Parse(`SELECT user AS k, COUNT(*) AS v FROM data WHERE ` + in("country") + ` AND ` + in("user") +
		` AND ` + in("table_name") + ` GROUP BY k ORDER BY v DESC, k ASC LIMIT 10;`)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		store *colstore.Store
	}{{"resident", resident}, {"lazy", lazy}} {
		b.Run(c.name, func(b *testing.B) {
			e := New(c.store, Options{})
			if _, err := e.Run(stmt); err != nil { // warm the store
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ps := c.store.NewPinSet()
				if _, err := e.prepare(context.Background(), stmt, ps); err != nil {
					b.Fatal(err)
				}
				ps.Release()
			}
		})
	}
}

func BenchmarkDrillDownWithSkipping(b *testing.B) {
	tbl := logs(100_000)
	e := buildEngine(b, tbl, colstore.Options{
		PartitionFields:  []string{"country", "table_name"},
		MaxChunkRows:     5000,
		OptimizeElements: true,
	}, Options{ResultCacheBytes: 64 << 20})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query(e, `SELECT user, COUNT(*) as c FROM data WHERE country IN ("ch") GROUP BY user ORDER BY c DESC LIMIT 10;`); err != nil {
			b.Fatal(err)
		}
	}
}
