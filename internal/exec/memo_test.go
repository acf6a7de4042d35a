package exec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"powerdrill/internal/colstore"
	"powerdrill/internal/memmgr"
	"powerdrill/internal/table"
	"powerdrill/internal/value"
	"powerdrill/internal/workload"
)

// memoGroupBys are the group-bys the memo tests cross their restrictions
// with: one key, a virtual key, two keys, and a global aggregate, over
// every aggregate.
var memoGroupBys = []string{
	`SELECT country, COUNT(*) AS c, SUM(latency) AS s FROM data%s GROUP BY country ORDER BY c DESC, country ASC;`,
	`SELECT user, MIN(latency) AS lo, MAX(latency) AS hi, AVG(latency) AS a FROM data%s GROUP BY user ORDER BY lo ASC, user ASC LIMIT 20;`,
	`SELECT date(timestamp) AS d, COUNT(DISTINCT user) AS u FROM data%s GROUP BY d ORDER BY d ASC;`,
	`SELECT country, table_name, COUNT(*) AS c FROM data%s GROUP BY country, table_name ORDER BY c DESC, country ASC, table_name ASC LIMIT 15;`,
	`SELECT COUNT(*) AS n, SUM(latency) AS s, MAX(table_name) AS t FROM data%s;`,
}

// memoWheres draws n restrictions from the table's own values: IN, NOT
// IN, =, != and ranges under AND, OR and NOT, a date(timestamp) leaf, a
// comparison of two expressions (a predicate field), literals no row
// holds, and literals of the other numeric kind.
func memoWheres(tbl *table.Table, dates []string, seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	pick := func(vals []string) string {
		if rng.Intn(8) == 0 {
			return `"absent"`
		}
		return fmt.Sprintf("%q", vals[rng.Intn(len(vals))])
	}
	list := func(vals []string) string {
		items := make([]string, 1+rng.Intn(4))
		for i := range items {
			items[i] = pick(vals)
		}
		return strings.Join(items, ", ")
	}
	countries, users, names := tbl.Column("country").Strs, tbl.Column("user").Strs, tbl.Column("table_name").Strs
	latencies := tbl.Column("latency").Ints
	var leaf func() string
	leaf = func() string {
		switch rng.Intn(12) {
		case 0:
			return "country IN (" + list(countries) + ")"
		case 1:
			return "user NOT IN (" + list(users) + ")"
		case 2:
			return "table_name IN (" + list(names) + ")"
		case 3:
			return "country = " + pick(countries)
		case 4:
			return "user != " + pick(users)
		case 5:
			return fmt.Sprintf("latency %s %d", []string{"<", "<=", ">", ">="}[rng.Intn(4)], latencies[rng.Intn(len(latencies))])
		case 6:
			return fmt.Sprintf("latency = %d.0", latencies[rng.Intn(len(latencies))])
		case 7:
			return fmt.Sprintf("latency > %d.5", latencies[rng.Intn(len(latencies))])
		case 8:
			return "date(timestamp) " + []string{"=", "<", ">="}[rng.Intn(3)] + " " + pick(dates)
		case 9:
			return fmt.Sprintf("latency IN (%d, 123456789, 7.5)", latencies[rng.Intn(len(latencies))])
		case 10:
			return fmt.Sprintf("latency * 2 > timestamp - timestamp + %d", latencies[rng.Intn(len(latencies))])
		default:
			return "NOT " + leaf()
		}
	}
	var where func(depth int) string
	where = func(depth int) string {
		if depth == 0 || rng.Intn(3) == 0 {
			return leaf()
		}
		op := []string{" AND ", " OR "}[rng.Intn(2)]
		w := "(" + where(depth-1) + op + where(depth-1) + ")"
		if rng.Intn(4) == 0 {
			w = "NOT " + w
		}
		return w
	}
	out := make([]string, n)
	for i := range out {
		out[i] = " WHERE " + where(3)
	}
	return out
}

// memoDates lists the values of date(timestamp).
func memoDates(t *testing.T, e *Engine) []string {
	t.Helper()
	res, err := query(e, `SELECT date(timestamp) AS d, COUNT(*) FROM data GROUP BY d;`)
	if err != nil {
		t.Fatal(err)
	}
	var dates []string
	for _, row := range res.Rows {
		dates = append(dates, row[0].Str())
	}
	return dates
}

// exactRows renders a result's columns and rows, floats by their bits.
func exactRows(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v\n", res.Columns)
	for _, row := range res.Rows {
		for _, v := range row {
			if v.Kind() == value.KindFloat64 {
				fmt.Fprintf(&b, "f%x|", math.Float64bits(v.Float()))
			} else {
				fmt.Fprintf(&b, "%v:%v|", v.Kind(), v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// memoStats is what a memo hit must not change of a query's counters: all
// of them but the cold loads, which fall when fewer columns are pinned,
// and MasksBuilt.
func memoStats(qs QueryStats) QueryStats {
	qs.ColdLoads, qs.ColdChunkLoads, qs.ColdDictLoads, qs.ColdBytesLoaded = 0, 0, 0, 0
	qs.DiskBytesRead, qs.ChecksumVerified, qs.ReadRuns, qs.CoalescedReads = 0, 0, 0, 0
	qs.MasksBuilt = 0
	return qs
}

// requireSameAnswer fails unless two runs of q gave the same rows and,
// but for the cold loads and MasksBuilt, the same counters.
func requireSameAnswer(t *testing.T, what, q string, got, want *Result) {
	t.Helper()
	if g, w := exactRows(got), exactRows(want); g != w {
		t.Fatalf("%s: %s\nrows\n%s\nwant\n%s", what, q, g, w)
	}
	if g, w := memoStats(got.Stats), memoStats(want.Stats); g != w {
		t.Fatalf("%s: %s\nstats %+v\nwant  %+v", what, q, g, w)
	}
}

// TestRestrictionMemoMatchesFreshEngine is the memo's differential test:
// seeded random restrictions crossed with group-bys, each query run twice
// on one engine — a miss, then a hit — and on a twin engine whose memo is
// emptied before every query, so it misses every time with the same
// result-cache history; on engines without a result cache, once more on a
// fresh engine. Rows must be identical bit for bit and counters identical
// but for the cold loads; a hit builds no mask. It runs on a resident
// store, on the same store opened lazily under a 25 % budget, and with the
// result cache on.
func TestRestrictionMemoMatchesFreshEngine(t *testing.T) {
	const rows = 12000
	tbl := workload.QueryLogs(workload.LogsSpec{Rows: rows, Seed: 11})
	dir := savedWorkloadStore(t, rows)
	resident, _, err := colstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	wheres := memoWheres(tbl, memoDates(t, New(resident, Options{})), 47, 40)
	for _, variant := range []string{"resident", "lazy 25%", "result cache"} {
		t.Run(variant, func(t *testing.T) {
			store, opts := resident, Options{Parallelism: 3}
			switch variant {
			case "lazy 25%":
				if store, _, err = colstore.OpenLazy(dir, memmgr.New(residentFootprint(t, resident)/4, "")); err != nil {
					t.Fatal(err)
				}
			case "result cache":
				opts.ResultCacheBytes = 64 << 20
			}
			e, twin := New(store, opts), New(store, opts)
			var misses, hits, masks int64
			for _, w := range wheres {
				for _, gb := range memoGroupBys {
					q := fmt.Sprintf(gb, w)
					var runs, twinRuns [2]*Result
					for i := range runs {
						if runs[i], err = query(e, q); err != nil {
							t.Fatalf("%s: %v", q, err)
						}
						twin.memo.Store(nil)
						if twinRuns[i], err = query(twin, q); err != nil {
							t.Fatalf("twin: %s: %v", q, err)
						}
						requireSameAnswer(t, fmt.Sprintf("run %d against a missing twin", i+1), q, runs[i], twinRuns[i])
					}
					if runs[1].Stats.MasksBuilt != 0 {
						t.Fatalf("%s: the repeat built %d masks, want 0 (a memo hit)", q, runs[1].Stats.MasksBuilt)
					}
					if opts.ResultCacheBytes == 0 {
						fresh, err := query(New(store, opts), q)
						if err != nil {
							t.Fatal(err)
						}
						requireSameAnswer(t, "against a fresh engine", q, runs[0], fresh)
					}
					if twinRuns[0].Stats.MasksBuilt > 0 {
						misses++
					}
					masks += runs[0].Stats.MasksBuilt
					if runs[0].Stats.MasksBuilt == 0 && twinRuns[0].Stats.MasksBuilt > 0 {
						hits++
					}
				}
			}
			t.Logf("%d restrictions × %d group-bys: %d queries masked chunks when missing, %d of them hit on their first run; %d masks built in all", len(wheres), len(memoGroupBys), misses, hits, masks)
			if misses == 0 || hits == 0 {
				t.Fatalf("%d masking queries, %d first-run hits: the restrictions do not exercise the memo", misses, hits)
			}
		})
	}
}

// TestRestrictionMemoConcurrent: eight goroutines run queries sharing one
// restriction on one engine at once — all of them missing, then all of them
// hitting — and every answer equals a fresh sequential engine's.
func TestRestrictionMemoConcurrent(t *testing.T) {
	store, err := colstore.FromTable(logs(8000), chunkedOpts())
	if err != nil {
		t.Fatal(err)
	}
	const where = ` WHERE country IN ("US", "DE", "JP") AND (latency > 300 OR NOT user IN ("user0001", "user0002"))`
	want := make([]*Result, len(memoGroupBys))
	for i, gb := range memoGroupBys {
		if want[i], err = query(New(store, Options{Parallelism: 1}), fmt.Sprintf(gb, where)); err != nil {
			t.Fatal(err)
		}
	}
	e := New(store, Options{Parallelism: 2})
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		results := make([]*Result, 8)
		for g := range results {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := query(e, fmt.Sprintf(memoGroupBys[g%len(memoGroupBys)], where))
				if err != nil {
					errs <- err
				}
				results[g] = res
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		for g, res := range results {
			i := g % len(memoGroupBys)
			requireSameAnswer(t, fmt.Sprintf("round %d, goroutine %d", round, g), memoGroupBys[i], res, want[i])
			if round == 1 && res.Stats.MasksBuilt != 0 {
				t.Errorf("round 2, goroutine %d: %d masks built, want 0", g, res.Stats.MasksBuilt)
			}
		}
	}
}

// TestRestrictionMemoClickMasks counts what the memo saves on one
// restricted click of the click benchmark's shape, on its layout: the 19
// group-by charts share a WHERE clause with a user IN conjunct, and only
// the click's first query builds masks — without the memo every one of the
// 19 builds them all again.
func TestRestrictionMemoClickMasks(t *testing.T) {
	tbl := workload.QueryLogs(workload.LogsSpec{Rows: 50000, Seed: 1})
	store, err := colstore.FromTable(tbl, colstore.Options{PartitionFields: []string{"country", "table_name"}, MaxChunkRows: 2000, OptimizeElements: true})
	if err != nil {
		t.Fatal(err)
	}
	countries, users := tbl.Column("country").Strs, tbl.Column("user").Strs
	where := fmt.Sprintf(` WHERE country IN (%q, %q) AND user IN (%q, %q, %q)`, countries[0], countries[1], users[0], users[1], users[2])
	e := New(store, Options{})
	var first, total int64
	for i, chart := range clickCharts {
		res, err := query(e, fmt.Sprintf(chart, where))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res.Stats.MasksBuilt
		}
		total += res.Stats.MasksBuilt
	}
	t.Logf("%d charts: %d masks built in all, %d by the first", len(clickCharts), total, first)
	if first == 0 || total != first {
		t.Fatalf("%d masks built by the click, %d by its first query: want all of them, and more than 0", total, first)
	}
}

// clickCharts are the click benchmark's 19 group-by charts; %s takes the
// WHERE clause.
var clickCharts = []string{
	"SELECT country AS k, COUNT(*) AS v FROM data%s GROUP BY k ORDER BY v DESC, k ASC LIMIT 10;",
	"SELECT table_name AS k, COUNT(*) AS v FROM data%s GROUP BY k ORDER BY v DESC, k ASC LIMIT 10;",
	"SELECT user AS k, COUNT(*) AS v FROM data%s GROUP BY k ORDER BY v DESC, k ASC LIMIT 10;",
	"SELECT date(timestamp) AS k, COUNT(*) AS v FROM data%s GROUP BY k ORDER BY k ASC LIMIT 400;",
	"SELECT country AS k, SUM(latency) AS v FROM data%s GROUP BY k ORDER BY v DESC, k ASC LIMIT 10;",
	"SELECT date(timestamp) AS k, SUM(latency) AS v FROM data%s GROUP BY k ORDER BY v DESC, k ASC LIMIT 10;",
	"SELECT user AS k, SUM(latency) AS v FROM data%s GROUP BY k ORDER BY v DESC, k ASC LIMIT 10;",
	"SELECT country AS k, AVG(latency) AS v FROM data%s GROUP BY k ORDER BY v DESC, k ASC LIMIT 10;",
	"SELECT table_name AS k, MAX(latency) AS v FROM data%s GROUP BY k ORDER BY v DESC, k ASC LIMIT 10;",
	"SELECT date(timestamp) AS k, MIN(latency) AS v FROM data%s GROUP BY k ORDER BY v ASC, k ASC LIMIT 10;",
	"SELECT user AS k, AVG(latency) AS v FROM data%s GROUP BY k ORDER BY v DESC, k ASC LIMIT 10;",
	"SELECT table_name AS k, AVG(latency) AS v FROM data%s GROUP BY k ORDER BY v DESC, k ASC LIMIT 10;",
	"SELECT country AS k, MAX(latency) AS v FROM data%s GROUP BY k ORDER BY v DESC, k ASC LIMIT 10;",
	"SELECT user AS k, MAX(latency) AS v FROM data%s GROUP BY k ORDER BY v DESC, k ASC LIMIT 10;",
	"SELECT country AS k, COUNT(DISTINCT table_name) AS v FROM data%s GROUP BY k ORDER BY v DESC, k ASC LIMIT 10;",
	"SELECT date(timestamp) AS k, AVG(latency) AS v FROM data%s GROUP BY k ORDER BY v DESC, k ASC LIMIT 10;",
	"SELECT country AS k, MIN(latency) AS v FROM data%s GROUP BY k ORDER BY v ASC, k ASC LIMIT 10;",
	"SELECT COUNT(*) AS n, SUM(latency) AS s, MIN(latency) AS lo, MAX(latency) AS hi FROM data%s;",
	"SELECT country AS k, user AS u, COUNT(*) AS v FROM data%s GROUP BY k, u ORDER BY v DESC, k ASC, u ASC LIMIT 10;",
}
