package exec

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"powerdrill/internal/colstore"
	"powerdrill/internal/dict"
	"powerdrill/internal/memmgr"
	"powerdrill/internal/table"
	"powerdrill/internal/value"
	"powerdrill/internal/workload"
)

// finalizerCorpus is what TestRunMatchesFinalizedPartial asks: one key,
// composite keys with a permuted select list, a date(timestamp) virtual key,
// a float key, global aggregates, every aggregate kind, HAVING, ties, no
// ORDER BY, LIMIT 0 and empty results.
var finalizerCorpus = []string{
	`SELECT country, COUNT(*) AS c FROM data GROUP BY country ORDER BY c DESC, country LIMIT 5;`,
	`SELECT table_name, country, COUNT(*) AS c FROM data GROUP BY country, table_name ORDER BY c DESC, country, table_name LIMIT 12;`,
	`SELECT country, table_name, SUM(latency) AS s FROM data GROUP BY country, table_name ORDER BY table_name DESC, country ASC;`,
	`SELECT date(timestamp) AS d, AVG(latency) AS a FROM data GROUP BY d ORDER BY a DESC, d ASC LIMIT 7;`,
	`SELECT cost, COUNT(*) AS c, SUM(cost) AS s FROM data GROUP BY cost ORDER BY cost DESC LIMIT 9;`,
	`SELECT COUNT(*), SUM(latency), SUM(cost), AVG(latency), AVG(cost), MIN(latency), MAX(cost), MIN(country), MAX(user), COUNT(DISTINCT user) FROM data;`,
	`SELECT country, MIN(table_name) AS lo, MAX(table_name) AS hi, MIN(cost) AS f, COUNT(DISTINCT user) AS u, AVG(latency) AS a FROM data WHERE latency > 50 GROUP BY country ORDER BY lo DESC, hi, u, country;`,
	`SELECT user, COUNT(*) AS c, SUM(latency) AS s FROM data GROUP BY user HAVING c > 3 ORDER BY s DESC LIMIT 10;`,
	`SELECT country, table_name, MAX(user) AS m FROM data GROUP BY country, table_name HAVING m >= "user0100" ORDER BY m, country DESC LIMIT 8;`,
	`SELECT user, COUNT(*) AS c FROM data GROUP BY user ORDER BY c DESC LIMIT 15;`, // ties: the ordinal decides
	`SELECT table_name, COUNT(*) FROM data GROUP BY table_name;`,
	`SELECT table_name, MIN(user) FROM data GROUP BY table_name LIMIT 4;`,
	`SELECT country, COUNT(*) AS c FROM data GROUP BY country ORDER BY c LIMIT 0;`,
	`SELECT country, COUNT(*) FROM data WHERE country = "nowhere" GROUP BY country;`,
	`SELECT COUNT(*), MIN(user) FROM data WHERE latency > 1000000000;`,
}

// finalizerTable is a query-log table of a few hundred users, plus a float
// column.
func finalizerTable(rows int) *table.Table {
	tbl := workload.QueryLogs(workload.LogsSpec{Rows: rows, Seed: 31, Users: 400})
	cost := make([]float64, rows)
	for i, l := range tbl.Column("latency").Ints {
		cost[i] = float64(l%40)/8 - 1
	}
	return tbl.AddFloat64Column("cost", cost)
}

// TestRunMatchesFinalizedPartial: Run finalizes its partial in id form and
// ascending global-id order; whoever holds a RunPartial result finalizes
// values. The dictionaries being sorted, the two must agree bit for bit —
// on every string dictionary kind, sequential and parallel.
func TestRunMatchesFinalizedPartial(t *testing.T) {
	tbl := finalizerTable(6000)
	for _, kind := range []colstore.StringDictKind{colstore.StringDictArray, colstore.StringDictTrie} {
		opts := chunkedOpts()
		opts.StringDict = kind
		store, err := colstore.FromTable(tbl, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/parallelism=%d", kind, par), func(t *testing.T) {
				e := New(store, Options{Parallelism: par})
				for _, q := range finalizerCorpus {
					stmt := mustParseStmt(t, q)
					got, err := e.Run(stmt)
					if err != nil {
						t.Fatalf("Run %q: %v", q, err)
					}
					part, err := e.RunPartial(stmt)
					if err != nil {
						t.Fatalf("RunPartial %q: %v", q, err)
					}
					want, err := FinalizePartial(stmt, part)
					if err != nil {
						t.Fatalf("FinalizePartial %q: %v", q, err)
					}
					if fmt.Sprint(got.Columns) != fmt.Sprint(want.Columns) || got.Coverage != want.Coverage {
						t.Fatalf("%q: columns %v coverage %v, want %v %v", q, got.Columns, got.Coverage, want.Columns, want.Coverage)
					}
					requireSameRows(t, q, "Run", got.Rows, want.Rows)
				}
			})
		}
	}

	// The id form's point (Section 2.5): a top-k looks up the survivors'
	// strings and nobody else's. user is the ORDER BY tie-break too — it
	// compares ids. Resolving every group, as RunPartial must, resolves
	// every id.
	store, err := colstore.FromTable(tbl, chunkedOpts())
	if err != nil {
		t.Fatal(err)
	}
	col := store.Column("user")
	users := &resolveCounter{StringArray: col.Dict.(*dict.StringArray)}
	col.Dict = users
	const limit = 3
	stmt := mustParseStmt(t, fmt.Sprintf(`SELECT user, COUNT(*) AS c FROM data GROUP BY user ORDER BY c DESC, user ASC LIMIT %d;`, limit))
	e := New(store, Options{Parallelism: 1})
	resolved := func(run func() error) int {
		users.ids = map[uint32]bool{}
		if err := run(); err != nil {
			t.Fatal(err)
		}
		return len(users.ids)
	}
	top := resolved(func() error { _, err := e.Run(stmt); return err })
	all := resolved(func() error { _, err := e.RunPartial(stmt); return err })
	t.Logf("user dictionary of %d values: Run resolved %d ids, RunPartial %d", users.Len(), top, all)
	if users.Len() <= limit || all != users.Len() {
		t.Fatalf("%d users, RunPartial resolved %d: the test does not tell a top-%d from every group", users.Len(), all, limit)
	}
	if top > limit {
		t.Errorf("Run resolved %d ids for %d surviving rows", top, limit)
	}
}

// resolveCounter is a string array that records the ids whose strings
// are asked for, through StringAt or Value.
type resolveCounter struct {
	*dict.StringArray
	mu  sync.Mutex
	ids map[uint32]bool
}

func (d *resolveCounter) note(id uint32) {
	d.mu.Lock()
	d.ids[id] = true
	d.mu.Unlock()
}

// StringAt implements dict.StringDict.
func (d *resolveCounter) StringAt(id uint32) string {
	d.note(id)
	return d.StringArray.StringAt(id)
}

// Value implements dict.Dict.
func (d *resolveCounter) Value(id uint32) value.Value {
	d.note(id)
	return d.StringArray.Value(id)
}

// TestRunPartialOutlivesPins: a RunPartial result holds values and hashes,
// not ids beside a dictionary or cells of a group table — it encodes, merges
// and finalizes the same after other queries have evicted everything its
// query had pinned.
func TestRunPartialOutlivesPins(t *testing.T) {
	dir := savedWorkloadStore(t, 4000)
	eagerStore, _, err := colstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	budget := residentFootprint(t, eagerStore) / 20
	mgr := memmgr.New(budget, "")
	lazyStore, _, err := colstore.OpenLazy(dir, mgr)
	if err != nil {
		t.Fatal(err)
	}
	eager, lazy := New(eagerStore, Options{Parallelism: 2}), New(lazyStore, Options{Parallelism: 2})
	for _, q := range []string{
		`SELECT user, MIN(table_name) AS lo, MAX(latency) AS hi, COUNT(*) AS c FROM data GROUP BY user ORDER BY c DESC, user LIMIT 10;`,
		`SELECT table_name, country, SUM(latency) AS s FROM data GROUP BY country, table_name ORDER BY s DESC, country, table_name LIMIT 15;`,
		`SELECT date(timestamp) AS d, MIN(user), COUNT(DISTINCT country) FROM data GROUP BY d ORDER BY d;`,
	} {
		stmt := mustParseStmt(t, q)
		part, err := lazy.RunPartial(stmt)
		if err != nil {
			t.Fatalf("RunPartial %q: %v", q, err)
		}
		if part.Stats.ColdDictLoads == 0 {
			t.Fatalf("%q loaded no dictionary: %+v", q, part.Stats)
		}
		for k := range part.keys {
			if c := &part.keys[k]; c.dict != nil || c.ids != nil {
				t.Errorf("%q: key column %d left the engine in id form", q, k)
			}
		}
		for j := range part.aggs {
			if a := &part.aggs[j]; a.vals.dict != nil || a.vals.ids != nil || a.engineForm() {
				t.Errorf("%q: aggregate column %d left the engine referring to its state", q, j)
			}
		}
		use := func() (blob, merged []byte, res *Result) {
			blob = EncodePartial(part)
			other, err := DecodePartial(bytes.Clone(blob))
			if err != nil {
				t.Fatal(err)
			}
			m, err := MergeAll([]*Partial{part, other})
			if err != nil {
				t.Fatal(err)
			}
			if res, err = FinalizePartial(stmt, part); err != nil {
				t.Fatal(err)
			}
			return blob, EncodePartial(m), res
		}
		blob, merged, res := use()

		// Other queries evict what this one had pinned: asking again must
		// load its dictionaries anew.
		evicted := mgr.Stats().Evictions
		for _, other := range coldStartQueries {
			if _, err := query(lazy, other); err != nil {
				t.Fatalf("%s: %v", other, err)
			}
		}
		again, err := lazy.RunPartial(stmt)
		if err != nil {
			t.Fatal(err)
		}
		if mgr.Stats().Evictions == evicted || again.Stats.ColdDictLoads == 0 {
			t.Fatalf("%q: nothing it pinned was evicted (%d evictions, then %+v)", q, evicted, again.Stats)
		}

		blob2, merged2, res2 := use()
		if !bytes.Equal(blob, blob2) || !bytes.Equal(merged, merged2) {
			t.Errorf("%q: the partial encodes or merges differently once its pins are gone", q)
		}
		requireSameRows(t, q, "finalized after eviction", res2.Rows, res.Rows)
		want, err := eager.Run(stmt)
		if err != nil {
			t.Fatal(err)
		}
		requireSameRows(t, q, "finalized partial of the lazy store", res2.Rows, want.Rows)
	}
}

// TestExactDistinctThroughTheOnePath: the finalizer finishes exact sets
// where the group table holds them — their sizes ordered, filtered and
// limited like any other column — and none is put in a partial that leaves
// the engine.
func TestExactDistinctThroughTheOnePath(t *testing.T) {
	tbl := logs(3000)
	exact := buildEngine(t, tbl, chunkedOpts(), Options{ExactDistinct: true})
	sketched := buildEngine(t, tbl, chunkedOpts(), Options{})
	q := `SELECT country, COUNT(DISTINCT table_name) AS n FROM data GROUP BY country HAVING n > 2 ORDER BY n DESC, country LIMIT 4;`
	got, err := query(exact, q)
	if err != nil {
		t.Fatal(err)
	}
	// Far below m distinct values a group: the sketch is exact too.
	want, err := query(sketched, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 4 || got.Rows[0][1].Kind() != value.KindInt64 {
		t.Fatalf("exact distinct: rows %v", got.Rows)
	}
	requireSameRows(t, q, "exact distinct", got.Rows, want.Rows)
	if _, err := exact.RunPartial(mustParseStmt(t, q)); err == nil {
		t.Error("RunPartial accepted exact count distinct")
	}
}

// engineForm reports whether the column is in the form a groupSet holds it
// in: MIN/MAX as ids, float sums one per group.
func (a *aggColumn) engineForm() bool {
	return a.vals.ids != nil || a.parts.vals != nil && a.parts.off == nil
}
