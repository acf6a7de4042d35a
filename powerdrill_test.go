package powerdrill

import (
	"strings"
	"testing"
	"time"
)

func TestPublicAPIQuickstart(t *testing.T) {
	tbl := GenerateQueryLogs(5000, 42)
	store, err := Build(tbl, Options{
		PartitionFields:  []string{"country", "table_name"},
		MaxChunkRows:     500,
		OptimizeElements: true,
		StringDict:       StringDictTrie,
		ResultCacheBytes: 8 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if store.NumRows() != 5000 || store.NumChunks() < 2 {
		t.Fatalf("rows=%d chunks=%d", store.NumRows(), store.NumChunks())
	}
	res, err := store.Query(`SELECT country, COUNT(*) AS c FROM data GROUP BY country ORDER BY c DESC LIMIT 10;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || len(res.Columns) != 2 {
		t.Fatalf("result = %+v", res)
	}
	var total int64
	full, err := store.Query(`SELECT country, COUNT(*) AS c FROM data GROUP BY country;`)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range full.Rows {
		total += row[1].Int()
	}
	if total != 5000 {
		t.Errorf("counts sum to %d, want 5000", total)
	}
}

func TestPublicAPIDrillDownStats(t *testing.T) {
	tbl := GenerateQueryLogs(10_000, 7)
	store, err := Build(tbl, Options{
		PartitionFields:  []string{"country", "table_name"},
		MaxChunkRows:     500,
		OptimizeElements: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := store.Query(`SELECT user, COUNT(*) AS c FROM data WHERE country IN ("at") GROUP BY user ORDER BY c DESC LIMIT 10;`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ChunksSkipped == 0 {
		t.Error("drill-down query skipped nothing")
	}
}

func TestPublicAPIMemoryAndPersistence(t *testing.T) {
	tbl := GenerateQueryLogs(3000, 1)
	store, err := Build(tbl, Options{OptimizeElements: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := store.Memory("country")
	if err != nil || m.Total() <= 0 {
		t.Fatalf("Memory = %+v, %v", m, err)
	}
	dir := t.TempDir()
	if err := store.Save(dir, "zippy"); err != nil {
		t.Fatal(err)
	}
	back, bytesRead, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bytesRead <= 0 {
		t.Error("Open reported no bytes read")
	}
	a, err := store.Query(`SELECT country, COUNT(*) FROM data GROUP BY country ORDER BY country ASC;`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.Query(`SELECT country, COUNT(*) FROM data GROUP BY country ORDER BY country ASC;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != len(b.Rows) {
		t.Fatal("persisted store answers differently")
	}
	for i := range a.Rows {
		if !a.Rows[i][0].Equal(b.Rows[i][0]) || !a.Rows[i][1].Equal(b.Rows[i][1]) {
			t.Fatal("persisted store row mismatch")
		}
	}
}

func TestPublicAPICluster(t *testing.T) {
	tbl := GenerateQueryLogs(8000, 3)
	c, err := NewCluster(tbl, ClusterOptions{
		Shards:   4,
		Replicas: 2,
		Store: Options{
			PartitionFields:  []string{"country", "table_name"},
			MaxChunkRows:     500,
			OptimizeElements: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(`SELECT country, COUNT(*) AS c, AVG(latency) FROM data GROUP BY country ORDER BY c DESC LIMIT 5;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("empty distributed result")
	}
	if st := c.Stats(); st.Queries != 1 || st.SubQueries != 4 {
		t.Errorf("cluster stats = %+v", st)
	}
	c.InjectStragglers(0.5, 50*time.Millisecond, 1)
	start := time.Now()
	if _, err := c.Query(`SELECT country, COUNT(*) FROM data GROUP BY country;`); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("straggler query took %v", elapsed)
	}
}

func TestPublicAPIBuildFromScratch(t *testing.T) {
	tbl := NewTable("sales")
	tbl.AddStringColumn("region", []string{"eu", "us", "eu", "apac"})
	tbl.AddInt64Column("amount", []int64{10, 20, 30, 40})
	tbl.AddFloat64Column("rate", []float64{0.1, 0.2, 0.3, 0.4})
	store, err := Build(tbl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := store.Query(`SELECT region, SUM(amount) AS s FROM sales GROUP BY region ORDER BY s DESC, region ASC;`)
	if err != nil {
		t.Fatal(err)
	}
	// eu and apac tie at 40; the region tiebreak puts apac first.
	if len(res.Rows) != 3 || res.Rows[0][0].Str() != "apac" || res.Rows[0][1].Int() != 40 ||
		res.Rows[1][0].Str() != "eu" || res.Rows[2][1].Int() != 20 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// TestMemoryBudgetedOpenAcceptance is the PR's acceptance criterion: a
// store opened with MemoryBudgetBytes at ~25% of its resident footprint
// answers the full query-log workload bit-for-bit identically to an
// unbudgeted store, stays under the budget (± the pinned working set) per
// the manager's accounting, and shows cold loads on first touch but zero
// on a warm repeat.
func TestMemoryBudgetedOpenAcceptance(t *testing.T) {
	tbl := GenerateQueryLogs(6000, 2012)
	built, err := Build(tbl, Options{
		PartitionFields:  []string{"country", "table_name"},
		MaxChunkRows:     500,
		OptimizeElements: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.Save(dir, "zippy"); err != nil {
		t.Fatal(err)
	}
	footprint, err := built.Memory(built.Columns()...)
	if err != nil {
		t.Fatal(err)
	}
	budget := footprint.Total() / 4

	budgeted, _, err := Open(dir, Options{MemoryBudgetBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	unbudgeted, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}

	queries := []string{
		`SELECT country, COUNT(*) AS c FROM data GROUP BY country ORDER BY c DESC LIMIT 10;`,
		`SELECT table_name, COUNT(*) AS c FROM data GROUP BY table_name ORDER BY c DESC, table_name ASC LIMIT 10;`,
		`SELECT user, SUM(latency) AS s FROM data GROUP BY user ORDER BY s DESC, user ASC LIMIT 10;`,
		`SELECT date(timestamp), COUNT(*) AS c FROM data GROUP BY date(timestamp) ORDER BY date(timestamp) ASC LIMIT 14;`,
		`SELECT country, table_name, SUM(latency) AS s FROM data WHERE latency > 200 GROUP BY country, table_name ORDER BY s DESC, country ASC, table_name ASC LIMIT 15;`,
		`SELECT table_name, MAX(latency) AS m FROM data WHERE country IN ("US", "JP") GROUP BY table_name ORDER BY m DESC, table_name ASC LIMIT 10;`,
	}
	sawCold := false
	for pass := 0; pass < 2; pass++ {
		for _, q := range queries {
			want, err := unbudgeted.Query(q)
			if err != nil {
				t.Fatalf("unbudgeted %s: %v", q, err)
			}
			got, err := budgeted.Query(q)
			if err != nil {
				t.Fatalf("budgeted %s: %v", q, err)
			}
			if len(want.Rows) != len(got.Rows) {
				t.Fatalf("%s: %d vs %d rows", q, len(want.Rows), len(got.Rows))
			}
			for i := range want.Rows {
				for j := range want.Rows[i] {
					if !want.Rows[i][j].Equal(got.Rows[i][j]) {
						t.Fatalf("%s: row %d col %d: %v != %v", q, i, j, want.Rows[i][j], got.Rows[i][j])
					}
				}
			}
			if got.Stats.ColdLoads > 0 {
				sawCold = true
			}
			st, ok := budgeted.MemStats()
			if !ok {
				t.Fatal("budgeted store has no MemStats")
			}
			if st.ResidentBytes-st.PinnedBytes > budget {
				t.Fatalf("evictable resident %d exceeds budget %d", st.ResidentBytes-st.PinnedBytes, budget)
			}
		}
	}
	if !sawCold {
		t.Fatal("no cold loads under a 25% budget")
	}
	st, _ := budgeted.MemStats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a 25%% budget: %+v", st)
	}

	// Cold on first touch, zero cold on a warm repeat (unbudgeted store
	// retains everything it loaded).
	warmQ := queries[0]
	repeat, err := unbudgeted.Query(warmQ)
	if err != nil {
		t.Fatal(err)
	}
	if repeat.Stats.ColdLoads != 0 {
		t.Fatalf("warm repeat reported %d cold loads", repeat.Stats.ColdLoads)
	}
	if ms, ok := unbudgeted.MemStats(); !ok || ms.ColdLoads == 0 || ms.Evictions != 0 {
		t.Fatalf("unbudgeted MemStats = %+v, ok=%v", ms, ok)
	}
}

// TestOpenClusterLazyShards persists shards and reassembles them into a
// lazily loaded cluster sharing one memory budget, checking answers against
// a single resident store over the same data.
func TestOpenClusterLazyShards(t *testing.T) {
	tbl := GenerateQueryLogs(6000, 9)
	whole, err := Build(tbl, Options{
		PartitionFields:  []string{"country", "table_name"},
		MaxChunkRows:     500,
		OptimizeElements: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for i, shard := range tbl.Shard(3) {
		s, err := Build(shard, Options{
			PartitionFields:  []string{"country", "table_name"},
			MaxChunkRows:     500,
			OptimizeElements: true,
		})
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		dir := t.TempDir()
		if err := s.Save(dir, "zippy"); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		dirs = append(dirs, dir)
	}
	c, err := OpenCluster(dirs, ClusterOptions{
		Replicas: 2,
		Store:    Options{MemoryBudgetBytes: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`SELECT country, COUNT(*) AS c FROM data GROUP BY country ORDER BY c DESC, country ASC LIMIT 10;`,
		`SELECT table_name, SUM(latency) AS s FROM data GROUP BY table_name ORDER BY s DESC, table_name ASC LIMIT 10;`,
	} {
		want, err := whole.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Rows) != len(got.Rows) {
			t.Fatalf("%s: %d vs %d rows", q, len(want.Rows), len(got.Rows))
		}
		for i := range want.Rows {
			for j := range want.Rows[i] {
				if !want.Rows[i][j].Equal(got.Rows[i][j]) {
					t.Fatalf("%s: row %d col %d: %v != %v", q, i, j, want.Rows[i][j], got.Rows[i][j])
				}
			}
		}
	}
	st, ok := c.MemStats()
	if !ok || st.ColdLoads == 0 {
		t.Fatalf("cluster MemStats = %+v, ok=%v", st, ok)
	}
}

// TestOpenRefusesRemovedMemoryPolicy: LIRS is the only replacement policy,
// so Open and OpenCluster refuse a removed one by name rather than quietly
// running LIRS, and accept LIRS's own name.
func TestOpenRefusesRemovedMemoryPolicy(t *testing.T) {
	store, err := Build(GenerateQueryLogs(500, 3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := store.Save(dir, "zippy"); err != nil {
		t.Fatal(err)
	}
	for _, policy := range []string{"2q", "lru", "arc"} {
		refused := func(what string, err error) {
			t.Helper()
			if err == nil {
				t.Fatalf("%s accepted MemoryPolicy %q", what, policy)
			}
			if !strings.Contains(err.Error(), `"`+policy+`"`) {
				t.Fatalf("%s's refusal does not name the policy: %v", what, err)
			}
		}
		s, _, err := Open(dir, Options{MemoryPolicy: policy})
		if err == nil {
			s.Close()
		}
		refused("Open", err)
		_, err = OpenCluster([]string{dir}, ClusterOptions{Replicas: 1, Store: Options{MemoryPolicy: policy}})
		refused("OpenCluster", err)
	}

	s, _, err := Open(dir, Options{MemoryPolicy: "lirs"})
	if err != nil {
		t.Fatalf("Open refused MemoryPolicy \"lirs\": %v", err)
	}
	s.Close()
}

// TestBuildRefusesUnknownStringDict: a string dictionary is an array or a
// trie, so Build refuses any other kind by name — a typo, or the sharded
// kind older builds had — rather than quietly building arrays.
func TestBuildRefusesUnknownStringDict(t *testing.T) {
	tbl := GenerateQueryLogs(200, 3)
	for _, c := range []struct {
		kind StringDictKind
		ok   bool
	}{
		{"", true},
		{StringDictArray, true},
		{StringDictTrie, true},
		{"tire", false},
		{"sharded", false},
		{"Array", false},
	} {
		_, err := Build(tbl, Options{StringDict: c.kind})
		if c.ok {
			if err != nil {
				t.Errorf("Build refused StringDict %q: %v", c.kind, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("Build accepted StringDict %q", c.kind)
			continue
		}
		for _, name := range []string{`"` + string(c.kind) + `"`, "array", "trie"} {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("refusal of StringDict %q does not name %s: %v", c.kind, name, err)
			}
		}
	}
}
