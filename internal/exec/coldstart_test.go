package exec

import (
	"context"
	"sync"
	"testing"
	"time"

	"powerdrill/internal/colstore"
	"powerdrill/internal/memmgr"
	"powerdrill/internal/sql"
	"powerdrill/internal/workload"
)

// coldStartQueries exercises skipping, masks, composites, virtual fields,
// row scans and every aggregate over the query-log schema.
var coldStartQueries = []string{
	`SELECT country, COUNT(*) AS c FROM data GROUP BY country ORDER BY c DESC LIMIT 10;`,
	`SELECT table_name, SUM(latency) AS s FROM data GROUP BY table_name ORDER BY s DESC LIMIT 5;`,
	`SELECT country, table_name, COUNT(*) AS c FROM data GROUP BY country, table_name ORDER BY c DESC, country ASC, table_name ASC LIMIT 20;`,
	`SELECT country, AVG(latency) AS a FROM data WHERE latency > 100 GROUP BY country ORDER BY a DESC LIMIT 10;`,
	`SELECT date(timestamp), MIN(latency), MAX(latency) FROM data GROUP BY date(timestamp) ORDER BY date(timestamp) ASC LIMIT 15;`,
	`SELECT user, COUNT(*) AS c FROM data WHERE country IN ("US", "DE") GROUP BY user ORDER BY c DESC, user ASC LIMIT 10;`,
	`SELECT COUNT(DISTINCT user) FROM data;`,
	`SELECT country, latency FROM data WHERE latency > 900 ORDER BY latency DESC, country ASC LIMIT 25;`,
}

// savedWorkloadStore persists a partitioned query-log store and returns its
// directory.
func savedWorkloadStore(t *testing.T, rows int) string {
	t.Helper()
	tbl := workload.QueryLogs(workload.LogsSpec{Rows: rows, Seed: 11})
	s, err := colstore.FromTable(tbl, colstore.Options{
		PartitionFields:  []string{"country", "table_name"},
		MaxChunkRows:     500,
		OptimizeElements: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := colstore.Save(s, dir, "zippy"); err != nil {
		t.Fatal(err)
	}
	return dir
}

// residentFootprint sums the columns' in-memory sizes of an eagerly opened
// store.
func residentFootprint(t *testing.T, s *colstore.Store) int64 {
	t.Helper()
	var total int64
	for _, name := range s.Columns() {
		total += s.Column(name).Memory().Total()
	}
	return total
}

func assertSameResult(t *testing.T, query string, want, got *Result) {
	t.Helper()
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("%s: %d vs %d rows", query, len(want.Rows), len(got.Rows))
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if !want.Rows[i][j].Equal(got.Rows[i][j]) {
				t.Fatalf("%s: row %d col %d: %v != %v",
					query, i, j, want.Rows[i][j], got.Rows[i][j])
			}
		}
	}
}

// TestColdStartBudgetedMatchesResident is the acceptance test of the
// memory-manager PR: a store opened with a budget of ~25% of its resident
// footprint must answer the full workload bit-for-bit identically to a
// fully resident store, with evictions happening mid-workload, and must
// stay within budget (± the pinned working set) at every step.
func TestColdStartBudgetedMatchesResident(t *testing.T) {
	dir := savedWorkloadStore(t, 4000)
	eagerStore, _, err := colstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	footprint := residentFootprint(t, eagerStore)
	budget := footprint / 4
	var maxColumn int64
	for _, name := range eagerStore.Columns() {
		if m := eagerStore.Column(name).Memory().Total(); m > maxColumn {
			maxColumn = m
		}
	}
	mgr := memmgr.New(budget, "")
	lazyStore, _, err := colstore.OpenLazy(dir, mgr)
	if err != nil {
		t.Fatal(err)
	}
	eager := New(eagerStore, Options{Parallelism: 4})
	lazy := New(lazyStore, Options{Parallelism: 4})

	var totalCold int64
	for pass := 0; pass < 2; pass++ {
		for _, q := range coldStartQueries {
			want, err := query(eager, q)
			if err != nil {
				t.Fatalf("eager %s: %v", q, err)
			}
			got, err := query(lazy, q)
			if err != nil {
				t.Fatalf("lazy %s: %v", q, err)
			}
			assertSameResult(t, q, want, got)
			totalCold += got.Stats.ColdLoads
			st := mgr.Stats()
			// Unpinned residency must respect the budget; transient pinned
			// bytes are bounded by one query's working set, which the
			// workload keeps to a handful of columns.
			if over := st.ResidentBytes - st.PinnedBytes; over > budget {
				t.Fatalf("evictable resident %d exceeds budget %d", over, budget)
			}
			if st.PinnedBytes != 0 {
				t.Fatalf("pinned bytes %d between queries", st.PinnedBytes)
			}
		}
	}
	st := mgr.Stats()
	if totalCold == 0 || st.ColdLoads == 0 {
		t.Fatal("no cold loads observed under a 25% budget")
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a 25%% budget (footprint %d, budget %d)", footprint, budget)
	}
	if st.ResidentBytes > budget {
		t.Fatalf("resident %d exceeds budget %d at rest", st.ResidentBytes, budget)
	}
}

// TestColdThenWarmStats pins down the Stats contract: cold loads on first
// touch, zero cold loads on a warm repeat (budget large enough to hold the
// query's working set).
func TestColdThenWarmStats(t *testing.T) {
	dir := savedWorkloadStore(t, 2000)
	mgr := memmgr.New(0, "") // unlimited: everything stays warm
	lazyStore, _, err := colstore.OpenLazy(dir, mgr)
	if err != nil {
		t.Fatal(err)
	}
	e := New(lazyStore, Options{})
	q := `SELECT country, COUNT(*) AS c FROM data GROUP BY country ORDER BY c DESC LIMIT 5;`
	first, err := query(e, q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.ColdLoads == 0 || first.Stats.ColdBytesLoaded <= 0 || first.Stats.DiskBytesRead <= 0 {
		t.Fatalf("first query cold stats = %+v", first.Stats)
	}
	second, err := query(e, q)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.ColdLoads != 0 || second.Stats.ColdBytesLoaded != 0 {
		t.Fatalf("warm repeat reported cold loads: %+v", second.Stats)
	}
	cum := e.Stats()
	if cum.ColdLoads != first.Stats.ColdLoads {
		t.Fatalf("cumulative cold loads %d, want %d", cum.ColdLoads, first.Stats.ColdLoads)
	}
}

// TestColdStartConcurrentQueries runs the budgeted lazy engine from many
// goroutines (forcing eviction/reload races) and checks every answer
// against the resident engine. Run with -race.
func TestColdStartConcurrentQueries(t *testing.T) {
	dir := savedWorkloadStore(t, 3000)
	eagerStore, _, err := colstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	budget := residentFootprint(t, eagerStore) / 4
	mgr := memmgr.New(budget, "")
	lazyStore, _, err := colstore.OpenLazy(dir, mgr)
	if err != nil {
		t.Fatal(err)
	}
	eager := New(eagerStore, Options{Parallelism: 2})
	lazy := New(lazyStore, Options{Parallelism: 2})

	// Precompute expected results sequentially.
	want := make(map[string]*Result, len(coldStartQueries))
	for _, q := range coldStartQueries {
		r, err := query(eager, q)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = r
	}

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3*len(coldStartQueries); i++ {
				q := coldStartQueries[(w+i)%len(coldStartQueries)]
				got, err := query(lazy, q)
				if err != nil {
					t.Errorf("worker %d: %s: %v", w, q, err)
					return
				}
				assertSameResult(t, q, want[q], got)
			}
		}(w)
	}
	wg.Wait()
	if st := mgr.Stats(); st.PinnedBytes != 0 {
		t.Fatalf("pinned bytes %d after all queries finished", st.PinnedBytes)
	}
}

func TestGateAcquireSemantics(t *testing.T) {
	g := NewGate(4)
	acquire := func(want int) int {
		n, err := g.AcquireUpTo(context.Background(), want)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if got := acquire(3); got != 3 {
		t.Fatalf("first acquire = %d, want 3", got)
	}
	if got := acquire(3); got != 1 {
		t.Fatalf("second acquire = %d, want remaining 1", got)
	}
	if g.InUse() != 4 {
		t.Fatalf("in use = %d, want 4", g.InUse())
	}
	// A full gate blocks until a release.
	done := make(chan int, 1)
	go func() {
		n, _ := g.AcquireUpTo(context.Background(), 2)
		done <- n
	}()
	select {
	case <-done:
		t.Fatal("acquire succeeded on a full gate")
	case <-time.After(20 * time.Millisecond):
	}
	g.Release(3)
	select {
	case got := <-done:
		if got != 2 {
			t.Fatalf("post-release acquire = %d, want 2", got)
		}
	case <-time.After(time.Second):
		t.Fatal("acquire did not wake after release")
	}
	g.Release(2)
	g.Release(1)
	if g.InUse() != 0 {
		t.Fatalf("in use = %d after all releases", g.InUse())
	}
	if got := acquire(0); got != 1 {
		t.Fatalf("acquire(0) = %d, want clamp to 1", got)
	}
	g.Release(1)
}

// TestSharedGateBoundsWorkers runs many concurrent queries through engines
// sharing one gate and asserts the total granted workers never exceed the
// gate's capacity, while results stay identical to the sequential engine.
func TestSharedGateBoundsWorkers(t *testing.T) {
	tbl := workload.QueryLogs(workload.LogsSpec{Rows: 3000, Seed: 5})
	store, err := colstore.FromTable(tbl, colstore.Options{
		PartitionFields:  []string{"country", "table_name"},
		MaxChunkRows:     200,
		OptimizeElements: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	gate := NewGate(3)
	shared := New(store, Options{Parallelism: 8, Gate: gate})
	sequential := New(store, Options{Parallelism: 1})

	stmt, err := sql.Parse(`SELECT country, COUNT(*) AS c, SUM(latency) AS s FROM data GROUP BY country ORDER BY c DESC, country ASC;`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sequential.Run(stmt)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	maxInUse := 0
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := gate.InUse()
			mu.Lock()
			if n > maxInUse {
				maxInUse = n
			}
			mu.Unlock()
			time.Sleep(100 * time.Microsecond)
		}
	}()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				got, err := shared.Run(stmt)
				if err != nil {
					t.Error(err)
					return
				}
				assertSameResult(t, "shared-gate", want, got)
			}
		}()
	}
	wg.Wait()
	close(stop)
	mu.Lock()
	defer mu.Unlock()
	if maxInUse > gate.Capacity() {
		t.Fatalf("observed %d workers in use, capacity %d", maxInUse, gate.Capacity())
	}
	if gate.InUse() != 0 {
		t.Fatalf("gate still holds %d workers", gate.InUse())
	}
}

// BenchmarkColdOpen measures a first-touch query against a lazily opened
// store — the paper's Figure 5 cold-start path at column granularity.
func BenchmarkColdOpen(b *testing.B) {
	tbl := workload.QueryLogs(workload.LogsSpec{Rows: 50_000, Seed: 3})
	s, err := colstore.FromTable(tbl, colstore.Options{
		PartitionFields:  []string{"country", "table_name"},
		MaxChunkRows:     5000,
		OptimizeElements: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if err := colstore.Save(s, dir, "zippy"); err != nil {
		b.Fatal(err)
	}
	q := `SELECT country, COUNT(*) AS c FROM data GROUP BY country ORDER BY c DESC LIMIT 10;`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lazyStore, _, err := colstore.OpenLazy(dir, memmgr.New(0, ""))
		if err != nil {
			b.Fatal(err)
		}
		e := New(lazyStore, Options{})
		if _, err := query(e, q); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBudgetedRepeatDeterministic: under a byte budget, what a query reads
// from disk depends on what earlier queries left resident, and so on the
// order their pins were released in. Two fresh opens of one saved store,
// running the same ten queries one after another, must read the same bytes
// and cold-load the same chunks query by query, and evict as many entries.
// A first open persists the virtual columns the queries materialize, so
// that both find the same directory.
func TestBudgetedRepeatDeterministic(t *testing.T) {
	dir := savedWorkloadStore(t, 40000)
	queries := append(coldStartQueries[:len(coldStartQueries):len(coldStartQueries)],
		`SELECT table_name, MAX(user) AS m, COUNT(*) AS c FROM data WHERE latency < 200 GROUP BY table_name ORDER BY c DESC LIMIT 5;`,
		`SELECT country, COUNT(*) AS c FROM data GROUP BY country ORDER BY c DESC LIMIT 10;`)
	type step struct {
		disk      int64
		chunks    int64
		evictions int64
	}
	run := func() []step {
		mgr := memmgr.New(300<<10, "")
		store, _, err := colstore.OpenLazy(dir, mgr)
		if err != nil {
			t.Fatal(err)
		}
		e := New(store, Options{Parallelism: 1})
		var steps []step
		for _, q := range queries {
			res, err := query(e, q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			steps = append(steps, step{res.Stats.DiskBytesRead, res.Stats.ColdChunkLoads, mgr.Stats().Evictions})
		}
		return steps
	}
	run()
	first, second := run(), run()
	if last := first[len(first)-1]; last.evictions == 0 {
		t.Fatalf("the budget evicted nothing: %+v", first)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("query %d (%s): %+v on the first open, %+v on the second", i, queries[i], first[i], second[i])
		}
	}
}

// TestBudgetedParallelDecode: how many workers decode a query's cold chunks
// changes neither its answer nor what it reads, loads and evicts, because
// decoded chunks are admitted in (column, chunk) order. Two opens of one
// saved store under a byte budget, one engine at Parallelism 1 and one at
// 4, run TestBudgetedRepeatDeterministic's ten queries: the rows match bit
// for bit, and query by query so do the disk bytes, the cold chunk and
// dictionary loads and the manager's evictions.
func TestBudgetedParallelDecode(t *testing.T) {
	dir := savedWorkloadStore(t, 40000)
	queries := append(coldStartQueries[:len(coldStartQueries):len(coldStartQueries)],
		`SELECT table_name, MAX(user) AS m, COUNT(*) AS c FROM data WHERE latency < 200 GROUP BY table_name ORDER BY c DESC LIMIT 5;`,
		`SELECT country, COUNT(*) AS c FROM data GROUP BY country ORDER BY c DESC LIMIT 10;`)
	type step struct {
		disk, chunks, dicts, evictions int64
	}
	run := func(parallelism int) ([]*Result, []step) {
		mgr := memmgr.New(300<<10, "")
		store, _, err := colstore.OpenLazy(dir, mgr)
		if err != nil {
			t.Fatal(err)
		}
		e := New(store, Options{Parallelism: parallelism})
		var (
			results []*Result
			steps   []step
		)
		for _, q := range queries {
			res, err := query(e, q)
			if err != nil {
				t.Fatalf("parallelism %d, %s: %v", parallelism, q, err)
			}
			results = append(results, res)
			steps = append(steps, step{res.Stats.DiskBytesRead, res.Stats.ColdChunkLoads, res.Stats.ColdDictLoads, mgr.Stats().Evictions})
		}
		return results, steps
	}
	run(1) // persists the virtual columns the queries materialize
	wantRes, want := run(1)
	gotRes, got := run(4)
	if last := want[len(want)-1]; last.evictions == 0 {
		t.Fatalf("the budget evicted nothing: %+v", want)
	}
	for i, q := range queries {
		requireSameRows(t, q, "Parallelism 4", gotRes[i].Rows, wantRes[i].Rows)
		if got[i] != want[i] {
			t.Errorf("query %d (%s): %+v at Parallelism 4, %+v at 1", i, q, got[i], want[i])
		}
	}
}

// TestGateOneWorkerLazy: an engine whose gate has a single worker answers a
// row scan and a group-by over a budgeted lazy store — the pins that decode
// on gate workers never wait on the one the query already holds.
func TestGateOneWorkerLazy(t *testing.T) {
	dir := savedWorkloadStore(t, 20000)
	store, _, err := colstore.OpenLazy(dir, memmgr.New(300<<10, ""))
	if err != nil {
		t.Fatal(err)
	}
	e := New(store, Options{Parallelism: 4, Gate: NewGate(1)})
	ref := buildEngine(t, workload.QueryLogs(workload.LogsSpec{Rows: 20000, Seed: 11}), colstore.Options{
		PartitionFields:  []string{"country", "table_name"},
		MaxChunkRows:     500,
		OptimizeElements: true,
	}, Options{Parallelism: 1})
	for _, q := range []string{
		`SELECT country, latency FROM data WHERE latency > 900 ORDER BY latency DESC, country ASC LIMIT 25;`,
		`SELECT country, table_name, COUNT(*) AS c FROM data GROUP BY country, table_name ORDER BY c DESC, country ASC, table_name ASC LIMIT 20;`,
	} {
		done := make(chan struct{})
		var (
			res *Result
			err error
		)
		go func() {
			defer close(done)
			res, err = query(e, q)
		}()
		select {
		case <-done:
		case <-time.After(time.Minute):
			t.Fatalf("%s: no answer within a minute through a one-worker gate", q)
		}
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want, err := query(ref, q)
		if err != nil {
			t.Fatal(err)
		}
		requireSameRows(t, q, "one-worker gate", res.Rows, want.Rows)
	}
}
