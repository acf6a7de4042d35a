package powerdrill

import (
	"testing"
	"time"

	"powerdrill/internal/workload"
)

// section6Setup is the Section 6 deployment at laboratory scale: the
// query-log table built in the bench layout, and the drill-down sessions a
// user clicks through it.
type section6Setup struct {
	store *Store
	// resident is the built store's resident size: what a budget of ¼ is
	// a quarter of.
	resident int64
	clicks   []workload.Click
}

// newSection6 builds rows of query logs in chunks of chunkRows, and draws
// sessions drill-down sessions of clicks × queries, session s seeded
// seed + s·7919.
func newSection6(tb testing.TB, rows, chunkRows int, seed int64, sessions, clicks, queries int) section6Setup {
	tb.Helper()
	tbl := GenerateQueryLogs(rows, seed)
	s, err := Build(tbl, Options{
		PartitionFields:  []string{"country", "table_name"},
		MaxChunkRows:     chunkRows,
		OptimizeElements: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	mem, err := s.Memory(s.Columns()...)
	if err != nil {
		tb.Fatal(err)
	}
	setup := section6Setup{store: s, resident: mem.Total()}
	for i := 0; i < sessions; i++ {
		setup.clicks = append(setup.clicks, workload.DrillDownSession(tbl, workload.SessionSpec{
			Seed: seed + int64(i)*7919, Clicks: clicks, QueriesPerClick: queries,
		})...)
	}
	return setup
}

// save writes the built store to a new directory with zippy. Each replay
// opens its own: the first query over date(timestamp) persists that
// virtual field beside the store, so a second Open of one directory reads
// less from disk than the first.
func (s section6Setup) save(tb testing.TB) string {
	tb.Helper()
	dir := tb.TempDir()
	if err := s.store.Save(dir, "zippy"); err != nil {
		tb.Fatal(err)
	}
	return dir
}

// section6Run is what one replay measured: the records each query skipped,
// answered from the result cache and scanned, and each query's latency
// and bytes read from disk.
type section6Run struct {
	skipped, cached, scanned int64
	diskBytes                int64
	latency                  []time.Duration
	disk                     []int64
}

// replay opens the store saved in dir with a budget of budget bytes (0 is
// unlimited) and a 32 MiB result cache, and runs every click's queries in
// order, timing each Query.
func (s section6Setup) replay(tb testing.TB, dir string, budget int64, parallelism int) section6Run {
	tb.Helper()
	st, _, err := Open(dir, Options{
		MemoryBudgetBytes: budget, ResultCacheBytes: 32 << 20, Parallelism: parallelism,
	})
	if err != nil {
		tb.Fatal(err)
	}
	defer st.Close()
	var run section6Run
	for _, click := range s.clicks {
		for _, q := range click.Queries {
			start := time.Now()
			res, err := st.Query(q)
			lat := time.Since(start)
			if err != nil {
				tb.Fatalf("%s: %v", q, err)
			}
			run.skipped += res.Stats.RowsSkipped
			run.cached += res.Stats.RowsCached
			run.scanned += res.Stats.RowsScanned
			run.diskBytes += res.Stats.DiskBytesRead
			run.latency = append(run.latency, lat)
			run.disk = append(run.disk, res.Stats.DiskBytesRead)
		}
	}
	return run
}

// split returns the percentages of records skipped, cached and scanned.
func (r section6Run) split() (skipped, cached, scanned float64) {
	total := float64(r.skipped + r.cached + r.scanned)
	return 100 * float64(r.skipped) / total, 100 * float64(r.cached) / total, 100 * float64(r.scanned) / total
}

// noDiskPct is the percentage of queries that read nothing from disk.
func (r section6Run) noDiskPct() float64 {
	n := 0
	for _, d := range r.disk {
		if d == 0 {
			n++
		}
	}
	return 100 * float64(n) / float64(len(r.disk))
}

// TestSection6Shape checks the qualitative production claims of the
// paper's Section 6 on a store opened from disk under a quarter of its
// resident bytes: drill-down sessions skip the majority of records, serve
// a further slice from the result cache, and most queries read no disk.
func TestSection6Shape(t *testing.T) {
	setup := newSection6(t, 20_000, 500, 71, 3, 5, 10)
	run := setup.replay(t, setup.save(t), setup.resident/4, 1)
	if len(setup.clicks) != 3*5 || len(run.disk) != 3*5*10 {
		t.Fatalf("%d clicks and %d queries, want 15 and 150", len(setup.clicks), len(run.disk))
	}
	skipped, cached, scanned := run.split()
	t.Logf("skipped=%.2f%% cached=%.2f%% scanned=%.2f%% nodisk=%.1f%%",
		skipped, cached, scanned, run.noDiskPct())
	if skipped < 50 {
		t.Errorf("skipped %.1f%%, want the majority (paper: 92.41%%)", skipped)
	}
	if cached <= 0 {
		t.Errorf("cached %.2f%%, want > 0 (paper: 5.02%%)", cached)
	}
	if scanned > 30 {
		t.Errorf("scanned %.1f%%, want a small minority (paper: 2.66%%)", scanned)
	}
	if nd := run.noDiskPct(); nd < 50 {
		t.Errorf("no-disk queries %.1f%%, want the majority (paper: >70%%)", nd)
	}
}

// TestRunProducesConsistentReport checks that a replay of 2 sessions of
// 5 clicks × 10 queries runs every query once, that its split covers every
// record, and that each query took measurable time.
func TestRunProducesConsistentReport(t *testing.T) {
	setup := newSection6(t, 20_000, 500, 71, 2, 5, 10)
	run := setup.replay(t, setup.save(t), setup.resident/4, 1)
	if len(setup.clicks) != 2*5 {
		t.Errorf("%d clicks, want 10", len(setup.clicks))
	}
	if len(run.latency) != 2*5*10 || len(run.disk) != 2*5*10 {
		t.Errorf("%d latencies and %d disk counts, want 100 each", len(run.latency), len(run.disk))
	}
	skipped, cached, scanned := run.split()
	if total := skipped + cached + scanned; total < 99.9 || total > 100.1 {
		t.Errorf("record split does not sum to 100%%: %.2f + %.2f + %.2f = %.2f",
			skipped, cached, scanned, total)
	}
	if nd := run.noDiskPct(); nd < 0 || nd > 100 {
		t.Errorf("no-disk queries %.2f%%", nd)
	}
	var sum time.Duration
	for _, lat := range run.latency {
		sum += lat
	}
	if sum <= 0 {
		t.Error("total latency not positive")
	}
}

// TestDeterministicRuns checks that the counted split and the disk bytes
// do not depend on the run or on parallelism: two replays at parallelism 1
// and one at parallelism 2, each on its own saved directory, agree.
// Latencies are wall-clock and differ.
func TestDeterministicRuns(t *testing.T) {
	setup := newSection6(t, 20_000, 500, 71, 2, 5, 10)
	a := setup.replay(t, setup.save(t), setup.resident/4, 1)
	for _, par := range []int{1, 2} {
		b := setup.replay(t, setup.save(t), setup.resident/4, par)
		if b.skipped != a.skipped || b.cached != a.cached || b.scanned != a.scanned || b.diskBytes != a.diskBytes {
			t.Errorf("parallelism %d: skipped/cached/scanned %d/%d/%d, %d disk bytes; first run: %d/%d/%d, %d",
				par, b.skipped, b.cached, b.scanned, b.diskBytes, a.skipped, a.cached, a.scanned, a.diskBytes)
		}
	}
}

// TestColumnBudgetForcesReloads checks that a quarter budget costs disk
// reads an unlimited store does not make.
func TestColumnBudgetForcesReloads(t *testing.T) {
	setup := newSection6(t, 20_000, 500, 71, 2, 5, 10)
	tight := setup.replay(t, setup.save(t), setup.resident/4, 1)
	unlimited := setup.replay(t, setup.save(t), 0, 1)
	t.Logf("disk bytes %d under the budget, %d unlimited", tight.diskBytes, unlimited.diskBytes)
	if tight.diskBytes <= unlimited.diskBytes {
		t.Errorf("a ¼ budget read %d disk bytes, an unlimited store %d: want more reloads under the budget",
			tight.diskBytes, unlimited.diskBytes)
	}
}
