// Package prodsim reproduces the paper's production measurements
// (Section 6) at laboratory scale: a fleet of servers holding shards of
// the query-log table, a stream of drill-down UI sessions (about 20
// group-by queries per mouse click), per-chunk result caches, a two-layer
// column residency model with a byte budget, and a streaming-disk cost
// model (the paper assumes at least 100 MB/s).
//
// It produces the Section 6 numbers:
//
//   - the skipped / cached / scanned split of underlying records
//     (92.41% / 5.02% / 2.66% in the paper's production fleet);
//   - the fraction of queries that touch no disk at all (>70%);
//   - Figure 5: average latency by log2-bucketed bytes loaded from disk.
//
// Latencies combine the real measured execution time with the modelled
// disk time, so the curve has the paper's shape: flat for memory-resident
// queries, growing with bytes loaded.
package prodsim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"powerdrill/internal/cache"
	"powerdrill/internal/colstore"
	"powerdrill/internal/compress"
	"powerdrill/internal/exec"
	"powerdrill/internal/expr"
	"powerdrill/internal/sql"
	"powerdrill/internal/workload"
)

// Config describes one simulated production run.
type Config struct {
	// Rows of log data overall (split over the servers).
	Rows int
	// Servers in the fleet (default 4).
	Servers int
	// Sessions is the number of user drill-down sessions (default 6).
	Sessions int
	// ClicksPerSession (default 10) and QueriesPerClick (default 20, the
	// paper's number).
	ClicksPerSession int
	QueriesPerClick  int
	// Seed makes the run deterministic.
	Seed int64
	// Store configures the shard stores.
	Store colstore.Options
	// ResultCacheBytes per server (default 32 MiB).
	ResultCacheBytes int64
	// ColumnBudgetBytes per server bounds resident column layers
	// (default: unbounded → everything stays in memory after first load).
	ColumnBudgetBytes int64
	// DiskMBps is the modelled streaming throughput (default 100, the
	// paper's assumption).
	DiskMBps float64
	// EvictProb is the chance, per click, that a server's columns were
	// evicted by other tenants (forces re-loads, populating the higher
	// Figure 5 buckets). Default 0.05.
	EvictProb float64
}

func (c Config) withDefaults() Config {
	if c.Rows <= 0 {
		c.Rows = 100_000
	}
	if c.Servers <= 0 {
		c.Servers = 4
	}
	if c.Sessions <= 0 {
		c.Sessions = 6
	}
	if c.ClicksPerSession <= 0 {
		c.ClicksPerSession = 10
	}
	if c.QueriesPerClick <= 0 {
		c.QueriesPerClick = 20
	}
	if c.ResultCacheBytes <= 0 {
		c.ResultCacheBytes = 32 << 20
	}
	if c.DiskMBps <= 0 {
		c.DiskMBps = 100
	}
	if c.EvictProb < 0 {
		c.EvictProb = 0.05
	}
	return c
}

// Bucket is one Figure 5 histogram bar.
type Bucket struct {
	// Log2MB identifies the bucket: disk bytes loaded in
	// [2^i, 2^{i+1}) MB; -1 collects the no-disk queries.
	Log2MB int
	// Queries in the bucket.
	Queries int
	// AvgLatency of the bucket's queries.
	AvgLatency time.Duration
}

// Report is the outcome of a run.
type Report struct {
	Queries int
	Clicks  int

	// Fractions of underlying records, the headline Section 6 split.
	SkippedPct float64
	CachedPct  float64
	ScannedPct float64

	// NoDiskPct is the fraction of queries that loaded nothing.
	NoDiskPct float64
	// AvgLatencyNoDisk and AvgLatency overall.
	AvgLatencyNoDisk time.Duration
	AvgLatency       time.Duration
	// AvgCellsPerClick: cells a click's 20 queries cover.
	AvgCellsPerClick float64
	// Buckets is the Figure 5 histogram (ascending Log2MB).
	Buckets []Bucket
	// TotalDiskBytes loaded across the run.
	TotalDiskBytes int64
}

// server is one fleet member.
type server struct {
	engine *exec.Engine
	// resident tracks which columns are in memory; its byte budget models
	// the "as much data in memory as possible" constraint.
	resident *cache.Cache
	// colDiskBytes is the compressed on-disk size per column (what a load
	// streams); colMemBytes the uncompressed resident size.
	colDiskBytes map[string]int64
	colMemBytes  map[string]int64
	// colNames is the sorted column list, for deterministic eviction.
	colNames []string
}

// Run executes the simulation.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	r := rand.New(rand.NewSource(cfg.Seed))

	tbl := workload.QueryLogs(workload.LogsSpec{Rows: cfg.Rows, Seed: cfg.Seed})
	shards := tbl.Shard(cfg.Servers)
	codec, err := compress.ByName("zippy")
	if err != nil {
		return nil, err
	}

	servers := make([]*server, cfg.Servers)
	for i, shardTbl := range shards {
		store, err := colstore.FromTable(shardTbl, cfg.Store)
		if err != nil {
			return nil, fmt.Errorf("prodsim: shard %d: %w", i, err)
		}
		budget := cfg.ColumnBudgetBytes
		if budget <= 0 {
			budget = 1 << 40 // effectively unbounded
		}
		srv := &server{
			engine:       exec.New(store, exec.Options{ResultCacheBytes: cfg.ResultCacheBytes}),
			resident:     cache.New(budget, nil),
			colDiskBytes: map[string]int64{},
			colMemBytes:  map[string]int64{},
		}
		for _, cn := range store.Columns() {
			col, err := store.ColumnErr(cn)
			if err != nil {
				return nil, fmt.Errorf("prodsim: shard %d: %w", i, err)
			}
			srv.colDiskBytes[cn] = col.Compressed(codec).Total()
			srv.colMemBytes[cn] = col.Memory().Total()
			srv.colNames = append(srv.colNames, cn)
		}
		sort.Strings(srv.colNames)
		servers[i] = srv
	}

	report := &Report{}
	var totalSkipped, totalCached, totalScanned, totalRows int64
	var sumLatency, sumNoDiskLatency time.Duration
	noDisk := 0
	bucketSum := map[int]time.Duration{}
	bucketCnt := map[int]int{}
	var cellsPerClick float64

	for s := 0; s < cfg.Sessions; s++ {
		clicks := workload.DrillDownSession(tbl, workload.SessionSpec{
			Seed:            cfg.Seed + int64(s)*7919,
			Clicks:          cfg.ClicksPerSession,
			QueriesPerClick: cfg.QueriesPerClick,
		})
		for _, click := range clicks {
			report.Clicks++
			var clickCells int64
			// Tenant pressure: occasionally a server loses its columns.
			for _, srv := range servers {
				if r.Float64() < cfg.EvictProb && len(srv.colNames) > 0 {
					srv.resident.Remove(srv.colNames[r.Intn(len(srv.colNames))])
				}
			}
			for _, q := range click.Queries {
				lat, diskBytes, qs, err := runFleetQuery(servers, q, cfg.DiskMBps)
				if err != nil {
					return nil, fmt.Errorf("prodsim: %q: %w", q, err)
				}
				report.Queries++
				report.TotalDiskBytes += diskBytes
				totalSkipped += qs.RowsSkipped
				totalCached += qs.RowsCached
				totalScanned += qs.RowsScanned
				totalRows += qs.RowsSkipped + qs.RowsCached + qs.RowsScanned
				clickCells += qs.CellsCovered
				sumLatency += lat
				if diskBytes == 0 {
					noDisk++
					sumNoDiskLatency += lat
					bucketSum[-1] += lat
					bucketCnt[-1]++
				} else {
					b := log2MB(diskBytes)
					bucketSum[b] += lat
					bucketCnt[b]++
				}
			}
			cellsPerClick += float64(clickCells)
		}
	}

	if totalRows > 0 {
		report.SkippedPct = 100 * float64(totalSkipped) / float64(totalRows)
		report.CachedPct = 100 * float64(totalCached) / float64(totalRows)
		report.ScannedPct = 100 * float64(totalScanned) / float64(totalRows)
	}
	if report.Queries > 0 {
		report.NoDiskPct = 100 * float64(noDisk) / float64(report.Queries)
		report.AvgLatency = sumLatency / time.Duration(report.Queries)
	}
	if noDisk > 0 {
		report.AvgLatencyNoDisk = sumNoDiskLatency / time.Duration(noDisk)
	}
	if report.Clicks > 0 {
		report.AvgCellsPerClick = cellsPerClick / float64(report.Clicks)
	}
	for b := -1; b <= 20; b++ {
		if bucketCnt[b] == 0 {
			continue
		}
		report.Buckets = append(report.Buckets, Bucket{
			Log2MB:     b,
			Queries:    bucketCnt[b],
			AvgLatency: bucketSum[b] / time.Duration(bucketCnt[b]),
		})
	}
	return report, nil
}

// runFleetQuery executes one query on every server, modelling column loads
// and measuring execution. Fleet latency is the slowest server (they run
// in parallel in production) plus the modelled disk time.
func runFleetQuery(servers []*server, q string, diskMBps float64) (time.Duration, int64, exec.QueryStats, error) {
	stmt, err := sql.Parse(q)
	if err != nil {
		return 0, 0, exec.QueryStats{}, err
	}
	cols := queryColumns(stmt)
	var total exec.QueryStats
	var maxLat time.Duration
	var diskBytes int64
	for _, srv := range servers {
		// Residency check: cold columns stream from disk at the modelled
		// throughput before the query can run.
		var loadBytes int64
		for _, cn := range cols {
			sz, known := srv.colDiskBytes[cn]
			if !known {
				continue // virtual column, computed not loaded
			}
			if _, ok := srv.resident.Get(cn); !ok {
				loadBytes += sz
				srv.resident.Put(cn, true, srv.colMemBytes[cn])
			}
		}
		start := time.Now()
		res, err := srv.engine.Query(q)
		if err != nil {
			return 0, 0, total, err
		}
		lat := time.Since(start)
		lat += time.Duration(float64(loadBytes) / (diskMBps * 1e6) * float64(time.Second))
		if lat > maxLat {
			maxLat = lat
		}
		diskBytes += loadBytes
		total.RowsScanned += res.Stats.RowsScanned
		total.RowsCached += res.Stats.RowsCached
		total.RowsSkipped += res.Stats.RowsSkipped
		total.CellsCovered += res.Stats.CellsCovered
		total.CellsScanned += res.Stats.CellsScanned
	}
	return maxLat, diskBytes, total, nil
}

// queryColumns lists the physical columns a query touches.
func queryColumns(stmt *sql.SelectStmt) []string {
	seen := map[string]bool{}
	var out []string
	add := func(cols []string) {
		for _, c := range cols {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	add(expr.Columns(stmt.Where))
	for _, item := range stmt.Items {
		add(expr.Columns(item.Expr))
	}
	for _, g := range stmt.GroupBy {
		add(expr.Columns(g))
	}
	return out
}

// log2MB buckets a byte count by log2 of its size in MB (≥0).
func log2MB(bytes int64) int {
	mb := float64(bytes) / 1e6
	b := 0
	for mb >= 2 {
		mb /= 2
		b++
	}
	return b
}
