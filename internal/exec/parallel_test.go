package exec

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"powerdrill/internal/sql"
	"powerdrill/internal/table"
)

// parallelQueries is the mixed workload the concurrency tests run: group-bys
// (single and composite keys), every aggregate, selective and non-selective
// restrictions, virtual fields, HAVING, row scans with and without LIMIT.
var parallelQueries = []string{
	`SELECT country, COUNT(*) AS c FROM data GROUP BY country ORDER BY c DESC, country ASC;`,
	`SELECT country, table_name, COUNT(*) AS c FROM data GROUP BY country, table_name ORDER BY c DESC, country ASC, table_name ASC LIMIT 10;`,
	`SELECT table_name, SUM(latency) AS s, AVG(latency) AS a FROM data GROUP BY table_name ORDER BY s DESC, table_name ASC LIMIT 25;`,
	`SELECT country, MIN(latency) AS lo, MAX(latency) AS hi FROM data WHERE latency > 100 GROUP BY country ORDER BY country ASC;`,
	`SELECT COUNT(*) AS c FROM data WHERE country = "us";`,
	`SELECT country, COUNT(DISTINCT user) AS u FROM data GROUP BY country ORDER BY u DESC, country ASC LIMIT 5;`,
	`SELECT country, COUNT(*) AS c FROM data WHERE country IN ("de", "fr", "jp") GROUP BY country ORDER BY c DESC, country ASC;`,
	`SELECT month(timestamp) AS m, COUNT(*) AS c FROM data GROUP BY m ORDER BY m ASC;`,
	`SELECT table_name, COUNT(*) AS c FROM data GROUP BY table_name HAVING c > 10 ORDER BY c DESC, table_name ASC;`,
	`SELECT country, latency FROM data WHERE latency > 4000 ORDER BY latency DESC LIMIT 20;`,
	`SELECT country, user FROM data WHERE country = "de" LIMIT 7;`,
}

// resultFingerprint renders a result to a comparable string.
func resultFingerprint(t *testing.T, res *Result) string {
	t.Helper()
	out := fmt.Sprintf("cols=%v\n", res.Columns)
	for _, row := range res.Rows {
		for _, v := range row {
			out += v.String() + "\x1f"
		}
		out += "\n"
	}
	return out
}

// runAll executes the workload sequentially on one engine and returns the
// per-query fingerprints.
func runAll(t *testing.T, e *Engine) map[string]string {
	t.Helper()
	out := make(map[string]string, len(parallelQueries))
	for _, q := range parallelQueries {
		res, err := query(e, q)
		if err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
		out[q] = resultFingerprint(t, res)
	}
	return out
}

// TestParallelMatchesSequential asserts the parallel engine returns
// bit-for-bit the sequential engine's results, with and without the result
// cache, on cold and warm runs.
func TestParallelMatchesSequential(t *testing.T) {
	tbl := logs(8000)
	for _, cacheBytes := range []int64{0, 32 << 20} {
		name := "nocache"
		if cacheBytes > 0 {
			name = "cache"
		}
		t.Run(name, func(t *testing.T) {
			seq := buildEngine(t, tbl, chunkedOpts(), Options{Parallelism: 1, ResultCacheBytes: cacheBytes})
			par := buildEngine(t, tbl, chunkedOpts(), Options{Parallelism: runtime.NumCPU(), ResultCacheBytes: cacheBytes})
			want := runAll(t, seq)
			// Two passes: the second exercises the cache-hit path on
			// fully-active chunks.
			for pass := 0; pass < 2; pass++ {
				got := runAll(t, par)
				for _, q := range parallelQueries {
					if got[q] != want[q] {
						t.Errorf("pass %d: %s\nparallel:\n%s\nsequential:\n%s", pass, q, got[q], want[q])
					}
				}
			}
		})
	}
}

// TestConcurrentQueries hammers one parallel engine from many goroutines —
// the -race test for the whole execution path: shared plan-time
// materialization of virtual fields, the synchronized result cache, worker
// fan-out, and stats accumulation.
func TestConcurrentQueries(t *testing.T) {
	tbl := logs(6000)
	seq := buildEngine(t, tbl, chunkedOpts(), Options{Parallelism: 1})
	want := runAll(t, seq)

	eng := buildEngine(t, tbl, chunkedOpts(), Options{ResultCacheBytes: 16 << 20})
	const goroutines = 8
	const rounds = 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Stagger the workload so different queries overlap.
				for i := range parallelQueries {
					q := parallelQueries[(i+g+r)%len(parallelQueries)]
					res, err := query(eng, q)
					if err != nil {
						errs <- fmt.Errorf("goroutine %d: %q: %v", g, q, err)
						return
					}
					if got := resultFingerprint(t, res); got != want[q] {
						errs <- fmt.Errorf("goroutine %d: %q diverged from sequential result", g, q)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The cumulative counters must account for every query exactly once.
	stats := eng.Stats()
	if want := int64(goroutines * rounds * len(parallelQueries)); stats.Queries != want {
		t.Errorf("Stats.Queries = %d, want %d", stats.Queries, want)
	}
}

// TestConcurrentRunPartial exercises the distributed leaf path (RunPartial)
// under concurrency: partials for the same statement must agree with each
// other regardless of which worker scanned which chunk.
func TestConcurrentRunPartial(t *testing.T) {
	tbl := logs(5000)
	eng := buildEngine(t, tbl, chunkedOpts(), Options{ResultCacheBytes: 8 << 20})
	const goroutines = 6
	q := `SELECT country, COUNT(*) AS c, SUM(latency) AS s FROM data WHERE latency > 50 GROUP BY country;`

	partials := make([]*Partial, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			stmt, err := sql.Parse(q)
			if err != nil {
				errs[g] = err
				return
			}
			partials[g], errs[g] = eng.RunPartial(stmt)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	want := partialGroupsFingerprint(partials[0])
	for g := 1; g < goroutines; g++ {
		if got := partialGroupsFingerprint(partials[g]); got != want {
			t.Errorf("goroutine %d partial diverged:\n%s\nwant:\n%s", g, got, want)
		}
	}
}

// partialGroupsFingerprint is a Partial's groups as they cross the wire:
// the encoding without the counters, which depend on what the result cache
// held when the query ran.
func partialGroupsFingerprint(p *Partial) string {
	groups := *p
	groups.Stats = QueryStats{}
	return fmt.Sprintf("%x", EncodePartial(&groups))
}

// TestParallelFloatSumDeterminism pins the chunk-ordered float sums: float
// addition is not associative, so adding chunk sums in the order workers
// happen to claim chunks would drift in the last ULPs run to run. The
// magnitudes below make any reordering change the result, and the assertion
// is exact equality with the sequential engine — first grouped on the
// partition field (one group a chunk), then on a key every chunk holds many
// groups of, with every kind of aggregate in one statement, at several
// parallelisms, with the result cache off and on, cold and warm: a warm
// repeat folds cached chunk partials into the workers' tables beside the
// scanned chunks (the restriction leaves chunks fully active, which the
// cache holds, and partially active, which it does not).
func TestParallelFloatSumDeterminism(t *testing.T) {
	const rows = 4000
	g := make([]string, rows)
	p := make([]string, rows)
	k := make([]int64, rows)
	n := make([]int64, rows)
	s := make([]string, rows)
	f := make([]float64, rows)
	for i := 0; i < rows; i++ {
		g[i] = fmt.Sprintf("g%d", i%3)
		p[i] = fmt.Sprintf("p%02d", i/100)
		k[i] = int64(i * 7 % 37)
		n[i] = int64(i * 13 % 101)
		s[i] = fmt.Sprintf("s%03d", i*11%211)
		// Alternate huge and tiny addends so partial-sum order matters.
		if i%2 == 0 {
			f[i] = 1e16
		} else {
			f[i] = 1.0 + float64(i%7)/3.0
		}
	}
	tbl := table.New("data")
	tbl.AddStringColumn("g", g)
	tbl.AddStringColumn("p", p)
	tbl.AddInt64Column("k", k)
	tbl.AddInt64Column("n", n)
	tbl.AddStringColumn("s", s)
	tbl.AddFloat64Column("f", f)

	byG := chunkedOpts()
	byG.PartitionFields = []string{"g"}
	byG.MaxChunkRows = 100
	q := `SELECT g, SUM(f) AS s, AVG(f) AS a FROM data GROUP BY g ORDER BY g ASC;`
	seq := buildEngine(t, tbl, byG, Options{Parallelism: 1})
	want, err := query(seq, q)
	if err != nil {
		t.Fatal(err)
	}
	par := buildEngine(t, tbl, byG, Options{Parallelism: runtime.NumCPU() * 2})
	for run := 0; run < 5; run++ {
		got, err := query(par, q)
		if err != nil {
			t.Fatal(err)
		}
		requireSameRows(t, q, fmt.Sprintf("run %d", run), got.Rows, want.Rows)
	}

	byP := chunkedOpts()
	byP.PartitionFields = []string{"p"}
	byP.MaxChunkRows = 100
	for _, q := range []string{
		`SELECT k, SUM(f) AS s, AVG(f) AS a, SUM(n) AS sn, MIN(s) AS lo, MAX(n) AS hi, COUNT(DISTINCT s) AS d FROM data GROUP BY k ORDER BY k ASC;`,
		`SELECT k, SUM(f) AS s, AVG(f) AS a, SUM(n) AS sn, MIN(s) AS lo, MAX(n) AS hi, COUNT(DISTINCT s) AS d FROM data WHERE p >= "p20" OR n < 30 GROUP BY k ORDER BY k ASC;`,
	} {
		want, err := query(buildEngine(t, tbl, byP, Options{Parallelism: 1}), q)
		if err != nil {
			t.Fatal(err)
		}
		for _, parallelism := range []int{1, 2, 3, 8} {
			for _, cacheBytes := range []int64{0, 32 << 20} {
				e := buildEngine(t, tbl, byP, Options{Parallelism: parallelism, ResultCacheBytes: cacheBytes})
				for _, pass := range []string{"cold", "warm"} {
					got, err := query(e, q)
					if err != nil {
						t.Fatal(err)
					}
					what := fmt.Sprintf("parallelism %d, cache %d, %s", parallelism, cacheBytes, pass)
					if pass == "warm" && cacheBytes > 0 && got.Stats.ChunksCached == 0 {
						t.Errorf("%s: no chunk came from the result cache", what)
					}
					requireSameRows(t, q, what, got.Rows, want.Rows)
				}
			}
		}
	}
}

// TestAppendHex32 pins the manual hex encoder to fmt's output.
func TestAppendHex32(t *testing.T) {
	for _, v := range []uint32{0, 1, 0xf, 0x10, 0xdeadbeef, 0xffffffff} {
		got := string(appendHex32(nil, v))
		want := fmt.Sprintf("%08x", v)
		if got != want {
			t.Errorf("appendHex32(%#x) = %q, want %q", v, got, want)
		}
	}
}

// TestParallelRowScanOrder pins the row-scan guarantee: parallel scans
// return rows in chunk order, identical to sequential, including under an
// early-stop LIMIT.
func TestParallelRowScanOrder(t *testing.T) {
	tbl := logs(4000)
	seq := buildEngine(t, tbl, chunkedOpts(), Options{Parallelism: 1})
	par := buildEngine(t, tbl, chunkedOpts(), Options{Parallelism: runtime.NumCPU()})
	for _, q := range []string{
		`SELECT country, latency FROM data WHERE latency > 500;`,
		`SELECT country, latency FROM data WHERE latency > 500 LIMIT 13;`,
		`SELECT user FROM data LIMIT 1;`,
		`SELECT user FROM data LIMIT 0;`,
	} {
		a, err := query(seq, q)
		if err != nil {
			t.Fatalf("seq %q: %v", q, err)
		}
		b, err := query(par, q)
		if err != nil {
			t.Fatalf("par %q: %v", q, err)
		}
		if fa, fb := resultFingerprint(t, a), resultFingerprint(t, b); fa != fb {
			t.Errorf("%s\nsequential:\n%s\nparallel:\n%s", q, fa, fb)
		}
	}
}
