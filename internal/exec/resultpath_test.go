package exec

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"powerdrill/internal/colstore"
	"powerdrill/internal/sql"
	"powerdrill/internal/table"
)

// highCardinality builds a resident store of 60 000 rows in 30 chunks whose
// column k has 6 000 distinct values, 2 000 of them in every chunk.
func highCardinality(t testing.TB) *colstore.Store {
	t.Helper()
	const rows, groups = 60000, 6000
	k := make([]string, rows)
	n := make([]int64, rows)
	part := make([]string, rows) // the partition field: 2 000 rows a chunk
	for i := range k {
		k[i] = fmt.Sprintf("k%05d", i%groups)
		n[i] = int64(i*7919%1009) + 1
		part[i] = fmt.Sprintf("p%02d", i/2000)
	}
	tbl := table.New("data").AddStringColumn("k", k).AddInt64Column("n", n).AddStringColumn("p", part)
	s, err := colstore.FromTable(tbl, colstore.Options{PartitionFields: []string{"p"}, MaxChunkRows: 2000})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

const highCardinalityTopK = `SELECT k, SUM(n) AS v FROM data GROUP BY k ORDER BY v DESC, k ASC LIMIT 10;`

// TestTopKAllocationsBoundedByChunks is the allocation regression guard of
// the id-space result path: a warm top-10 over 6 000 groups in 30 chunks
// allocates per query and per surviving row — never per group, and since
// the scan workers fold chunks into pooled tables, never per chunk either.
// The old path made a map entry, an accumulator slice and a result row for
// every group, and later a partial for every chunk.
func TestTopKAllocationsBoundedByChunks(t *testing.T) {
	store := highCardinality(t)
	e := New(store, Options{Parallelism: 1})
	stmt := mustParseStmt(t, highCardinalityTopK)
	res, err := e.Run(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("%d rows, want 10", len(res.Rows))
	}
	const groups, limit = 6000, 10
	chunks := store.NumChunks()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := e.Run(stmt); err != nil {
			t.Fatal(err)
		}
	})
	// Per survivor: the row and its key values. Per query: plan, workers,
	// the merged table and its arrays, selection.
	bound := float64(60 + 4*limit)
	t.Logf("%.0f allocations per query over %d chunks, %d groups (bound %.0f)", allocs, chunks, groups, bound)
	if bound >= groups {
		t.Fatalf("bound %.0f does not separate the query from its %d groups", bound, groups)
	}
	if allocs > bound {
		t.Errorf("%.0f allocations per query, want at most %.0f: something allocates per chunk or per group", allocs, bound)
	}
}

// TestMaskedScanAllocations is the allocation guard of the scan worker:
// with its scratch and table warm, scanning every chunk — unrestricted, or
// partially active under a three-conjunct IN restriction — allocates
// nothing: no partial, no verdict table, no bitmap. The restriction is tried
// in two orders: the selective leaf last (two spreads and an AND) and first
// (one spread, then probes of the few rows left).
func TestMaskedScanAllocations(t *testing.T) {
	store := highCardinality(t)
	e := New(store, Options{Parallelism: 1})
	chunks := store.NumChunks()
	var parts []string
	for ci := 0; ci < chunks; ci++ {
		parts = append(parts, fmt.Sprintf("%q", fmt.Sprintf("p%02d", ci)))
	}
	var (
		inP = "p IN (" + strings.Join(parts, ", ") + ")" // every row of every chunk
		inN = "n IN (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987)"
		inK = `k IN ("k00005", "k02005", "k04005")` // one group of each chunk
	)
	// scanAllocs measures one pass over every chunk with a warm worker.
	scanAllocs := func(where string) float64 {
		p, release := planned(t, e, `SELECT k, SUM(n) AS v FROM data`+where+` GROUP BY k;`)
		defer release()
		w := &scanWorker{}
		w.begin(p)
		pass := func() {
			var qs QueryStats
			for ci := 0; ci < chunks; ci++ {
				e.scanChunk(p, ci, 2, &qs, w)
			}
			if qs.ChunksScanned != int64(chunks) || qs.KernelChunks != int64(chunks) {
				t.Fatalf("%q: scanned %d, kernels on %d of %d chunks", where, qs.ChunksScanned, qs.KernelChunks, chunks)
			}
			w.table.reset()
		}
		pass()
		return testing.AllocsPerRun(10, pass)
	}
	if got := scanAllocs(""); got != 0 {
		t.Errorf("unrestricted scan: %.0f allocations over %d chunks, want none", got, chunks)
	}
	for _, where := range []string{
		" WHERE " + inP + " AND " + inN + " AND " + inK,
		" WHERE " + inK + " AND " + inN + " AND " + inP,
	} {
		p, release := planned(t, e, `SELECT k, SUM(n) AS v FROM data`+where+` GROUP BY k;`)
		for ci := 0; ci < chunks; ci++ {
			if state := p.where.classify(ci, byChunkDict); state != activeSome {
				t.Fatalf("chunk %d is %v under%s, want partially active", ci, state, where)
			}
		}
		release()
		if got := scanAllocs(where); got != 0 {
			t.Errorf("%.0f allocations per pass under%s, want none: the mask allocates per chunk", got, where)
		}
	}
}

// TestWarmScanAllocations: a warm group-by allocates per query, never per
// chunk, in count and in bytes. Each table is stored at two chunkings and
// grouped under every aggregate but COUNT(DISTINCT) — whose sketch runs are
// released after every query, so they regrow — fully active, under a mask
// and under a mask sparse enough for the gather kernel; a query's
// allocations must not tell the two stores apart. The first table groups 11
// keys over 13 000 rows in chunks of 1 000 and of 100 (a float sum logs one
// value per chunk and group; 11 groups keep the log small). The second
// groups 3 000 keys — a group table of 24 KB an array — over 6 000 rows in
// one chunk and in chunks of 100: a worker that regrew its element buffers
// for a large chunk, or its table for a large grouping, would allocate more
// at one chunking than at the other, or more than the bound: what a query
// makes per group — its merged table, 52 bytes a group for the second
// table's five aggregates, 68 for the first's six — rounded up to 72, plus
// 24 KiB.
func TestWarmScanAllocations(t *testing.T) {
	for _, c := range []struct {
		name      string
		rows      int
		groups    int
		chunkRows [2]int
	}{
		{"11 groups", 13000, 11, [2]int{1000, 100}},
		{"3000 groups", 6000, 3000, [2]int{6000, 100}},
	} {
		part, k, n, s, f := make([]int64, c.rows), make([]int64, c.rows), make([]int64, c.rows), make([]string, c.rows), make([]float64, c.rows)
		for i := range k {
			part[i] = int64(i / 100) // the partition field: chunks of whole hundreds
			k[i] = int64(i * 7 % c.groups)
			n[i] = int64(i * 13 % 101)
			s[i] = fmt.Sprintf("s%03d", i*11%211)
			f[i] = float64(i%9) / 4
		}
		tbl := table.New("data").AddInt64Column("c", part).AddInt64Column("k", k).AddInt64Column("n", n).
			AddStringColumn("s", s).AddFloat64Column("f", f)
		var engines [2]*Engine
		for i, chunkRows := range c.chunkRows {
			engines[i] = buildEngine(t, tbl, colstore.Options{PartitionFields: []string{"c"}, MaxChunkRows: chunkRows, OptimizeElements: true}, Options{Parallelism: 1})
		}
		few, many := engines[0].store.NumChunks(), engines[1].store.NumChunks()
		if many < 8*few {
			t.Fatalf("%s: %d and %d chunks: too close to tell per-chunk allocations apart", c.name, few, many)
		}
		aggs := `COUNT(*) AS c, SUM(n) AS sn, SUM(f) AS sf, AVG(f) AS af, MIN(s) AS lo, MAX(n) AS hi`
		if c.groups > 1000 {
			aggs = `COUNT(*) AS c, SUM(n) AS sn, AVG(n) AS an, MIN(s) AS lo, MAX(n) AS hi`
		}
		bound := float64(72*c.groups + 24<<10)
		for _, where := range []string{"", " WHERE n < 60", " WHERE n < 3"} {
			stmt := mustParseStmt(t, `SELECT k, `+aggs+` FROM data`+where+` GROUP BY k ORDER BY c DESC, k ASC LIMIT 10;`)
			var allocs, bytes [2]float64
			for i, e := range engines {
				allocs[i], bytes[i] = warmCost(10, func() {
					if _, err := e.Run(stmt); err != nil {
						t.Fatal(err)
					}
				})
			}
			t.Logf("%s: %.0f allocations, %.0f bytes at %d chunks; %.0f, %.0f at %d", stmt, allocs[0], bytes[0], few, allocs[1], bytes[1], many)
			if allocs[1] > allocs[0]+4 {
				t.Errorf("%s: %.0f allocations at %d chunks, %.0f at %d: the scan allocates per chunk", stmt, allocs[1], many, allocs[0], few)
			}
			if d := bytes[1] - bytes[0]; d > 32*float64(many) || d < -32*float64(many) {
				t.Errorf("%s: %.0f bytes at %d chunks, %.0f at %d: the scan allocates by chunk size or per chunk", stmt, bytes[0], few, bytes[1], many)
			}
			if max(bytes[0], bytes[1]) > bound {
				t.Errorf("%s: %.0f and %.0f bytes a query, want at most %.0f: a warm worker regrows its scratch or its table", stmt, bytes[0], bytes[1], bound)
			}
		}
	}
}

// warmCost empties the worker pool, runs f once, then n times on one thread,
// and returns what a run allocated: objects and bytes. The pool is
// process-wide, so without the emptying a measurement would start from what
// earlier tests left in it.
func warmCost(n int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	workerPool.empty()
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestPartialFollowsLayout: a chunk's partial — what the result cache holds
// — and the group table hold, per aggregate, exactly the arrays aggLayout
// names, in the engine's form: MIN or MAX as ids, float sums one per group,
// COUNT DISTINCT as runs. They hold no dictionary, no sketch and no pointer
// per group, so a cached entry cannot keep an evicted dictionary alive
// outside the memory budget. The cache charges a group 4 bytes for its
// global-id plus its layout's bytes.
func TestPartialFollowsLayout(t *testing.T) {
	e := buildEngine(t, finalizerTable(3000), chunkedOpts(), Options{Parallelism: 1})
	for _, c := range []struct {
		agg  string
		has  aggArrays
		size int64 // bytes a group; 0: runs, which vary
	}{
		{"COUNT(*)", arrCounts, 12},
		{"SUM(latency)", arrCounts | arrSumI, 20},
		{"AVG(cost)", arrCounts | arrParts, 20},
		{"MIN(user)", arrMin, 8},
		{"MAX(latency)", arrMax, 8},
		{"COUNT(DISTINCT latency)", arrSketch, 0},
	} {
		for _, keys := range []string{"user", "country, user"} {
			q := fmt.Sprintf(`SELECT %s, %s FROM data GROUP BY %s;`, keys, c.agg, keys)
			p, release := planned(t, e, q)
			var sc chunkAggCtx
			sc.begin(p)
			e.aggregateChunk(p, 0, nil, &sc)
			part := sc.newPartial(p)
			groups, _, err := e.executeChunks(p)
			release()
			if err != nil {
				t.Fatal(err)
			}
			requireLayout(t, q+" chunk partial", part, c.has)
			requireLayout(t, q+" group table", groups, c.has)

			n := int64(len(part.gids))
			want := n * c.size
			if c.size == 0 {
				want = 4*n + 4*(n+1) + 8*int64(len(part.aggs[0].hashes.vals))
			}
			if got := part.sizeBytes(); n < 2 || got != want {
				t.Errorf("%s: %d groups charged %d bytes, want %d", q, n, got, want)
			}
		}
	}
}

// requireLayout checks a group set of one aggregate against its layout.
func requireLayout(t *testing.T, what string, s *groupSet, has aggArrays) {
	t.Helper()
	if len(s.aggs) != 1 || s.aggs[0].has != has {
		t.Fatalf("%s: %d columns, want one of layout %#x", what, len(s.aggs), has)
	}
	a, n := &s.aggs[0], len(s.gids)
	for _, arr := range []struct {
		name      string
		named     bool
		got, want int
	}{
		{"counts", has&arrCounts != 0, len(a.counts), n},
		{"integer sums", has&arrSumI != 0, len(a.sumI), n},
		{"float sums", has&arrParts != 0, len(a.parts.vals), n},
		{"ids", has&(arrMin|arrMax) != 0, len(a.vals.ids), n},
		{"run offsets", has&arrSketch != 0, len(a.hashes.off), n + 1},
	} {
		if !arr.named {
			arr.want = 0
		}
		if arr.got != arr.want {
			t.Errorf("%s: %d %s over %d groups, want %d", what, arr.got, arr.name, n, arr.want)
		}
	}
	if v := &a.vals; a.parts.off != nil || v.ints != nil || v.flts != nil || v.off != nil || v.arena != nil ||
		has&arrSketch == 0 && a.hashes.vals != nil {
		t.Errorf("%s: holds arrays its layout does not name: %+v", what, a)
	}
	requirePointerFree(t, what, reflect.ValueOf(*s))
}

// requirePointerFree fails for any pointer, map or interface v holds, and
// any slice of such: a group set's arrays are numbers.
func requirePointerFree(t *testing.T, what string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			requirePointerFree(t, what+"."+v.Type().Field(i).Name, v.Field(i))
		}
	case reflect.Slice:
		for i := 0; i < v.Len() && v.Type().Elem().Kind() == reflect.Struct; i++ {
			requirePointerFree(t, fmt.Sprintf("%s[%d]", what, i), v.Index(i))
		}
		switch v.Type().Elem().Kind() {
		case reflect.Struct, reflect.Int64, reflect.Uint64, reflect.Float64, reflect.Uint32, reflect.Uint8:
		default:
			t.Errorf("%s is a %s", what, v.Type())
		}
	case reflect.Pointer, reflect.Map, reflect.Interface:
		if !v.IsNil() {
			t.Errorf("%s holds a %s", what, v.Type())
		}
	}
}

// TestRowScanLimitAllocations: a LIMIT 10 row scan with ORDER BY over
// 50 000 matching rows materializes at most LIMIT rows per chunk, and the
// result does not hold on to the others.
func TestRowScanLimitAllocations(t *testing.T) {
	const rows, limit = 50000, 10
	e := buildEngine(t, logs(rows), chunkedOpts(), Options{Parallelism: 1})
	stmt := mustParseStmt(t, `SELECT timestamp, table_name, latency FROM data ORDER BY latency DESC, timestamp ASC LIMIT 10;`)
	res, err := e.Run(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != limit || cap(res.Rows) > 2*limit {
		t.Fatalf("%d rows in a slice of capacity %d, want %d rows of their own", len(res.Rows), cap(res.Rows), limit)
	}
	all, err := query(e, `SELECT timestamp, table_name, latency FROM data ORDER BY latency DESC, timestamp ASC;`)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, stmt.String(), "LIMIT 10", res.Rows, all.Rows[:limit])

	chunks := e.store.NumChunks()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := e.Run(stmt); err != nil {
			t.Fatal(err)
		}
	})
	// Per chunk: up to LIMIT rows, the selection's heap and closures.
	bound := float64(200 + chunks*(limit+16))
	t.Logf("%.0f allocations per query over %d chunks, %d matching rows (bound %.0f)", allocs, chunks, rows, bound)
	if bound >= rows {
		t.Fatalf("bound %.0f does not separate LIMIT x chunks from %d rows", bound, rows)
	}
	if allocs > bound {
		t.Errorf("%.0f allocations per query, want at most %.0f: the scan materializes rows LIMIT cuts", allocs, bound)
	}
}

// planned compiles q against e the way Run does. The returned release
// drops the pins.
func planned(t testing.TB, e *Engine, q string) (*plan, func()) {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	ps := e.store.NewPinSet()
	p, err := e.prepare(context.Background(), stmt, ps)
	if err != nil {
		ps.Release()
		t.Fatal(err)
	}
	return p, ps.Release
}

// BenchmarkFinalizeHighCardinality times what Run does once the chunks are
// merged — the group table wrapped as a partial in id form, then the top 10
// of its 6 000 groups finalized — and reports its allocations.
func BenchmarkFinalizeHighCardinality(b *testing.B) {
	e := New(highCardinality(b), Options{Parallelism: 1})
	p, release := planned(b, e, highCardinalityTopK)
	defer release()
	groups, _, err := e.executeChunks(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		part, err := e.emitPartial(p, groups)
		if err != nil {
			b.Fatal(err)
		}
		res, err := FinalizePartial(p.stmt, part)
		if err != nil || len(res.Rows) != 10 {
			b.Fatalf("%v, %d rows", err, len(res.Rows))
		}
	}
}

// BenchmarkChunkScanAllocs times one worker scanning every chunk, 2 000
// groups to a chunk, into its table, and reports the allocations: in steady
// state none, however many chunks.
func BenchmarkChunkScanAllocs(b *testing.B) {
	e := New(highCardinality(b), Options{Parallelism: 1})
	p, release := planned(b, e, highCardinalityTopK)
	defer release()
	w := &scanWorker{}
	w.begin(p)
	chunks := e.store.NumChunks()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ci := 0; ci < chunks; ci++ {
			e.aggregateChunk(p, ci, nil, &w.chunkAggCtx)
			if len(w.present) != 2000 {
				b.Fatalf("%d groups", len(w.present))
			}
			w.table.add(w.groupGIDs, w.present, w.counts, w.dense, ci)
		}
		w.table.reset()
	}
	b.ReportMetric(float64(chunks), "chunks/op")
}

// empty drops every worker the pool keeps.
func (s *statePool) empty() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.free, s.held = nil, 0
}
