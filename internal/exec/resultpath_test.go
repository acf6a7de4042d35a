package exec

import (
	"fmt"
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
// the id-space result path: a top-10 over 6 000 groups allocates per chunk
// (the partial) and per surviving row, never per group. The old path made a
// map entry, an accumulator slice and a result row for every group.
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
	// Per chunk: the partial, its two arrays. Per survivor: the row and its
	// key values. Per query: plan, scratch, slot table, slab, selection.
	bound := float64(120 + 4*chunks + 4*limit)
	t.Logf("%.0f allocations per query over %d chunks, %d groups (bound %.0f)", allocs, chunks, groups, bound)
	if bound >= groups {
		t.Fatalf("bound %.0f does not separate chunks from %d groups", bound, groups)
	}
	if allocs > bound {
		t.Errorf("%.0f allocations per query, want at most %.0f: something allocates per group", allocs, bound)
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
	all, err := e.Query(`SELECT timestamp, table_name, latency FROM data ORDER BY latency DESC, timestamp ASC;`)
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
	rsd := e.analyzeResidency(stmt, ps)
	e.prefetchColumns(stmt, ps, rsd.pinSet())
	p, err := e.plan(stmt, ps, rsd)
	if err != nil {
		ps.Release()
		t.Fatal(err)
	}
	return p, ps.Release
}

// BenchmarkFinalizeHighCardinality times the result path alone — top 10 of
// 6 000 merged groups — and reports its allocations.
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
		res, err := e.finalize(p, groups)
		if err != nil || len(res.Rows) != 10 {
			b.Fatalf("%v, %d rows", err, len(res.Rows))
		}
	}
}

// BenchmarkChunkScanAllocs times one worker scanning every chunk with its
// scratch, 2 000 groups to a chunk, and reports the allocations: in steady
// state the partial each chunk returns, nothing else.
func BenchmarkChunkScanAllocs(b *testing.B) {
	e := New(highCardinality(b), Options{Parallelism: 1})
	p, release := planned(b, e, highCardinalityTopK)
	defer release()
	var sc chunkAggCtx
	chunks := e.store.NumChunks()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ci := 0; ci < chunks; ci++ {
			part, err := e.aggregateChunk(p, ci, nil, nil, &sc)
			if err != nil || len(part.gids) != 2000 {
				b.Fatalf("%v, %d groups", err, len(part.gids))
			}
		}
	}
	b.ReportMetric(float64(chunks), "chunks/op")
}
