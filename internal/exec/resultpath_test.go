package exec

import (
	"fmt"
	"reflect"
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

// TestMaskedScanAllocations is the allocation guard of the restriction
// masks: with a worker's scratch warm, scanning a partially active chunk
// under a three-conjunct IN restriction allocates what scanning it
// unrestricted does — the partial it returns — and nothing for verdict
// tables or bitmaps. The restriction is tried in two orders: the selective
// leaf last (two spreads and an AND) and first (one spread, then probes of
// the few rows left).
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
	// scanAllocs measures one pass over every chunk with a warm scratch.
	scanAllocs := func(where string) float64 {
		p, release := planned(t, e, `SELECT k, SUM(n) AS v FROM data`+where+` GROUP BY k;`)
		defer release()
		var sc chunkAggCtx
		pass := func() {
			var qs QueryStats
			for ci := 0; ci < chunks; ci++ {
				if _, err := e.scanChunk(p, ci, 2, &qs, &sc); err != nil {
					t.Fatal(err)
				}
			}
			if qs.ChunksScanned != chunks || qs.KernelChunks != chunks {
				t.Fatalf("%q: scanned %d, kernels on %d of %d chunks", where, qs.ChunksScanned, qs.KernelChunks, chunks)
			}
		}
		pass()
		return testing.AllocsPerRun(10, pass)
	}
	unrestricted := scanAllocs("")
	if unrestricted != float64(3*chunks) {
		t.Errorf("unrestricted scan: %.0f allocations over %d chunks, want 3 a chunk (the partial and its two arrays)", unrestricted, chunks)
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
		if got := scanAllocs(where); got > unrestricted {
			t.Errorf("%.0f allocations per pass under%s, %.0f unrestricted: the mask allocates per chunk", got, where, unrestricted)
		}
	}
}

// TestPartialIsNoscan: an accumulator cell holds no pointer, and the
// partials of a plan without COUNT(DISTINCT) carry no distinct cells, so
// their accumulator arrays — in a chunk's partial, the group table, the
// result cache — are memory the garbage collector does not scan.
func TestPartialIsNoscan(t *testing.T) {
	cell := reflect.TypeOf(accCell{})
	if cell.Size() != accCellBytes {
		t.Errorf("accCell is %d bytes, accCellBytes says %d", cell.Size(), accCellBytes)
	}
	for i := 0; i < cell.NumField(); i++ {
		switch f := cell.Field(i); f.Type.Kind() {
		case reflect.Int64, reflect.Float64, reflect.Uint32, reflect.Bool:
		default:
			t.Errorf("accCell.%s is a %s: the cell must stay pointer-free", f.Name, f.Type)
		}
	}
	e := New(highCardinality(t), Options{Parallelism: 1})
	for q, wantDistinct := range map[string]bool{
		`SELECT k, SUM(n), MIN(n), AVG(n), COUNT(*) FROM data WHERE n > 500 GROUP BY k;`: false,
		`SELECT p, MAX(n), COUNT(DISTINCT k) FROM data GROUP BY p;`:                      true,
	} {
		p, release := planned(t, e, q)
		var sc chunkAggCtx
		part, err := e.scanChunk(p, 0, 2, &QueryStats{}, &sc)
		if err != nil {
			t.Fatal(err)
		}
		groups, _, err := e.executeChunks(p)
		if err != nil {
			t.Fatal(err)
		}
		release()
		if len(part.accs) == 0 || (part.distinct != nil) != wantDistinct || (groups.distinct != nil) != wantDistinct {
			t.Errorf("%s: %d cells, distinct cells in partial: %v, in group table: %v, want %v",
				q, len(part.accs), part.distinct != nil, groups.distinct != nil, wantDistinct)
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
	p, err := e.prepare(stmt, ps)
	if err != nil {
		ps.Release()
		t.Fatal(err)
	}
	return p, ps.Release
}

// BenchmarkFinalizeHighCardinality times the result path alone — the group
// table emitted in id form, then the top 10 of its 6 000 groups finalized —
// and reports its allocations.
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
