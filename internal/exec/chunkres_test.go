package exec

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"powerdrill/internal/colstore"
	"powerdrill/internal/memmgr"
	"powerdrill/internal/sql"
	"powerdrill/internal/value"
	"powerdrill/internal/workload"
)

// savedReorderedStore persists a store partitioned AND row-reordered on
// country/table_name, so chunks cover contiguous value runs and the
// manifest spans prune exactly. codec "" keeps per-chunk disk reads exact.
func savedReorderedStore(t testing.TB, rows int, codec string) string {
	t.Helper()
	tbl := workload.QueryLogs(workload.LogsSpec{Rows: rows, Seed: 23})
	s, err := colstore.FromTable(tbl, colstore.Options{
		PartitionFields:  []string{"country", "table_name"},
		MaxChunkRows:     500,
		OptimizeElements: true,
		Reorder:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := colstore.Save(s, dir, codec); err != nil {
		t.Fatal(err)
	}
	return dir
}

// chunksContaining counts the chunks of a column that actually contain the
// value — the ground truth k for "a restriction selecting k of n chunks".
func chunksContaining(t *testing.T, s *colstore.Store, column, val string) int64 {
	t.Helper()
	col, err := s.ColumnErr(column)
	if err != nil {
		t.Fatal(err)
	}
	gid, ok := col.Dict.Lookup(value.String(val))
	if !ok {
		t.Fatalf("value %q not in %q dictionary", val, column)
	}
	var k int64
	for _, ch := range col.Chunks {
		if _, found := ch.ChunkID(gid); found {
			k++
		}
	}
	return k
}

// TestChunkGranularExactColdLoads is the acceptance test of chunk-granular
// residency: a restricted query whose restriction selects k of n chunks
// must cold-load exactly the k active chunks of each column it touches
// (plus the dictionary frames that hold its literal and its groups), under a tight budget, with results
// bit-for-bit identical to an unbudgeted fully resident store.
func TestChunkGranularExactColdLoads(t *testing.T) {
	dir := savedReorderedStore(t, 6000, "")
	eagerStore, _, err := colstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	footprint := residentFootprint(t, eagerStore)
	k := chunksContaining(t, eagerStore, "country", "de")
	n := int64(eagerStore.NumChunks())
	if k == 0 || k == n {
		t.Fatalf("degenerate test data: %d of %d chunks contain de", k, n)
	}

	mgr := memmgr.New(footprint/4, "") // tight: ~25% of the store
	lazyStore, _, err := colstore.OpenLazy(dir, mgr)
	if err != nil {
		t.Fatal(err)
	}
	eager := New(eagerStore, Options{Parallelism: 2})
	lazy := New(lazyStore, Options{Parallelism: 2})

	// One restriction column, one group column: the query touches exactly
	// two columns, so the k active chunks cost 2k chunk loads.
	q := `SELECT table_name, COUNT(*) AS c FROM data WHERE country = "de" GROUP BY table_name ORDER BY c DESC, table_name ASC;`
	want, err := query(eager, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := query(lazy, q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, q, want, got)

	st := got.Stats
	if st.ActiveChunks != k {
		t.Fatalf("residency marked %d chunks active, %d contain de", st.ActiveChunks, k)
	}
	if st.SkippedChunks != n-k {
		t.Fatalf("residency skipped %d chunks, want %d", st.SkippedChunks, n-k)
	}
	if st.ColdChunkLoads != 2*k {
		t.Fatalf("cold chunk loads = %d, want exactly 2k = %d (k=%d of %d chunks)",
			st.ColdChunkLoads, 2*k, k, n)
	}
	r, _, err := colstore.NewReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	frames, _ := framesHolding(t, r, eagerStore, "country", []value.Value{value.String("de")})
	groups, _ := framesHolding(t, r, eagerStore, "table_name", columnValues(want, 0))
	if st.ColdDictLoads != frames+groups {
		t.Fatalf("cold dict loads = %d, want %d frames of country and table_name", st.ColdDictLoads, frames+groups)
	}
	if st.ColdLoads != 2 {
		t.Fatalf("cold columns = %d, want 2", st.ColdLoads)
	}

	// Warm repeat: nothing else may load.
	warm, err := query(lazy, q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, q, want, warm)
	if warm.Stats.ColdChunkLoads != 0 || warm.Stats.ColdDictLoads != 0 || warm.Stats.ColdLoads != 0 {
		t.Fatalf("warm repeat cold-loaded: %+v", warm.Stats)
	}

	// The manager held exactly the active working set: 2 layouts, the
	// dictionary frames and 2k chunks.
	ms := mgr.Stats()
	if want := 2*k + 2 + frames + groups; ms.ColdLoads != want || int64(ms.ResidentItems) != want {
		t.Fatalf("manager cold loads = %d, resident items = %d, want %d", ms.ColdLoads, ms.ResidentItems, want)
	}
}

// TestChunkGranularEvictReloadDeterministic drives the full workload zoo
// through a chunk-granular store under a budget small enough to force
// chunk evictions mid-workload, twice, and checks every answer bit-for-bit
// against the fully resident engine.
func TestChunkGranularEvictReloadDeterministic(t *testing.T) {
	for _, codec := range []string{"", "zippy"} {
		name := codec
		if name == "" {
			name = "raw"
		}
		t.Run(name, func(t *testing.T) {
			dir := savedReorderedStore(t, 4000, codec)
			eagerStore, _, err := colstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			budget := residentFootprint(t, eagerStore) / 5
			mgr := memmgr.New(budget, "")
			lazyStore, _, err := colstore.OpenLazy(dir, mgr)
			if err != nil {
				t.Fatal(err)
			}
			eager := New(eagerStore, Options{Parallelism: 2})
			lazy := New(lazyStore, Options{Parallelism: 2})
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
					st := mgr.Stats()
					if over := st.ResidentBytes - st.PinnedBytes; over > budget {
						t.Fatalf("evictable resident %d exceeds budget %d", over, budget)
					}
				}
			}
			if st := mgr.Stats(); st.Evictions == 0 {
				t.Fatalf("no chunk evictions under a 20%% budget: %+v", st)
			}
			if st := lazy.Stats(); st.ColdChunkLoads == 0 || st.SkippedChunks == 0 {
				t.Fatalf("chunk counters did not engage: %+v", st)
			}
		})
	}
}

// TestChunkGranularConcurrentRestricted hammers a tightly budgeted
// chunk-granular store with concurrent restricted queries over different
// chunk subsets (forcing per-chunk eviction/reload races) and checks every
// answer against the resident engine. Run with -race.
func TestChunkGranularConcurrentRestricted(t *testing.T) {
	dir := savedReorderedStore(t, 4000, "")
	eagerStore, _, err := colstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	budget := residentFootprint(t, eagerStore) / 5
	mgr := memmgr.New(budget, "")
	lazyStore, _, err := colstore.OpenLazy(dir, mgr)
	if err != nil {
		t.Fatal(err)
	}
	eager := New(eagerStore, Options{Parallelism: 2})
	lazy := New(lazyStore, Options{Parallelism: 2})

	queries := []string{
		`SELECT table_name, COUNT(*) AS c FROM data WHERE country = "de" GROUP BY table_name ORDER BY c DESC, table_name ASC;`,
		`SELECT table_name, COUNT(*) AS c FROM data WHERE country = "us" GROUP BY table_name ORDER BY c DESC, table_name ASC;`,
		`SELECT user, SUM(latency) AS s FROM data WHERE country IN ("ch", "jp") GROUP BY user ORDER BY s DESC, user ASC LIMIT 10;`,
		`SELECT country, AVG(latency) AS a FROM data WHERE latency > 500 GROUP BY country ORDER BY a DESC, country ASC;`,
		`SELECT country, COUNT(*) AS c FROM data GROUP BY country ORDER BY c DESC, country ASC;`,
	}
	want := make(map[string]*Result, len(queries))
	for _, q := range queries {
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
			for i := 0; i < 4*len(queries); i++ {
				q := queries[(w+i)%len(queries)]
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

// TestResidencySoundness checks the safety property of pruning on the one
// compiled tree: what the spans prove about a chunk — none or all — the
// exact classification on its chunk dictionary confirms, and the plan's
// active count is its flag sum. Over the operator zoo of restrict_test
// plus a materialized expression and an equality on an unsorted column,
// on a lazy store; some predicate must prune a chunk on its spans.
func TestResidencySoundness(t *testing.T) {
	store, _, err := colstore.OpenLazy(savedReorderedStore(t, 6000, ""), memmgr.New(1<<30, ""))
	if err != nil {
		t.Fatal(err)
	}
	e := New(store, Options{})
	// A date and a latency that occur; the first query materializes the
	// expression.
	res, err := query(e, `SELECT MIN(date(timestamp)), MAX(latency) FROM data;`)
	if err != nil {
		t.Fatal(err)
	}
	preds := append(slices.Clone(predicateZoo),
		`latency = latency`, // a predicate field: every row holds 1
		fmt.Sprintf(`date(timestamp) = %q`, res.Rows[0][0].Str()),
		fmt.Sprintf(`latency = %d`, res.Rows[0][1].Int()))
	spanSkipped := 0
	for _, pred := range preds {
		stmt, err := sql.Parse(`SELECT country, COUNT(*) FROM data WHERE ` + pred + ` GROUP BY country;`)
		if err != nil {
			t.Fatalf("parse %q: %v", pred, err)
		}
		ps := store.NewPinSet()
		p, err := e.prepare(context.Background(), stmt, ps)
		if err != nil {
			t.Fatalf("prepare %q: %v", pred, err)
		}
		// The exact verdict reads every chunk's dictionary, pruned or not.
		for _, col := range p.accessCols {
			if _, err := ps.Column(col); err != nil {
				t.Fatal(err)
			}
		}
		count := 0
		for ci := 0; ci < store.NumChunks(); ci++ {
			span, exact := p.where.classify(ci, bySpans), p.where.classify(ci, byChunkDict)
			if span != activeSome && span != exact {
				t.Fatalf("%q chunk %d: spans prove %v but the chunk dictionary says %v", pred, ci, span, exact)
			}
			if p.active[ci] != (span != activeNone) {
				t.Fatalf("%q chunk %d: active %v under span verdict %v", pred, ci, p.active[ci], span)
			}
			if p.active[ci] {
				count++
			}
		}
		if count != p.activeCount {
			t.Fatalf("%q: active count %d, active flags sum %d", pred, p.activeCount, count)
		}
		spanSkipped += store.NumChunks() - count
		ps.Release()
	}
	if spanSkipped == 0 {
		t.Fatal("no predicate was pruned on its spans")
	}
}

// TestAliasShadowingColumnIsNotLoaded: ORDER BY and HAVING name output
// columns, so an alias that happens to spell a store column must not load
// that column — the statement costs what it costs with any other alias,
// and a statement the planner rejects for its ORDER BY key loads no more
// than it would for a key that names nothing.
func TestAliasShadowingColumnIsNotLoaded(t *testing.T) {
	dir := savedReorderedStore(t, 6000, "")
	// cold runs q on a store opened for it alone: its cold columns, chunks,
	// dictionaries and disk bytes, and what the memory manager loaded.
	cold := func(q string) (loads [4]int64, mgrLoads int64, err error) {
		mgr := memmgr.New(0, "")
		store, _, err := colstore.OpenLazy(dir, mgr)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		res, err := query(New(store, Options{}), q)
		if err == nil {
			st := res.Stats
			loads = [4]int64{st.ColdLoads, st.ColdChunkLoads, st.ColdDictLoads, st.DiskBytesRead}
		}
		return loads, mgr.Stats().ColdLoads, err
	}
	var want [4]int64
	for i, q := range []string{
		`SELECT country, COUNT(*) AS c FROM data GROUP BY country ORDER BY c DESC;`,
		`SELECT country, COUNT(*) AS latency FROM data GROUP BY country ORDER BY latency DESC;`,
		`SELECT country, COUNT(*) AS c FROM data GROUP BY country HAVING c > 0 ORDER BY c DESC;`,
		`SELECT country, COUNT(*) AS latency FROM data GROUP BY country HAVING latency > 0 ORDER BY latency DESC;`,
	} {
		loads, _, err := cold(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if i == 0 {
			want = loads
		} else if loads != want {
			t.Errorf("%s\ncold-loaded [columns chunks dicts diskbytes] %v, want %v", q, loads, want)
		}
	}
	_, named, err := cold(`SELECT country FROM data ORDER BY latency;`)
	if err == nil {
		t.Fatal("ORDER BY a column outside the select list was accepted")
	}
	_, unnamed, err := cold(`SELECT country FROM data ORDER BY nosuchcolumn;`)
	if err == nil {
		t.Fatal("ORDER BY an unknown name was accepted")
	}
	if named > unnamed {
		t.Errorf("rejected ORDER BY latency cold-loaded %d entries, %d for a key that names nothing", named, unnamed)
	}
}
