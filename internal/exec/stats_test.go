package exec

import (
	"fmt"
	"testing"

	"powerdrill/internal/colstore"
	"powerdrill/internal/memmgr"
)

// TestStatsPartitionEveryChunk holds every query to the paper's split:
// each chunk, and each row, is skipped, cached or scanned exactly once —
// group-bys, global aggregates and row scans (ordered, limited, stopped
// early), with the result cache off and on, repeated, sequential and
// parallel, resident and under a 25 % budget — and so are the engine's
// cumulative sums.
func TestStatsPartitionEveryChunk(t *testing.T) {
	dir := savedReorderedStore(t, 5000, "zippy")
	resident, _, err := colstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	footprint := residentFootprint(t, resident)
	queries := []string{
		`SELECT table_name, COUNT(*) AS c FROM data WHERE country = "de" GROUP BY table_name;`,
		`SELECT country, SUM(latency) AS s FROM data WHERE country IN ("de", "us") AND latency > 500 GROUP BY country;`,
		`SELECT COUNT(*) AS c, MAX(latency) AS m FROM data WHERE country = "de";`,
		`SELECT COUNT(*) AS c FROM data;`,
		`SELECT country, user FROM data WHERE country = "de";`,
		`SELECT user, latency FROM data WHERE country = "de" ORDER BY latency DESC LIMIT 7;`,
		`SELECT user FROM data WHERE country = "de" LIMIT 3;`,
		`SELECT user FROM data LIMIT 1;`,
	}
	check := func(what string, st QueryStats) {
		t.Helper()
		if st.ChunksSkipped+st.ChunksCached+st.ChunksScanned != st.ChunksTotal ||
			st.RowsSkipped+st.RowsCached+st.RowsScanned != st.RowsTotal {
			t.Errorf("%s: chunks %d skipped + %d cached + %d scanned of %d; rows %d + %d + %d of %d", what,
				st.ChunksSkipped, st.ChunksCached, st.ChunksScanned, st.ChunksTotal,
				st.RowsSkipped, st.RowsCached, st.RowsScanned, st.RowsTotal)
		}
	}
	for _, lazy := range []bool{false, true} {
		for _, par := range []int{1, 4} {
			for _, cacheBytes := range []int64{0, 32 << 20} {
				store := resident
				if lazy {
					if store, _, err = colstore.OpenLazy(dir, memmgr.New(footprint/4, "")); err != nil {
						t.Fatal(err)
					}
				}
				name := fmt.Sprintf("lazy=%v parallelism=%d cache=%d", lazy, par, cacheBytes)
				e := New(store, Options{Parallelism: par, ResultCacheBytes: cacheBytes})
				for rep := 0; rep < 2; rep++ {
					for _, q := range queries {
						res, err := query(e, q)
						if err != nil {
							t.Fatalf("%s: %s: %v", name, q, err)
						}
						check(name+": "+q, res.Stats)
					}
				}
				st := e.Stats()
				check(name+": Engine.Stats", st.QueryStats)
				if st.Queries != int64(2*len(queries)) || st.RowsTotal != st.Queries*int64(store.NumRows()) {
					t.Errorf("%s: Engine.Stats counts %d queries over %d rows", name, st.Queries, st.RowsTotal)
				}
			}
		}
	}
}
