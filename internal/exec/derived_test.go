package exec

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"powerdrill/internal/colstore"
	"powerdrill/internal/dict"
	"powerdrill/internal/memmgr"
	"powerdrill/internal/table"
	"powerdrill/internal/value"
	"powerdrill/internal/workload"
)

// derivedCharts are the click benchmark's 20 chart shapes under where —
// clickCharts, and chart 20, the row scan, with its row predicate — and two
// COUNT(DISTINCT user) charts, whose chunks hold more users than a sketch
// of 4 keeps.
func derivedCharts(where string) []string {
	qs := make([]string, 0, len(clickCharts)+3)
	for _, chart := range clickCharts {
		qs = append(qs, fmt.Sprintf(chart, where))
	}
	return append(qs,
		"SELECT timestamp, table_name, latency, country, user FROM data WHERE latency > 20000"+strings.Replace(where, " WHERE", " AND", 1)+
			" ORDER BY latency DESC, timestamp ASC, table_name ASC LIMIT 10;",
		"SELECT country AS k, COUNT(DISTINCT user) AS v FROM data"+where+" GROUP BY k ORDER BY v DESC, k ASC LIMIT 10;",
		"SELECT COUNT(DISTINCT user) AS v FROM data"+where+";")
}

// scanCounters is a query's statistics without those of residency — what
// was loaded from disk, and how — which depend on what earlier queries
// left resident.
func scanCounters(qs QueryStats) QueryStats {
	qs.ColdLoads, qs.ColdChunkLoads, qs.ColdDictLoads, qs.ColdBytesLoaded, qs.DiskBytesRead = 0, 0, 0, 0, 0
	qs.ChecksumVerified, qs.ReadRuns, qs.CoalescedReads = 0, 0, 0
	return qs
}

// TestDerivedTablesBitIdentical: the tables a chunk keeps (Chunk.Counts,
// Values and HashOrder) change no answer. The benchmark's chart shapes,
// unrestricted and under a user IN and a table_name IN mask, run on one
// engine with its chunks' tables unbuilt, then built; and twice on a lazy
// store, under a quarter of the resident bytes, where no table is kept,
// and without a budget, where the tables are charged to their chunks'
// entries, which are then all dropped, and reloaded by a third run. Every run's rows and scan counters equal those of a run on a fresh
// engine over a fresh store, at Parallelism 1 and 2 and at SketchM 4 and
// the default. The resident engine's second run builds no table.
func TestDerivedTablesBitIdentical(t *testing.T) {
	tbl := workload.QueryLogs(workload.LogsSpec{Rows: 12000, Seed: 1})
	built, err := colstore.FromTable(tbl, colstore.Options{PartitionFields: []string{"country", "table_name"}, MaxChunkRows: 500, OptimizeElements: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := colstore.Save(built, dir, "zippy"); err != nil {
		t.Fatal(err)
	}
	users, names := tbl.Column("user").Strs, tbl.Column("table_name").Strs
	var queries []string
	for _, where := range []string{"",
		fmt.Sprintf(` WHERE user IN (%q, %q, %q)`, users[0], users[1], users[2]),
		fmt.Sprintf(` WHERE table_name IN (%q, %q)`, names[0], names[7]),
	} {
		queries = append(queries, derivedCharts(where)...)
	}
	budget := residentFootprint(t, built) / 4

	for _, par := range []int{1, 2} {
		for _, m := range []int{4, 0} {
			opts := Options{Parallelism: par, SketchM: m}
			name := fmt.Sprintf("parallelism %d, m %d", par, m)
			open := func(mgr *memmgr.Manager) *Engine {
				s, _, err := colstore.OpenLazy(dir, mgr)
				if err != nil {
					t.Fatal(err)
				}
				return New(s, opts)
			}
			run := func(run string, e *Engine) []*Result {
				out := make([]*Result, len(queries))
				for i, q := range queries {
					if out[i], err = query(e, q); err != nil {
						t.Fatalf("%s, %s: %s: %v", name, run, q, err)
					}
				}
				return out
			}
			want := run("fresh", open(nil))
			check := func(run string, got []*Result) {
				for i, q := range queries {
					w, g := want[i], got[i]
					if !slices.EqualFunc(g.Rows, w.Rows, func(a, b []value.Value) bool { return slices.EqualFunc(a, b, sameBits) }) {
						t.Fatalf("%s, %s: %s = %v, want %v", name, run, q, g.Rows, w.Rows)
					}
					if scanCounters(g.Stats) != scanCounters(w.Stats) {
						t.Fatalf("%s, %s: %s: stats %+v, want %+v", name, run, q, g.Stats, w.Stats)
					}
				}
			}

			resident, _, err := colstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			e := New(resident, opts)
			builds := colstore.DerivedBuilds()
			check("resident, tables unbuilt", run("resident", e))
			first := colstore.DerivedBuilds() - builds
			check("resident, tables built", run("resident", e))
			if n := colstore.DerivedBuilds() - builds - first; first == 0 || n != 0 {
				t.Fatalf("%s: the resident engine built %d tables in its first run and %d in its second", name, first, n)
			}

			for _, budget := range []int64{budget, 0} {
				mgr := memmgr.New(budget, "")
				e = open(mgr)
				check("lazy, first run", run("lazy", e))
				check("lazy, second run", run("lazy", e))
				// Under a budget no table is kept; without one every chunk
				// that built one keeps it, charged to its entry.
				if st := mgr.Stats(); (budget > 0) != (st.Evictions > 0) || (budget > 0) != (st.DerivedBytes == 0) || st.DerivedBytes > st.ResidentBytes {
					t.Fatalf("%s, budget %d: %d evictions, %d derived bytes of %d resident", name, budget, st.Evictions, st.DerivedBytes, st.ResidentBytes)
				}
				mgr.DropNamespace(e.Store().CacheNamespace())
				if st := mgr.Stats(); st.ResidentBytes != 0 || st.DerivedBytes != 0 || st.PinnedBytes != 0 {
					t.Fatalf("%s, budget %d: after every entry was dropped: %+v", name, budget, st)
				}
				check("lazy, reloaded", run("lazy", e))
			}
		}
	}
}

// TestDerivedTablesWidths: a chunk's tables fall back to their wider forms
// where the narrow ones cannot hold them, and answer as the row-wise
// reference does. One chunk of 66 000 rows holds a group of 65 990 rows,
// which a uint16 count would wrap, a column of unique values, whose
// chunk-ids leave uint16, and an integer column whose values leave int32.
func TestDerivedTablesWidths(t *testing.T) {
	const rows = 66000
	g, u := make([]string, rows), make([]int64, rows)
	big, small := make([]int64, rows), make([]int64, rows)
	for i := range rows {
		g[i] = "a"
		if i%6600 == 0 {
			g[i] = "b"
		}
		u[i] = int64(i * 7919 % rows)
		big[i] = int64(i%977) * 5_000_000_011
		small[i] = int64(i%1013) - 500
	}
	tbl := table.New("data").AddStringColumn("g", g).AddInt64Column("u", u).
		AddInt64Column("big", big).AddInt64Column("small", small)
	store, err := colstore.FromTable(tbl, colstore.Options{MaxChunkRows: rows, OptimizeElements: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{4, 0} {
		for _, where := range []string{"", " WHERE small < 300"} {
			for _, q := range []string{
				"SELECT g, COUNT(*) AS c, SUM(big) AS s, AVG(big) AS a, SUM(small) AS t, COUNT(DISTINCT u) AS d FROM data" + where + " GROUP BY g ORDER BY g ASC;",
				"SELECT COUNT(*) AS c, COUNT(DISTINCT u) AS d, SUM(big) AS s, AVG(small) AS a FROM data" + where + ";",
			} {
				requireMatchesReference(t, store, Options{Parallelism: 1, SketchM: m}, q)
			}
		}
	}
	col := func(name string) *colstore.Chunk { return store.Column(name).Chunks[0] }
	if order := col("u").HashOrder(store.Column("u").Dict); order.U32 == nil {
		t.Errorf("u: hash order of %d chunk-ids not kept as uint32s", col("u").Cardinality())
	}
	if v := col("big").Values(store.Column("big").Dict, &dict.Table{}); v.I64 == nil {
		t.Error("big: values beyond int32 not kept as int64s")
	}
	if v := col("small").Values(store.Column("small").Dict, &dict.Table{}); v.I32 == nil {
		t.Error("small: values within int32 not kept as int32s")
	}
}
