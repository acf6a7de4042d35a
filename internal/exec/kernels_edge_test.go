package exec

import (
	"fmt"
	"reflect"
	"testing"

	"powerdrill/internal/colstore"
	"powerdrill/internal/enc"
	"powerdrill/internal/table"
)

// edgeStore builds a store with exact 4-row chunks (partitioned by a
// monotone column, so row order is preserved) and unique tags planted at
// chunk boundaries: "first" at row 4 (first row of chunk 1), "last" at row
// 11 (last row of chunk 2). Chunk 3 holds a single distinct tag "only".
func edgeStore(t *testing.T) *colstore.Store {
	t.Helper()
	const rows, chunkRows = 16, 4
	s := make([]string, rows)
	n := make([]int64, rows)
	p := make([]string, rows)
	for i := 0; i < rows; i++ {
		s[i] = fmt.Sprintf("bulk%d", i%3)
		n[i] = int64(i)
		p[i] = fmt.Sprintf("p%02d", i/chunkRows)
	}
	s[4] = "first" // first row of chunk 1
	s[11] = "last" // last row of chunk 2
	for i := 12; i < 16; i++ {
		s[i] = "only" // chunk 3: one distinct value
	}
	tbl := table.New("data").
		AddStringColumn("s", s).
		AddInt64Column("n", n).
		AddStringColumn("p", p)
	store, err := colstore.FromTable(tbl, colstore.Options{
		PartitionFields: []string{"p"},
		MaxChunkRows:    chunkRows,
	})
	if err != nil {
		t.Fatalf("FromTable: %v", err)
	}
	if store.NumChunks() != 4 {
		t.Fatalf("edge store has %d chunks, want 4", store.NumChunks())
	}
	return store
}

// TestKernelChunkBoundaries drives restrictions that land exactly on chunk
// edges — the first row of a chunk, the last row of a chunk, a chunk with a
// single distinct value, and the all-rows / zero-rows extremes — through
// both scan paths and checks results and the skip/scan counters.
func TestKernelChunkBoundaries(t *testing.T) {
	store := edgeStore(t)
	cases := []struct {
		name    string
		query   string
		wantN   string // expected lone aggregate rendering, "" to skip
		scanned int64  // chunks the precise classification must scan
		skipped int64  // chunks skipped before or during classification
	}{
		{
			name:    "first row of a chunk",
			query:   `SELECT COUNT(*) AS c FROM data WHERE s = "first";`,
			wantN:   "1",
			scanned: 1, skipped: 3,
		},
		{
			name:    "last row of a chunk",
			query:   `SELECT SUM(n) AS c FROM data WHERE s = "last";`,
			wantN:   "11",
			scanned: 1, skipped: 3,
		},
		{
			name: "single-distinct chunk fully active",
			// Chunk 3 holds only "only": classification is activeAll, so the
			// chunk aggregates without a mask.
			query:   `SELECT COUNT(*) AS c FROM data WHERE s = "only";`,
			wantN:   "4",
			scanned: 1, skipped: 3,
		},
		{
			name:    "all rows match",
			query:   `SELECT COUNT(*) AS c FROM data WHERE n >= 0;`,
			wantN:   "16",
			scanned: 4, skipped: 0,
		},
		{
			name: "zero rows match",
			// No group receives a row, so the result is empty — and every
			// chunk is skipped before its data is touched.
			query:   `SELECT COUNT(*) AS c FROM data WHERE s = "absent";`,
			wantN:   "empty",
			scanned: 0, skipped: 4,
		},
		{
			name:  "group by spanning boundaries",
			query: `SELECT s, COUNT(*) AS c, MAX(n) AS m FROM data WHERE n < 12 GROUP BY s;`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			kernel := New(store, Options{Parallelism: 1})
			scalar := New(store, Options{Parallelism: 1, DisableKernels: true})
			kres, err := kernel.Query(tc.query)
			if err != nil {
				t.Fatalf("kernel: %v", err)
			}
			sres, err := scalar.Query(tc.query)
			if err != nil {
				t.Fatalf("scalar: %v", err)
			}
			if !reflect.DeepEqual(kres.Rows, sres.Rows) {
				t.Fatalf("paths diverge:\n  kernel: %#v\n  scalar: %#v", kres.Rows, sres.Rows)
			}
			switch tc.wantN {
			case "":
				return
			case "empty":
				if len(kres.Rows) != 0 {
					t.Fatalf("want empty result, got %#v", kres.Rows)
				}
			default:
				if len(kres.Rows) != 1 || len(kres.Rows[0]) != 1 {
					t.Fatalf("want one aggregate cell, got %#v", kres.Rows)
				}
				if got := kres.Rows[0][0].String(); got != tc.wantN {
					t.Fatalf("aggregate = %s, want %s", got, tc.wantN)
				}
			}
			for _, r := range []struct {
				path string
				res  *Result
			}{{"kernel", kres}, {"scalar", sres}} {
				if r.res.Stats.ChunksScanned != tc.scanned {
					t.Errorf("%s ChunksScanned = %d, want %d", r.path, r.res.Stats.ChunksScanned, tc.scanned)
				}
				if r.res.Stats.ChunksSkipped != tc.skipped {
					t.Errorf("%s ChunksSkipped = %d, want %d", r.path, r.res.Stats.ChunksSkipped, tc.skipped)
				}
			}
			if kres.Stats.KernelChunks != tc.scanned {
				t.Errorf("KernelChunks = %d, want %d", kres.Stats.KernelChunks, tc.scanned)
			}
			if sres.Stats.ScalarChunks != tc.scanned {
				t.Errorf("ScalarChunks = %d, want %d", sres.Stats.ScalarChunks, tc.scanned)
			}
		})
	}
}

// TestKernelSparseDenseCutover pins the sparse-gather/dense cutover: the
// same query must give identical results on either side of the mask
// popcount threshold (n*8 <= rows chooses the gather path).
func TestKernelSparseDenseCutover(t *testing.T) {
	const rows = 512
	s := make([]string, rows)
	n := make([]int64, rows)
	for i := 0; i < rows; i++ {
		s[i] = fmt.Sprintf("g%d", i%4)
		n[i] = int64(i % 17)
	}
	tbl := table.New("data").AddStringColumn("s", s).AddInt64Column("n", n)
	store, err := colstore.FromTable(tbl, colstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// n < 1 selects ~6% of rows (sparse); n < 9 selects ~53% (dense).
	for _, where := range []string{"n < 1", "n < 9"} {
		q := fmt.Sprintf(`SELECT s, COUNT(*) AS c, SUM(n) AS t FROM data WHERE %s GROUP BY s;`, where)
		kres, err := New(store, Options{Parallelism: 1}).Query(q)
		if err != nil {
			t.Fatal(err)
		}
		sres, err := New(store, Options{Parallelism: 1, DisableKernels: true}).Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(kres.Rows, sres.Rows) {
			t.Fatalf("%s: paths diverge:\n  kernel: %#v\n  scalar: %#v", where, kres.Rows, sres.Rows)
		}
	}
}

// TestKernelEmptyStore: a store built from an empty table has one chunk of
// no rows and an empty chunk dictionary, which no kernel may index.
func TestKernelEmptyStore(t *testing.T) {
	tbl := table.New("data").AddStringColumn("s", nil).AddInt64Column("n", nil)
	store, err := colstore.FromTable(tbl, colstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`SELECT COUNT(*), MIN(n), MAX(s), COUNT(DISTINCT s), SUM(n) FROM data;`,
		`SELECT s, MIN(n), COUNT(DISTINCT n), AVG(n) FROM data GROUP BY s;`,
		`SELECT s, MAX(n) FROM data WHERE n > 3 GROUP BY s;`,
	} {
		kres, kerr := New(store, Options{}).Query(q)
		sres, serr := New(store, Options{DisableKernels: true}).Query(q)
		if kerr != nil || serr != nil {
			t.Fatalf("%s: kernel error %v, scalar error %v", q, kerr, serr)
		}
		if len(kres.Rows) != 0 || len(sres.Rows) != 0 {
			t.Errorf("%s: rows from an empty store: kernel %v, scalar %v", q, kres.Rows, sres.Rows)
		}
	}
}

// TestKernelMaskErrorParity: the kernel mask evaluation stops folding a
// subtree once a leaf has decided it, but the scalar path evaluates every
// child, and a row predicate among them may fail. The kernels must report
// that failure too — here the chunk dictionary decides the AND ("none", by
// n = 99) and the OR ("all", by p) before the failing comparison is reached.
func TestKernelMaskErrorParity(t *testing.T) {
	store := edgeStore(t)
	for _, q := range []string{
		`SELECT COUNT(*) FROM data WHERE (p = "p00" AND n = 99 AND s < n) OR n >= 2;`,
		`SELECT COUNT(*) FROM data WHERE (p = "p00" OR s < n) AND n >= 2;`,
	} {
		_, kerr := New(store, Options{}).Query(q)
		_, serr := New(store, Options{DisableKernels: true}).Query(q)
		if kerr == nil || serr == nil || kerr.Error() != serr.Error() {
			t.Errorf("%s:\n  kernel: %v\n  scalar: %v", q, kerr, serr)
		}
	}
}

// TestKernelsEveryWidth runs every pair of group and argument element widths
// through the kernels and the scalar path, and demands the same results and
// group tables, bit for bit. A chunk stores a column's elements at the width
// its chunk dictionary's cardinality picks — constant, bit-set, 1, 2 or 4
// bytes — so one chunk of 66 000 rows holds a column at each (4 bytes takes
// more than 65 536 distinct values). Each pair runs as a GROUP BY and as a
// global aggregate, unrestricted and under a mask that keeps half the rows;
// with OptimizeElements off, where every column is 4 bytes, every group
// width runs against one argument.
func TestKernelsEveryWidth(t *testing.T) {
	const rows = 66000
	widths := []struct {
		name string
		card int
		want enc.Width
	}{
		{"const", 1, enc.Width0}, {"bit", 2, enc.Width1}, {"w8", 200, enc.Width8},
		{"w16", 3000, enc.Width16}, {"w32", rows, enc.Width32},
	}
	tbl := table.New("data")
	for _, w := range widths {
		ints, flts := make([]int64, rows), make([]float64, rows)
		for i := range ints {
			v := (i*7919 + w.card/3) % w.card // every value of [0, card), scattered
			ints[i], flts[i] = int64(v)*3-50, float64(v)/8-1
		}
		tbl.AddInt64Column("i_"+w.name, ints).AddFloat64Column("f_"+w.name, flts)
	}
	for _, optimize := range []bool{true, false} {
		store, err := colstore.FromTable(tbl, colstore.Options{MaxChunkRows: rows, OptimizeElements: optimize})
		if err != nil {
			t.Fatal(err)
		}
		args := widths[3:4]
		if optimize {
			args = widths
		}
		for _, w := range widths {
			for _, col := range []string{"i_", "f_"} {
				got, want := store.Column(col + w.name).Chunks[0].Elems.Width(), w.want
				if !optimize {
					want = enc.Width32
				}
				if store.NumChunks() != 1 || got != want {
					t.Fatalf("optimize %v: %d chunks, %s%s at width %v, want one chunk at %v", optimize, store.NumChunks(), col, w.name, got, want)
				}
			}
		}
		for _, g := range append([]string{""}, "const", "bit", "w8", "w16", "w32") {
			sel, group := "", ""
			if g != "" {
				sel, group = "i_"+g+", ", " GROUP BY i_"+g
			}
			for _, a := range args {
				aggs := fmt.Sprintf("COUNT(*) AS c, SUM(i_%[1]s) AS s, AVG(f_%[1]s) AS av, MIN(i_%[1]s) AS lo, MAX(f_%[1]s) AS hi, COUNT(DISTINCT i_%[1]s) AS d", a.name)
				for _, where := range []string{"", " WHERE i_w16 < 4450"} {
					q := "SELECT " + sel + aggs + " FROM data" + where + group + " ORDER BY c DESC, s ASC LIMIT 20;"
					requireKernelsMatchScalar(t, store, Options{Parallelism: 1}, q)
				}
			}
		}
	}
}
