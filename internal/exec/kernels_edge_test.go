package exec

import (
	"fmt"
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
// the engine and the row-wise reference, and checks results and the
// skip/scan counters: every scanned chunk is a kernel chunk.
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
			res := requireMatchesReference(t, store, Options{Parallelism: 1}, tc.query)
			if res == nil {
				t.Fatal("the query failed, as the reference did")
			}
			switch tc.wantN {
			case "":
			case "empty":
				if len(res.Rows) != 0 {
					t.Fatalf("want empty result, got %#v", res.Rows)
				}
			default:
				if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
					t.Fatalf("want one aggregate cell, got %#v", res.Rows)
				}
				if got := res.Rows[0][0].String(); got != tc.wantN {
					t.Fatalf("aggregate = %s, want %s", got, tc.wantN)
				}
			}
			st := res.Stats
			if tc.wantN != "" && (st.ChunksScanned != tc.scanned || st.ChunksSkipped != tc.skipped) {
				t.Errorf("ChunksScanned, ChunksSkipped = %d, %d, want %d, %d", st.ChunksScanned, st.ChunksSkipped, tc.scanned, tc.skipped)
			}
			if st.KernelChunks != st.ChunksScanned || st.ScalarChunks != 0 {
				t.Errorf("KernelChunks = %d, ScalarChunks = %d, want %d and 0", st.KernelChunks, st.ScalarChunks, st.ChunksScanned)
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
		requireMatchesReference(t, store, Options{Parallelism: 1}, q)
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
		if res := requireMatchesReference(t, store, Options{}, q); res == nil || len(res.Rows) != 0 {
			t.Errorf("%s: %v from an empty store, want no rows", q, res)
		}
	}
}

// TestKernelMaskErrorParity: the mask evaluation stops folding a subtree
// once a leaf has decided it — here the chunk dictionary decides the AND
// ("none", by n = 99) and the OR ("all", by p) before the failing
// comparison is reached — but the failing comparison is a predicate field,
// evaluated at every row when the query compiles, so the query reports
// its failure. The error is the failing comparison's own, with skipping on
// and off.
func TestKernelMaskErrorParity(t *testing.T) {
	const want = "expr: cannot compare string with int64"
	store := edgeStore(t)
	for _, q := range []string{
		`SELECT COUNT(*) FROM data WHERE (p = "p00" AND n = 99 AND s < n) OR n >= 2;`,
		`SELECT COUNT(*) FROM data WHERE (p = "p00" OR s < n) AND n >= 2;`,
	} {
		for _, noSkip := range []bool{false, true} {
			opts := Options{DisableSkipping: noSkip}
			if _, err := query(New(store, opts), q); err == nil || err.Error() != want {
				t.Errorf("%s (DisableSkipping %v): error %v, want %q", q, noSkip, err, want)
			}
			requireMatchesReference(t, store, opts, q)
		}
	}
}

// TestKernelsEveryWidth runs every pair of group and argument element widths
// through the kernels and the row-wise reference, and demands the same
// partials and results, bit for bit. A chunk stores a column's elements at the width
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
					requireMatchesReference(t, store, Options{Parallelism: 1}, q)
				}
			}
		}
	}
}

// TestKernelFloatSumOrder pins the order float SUM and AVG add in, which
// the other tests' floats — multiples of a power of two — cannot show: a
// sum of reciprocals rounds differently in almost any other order. Each
// kernel that sums floats (the whole chunk or a mask, one group or many,
// dense or sparse) runs over uneven chunks at one and three workers, and
// must add each chunk's rows in ascending order and the chunks' sums in
// chunk order, as the reference does.
func TestKernelFloatSumOrder(t *testing.T) {
	const rows = 3000
	g, p := make([]string, rows), make([]string, rows)
	x, y := make([]float64, rows), make([]int64, rows)
	for i := range x {
		g[i] = fmt.Sprintf("g%d", i*i%5)
		p[i] = fmt.Sprintf("p%02d", i*i/(rows*rows/12))
		x[i] = 1 / float64(1+i%97)
		y[i] = int64(i * 7919 % 100)
	}
	tbl := table.New("data").AddStringColumn("g", g).AddStringColumn("p", p).
		AddFloat64Column("x", x).AddInt64Column("y", y)
	store, err := colstore.FromTable(tbl, colstore.Options{PartitionFields: []string{"p"}, MaxChunkRows: 400})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 3} {
		for _, q := range []string{
			`SELECT g, SUM(x), AVG(x) FROM data GROUP BY g;`,
			`SELECT g, SUM(x) FROM data WHERE y < 60 GROUP BY g;`,
			`SELECT g, SUM(x) FROM data WHERE y < 5 GROUP BY g;`,
			`SELECT p, SUM(x) FROM data WHERE y >= 30 GROUP BY p;`,
			`SELECT SUM(x), AVG(x) FROM data;`,
			`SELECT SUM(x) FROM data WHERE y < 60;`,
			`SELECT SUM(x) FROM data WHERE y < 5;`,
		} {
			requireMatchesReference(t, store, Options{Parallelism: par}, q)
		}
	}
}
