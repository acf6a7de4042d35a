package exec_test

import (
	"context"
	"fmt"
	"testing"

	"powerdrill/internal/colstore"
	"powerdrill/internal/exec"
	"powerdrill/internal/ingest"
	"powerdrill/internal/memmgr"
	"powerdrill/internal/sql"
	"powerdrill/internal/table"
)

// memoRows is rows [start, start+n) of a stream whose row i has v = i and
// c = "c" + i%5.
func memoRows(start, n int) *table.Table {
	vs, cs := make([]int64, n), make([]string, n)
	for i := range vs {
		vs[i], cs[i] = int64(start+i), fmt.Sprintf("c%d", (start+i)%5)
	}
	return table.New("data").AddInt64Column("v", vs).AddStringColumn("c", cs)
}

// TestRestrictionMemoIngest: rows that match a memoized restriction are
// appended between two queries, into the write buffer and then into a
// sealed segment; every answer counts them. The base store's engine answers
// the repeats from its memo, and each new unit has an engine of its own.
func TestRestrictionMemoIngest(t *testing.T) {
	dir := t.TempDir()
	opts := colstore.Options{PartitionFields: []string{"c"}, MaxChunkRows: 128, OptimizeElements: true}
	cs, err := colstore.FromTable(memoRows(0, 1000), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := colstore.Save(cs, dir, "zippy"); err != nil {
		t.Fatal(err)
	}
	base, _, err := colstore.OpenLazy(dir, memmgr.New(0, ""))
	if err != nil {
		t.Fatal(err)
	}
	baseEng := exec.New(base, exec.Options{})
	w, err := ingest.Attach(dir, base, baseEng, ingest.Opts{SealRows: 1 << 20, CompactMinSegments: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	stmt, err := sql.Parse(`SELECT c, COUNT(*) AS n, SUM(v) AS s FROM data WHERE c IN ("c1", "c3") AND v >= 500 GROUP BY c ORDER BY c ASC;`)
	if err != nil {
		t.Fatal(err)
	}
	// want is q's answer over rows [0, rows): c1 and c3 rows from 500 on.
	want := func(rows int) string {
		var n, s [2]int64
		for i := 500; i < rows; i++ {
			if k := i % 5; k == 1 || k == 3 {
				n[k/2]++
				s[k/2] += int64(i)
			}
		}
		return fmt.Sprintf("c1 %d %d\nc3 %d %d\n", n[0], s[0], n[1], s[1])
	}
	check := func(rows int) {
		t.Helper()
		snap, err := w.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Release()
		for rep := 0; rep < 2; rep++ {
			res, err := snap.RunContext(context.Background(), stmt)
			if err != nil {
				t.Fatal(err)
			}
			got := ""
			for _, r := range res.Rows {
				got += fmt.Sprintf("%s %d %d\n", r[0].Str(), r[1].Int(), r[2].Int())
			}
			if got != want(rows) {
				t.Fatalf("over %d rows, repeat %d:\n%s\nwant\n%s", rows, rep, got, want(rows))
			}
		}
	}
	check(1000)
	masks := baseEng.Stats().MasksBuilt
	if err := w.Append(memoRows(1000, 400)); err != nil {
		t.Fatal(err)
	}
	check(1400)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(memoRows(1400, 300)); err != nil {
		t.Fatal(err)
	}
	check(1700)
	if st := baseEng.Stats(); masks == 0 || st.MasksBuilt != masks || st.Queries != 6 {
		t.Fatalf("base engine: %d queries built %d masks, the first %d: want six, only the first masking", st.Queries, st.MasksBuilt, masks)
	}
}
