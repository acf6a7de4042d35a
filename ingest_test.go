package powerdrill

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

// ingestOptions are small-scale settings that force several seals.
func ingestOptions() Options {
	return Options{
		PartitionFields:          []string{"country", "table_name"},
		MaxChunkRows:             500,
		OptimizeElements:         true,
		Reorder:                  true,
		IngestSealRows:           600,
		IngestCompactMinSegments: 100, // manual compaction only
	}
}

// TestPublicAPIAppend drives the public streaming path end to end: build
// and save a base store, reopen it lazily, append the rest of the stream,
// and check every answer matches a one-shot Build of the full table —
// including after a compaction and a fresh Open (which must auto-attach
// the generations).
func TestPublicAPIAppend(t *testing.T) {
	const baseRows, fullRows = 2000, 4000
	full := GenerateQueryLogs(fullRows, 7)
	base := tableSlice(full, 0, baseRows)

	dir := t.TempDir()
	built, err := Build(base, ingestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Save(dir, "zippy"); err != nil {
		t.Fatal(err)
	}
	store, _, err := Open(dir, ingestOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Appending to a Build store must fail with a clear error.
	if err := built.Append(base); err == nil {
		t.Fatal("Append on an in-memory store must fail")
	}

	// Stream the second half in batches.
	for start := baseRows; start < fullRows; start += 250 {
		if err := store.Append(tableSlice(full, start, 250)); err != nil {
			t.Fatal(err)
		}
	}
	if store.NumRows() != fullRows {
		t.Fatalf("NumRows = %d, want %d", store.NumRows(), fullRows)
	}

	// Reference: one-shot import of the identical full table.
	oracle, err := Build(full, ingestOptions())
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`SELECT country, COUNT(*) AS c FROM data GROUP BY country ORDER BY country;`,
		`SELECT table_name, MIN(latency) AS lo, MAX(latency) AS hi, COUNT(*) AS c FROM data GROUP BY table_name ORDER BY table_name;`,
		`SELECT country, COUNT(*) AS c FROM data WHERE latency > 500 GROUP BY country ORDER BY country;`,
		`SELECT user, latency FROM data WHERE country = "US" ORDER BY latency DESC, user LIMIT 25;`,
	}
	checkOracle := func(stage string) {
		t.Helper()
		for _, q := range queries {
			want, err := oracle.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := store.Query(q)
			if err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
			if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
				t.Fatalf("%s: %s\ngot  %v\nwant %v", stage, q, got.Rows, want.Rows)
			}
			if got.Stats.RowsTotal != int64(fullRows) {
				t.Fatalf("%s: RowsTotal = %d, want %d", stage, got.Stats.RowsTotal, fullRows)
			}
		}
	}
	checkOracle("streamed")

	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	st, ok := store.IngestStats()
	if !ok || st.Segments < 2 || st.Seals < 2 {
		t.Fatalf("ingest stats = %+v ok=%v, want ≥2 sealed segments", st, ok)
	}
	cst, err := store.CompactNow()
	if err != nil {
		t.Fatal(err)
	}
	if cst.Merged != st.Segments {
		t.Fatalf("compaction merged %d of %d segments", cst.Merged, st.Segments)
	}
	after, _ := store.IngestStats()
	if after.Segments != 1 {
		t.Fatalf("segments after compaction = %d", after.Segments)
	}
	checkOracle("compacted")
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh Open must auto-attach and still agree with the oracle.
	store, _, err = Open(dir, ingestOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if store.NumRows() != fullRows {
		t.Fatalf("reopened NumRows = %d, want %d", store.NumRows(), fullRows)
	}
	if _, ok := store.IngestStats(); !ok {
		t.Fatal("reopen did not attach the append path")
	}
	checkOracle("reopened")
}

// TestServeShardSeesAppends: a coordinator over a leaf served with
// ServeShard answers over every row appended to the leaf's store — while
// the rows sit in the write buffer, after Flush seals them, and with a
// segment and a buffer at once — exactly as the store's own Query does.
func TestServeShardSeesAppends(t *testing.T) {
	const baseRows = 1000
	full := GenerateQueryLogs(baseRows+6, 11)
	dir := t.TempDir()
	built, err := Build(tableSlice(full, 0, baseRows), ingestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Save(dir, "zippy"); err != nil {
		t.Fatal(err)
	}
	store, _, err := Open(dir, ingestOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = ServeShard(l, store) }()
	c, err := ConnectCluster([][]string{{l.Addr().String()}}, ClusterOptions{Replicas: 1, Deadline: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	queries := []string{
		`SELECT COUNT(*) AS c FROM data;`,
		`SELECT country, COUNT(*) AS c, SUM(latency) AS s FROM data GROUP BY country ORDER BY country;`,
	}
	check := func(stage string, wantRows int) {
		t.Helper()
		if store.NumRows() != wantRows {
			t.Fatalf("%s: NumRows = %d, want %d", stage, store.NumRows(), wantRows)
		}
		for _, q := range queries {
			want, err := store.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Query(q)
			if err != nil {
				t.Fatalf("%s: %s: %v", stage, q, err)
			}
			if got.Stats.RowsTotal != int64(store.NumRows()) || got.Coverage != 1 {
				t.Errorf("%s: %s: RowsTotal = %d, coverage %v; want %d, 1",
					stage, q, got.Stats.RowsTotal, got.Coverage, store.NumRows())
			}
			if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
				t.Errorf("%s: %s\ncluster %v\nstore   %v", stage, q, got.Rows, want.Rows)
			}
		}
	}
	check("base", baseRows)
	if err := store.Append(tableSlice(full, baseRows, 3)); err != nil {
		t.Fatal(err)
	}
	check("buffered", baseRows+3)
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	check("flushed", baseRows+3)
	if err := store.Append(tableSlice(full, baseRows+3, 3)); err != nil {
		t.Fatal(err)
	}
	check("segment and buffer", baseRows+6)
}

// TestIngestFsyncPolicies runs each WAL fsync rung, set through
// Options.IngestFsyncPolicy, through Append, Flush, Close and a reopen: the
// reopened store answers as a one-shot Build of the same rows does. A
// misspelt policy is refused by Open, by name.
func TestIngestFsyncPolicies(t *testing.T) {
	const baseRows, fullRows = 1000, 2000
	full := GenerateQueryLogs(fullRows, 11)
	base, err := Build(tableSlice(full, 0, baseRows), ingestOptions())
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := Build(full, ingestOptions())
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`SELECT country, COUNT(*) AS c, SUM(latency) AS s, AVG(latency) AS a FROM data GROUP BY country ORDER BY country;`,
		`SELECT user, latency FROM data WHERE latency > 900 ORDER BY latency DESC, user LIMIT 20;`,
	}
	for _, policy := range []string{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(policy, func(t *testing.T) {
			dir := t.TempDir()
			if err := base.Save(dir, "zippy"); err != nil {
				t.Fatal(err)
			}
			opts := ingestOptions()
			opts.IngestFsyncPolicy = policy
			store, _, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			for start := baseRows; start < fullRows; start += 300 {
				if err := store.Append(tableSlice(full, start, min(300, fullRows-start))); err != nil {
					t.Fatal(err)
				}
			}
			if err := store.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}

			store, _, err = Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			if store.NumRows() != fullRows {
				t.Fatalf("reopened NumRows = %d, want %d", store.NumRows(), fullRows)
			}
			for _, q := range queries {
				want, err := oracle.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := store.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				// %v prints a float in its shortest round-trip form: equal
				// text is equal bits.
				if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
					t.Fatalf("%s\ngot  %v\nwant %v", q, got.Rows, want.Rows)
				}
			}
		})
	}

	dir := t.TempDir()
	if err := base.Save(dir, "zippy"); err != nil {
		t.Fatal(err)
	}
	opts := ingestOptions()
	opts.IngestFsyncPolicy = "alwyas"
	if store, _, err := Open(dir, opts); err == nil {
		store.Close()
		t.Fatal("Open accepted fsync policy \"alwyas\"")
	} else if !strings.Contains(err.Error(), `"alwyas"`) {
		t.Fatalf("the refusal does not name the policy: %v", err)
	}
}

// tableSlice copies rows [start, start+n) of src into a fresh table.
func tableSlice(src *Table, start, n int) *Table {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = start + i
	}
	return src.Select(rows)
}
