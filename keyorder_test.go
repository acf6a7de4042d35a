package powerdrill

import (
	"fmt"
	"net"
	"strings"
	"testing"
)

// TestSelectKeyOrderAllShapes: a select list may name the group keys in
// another order than GROUP BY does, and every deployment shape must put each
// key under its own column. The merged shapes finalize wire groups whose
// keys are in GROUP BY order; they used to hand the i-th select item the
// i-th key, which swapped the two columns here.
//
// The same four shapes must refuse an ORDER BY key that names no output
// column, and in the same words: every engine's plan checks it. Only the
// single store used to; the merged shapes returned LIMIT rows in no order.
func TestSelectKeyOrderAllShapes(t *testing.T) {
	const q = `SELECT table_name, country, COUNT(*) AS c FROM data GROUP BY country, table_name ORDER BY c DESC, country, table_name LIMIT 12;`
	const unordered = `SELECT country, COUNT(*) AS c FROM data GROUP BY country ORDER BY nosuch DESC LIMIT 3;`
	tbl := GenerateQueryLogs(4000, 11)
	opts := ingestOptions()

	resident, err := Build(tbl, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := resident.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	countries := map[string]bool{}
	for _, v := range tbl.Column("country").Strs {
		countries[v] = true
	}
	for _, row := range want.Rows {
		if !countries[row[1].Str()] || countries[row[0].Str()] {
			t.Fatalf("resident row %v: want (table_name, country, count)", row)
		}
	}
	check := func(shape string, ask func(string) (*Result, error)) {
		t.Helper()
		got, err := ask(q)
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		if fmt.Sprint(got.Columns) != fmt.Sprint(want.Columns) || fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
			t.Errorf("%s:\n got %v %v\nwant %v %v", shape, got.Columns, got.Rows, want.Columns, want.Rows)
		}
		res, err := ask(unordered)
		if err == nil {
			t.Errorf("%s: ORDER BY nosuch answered %v", shape, res.Rows)
		} else if !strings.Contains(err.Error(), "exec: ORDER BY nosuch does not match any output column") {
			t.Errorf("%s: ORDER BY nosuch: %v", shape, err)
		}
	}
	check("store", resident.Query)

	// Ingest: half the rows saved, half appended and sealed, merged per query.
	dir := t.TempDir()
	base, err := Build(tableSlice(tbl, 0, 2000), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Save(dir, "zippy"); err != nil {
		t.Fatal(err)
	}
	appended, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer appended.Close()
	if err := appended.Append(tableSlice(tbl, 2000, 2000)); err != nil {
		t.Fatal(err)
	}
	if err := appended.Flush(); err != nil {
		t.Fatal(err)
	}
	check("ingest", appended.Query)

	// Flat cluster: in-process shards under one coordinator.
	flat, err := NewCluster(tbl, ClusterOptions{Shards: 3, Replicas: 1, Store: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()
	check("flat cluster", flat.Query)

	// Mixer tree: four leaf servers, two mixers over two each, a root.
	serve := func(run func(net.Listener) error) string {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go run(l) // returns when the listener closes
		return l.Addr().String()
	}
	var mixerAddrs [][]string
	var leafAddrs [][]string
	for _, shard := range tbl.Shard(4) {
		s, err := Build(shard, opts)
		if err != nil {
			t.Fatal(err)
		}
		leafAddrs = append(leafAddrs, []string{serve(func(l net.Listener) error { return ServeShard(l, s) })})
	}
	for m := 0; m < 2; m++ {
		mx := ConnectMixer(fmt.Sprintf("mixer%d", m), leafAddrs[2*m:2*m+2], ClusterOptions{})
		defer mx.Close()
		mixerAddrs = append(mixerAddrs, []string{serve(func(l net.Listener) error { return ServeMixer(l, mx) })})
	}
	root, err := ConnectCluster(mixerAddrs, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	check("mixer tree", root.Query)
}
