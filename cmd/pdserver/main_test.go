package main

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"powerdrill"
)

func TestStatzHandler(t *testing.T) {
	tbl := powerdrill.GenerateQueryLogs(2000, 1)
	built, err := powerdrill.Build(tbl, powerdrill.Options{
		PartitionFields:  []string{"country", "table_name"},
		MaxChunkRows:     500,
		OptimizeElements: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.Save(dir, "zippy"); err != nil {
		t.Fatal(err)
	}
	store, _, err := powerdrill.Open(dir, powerdrill.Options{
		ResultCacheBytes:  1 << 20,
		MemoryBudgetBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Query(`SELECT country, COUNT(*) AS c FROM data GROUP BY country ORDER BY c DESC LIMIT 5;`); err != nil {
		t.Fatal(err)
	}
	// Materialize a virtual field so the virtual_bytes gauge has something
	// to report (persisted into the store's sidecar and budgeted).
	if _, err := store.Query(`SELECT date(timestamp) AS d, COUNT(*) AS c FROM data GROUP BY d ORDER BY d ASC LIMIT 5;`); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	statzHandler(store).ServeHTTP(rec, httptest.NewRequest("GET", "/statz", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var p statzPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if p.Rows != 2000 {
		t.Fatalf("rows = %d", p.Rows)
	}
	if p.Engine.Queries != 2 {
		t.Fatalf("engine queries = %d", p.Engine.Queries)
	}
	if p.Engine.ActiveChunks == 0 {
		t.Fatalf("engine active chunks = %d", p.Engine.ActiveChunks)
	}
	if p.Engine.ColdChunkLoads == 0 || p.Engine.ColdDictLoads == 0 {
		t.Fatalf("chunk-granular cold counters = %d/%d",
			p.Engine.ColdChunkLoads, p.Engine.ColdDictLoads)
	}
	if p.Memory == nil {
		t.Fatal("memory section missing for a lazily opened store")
	}
	if p.Memory.BudgetBytes != 1<<20 || p.Memory.ColdLoads == 0 || p.Memory.Policy != "lirs" {
		t.Fatalf("memory section = %+v", p.Memory)
	}
	if p.Memory.VirtualBytes == 0 {
		t.Fatalf("virtual_bytes = 0 after materializing a virtual field: %+v", p.Memory)
	}
	if p.ResultCache == nil {
		t.Fatal("result cache section missing")
	}
	if p.Cluster != nil {
		t.Fatal("cluster section present on a single leaf")
	}
}

// TestCoordinatorStatzHandler: coordinator-mode /statz must expose the
// fan-out counters, coverage accounting and per-leaf breaker health, and
// /query must report coverage.
func TestCoordinatorStatzHandler(t *testing.T) {
	// Persist two shards of the same synthetic table.
	tbl := powerdrill.GenerateQueryLogs(2000, 7)
	var dirs []string
	for i, shard := range tbl.Shard(2) {
		built, err := powerdrill.Build(shard, powerdrill.Options{
			PartitionFields:  []string{"country", "table_name"},
			MaxChunkRows:     500,
			OptimizeElements: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := built.Save(dir, "zippy"); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		dirs = append(dirs, dir)
	}
	c, err := powerdrill.OpenCluster(dirs, powerdrill.ClusterOptions{
		Replicas: 2,
		Deadline: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	q := `SELECT country, COUNT(*) AS c FROM data GROUP BY country ORDER BY c DESC LIMIT 5;`
	queryHandler(c).ServeHTTP(rec, httptest.NewRequest("GET", "/query?q="+url.QueryEscape(q), nil))
	if rec.Code != 200 {
		t.Fatalf("query status %d: %s", rec.Code, rec.Body.String())
	}
	var qr queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
		t.Fatalf("bad query JSON: %v", err)
	}
	if qr.Coverage != 1 || qr.ShardsMissing != 0 {
		t.Fatalf("healthy coverage = %v, missing = %d", qr.Coverage, qr.ShardsMissing)
	}
	if len(qr.Rows) == 0 || len(qr.Columns) != 2 {
		t.Fatalf("query response = %+v", qr)
	}

	// A hand-typed curl leaves the trailing SQL ';' unescaped; net/url
	// drops the whole q pair then. The handler must still find the query.
	rec = httptest.NewRecorder()
	raw := "/query?q=" + strings.ReplaceAll(q, " ", "+")
	queryHandler(c).ServeHTTP(rec, httptest.NewRequest("GET", raw, nil))
	if rec.Code != 200 {
		t.Fatalf("raw-semicolon query status %d: %s", rec.Code, rec.Body.String())
	}
	var qr2 queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &qr2); err != nil {
		t.Fatalf("bad raw-semicolon query JSON: %v", err)
	}
	if len(qr2.Rows) != len(qr.Rows) {
		t.Fatalf("raw-semicolon query rows = %d, want %d", len(qr2.Rows), len(qr.Rows))
	}

	rec = httptest.NewRecorder()
	coordinatorStatzHandler(c).ServeHTTP(rec, httptest.NewRequest("GET", "/statz", nil))
	if rec.Code != 200 {
		t.Fatalf("statz status %d", rec.Code)
	}
	var p statzPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatalf("bad statz JSON: %v\n%s", err, rec.Body.String())
	}
	cl := p.Cluster
	if cl == nil {
		t.Fatal("cluster section missing in coordinator mode")
	}
	if cl.Queries != 2 || cl.SubQueries != 4 {
		t.Fatalf("cluster counters = %+v", cl)
	}
	if cl.ShardsMissing != 0 || cl.PartialAnswers != 0 {
		t.Fatalf("coverage counters nonzero on a healthy cluster: %+v", cl)
	}
	if len(cl.Leaves) != 4 {
		t.Fatalf("leaves = %d, want 4 (2 shards x 2 replicas)", len(cl.Leaves))
	}
	var successes int64
	for _, leaf := range cl.Leaves {
		if leaf.Breaker != "closed" {
			t.Errorf("leaf %s breaker = %q, want closed", leaf.Name, leaf.Breaker)
		}
		successes += leaf.Successes
	}
	if successes == 0 {
		t.Error("no leaf successes recorded after a query")
	}
	if p.Memory == nil {
		t.Fatal("memory section missing for a coordinator over lazily opened shards")
	}
}

// ingestStore saves a 1 000-row store and opens it for appends.
func ingestStore(t *testing.T) *powerdrill.Store {
	t.Helper()
	tbl := powerdrill.GenerateQueryLogs(1000, 3)
	built, err := powerdrill.Build(tbl, powerdrill.Options{
		PartitionFields: []string{"country", "table_name"},
		MaxChunkRows:    500,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.Save(dir, "zippy"); err != nil {
		t.Fatal(err)
	}
	store, _, err := powerdrill.Open(dir, powerdrill.Options{IngestSealRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// ingestBody is a three-row batch of every column of ingestStore's store.
const ingestBody = `{"columns":[
		{"name":"timestamp","kind":"int64","ints":[1,2,3]},
		{"name":"table_name","kind":"string","strs":["t1","t1","t2"]},
		{"name":"latency","kind":"int64","ints":[10,20,30]},
		{"name":"country","kind":"string","strs":["zz","zz","zz"]},
		{"name":"user","kind":"string","strs":["u1","u2","u3"]}]}`

// TestIngestBodyBound: a batch padded to exactly maxIngestBodyBytes is
// appended; one byte more is refused with 413 before anything is
// appended.
func TestIngestBodyBound(t *testing.T) {
	store := ingestStore(t)
	post := func(size int) int {
		body := strings.Repeat(" ", size-len(ingestBody)) + ingestBody
		rec := httptest.NewRecorder()
		ingestHandler(store).ServeHTTP(rec, httptest.NewRequest("POST", "/ingest", strings.NewReader(body)))
		return rec.Code
	}
	if code := post(maxIngestBodyBytes + 1); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("a body one byte over the bound: status %d, want 413", code)
	}
	if n := store.NumRows(); n != 1000 {
		t.Fatalf("%d rows after the refused batch, want 1000", n)
	}
	if code := post(maxIngestBodyBytes); code != http.StatusOK {
		t.Fatalf("a body at the bound: status %d, want 200", code)
	}
	if n := store.NumRows(); n != 1003 {
		t.Fatalf("%d rows after the batch at the bound, want 1003", n)
	}
}

// TestIngestHandler drives POST /ingest end to end: appended rows are
// queryable immediately, the flush barrier seals them, and /statz grows
// an ingest section.
func TestIngestHandler(t *testing.T) {
	store := ingestStore(t)
	rec := httptest.NewRecorder()
	ingestHandler(store).ServeHTTP(rec, httptest.NewRequest("POST", "/ingest?flush=1", strings.NewReader(ingestBody)))
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp map[string]int
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp["appended"] != 3 || resp["rows"] != 1003 {
		t.Fatalf("response = %v", resp)
	}
	res, err := store.Query(`SELECT COUNT(*) AS c FROM data WHERE country = "zz";`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("appended rows not visible: %v", res.Rows)
	}

	rec = httptest.NewRecorder()
	statzHandler(store).ServeHTTP(rec, httptest.NewRequest("GET", "/statz", nil))
	var p statzPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if p.Ingest == nil {
		t.Fatal("ingest section missing after appends")
	}
	if p.Ingest.RowsAppended != 3 || p.Ingest.Seals != 1 || p.Ingest.Segments != 1 {
		t.Fatalf("ingest section = %+v", p.Ingest)
	}
	if p.Rows != 1003 {
		t.Fatalf("rows = %d, want 1003", p.Rows)
	}

	// Schema violations surface as 422, not 500.
	rec = httptest.NewRecorder()
	ingestHandler(store).ServeHTTP(rec, httptest.NewRequest("POST", "/ingest",
		strings.NewReader(`{"columns":[{"name":"latency","kind":"string","strs":["x"]}]}`)))
	if rec.Code != 422 {
		t.Fatalf("bad batch status = %d", rec.Code)
	}
}

// TestGracefulShutdown drives the leaf shutdown sequence end to end over
// a real HTTP server: appends accepted before the signal survive (the
// shutdown flushes the write buffer into a committed segment), in-flight
// requests drain, and afterwards both the HTTP listener and the store
// refuse new work with a clean error rather than a panic or a hang.
func TestGracefulShutdown(t *testing.T) {
	tbl := powerdrill.GenerateQueryLogs(1000, 5)
	built, err := powerdrill.Build(tbl, powerdrill.Options{
		PartitionFields: []string{"country", "table_name"},
		MaxChunkRows:    500,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.Save(dir, "zippy"); err != nil {
		t.Fatal(err)
	}
	store, _, err := powerdrill.Open(dir, powerdrill.Options{IngestSealRows: 10_000})
	if err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(statzMux(store))
	defer srv.Close()

	body := `{"columns":[
		{"name":"timestamp","kind":"int64","ints":[1,2,3]},
		{"name":"table_name","kind":"string","strs":["t1","t1","t2"]},
		{"name":"latency","kind":"int64","ints":[10,20,30]},
		{"name":"country","kind":"string","strs":["zz","zz","zz"]},
		{"name":"user","kind":"string","strs":["u1","u2","u3"]}]}`
	resp, err := http.Post(srv.URL+"/ingest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("ingest before shutdown: status %d", resp.StatusCode)
	}

	// The seal threshold is far away: the 3 rows are only in the write
	// buffer (and the WAL) when the "signal" arrives.
	if err := shutdownLeaf(nopListener{}, srv.Config, store, nil); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// The HTTP server refuses new connections.
	if _, err := http.Post(srv.URL+"/ingest", "application/json", strings.NewReader(body)); err == nil {
		t.Fatal("ingest after shutdown succeeded over HTTP")
	}
	// The store refuses appends with a clean error.
	if err := store.Append(powerdrill.NewTable("data")); err == nil ||
		!strings.Contains(err.Error(), "closed") {
		t.Fatalf("append on closed store: err = %v", err)
	}

	// Reopen: the flushed rows are committed and queryable.
	back, _, err := powerdrill.Open(dir, powerdrill.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	res, err := back.Query(`SELECT COUNT(*) AS c FROM data WHERE country = "zz";`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("rows appended before shutdown lost: %v", res.Rows)
	}
}

// nopListener satisfies net.Listener for shutdown tests where the RPC
// listener is owned by httptest.
type nopListener struct{}

func (nopListener) Accept() (net.Conn, error) { return nil, net.ErrClosed }
func (nopListener) Close() error              { return nil }
func (nopListener) Addr() net.Addr            { return &net.TCPAddr{} }
