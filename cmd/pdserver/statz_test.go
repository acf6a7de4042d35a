package main

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"powerdrill"
	"powerdrill/internal/exec"
)

// statzNodes serves /statz for the three kinds of node and returns each
// payload decoded: a leaf with every optional section (ingest attached,
// memory budget, result cache, one background scrub), a coordinator over
// in-process shards, and a mixer between a served leaf and a root.
func statzNodes(t *testing.T) map[string]map[string]any {
	t.Helper()
	tbl := powerdrill.GenerateQueryLogs(2000, 1)
	built, err := powerdrill.Build(tbl, powerdrill.Options{
		PartitionFields: []string{"country", "table_name"}, MaxChunkRows: 500, OptimizeElements: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.Save(dir, "zippy"); err != nil {
		t.Fatal(err)
	}
	leaf, _, err := powerdrill.Open(dir, powerdrill.Options{
		ResultCacheBytes: 1 << 20, MemoryBudgetBytes: 1 << 20, IngestSealRows: 100, ScrubInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer leaf.Close()
	if _, err := leaf.Query(`SELECT country, COUNT(*) AS c FROM data GROUP BY country;`); err != nil {
		t.Fatal(err)
	}
	if err := leaf.Append(tbl.Shard(20)[0]); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, ok := leaf.LastScrub(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no background scrub pass completed")
		}
	}

	var shardDirs []string
	for _, shard := range tbl.Shard(2) {
		s, err := powerdrill.Build(shard, powerdrill.Options{MaxChunkRows: 500})
		if err != nil {
			t.Fatal(err)
		}
		shardDirs = append(shardDirs, t.TempDir())
		if err := s.Save(shardDirs[len(shardDirs)-1], ""); err != nil {
			t.Fatal(err)
		}
	}
	coord, err := powerdrill.OpenCluster(shardDirs, powerdrill.ClusterOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if _, err := coord.Query(`SELECT country, COUNT(*) AS c FROM data GROUP BY country;`); err != nil {
		t.Fatal(err)
	}

	serve := func(run func(net.Listener) error) string {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go run(l) // returns when the listener closes
		return l.Addr().String()
	}
	leafAddr := serve(func(l net.Listener) error { return powerdrill.ServeShard(l, built) })
	mixer := powerdrill.ConnectMixer("mixer", [][]string{{leafAddr}}, powerdrill.ClusterOptions{})
	defer mixer.Close()
	root, err := powerdrill.ConnectCluster([][]string{{serve(func(l net.Listener) error { return powerdrill.ServeMixer(l, mixer) })}}, powerdrill.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	if _, err := root.Query(`SELECT country, COUNT(*) AS c FROM data GROUP BY country;`); err != nil {
		t.Fatal(err)
	}

	out := map[string]map[string]any{}
	for name, h := range map[string]http.Handler{
		"leaf":        statzHandler(leaf),
		"coordinator": coordinatorStatzHandler(coord),
		"mixer":       mixerStatzHandler(mixer),
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/statz", nil))
		var p map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
			t.Fatalf("%s: bad JSON: %v\n%s", name, err, rec.Body.String())
		}
		out[name] = p
	}
	return out
}

// statzKeys flattens a decoded payload to "path type" lines: objects by
// key, arrays by their first element ("leaves[].name").
func statzKeys(prefix string, v any, out map[string]string) {
	key := strings.TrimSuffix(prefix, ".")
	switch v := v.(type) {
	case map[string]any:
		for k, e := range v {
			statzKeys(prefix+k+".", e, out)
		}
		if key != "" {
			out[key] = "object"
		}
	case []any:
		out[key] = "array"
		if len(v) > 0 {
			statzKeys(key+"[].", v[0], out)
		}
	case string:
		out[key] = "string"
	case float64:
		out[key] = "number"
	case bool:
		out[key] = "bool"
	case nil:
		out[key] = "null"
	}
}

// parentStatzKeys is every key /statz emitted on the fixture above before
// the sections became the owners' structs, with its JSON type, and the
// keys added since: memory.derived_bytes.
var parentStatzKeys = map[string]string{
	"leaf": `
chunks number
engine object
engine.active_chunks number
engine.bloom_skipped_chunks number
engine.cache_skipped_chunks number
engine.cells_scanned number
engine.checksum_failed number
engine.checksum_verified number
engine.chunks_cached number
engine.chunks_scanned number
engine.chunks_skipped number
engine.coalesced_reads number
engine.cold_bytes_loaded number
engine.cold_chunk_loads number
engine.cold_dict_loads number
engine.cold_loads number
engine.disk_bytes_read number
engine.kernel_chunks number
engine.queries number
engine.read_runs number
engine.scalar_chunks number
engine.skipped_chunks number
ingest object
ingest.compactions number
ingest.gen number
ingest.mem_bytes number
ingest.mem_rows number
ingest.rows_appended number
ingest.sealing_rows number
ingest.seals number
ingest.segment_rows number
ingest.segments number
ingest.segments_compacted number
ingest.segments_retired number
last_scrub object
last_scrub.corrupt number
last_scrub.elapsed_ms number
last_scrub.files number
last_scrub.records number
last_scrub.time string
memory object
memory.budget_bytes number
memory.cold_bytes_loaded number
memory.cold_loads number
memory.derived_bytes number
memory.disk_bytes_read number
memory.evicted_bytes number
memory.evictions number
memory.hit_rate number
memory.pinned_bytes number
memory.policy string
memory.resident_bytes number
memory.resident_items number
memory.virtual_bytes number
result_cache object
result_cache.evictions number
result_cache.hit_rate number
result_cache.hits number
result_cache.misses number
rows number`,
	"coordinator": `
chunks number
cluster object
cluster.breaker_opens number
cluster.breaker_skips number
cluster.deadline_expired number
cluster.hedges number
cluster.leaves array
cluster.leaves[] object
cluster.leaves[].breaker string
cluster.leaves[].breaker_opens number
cluster.leaves[].consecutive_failures number
cluster.leaves[].failures number
cluster.leaves[].latency_ewma_ms number
cluster.leaves[].name string
cluster.leaves[].replica number
cluster.leaves[].server string
cluster.leaves[].shard number
cluster.leaves[].successes number
cluster.partial_answers number
cluster.primary_failures number
cluster.queries number
cluster.replica_races number
cluster.retries number
cluster.shards_missing number
cluster.sub_queries number
engine object
engine.active_chunks number
engine.bloom_skipped_chunks number
engine.cache_skipped_chunks number
engine.cells_scanned number
engine.checksum_failed number
engine.checksum_verified number
engine.chunks_cached number
engine.chunks_scanned number
engine.chunks_skipped number
engine.coalesced_reads number
engine.cold_bytes_loaded number
engine.cold_chunk_loads number
engine.cold_dict_loads number
engine.cold_loads number
engine.disk_bytes_read number
engine.kernel_chunks number
engine.queries number
engine.read_runs number
engine.scalar_chunks number
engine.skipped_chunks number
memory object
memory.budget_bytes number
memory.cold_bytes_loaded number
memory.cold_loads number
memory.derived_bytes number
memory.disk_bytes_read number
memory.evicted_bytes number
memory.evictions number
memory.hit_rate number
memory.pinned_bytes number
memory.policy string
memory.resident_bytes number
memory.resident_items number
memory.virtual_bytes number
rows number`,
	"mixer": `
chunks number
cluster object
cluster.breaker_opens number
cluster.breaker_skips number
cluster.deadline_expired number
cluster.hedges number
cluster.leaves array
cluster.leaves[] object
cluster.leaves[].breaker string
cluster.leaves[].breaker_opens number
cluster.leaves[].consecutive_failures number
cluster.leaves[].failures number
cluster.leaves[].latency_ewma_ms number
cluster.leaves[].name string
cluster.leaves[].replica number
cluster.leaves[].server string
cluster.leaves[].shard number
cluster.leaves[].successes number
cluster.partial_answers number
cluster.primary_failures number
cluster.queries number
cluster.replica_races number
cluster.retries number
cluster.shards_missing number
cluster.sub_queries number
engine object
engine.active_chunks number
engine.bloom_skipped_chunks number
engine.cache_skipped_chunks number
engine.cells_scanned number
engine.checksum_failed number
engine.checksum_verified number
engine.chunks_cached number
engine.chunks_scanned number
engine.chunks_skipped number
engine.coalesced_reads number
engine.cold_bytes_loaded number
engine.cold_chunk_loads number
engine.cold_dict_loads number
engine.cold_loads number
engine.disk_bytes_read number
engine.kernel_chunks number
engine.queries number
engine.read_runs number
engine.scalar_chunks number
engine.skipped_chunks number
rows number`,
}

// TestStatzKeys holds /statz to its wire format and to its owners: every
// key the hand-written sections emitted is still emitted with the same
// JSON type, and every exported field of an owner struct reaches the
// payload — under its json tag, or tagged "-" beside the value computed
// from it for display.
func TestStatzKeys(t *testing.T) {
	keys := map[string]map[string]string{}
	for node, p := range statzNodes(t) {
		keys[node] = map[string]string{}
		statzKeys("", p, keys[node])
	}
	for node, want := range parentStatzKeys {
		for _, line := range strings.Split(strings.TrimSpace(want), "\n") {
			key, typ, _ := strings.Cut(line, " ")
			if got := keys[node][key]; got != typ {
				t.Errorf("%s /statz: %s is %q, was %q", node, key, got, typ)
			}
		}
	}

	// computed names the payload key shown in place of each "-" field.
	computed := map[string]string{"LatencyEWMA": "latency_ewma_ms", "Time": "time", "Elapsed": "elapsed_ms"}
	for _, c := range []struct {
		node, section string
		owner         reflect.Type
	}{
		{"leaf", "engine", reflect.TypeFor[exec.Stats]()},
		{"leaf", "memory", reflect.TypeFor[powerdrill.MemoryStats]()},
		{"leaf", "result_cache", reflect.TypeFor[powerdrill.CacheStats]()},
		{"leaf", "ingest", reflect.TypeFor[powerdrill.IngestStats]()},
		{"leaf", "last_scrub", reflect.TypeFor[powerdrill.ScrubStatus]()},
		{"coordinator", "cluster", reflect.TypeFor[powerdrill.ClusterStats]()},
		{"coordinator", "cluster.leaves[]", reflect.TypeFor[powerdrill.LeafHealth]()},
		{"mixer", "cluster", reflect.TypeFor[powerdrill.ClusterStats]()},
		{"mixer", "cluster.leaves[]", reflect.TypeFor[powerdrill.LeafHealth]()},
	} {
		got := keys[c.node]
		for _, f := range reflect.VisibleFields(c.owner) {
			if !f.IsExported() || f.Anonymous {
				continue
			}
			tag, ok := f.Tag.Lookup("json")
			name, opts, _ := strings.Cut(tag, ",")
			switch {
			case !ok:
				t.Errorf("%s.%s has no json tag", c.owner, f.Name)
			case name == "-":
				if _, ok := got[c.section+"."+computed[f.Name]]; !ok || computed[f.Name] == "" {
					t.Errorf("%s /statz %s: %s.%s is tagged \"-\" and no value computed from it is shown", c.node, c.section, c.owner, f.Name)
				}
			case opts == "omitempty":
				// Shown when set; absent is its empty value.
			default:
				if _, ok := got[c.section+"."+name]; !ok {
					t.Errorf("%s /statz %s: %s.%s (%q) is missing", c.node, c.section, c.owner, f.Name, name)
				}
			}
		}
	}
}
