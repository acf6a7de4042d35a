// Benchmarks regenerating the paper's tables and figures, one benchmark per
// experiment: go test -run=NONE -bench=<Name> . reproduces one. The
// columns of a table (byte footprints, percentages, ratios, per-bucket
// latencies) are attached with b.ReportMetric and print beside ns/op. The
// end-to-end click is measured by bench/run.sh (see bench/README.md).
package powerdrill

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"powerdrill/internal/backends"
	"powerdrill/internal/cache"
	"powerdrill/internal/cluster"
	"powerdrill/internal/colstore"
	"powerdrill/internal/compress"
	"powerdrill/internal/dict"
	"powerdrill/internal/exec"
	"powerdrill/internal/memmgr"
	"powerdrill/internal/reorder"
	"powerdrill/internal/sketch"
	"powerdrill/internal/sql"
	"powerdrill/internal/table"
	"powerdrill/internal/value"
	"powerdrill/internal/workload"
)

// query parses src and runs it on e.
func query(e *exec.Engine, src string) (*exec.Result, error) {
	stmt, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	return e.RunContext(context.Background(), stmt)
}

// benchRows is the dataset size benchmarks use; the paper uses 5M rows, and
// `go test -bench` keeps iterations fast at 200K. Shapes — who wins, by
// what factor, where curves bend — not absolute numbers, are the
// reproduction target.
const benchRows = 200_000

var benchTable *table.Table

func dataset(b *testing.B) *table.Table {
	b.Helper()
	if benchTable == nil {
		benchTable = workload.QueryLogs(workload.LogsSpec{Rows: benchRows, Seed: 2012})
	}
	return benchTable
}

var paperQueries = []struct {
	name string
	sql  string
	cols []string
}{
	{"Query1", `SELECT country, COUNT(*) as c FROM data GROUP BY country ORDER BY c DESC LIMIT 10;`, []string{"country"}},
	{"Query2", `SELECT date(timestamp) as d, COUNT(*), SUM(latency) FROM data GROUP BY d ORDER BY d ASC LIMIT 10;`, []string{"timestamp", "latency"}},
	{"Query3", `SELECT table_name, COUNT(*) as c FROM data GROUP BY table_name ORDER BY c DESC LIMIT 10;`, []string{"table_name"}},
}

// BenchmarkTable1Basic measures the paper's "Basic" row of Table 1: the
// three queries on the in-memory double-dictionary layout.
func BenchmarkTable1Basic(b *testing.B) {
	tbl := dataset(b)
	store, err := colstore.FromTable(tbl, colstore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	engine := exec.New(store, exec.Options{})
	for _, q := range paperQueries {
		b.Run(q.name, func(b *testing.B) {
			m, err := store.MemoryFor(q.cols...)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := query(engine, q.sql); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(m.Total())/1e6, "dataMB")
		})
	}
}

// BenchmarkTable1Baselines measures the CSV, record-io and Dremel rows of
// Table 1 (full scans over on-disk formats).
func BenchmarkTable1Baselines(b *testing.B) {
	tbl := dataset(b)
	dir := b.TempDir()
	csvPath := filepath.Join(dir, "data.csv")
	csvSchema, err := backends.WriteCSV(tbl, csvPath)
	if err != nil {
		b.Fatal(err)
	}
	recPath := filepath.Join(dir, "data.rec")
	recSchema, err := backends.WriteRecordIO(tbl, recPath)
	if err != nil {
		b.Fatal(err)
	}
	dremel, err := backends.BuildDremel(tbl, filepath.Join(dir, "dremel"), 8192)
	if err != nil {
		b.Fatal(err)
	}
	for _, bk := range []backends.Backend{
		backends.NewCSV(csvPath, csvSchema),
		backends.NewRecordIO(recPath, recSchema),
		dremel,
	} {
		for _, q := range paperQueries {
			b.Run(bk.Name()+"/"+q.name, func(b *testing.B) {
				bytes, err := bk.DataBytes(q.cols)
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < b.N; i++ {
					if _, err := backends.Query(bk, q.sql); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(bytes)/1e6, "dataMB")
			})
		}
	}
}

// BenchmarkTable4Pipeline builds every step of the Section 3 optimization
// sequence and reports the Table 4 per-query footprints as metrics; the
// measured time is the import cost of each layout.
func BenchmarkTable4Pipeline(b *testing.B) {
	tbl := dataset(b)
	part := []string{"country", "table_name"}
	variants := []struct {
		name string
		opts colstore.Options
	}{
		{"Basic", colstore.Options{}},
		{"Chunks", colstore.Options{PartitionFields: part, MaxChunkRows: 5000}},
		{"OptCols", colstore.Options{PartitionFields: part, MaxChunkRows: 5000, OptimizeElements: true}},
		{"OptDicts", colstore.Options{PartitionFields: part, MaxChunkRows: 5000, OptimizeElements: true, StringDict: colstore.StringDictTrie}},
		{"Reorder", colstore.Options{PartitionFields: part, MaxChunkRows: 5000, OptimizeElements: true, StringDict: colstore.StringDictTrie, Reorder: true}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var store *colstore.Store
			var err error
			for i := 0; i < b.N; i++ {
				store, err = colstore.FromTable(tbl, v.opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			for qi, q := range paperQueries {
				m, err := store.MemoryFor(q.cols...)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(m.Total())/1e6, fmt.Sprintf("q%dMB", qi+1))
			}
		})
	}
}

// BenchmarkTable3Zippy compresses each layout's column set, the Table 3
// measurement (compressed footprints; throughput is the measured time).
func BenchmarkTable3Zippy(b *testing.B) {
	tbl := dataset(b)
	zippy, err := compress.ByName("zippy")
	if err != nil {
		b.Fatal(err)
	}
	store, err := colstore.FromTable(tbl, colstore.Options{
		PartitionFields: []string{"country", "table_name"}, MaxChunkRows: 5000,
		OptimizeElements: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range paperQueries {
		b.Run(q.name, func(b *testing.B) {
			var total int64
			for i := 0; i < b.N; i++ {
				total = 0
				for _, cn := range q.cols {
					total += store.Column(cn).Compressed(zippy).Total()
				}
			}
			b.ReportMetric(float64(total)/1e6, "zipMB")
		})
	}
}

// BenchmarkTrieDict is the Section 3 trie measurement: build cost of the
// 4-bit trie with the array/trie footprints as metrics.
func BenchmarkTrieDict(b *testing.B) {
	tbl := dataset(b)
	store, err := colstore.FromTable(tbl, colstore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	arr := store.Column("table_name").Dict.(*dict.StringArray)
	vals := make([]string, arr.Len())
	for i := range vals {
		vals[i] = arr.StringAt(uint32(i))
	}
	var trie *dict.Trie
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trie = dict.NewTrie(vals)
	}
	b.StopTimer()
	b.ReportMetric(float64(arr.MemoryBytes())/1e6, "arrayMB")
	b.ReportMetric(float64(trie.MemoryBytes())/1e6, "trieMB")
}

// BenchmarkReorder measures the Section 3 reordering step (the sort) and
// reports the compressed elements+chunk-dicts before/after as metrics, with
// the Hamming path length of a random, the original and the lexicographic
// row order behind the factor (Figures 2-4).
func BenchmarkReorder(b *testing.B) {
	tbl := dataset(b)
	part := []string{"country", "table_name"}
	zippy, err := compress.ByName("zippy")
	if err != nil {
		b.Fatal(err)
	}
	opts := colstore.Options{PartitionFields: part, MaxChunkRows: 5000, OptimizeElements: true}
	before, err := colstore.FromTable(tbl, opts)
	if err != nil {
		b.Fatal(err)
	}
	opts.Reorder = true
	after, err := colstore.FromTable(tbl, opts)
	if err != nil {
		b.Fatal(err)
	}
	elems := func(s *colstore.Store) (total int64) {
		for _, q := range paperQueries {
			for _, cn := range q.cols {
				cb := s.Column(cn).Compressed(zippy)
				total += cb.Elements + cb.ChunkDicts
			}
		}
		return
	}
	for i := 0; i < b.N; i++ {
		reorder.Lexicographic(tbl, part)
	}
	b.StopTimer()
	b.ReportMetric(float64(elems(before))/1e6, "beforeMB")
	b.ReportMetric(float64(elems(after))/1e6, "afterMB")
	fields := []string{"country", "table_name", "user"}
	b.ReportMetric(float64(reorder.HammingCost(tbl, fields, reorder.Random(tbl.NumRows(), 2012))), "hammingRandom")
	b.ReportMetric(float64(reorder.HammingCost(tbl, fields, reorder.Identity(tbl.NumRows()))), "hammingOriginal")
	b.ReportMetric(float64(reorder.HammingCost(tbl, fields, reorder.Lexicographic(tbl, fields))), "hammingLex")
}

// BenchmarkFigure5 replays drill-down sessions on the query logs saved
// with zippy and opened with Open under a quarter of their resident bytes,
// with a 32 MiB result cache, and reports the Section 6 split of records
// (skipped%, cached%, scanned%), the share of queries that read nothing
// from disk (nodisk%), and Figure 5 itself: the mean latency of those
// queries (ms@nodisk) and of each log2 bucket of the bytes a query read
// from disk (ms@[lo,hi)KB; at this scale a query reads KB, not MB). Every
// iteration saves and opens the store afresh, so the counted metrics
// repeat exactly.
func BenchmarkFigure5(b *testing.B) {
	setup := newSection6(b, 50_000, 1000, 2012, 2, 5, 10)
	var run section6Run
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := setup.save(b)
		b.StartTimer()
		run = setup.replay(b, dir, setup.resident/4, 0)
	}
	b.StopTimer()
	skipped, cached, scanned := run.split()
	b.ReportMetric(skipped, "skipped%")
	b.ReportMetric(cached, "cached%")
	b.ReportMetric(scanned, "scanned%")
	b.ReportMetric(run.noDiskPct(), "nodisk%")
	sum := map[string]time.Duration{}
	count := map[string]int{}
	for i, lat := range run.latency {
		unit := figure5Unit(run.disk[i])
		sum[unit] += lat
		count[unit]++
	}
	for unit, n := range count {
		b.ReportMetric(float64((sum[unit]/time.Duration(n)).Microseconds())/1000, unit)
	}
}

// figure5Unit names the Figure 5 bar of a query that read bytes from
// disk: nodisk, or the log2 bucket in KB that holds bytes.
func figure5Unit(bytes int64) string {
	switch kb := bits.Len64(uint64(bytes) >> 10); {
	case bytes == 0:
		return "ms@nodisk"
	case kb == 0:
		return "ms@[0,1)KB"
	default:
		return fmt.Sprintf("ms@[%d,%d)KB", 1<<(kb-1), 1<<kb)
	}
}

// BenchmarkCountDistinct measures the Section 5 sketch on the
// high-cardinality field and reports its accuracy.
func BenchmarkCountDistinct(b *testing.B) {
	tbl := dataset(b)
	names := tbl.Column("table_name").Strs
	exact := map[string]bool{}
	for _, v := range names {
		exact[v] = true
	}
	var est int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := sketch.NewKMV(2048)
		for _, v := range names {
			k.AddString(v)
		}
		est = k.Estimate()
	}
	b.StopTimer()
	b.ReportMetric(float64(est), "estimate")
	b.ReportMetric(float64(len(exact)), "exact")
}

// BenchmarkCodecs measures every registered codec on real column bytes —
// the Section 5 comparison (zippy vs lzoish vs zlib vs huffman-only).
func BenchmarkCodecs(b *testing.B) {
	tbl := dataset(b)
	store, err := colstore.FromTable(tbl, colstore.Options{
		PartitionFields: []string{"country", "table_name"}, MaxChunkRows: 5000,
		OptimizeElements: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	var payload []byte
	col := store.Column("table_name")
	for _, ch := range col.Chunks {
		payload = ch.Elems.AppendBytes(payload)
	}
	for _, name := range compress.Names() {
		if name == "rle" {
			continue
		}
		codec, err := compress.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		comp := codec.Compress(nil, payload)
		b.Run(name+"/compress", func(b *testing.B) {
			b.SetBytes(int64(len(payload)))
			b.ReportMetric(float64(len(payload))/float64(len(comp)), "ratio")
			var buf []byte
			for i := 0; i < b.N; i++ {
				buf = codec.Compress(buf[:0], payload)
			}
		})
		b.Run(name+"/decompress", func(b *testing.B) {
			b.SetBytes(int64(len(payload)))
			var buf []byte
			for i := 0; i < b.N; i++ {
				buf, err = codec.Decompress(buf[:0], comp)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColdLoad measures the cold-load layer alone — read, checksum,
// decompress, decode — on a zippy-saved store of the benchmark table, laid
// out as BenchmarkCodecs lays it out: LoadColumnDict of the largest
// numeric and the largest string dictionary, and one PinSet.ColumnChunks of
// every chunk of the numeric one's column, under a budget that keeps nothing
// a released set held, so that every iteration loads every chunk again. Each
// case reports decoded MB/s, B/op and allocs/op. The chunk case pins the
// column's dictionary first, with the timer stopped; that load grows the
// set's read and decompression buffers past every chunk record, as the
// largest record a query meets does, so the case's B/op is what the chunk
// loads keep or allocate per load. It reports the decoded chunks' own bytes
// (elements plus chunk dictionaries) beside it: a load path without
// transient buffers stays close to them.
func BenchmarkColdLoad(b *testing.B) {
	store, err := colstore.FromTable(dataset(b), colstore.Options{
		PartitionFields: []string{"country", "table_name"}, MaxChunkRows: 5000,
		OptimizeElements: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if err := colstore.Save(store, dir, "zippy"); err != nil {
		b.Fatal(err)
	}
	r, _, err := colstore.NewReader(dir)
	if err != nil {
		b.Fatal(err)
	}
	largest := map[bool]string{} // string kind or not -> column
	for _, name := range store.Columns() {
		d := store.Column(name).Dict
		isString := d.Kind() == value.KindString
		if cur, ok := largest[isString]; !ok || d.MemoryBytes() > store.Column(cur).Dict.MemoryBytes() {
			largest[isString] = name
		}
	}
	for _, name := range []string{largest[false], largest[true]} {
		b.Run("dict/"+name, func(b *testing.B) {
			b.SetBytes(store.Column(name).Dict.MemoryBytes())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := r.LoadColumnDict(name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	col := largest[false]
	var decoded int64
	for _, ch := range store.Column(col).Chunks {
		decoded += ch.MemoryElements() + ch.MemoryChunkDict()
	}
	lazy, _, err := colstore.OpenLazy(dir, memmgr.New(1, ""))
	if err != nil {
		b.Fatal(err)
	}
	dictOnly := make([]bool, store.NumChunks())
	b.Run("chunks/"+col, func(b *testing.B) {
		b.SetBytes(decoded)
		b.ReportAllocs()
		b.ReportMetric(float64(decoded), "decodedB/op")
		for i := 0; i < b.N; i++ {
			// The dictionary is pinned with the timer stopped: the case
			// measures the chunks alone.
			b.StopTimer()
			ps := lazy.NewPinSet()
			if _, err := ps.ColumnChunks(col, dictOnly); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := ps.ColumnChunks(col, nil); err != nil {
				b.Fatal(err)
			}
			if ps.ColdChunkLoads != int64(store.NumChunks()) {
				b.Fatalf("%d cold chunk loads, want %d", ps.ColdChunkLoads, store.NumChunks())
			}
			b.StopTimer()
			ps.Release()
			b.StartTimer()
		}
	})
}

// BenchmarkRowScanCold counts what the UI's "slowest queries" table — the
// click's one row scan, ten rows of five columns — loads from a cold store:
// the bench layout saved with zippy and opened afresh for every iteration
// under a quarter of its resident bytes, as bench/'s click-cold opens it.
// cold_loads/op counts the chunks and dictionaries read, cold_bytes/op
// their resident bytes, and disk_bytes/op the bytes read from disk.
func BenchmarkRowScanCold(b *testing.B) {
	const q = `SELECT timestamp, table_name, latency, country, user FROM data WHERE latency > 20000 ORDER BY latency DESC, timestamp ASC, table_name ASC LIMIT 10;`
	store, err := colstore.FromTable(dataset(b), colstore.Options{
		PartitionFields: []string{"country", "table_name"}, MaxChunkRows: 2000,
		OptimizeElements: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if err := colstore.Save(store, dir, "zippy"); err != nil {
		b.Fatal(err)
	}
	var resident int64
	for _, name := range store.Columns() {
		resident += store.Column(name).Memory().Total()
	}
	stmt, err := sql.Parse(q)
	if err != nil {
		b.Fatal(err)
	}
	var loads, coldBytes, diskBytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		lazy, _, err := colstore.OpenLazy(dir, memmgr.New(resident/4, ""))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := exec.New(lazy, exec.Options{}).Run(stmt)
		if err != nil {
			b.Fatal(err)
		}
		loads += res.Stats.ColdChunkLoads + res.Stats.ColdDictLoads
		coldBytes += res.Stats.ColdBytesLoaded
		diskBytes += res.Stats.DiskBytesRead
	}
	b.ReportMetric(float64(loads)/float64(b.N), "cold_loads/op")
	b.ReportMetric(float64(coldBytes)/float64(b.N), "cold_bytes/op")
	b.ReportMetric(float64(diskBytes)/float64(b.N), "disk_bytes/op")
}

// BenchmarkCacheScan measures the LIRS cache under the Section 5
// pathology: a hot working set polluted by one-time scans. hitRate is the
// share of hot-set lookups that hit.
func BenchmarkCacheScan(b *testing.B) {
	c := cache.New(100*64, nil)
	for i := 0; i < b.N; i++ {
		for j := 0; j < 60; j++ {
			key := fmt.Sprintf("hot-%d", j)
			if _, ok := c.Get(key); !ok {
				c.Put(key, j, 64)
			}
		}
		if i%5 == 4 {
			for j := 0; j < 500; j++ {
				key := fmt.Sprintf("scan-%d-%d", i, j)
				c.Put(key, j, 64)
			}
		}
	}
	b.ReportMetric(c.Stats().HitRate(), "hitRate")
}

// BenchmarkDistributed measures the Section 4 tree over increasing shard
// counts with replication.
func BenchmarkDistributed(b *testing.B) {
	tbl := dataset(b)
	for _, shards := range []int{1, 4, 8} {
		c, err := cluster.NewLocal(tbl, cluster.Options{
			Shards: shards, Replicas: 2,
			Store: colstore.Options{
				PartitionFields:  []string{"country", "table_name"},
				MaxChunkRows:     5000,
				OptimizeElements: true,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("shards%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.Query(`SELECT country, COUNT(*) as c FROM data GROUP BY country ORDER BY c DESC LIMIT 10;`); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSkippingAblation isolates Section 2.2: the same selective query
// with chunk classification on and off.
func BenchmarkSkippingAblation(b *testing.B) {
	tbl := dataset(b)
	opts := colstore.Options{
		PartitionFields:  []string{"country", "table_name"},
		MaxChunkRows:     2000,
		OptimizeElements: true,
	}
	q := `SELECT user, COUNT(*) FROM data WHERE country IN ("at") GROUP BY user;`
	for _, disable := range []bool{false, true} {
		store, err := colstore.FromTable(tbl, opts)
		if err != nil {
			b.Fatal(err)
		}
		engine := exec.New(store, exec.Options{DisableSkipping: disable})
		name := "skipping"
		if disable {
			name = "fullscan"
		}
		b.Run(name, func(b *testing.B) {
			var rows int64
			for i := 0; i < b.N; i++ {
				res, err := query(engine, q)
				if err != nil {
					b.Fatal(err)
				}
				rows = res.Stats.RowsScanned
			}
			b.ReportMetric(float64(rows), "rowsScanned")
		})
	}
}

// BenchmarkPartitionOrder backs Section 6's claim that choosing 3-5 natural
// key fields "is quite straightforward": the same drill-down session is
// replayed on stores partitioned by different keys, each pass on a fresh
// engine with the result cache on, and the share of records skipped, served
// from cache and scanned is reported per key (the paper skips ~92%).
func BenchmarkPartitionOrder(b *testing.B) {
	tbl := dataset(b)
	clicks := workload.DrillDownSession(tbl, workload.SessionSpec{Seed: 2012, Clicks: 8, QueriesPerClick: 10})
	for _, key := range [][]string{
		{"country", "table_name"},
		{"table_name", "country"},
		{"user"},
		nil, // no partitioning
	} {
		store, err := colstore.FromTable(tbl, colstore.Options{
			PartitionFields: key, MaxChunkRows: benchRows / 200, OptimizeElements: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		name := strings.Join(key, ",")
		if name == "" {
			name = "none"
		}
		b.Run(name, func(b *testing.B) {
			var st exec.Stats
			for i := 0; i < b.N; i++ {
				engine := exec.New(store, exec.Options{ResultCacheBytes: 32 << 20})
				for _, click := range clicks {
					for _, q := range click.Queries {
						if _, err := query(engine, q); err != nil {
							b.Fatal(err)
						}
					}
				}
				st = engine.Stats()
			}
			total := float64(st.RowsTotal)
			b.ReportMetric(100*float64(st.RowsSkipped)/total, "skipped%")
			b.ReportMetric(100*float64(st.RowsCached)/total, "cached%")
			b.ReportMetric(100*float64(st.RowsScanned)/total, "scanned%")
		})
	}
}

// BenchmarkBuild times the import pipeline — ranking, partitioning and
// chunk assembly — in the bench layout (country, table_name; 2 000-row
// chunks; OptimizeElements) at 200 k and 2 M rows. Ingest seals and
// compactions go through the same colstore.FromTable, so its cost per row
// must not grow with the row count; µs/row prints beside ns/op.
func BenchmarkBuild(b *testing.B) {
	for _, rows := range []struct {
		name string
		n    int
	}{{"200k", 200_000}, {"2M", 2_000_000}} {
		b.Run(rows.name, func(b *testing.B) {
			tbl := GenerateQueryLogs(rows.n, 1)
			opts := Options{PartitionFields: []string{"country", "table_name"}, MaxChunkRows: 2000, OptimizeElements: true}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Build(tbl, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*rows.n), "µs/row")
		})
	}
}

// BenchmarkGroupByAblation contrasts the counts-array inner loop with a
// generic hash group-by over the same data — the Section 2.5 explanation.
func BenchmarkGroupByAblation(b *testing.B) {
	tbl := dataset(b)
	store, err := colstore.FromTable(tbl, colstore.Options{OptimizeElements: true})
	if err != nil {
		b.Fatal(err)
	}
	engine := exec.New(store, exec.Options{})
	for _, field := range []string{"country", "table_name"} {
		q := fmt.Sprintf(`SELECT %s, COUNT(*) as c FROM data GROUP BY %s ORDER BY c DESC LIMIT 10;`, field, field)
		b.Run("countsarray/"+field, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := query(engine, q); err != nil {
					b.Fatal(err)
				}
			}
		})
		col := tbl.Column(field)
		b.Run("hashtable/"+field, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				counts := make(map[string]int64, 1024)
				for _, v := range col.Strs {
					counts[v]++
				}
			}
		})
	}
}

// BenchmarkResultCache measures the fully-active chunk cache of Section 6:
// the second run of an identical query served from cached partials.
func BenchmarkResultCache(b *testing.B) {
	tbl := dataset(b)
	store, err := colstore.FromTable(tbl, colstore.Options{
		PartitionFields:  []string{"country", "table_name"},
		MaxChunkRows:     5000,
		OptimizeElements: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	q := `SELECT country, COUNT(*) FROM data GROUP BY country;`
	cold := exec.New(store, exec.Options{})
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := query(cold, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	warm := exec.New(store, exec.Options{ResultCacheBytes: 64 << 20})
	if _, err := query(warm, q); err != nil {
		b.Fatal(err)
	}
	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := query(warm, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParallelScan measures the parallel chunk-execution pipeline on a
// Table-1-style workload: the same queries over the same chunked store at
// Parallelism 1 (the sequential engine) and at all cores. No result cache,
// so every iteration scans every chunk — the quantity being measured is the
// fan-out of classify/mask/aggregate itself. Setup asserts both engines
// return identical results before any timing.
func BenchmarkParallelScan(b *testing.B) {
	tbl := dataset(b)
	store, err := colstore.FromTable(tbl, colstore.Options{
		PartitionFields:  []string{"country", "table_name"},
		MaxChunkRows:     2000,
		OptimizeElements: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	queries := []string{
		`SELECT country, COUNT(*) as c FROM data GROUP BY country ORDER BY c DESC LIMIT 10;`,
		`SELECT table_name, COUNT(*) as c, SUM(latency) as s FROM data GROUP BY table_name ORDER BY c DESC LIMIT 10;`,
		`SELECT country, COUNT(DISTINCT user) as u FROM data WHERE latency > 20 GROUP BY country ORDER BY u DESC LIMIT 10;`,
	}
	fingerprint := func(e *exec.Engine) string {
		var out string
		for _, q := range queries {
			res, err := query(e, q)
			if err != nil {
				b.Fatal(err)
			}
			for _, row := range res.Rows {
				for _, v := range row {
					out += v.String() + "|"
				}
				out += "\n"
			}
		}
		return out
	}
	seqFP := fingerprint(exec.New(store, exec.Options{Parallelism: 1}))
	settings := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		settings = append(settings, n)
	}
	for _, par := range settings {
		engine := exec.New(store, exec.Options{Parallelism: par})
		if fp := fingerprint(engine); fp != seqFP {
			b.Fatalf("parallelism=%d returns different results than sequential", par)
		}
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					if _, err := query(engine, q); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkVectorizedScan is the kernel acceptance benchmark: a restricted
// GROUP BY aggregation through the vectorized kernels, swept across
// restriction selectivities. Needle values planted at exact row fractions in
// an unsorted high-cardinality column make the selectivity precise. Setup
// checks each point's rows against COUNT and SUM per group computed from
// the generated columns before any timing, and each subtest reports rows/s.
func BenchmarkVectorizedScan(b *testing.B) {
	const chunkRows = benchRows / 100
	rows := benchRows
	grp := make([]string, rows)
	metric := make([]int64, rows)
	tag := make([]string, rows)
	shard := make([]string, rows)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < rows; i++ {
		grp[i] = fmt.Sprintf("g%02d", rng.Intn(16))
		metric[i] = int64(rng.Intn(1000))
		shard[i] = fmt.Sprintf("s%03d", i/chunkRows)
		switch {
		case i%10 == 5:
			tag[i] = "needle_01"
		case i%100 == 1:
			tag[i] = "needle_001"
		case i%1000 == 3:
			tag[i] = "needle_0001"
		default:
			tag[i] = fmt.Sprintf("t%05d", rng.Intn(20000))
		}
	}
	tbl := table.New("data").
		AddStringColumn("grp", grp).
		AddInt64Column("metric", metric).
		AddStringColumn("tag", tag).
		AddStringColumn("shard", shard)
	store, err := colstore.FromTable(tbl, colstore.Options{
		PartitionFields:  []string{"shard"},
		MaxChunkRows:     chunkRows,
		OptimizeElements: true,
	})
	if err != nil {
		b.Fatal(err)
	}

	kernel := exec.New(store, exec.Options{Parallelism: 1})
	sweep := []struct {
		label  string
		needle string // "" selects every row
	}{
		{"sel=0.001", "needle_0001"},
		{"sel=0.01", "needle_001"},
		{"sel=0.1", "needle_01"},
		{"sel=1.0", ""},
	}
	for _, pt := range sweep {
		where := ""
		if pt.needle != "" {
			where = fmt.Sprintf(` WHERE tag = %q`, pt.needle)
		}
		q := fmt.Sprintf(`SELECT grp, COUNT(*) AS c, SUM(metric) AS s FROM data%s GROUP BY grp ORDER BY c DESC LIMIT 20;`, where)
		want := map[string][2]int64{}
		for i := range grp {
			if pt.needle == "" || tag[i] == pt.needle {
				w := want[grp[i]]
				want[grp[i]] = [2]int64{w[0] + 1, w[1] + metric[i]}
			}
		}
		res, err := query(kernel, q)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != len(want) {
			b.Fatalf("%s: %d groups, want %d", pt.label, len(res.Rows), len(want))
		}
		for _, row := range res.Rows {
			if got := [2]int64{row[1].Int(), row[2].Int()}; got != want[row[0].Str()] {
				b.Fatalf("%s: group %s has COUNT, SUM %v, want %v", pt.label, row[0].Str(), got, want[row[0].Str()])
			}
		}
		b.Run(pt.label, func(b *testing.B) {
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := query(kernel, q); err != nil {
					b.Fatal(err)
				}
			}
			if el := time.Since(start); el > 0 {
				b.ReportMetric(float64(rows)*float64(b.N)/el.Seconds(), "rows/s")
			}
		})
	}
}
