// Command pdrill is the PowerDrill command line: generate synthetic query
// logs, import them (or CSV files) into a partitioned column store, and
// run SQL queries against it.
//
// Usage:
//
//	pdrill generate -rows 1000000 -out logs.csv
//	pdrill import   -csv logs.csv -schema "timestamp:int64,table_name:string,latency:int64,country:string,user:string" \
//	                -store ./store -partition country,table_name -codec zippy
//	pdrill query    -store ./store -q 'SELECT country, COUNT(*) AS c FROM data GROUP BY country ORDER BY c DESC LIMIT 10;'
//	pdrill info     -store ./store
//	pdrill upgrade  -store ./old-store -out ./store
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"powerdrill"

	"powerdrill/internal/backends"
	"powerdrill/internal/colstore"
	"powerdrill/internal/value"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "generate":
		err = runGenerate(os.Args[2:])
	case "import":
		err = runImport(os.Args[2:])
	case "append":
		err = runAppend(os.Args[2:])
	case "query":
		err = runQuery(os.Args[2:])
	case "info":
		err = runInfo(os.Args[2:])
	case "scrub":
		err = runScrub(os.Args[2:])
	case "upgrade":
		err = runUpgrade(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pdrill: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: pdrill <generate|import|append|query|info|scrub|upgrade> [flags]
  generate -rows N -seed S -out FILE.csv
  import   -csv FILE -schema name:kind,...  -store DIR [-partition f1,f2] [-chunk N] [-codec zippy] [-trie] [-reorder]
  append   -csv FILE -schema name:kind,...  -store DIR [-batch N] [-seal N] [-compact]
           streams rows into an existing store (queryable while appending)
  query    -store DIR -q SQL [-parallelism N] [-memory-budget BYTES]
           (-q - reads queries from stdin)
           -shards DIR1,DIR2,... replaces -store with an in-process cluster
           (replicated, hedged, health-tracked); [-replicas N] [-deadline D]
           -connect "a,b;c,d" queries a remote fleet of pdserver processes
           (leaf or mixer nodes; ';' separates subtrees, ',' replicas)
  info     -store DIR
  scrub    -store DIR [-v]
           verifies every checksummed byte offline (columns, segments,
           WAL, manifests); exits 1 if any file fails
  upgrade  -store OLDDIR -out NEWDIR
           rewrites a store written in an older format generation as a
           current one, segments and WAL included; OLDDIR is left untouched`)
}

func runGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	rows := fs.Int("rows", 1_000_000, "rows to generate")
	seed := fs.Int64("seed", 2012, "generator seed")
	out := fs.String("out", "logs.csv", "output CSV path")
	fs.Parse(args)

	tbl := powerdrill.GenerateQueryLogs(*rows, *seed)
	if _, err := backends.WriteCSV(tbl, *out); err != nil {
		return err
	}
	fmt.Printf("wrote %d rows to %s (schema: timestamp:int64,table_name:string,latency:int64,country:string,user:string)\n",
		*rows, *out)
	return nil
}

// parseSchema parses "name:kind,...".
func parseSchema(s string) ([]string, []value.Kind, error) {
	var names []string
	var kinds []value.Kind
	for _, part := range strings.Split(s, ",") {
		bits := strings.SplitN(strings.TrimSpace(part), ":", 2)
		if len(bits) != 2 {
			return nil, nil, fmt.Errorf("bad schema field %q (want name:kind)", part)
		}
		k, err := value.ParseKind(bits[1])
		if err != nil {
			return nil, nil, err
		}
		names = append(names, bits[0])
		kinds = append(kinds, k)
	}
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("empty schema")
	}
	return names, kinds, nil
}

func runImport(args []string) error {
	fs := flag.NewFlagSet("import", flag.ExitOnError)
	csvPath := fs.String("csv", "", "input CSV (headerless)")
	schema := fs.String("schema", "", "schema name:kind,... for the CSV")
	storeDir := fs.String("store", "", "output store directory")
	partition := fs.String("partition", "", "comma-separated partition fields")
	chunk := fs.Int("chunk", 50_000, "max rows per chunk")
	codec := fs.String("codec", "zippy", "store compression codec ('' for raw)")
	trie := fs.Bool("trie", true, "use trie dictionaries for strings")
	reorderRows := fs.Bool("reorder", true, "sort rows by partition fields before chunking")
	fs.Parse(args)
	if *csvPath == "" || *schema == "" || *storeDir == "" {
		return fmt.Errorf("import needs -csv, -schema and -store")
	}
	names, kinds, err := parseSchema(*schema)
	if err != nil {
		return err
	}
	tbl, err := loadCSV(*csvPath, names, kinds)
	if err != nil {
		return err
	}
	opts := powerdrill.Options{
		MaxChunkRows:     *chunk,
		OptimizeElements: true,
		Reorder:          *reorderRows,
	}
	if *partition != "" {
		opts.PartitionFields = strings.Split(*partition, ",")
	}
	if *trie {
		opts.StringDict = powerdrill.StringDictTrie
	}
	start := time.Now()
	store, err := powerdrill.Build(tbl, opts)
	if err != nil {
		return err
	}
	if err := store.Save(*storeDir, *codec); err != nil {
		return err
	}
	fmt.Printf("imported %d rows into %d chunks in %v -> %s\n",
		store.NumRows(), store.NumChunks(), time.Since(start).Round(time.Millisecond), *storeDir)
	return nil
}

// loadCSV reads a headerless CSV into a raw table.
func loadCSV(path string, names []string, kinds []value.Kind) (*powerdrill.Table, error) {
	be := backends.NewCSV(path, backends.Schema{Names: names, Kinds: kinds})
	it, err := be.Scan(names)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	strCols := map[string][]string{}
	intCols := map[string][]int64{}
	fltCols := map[string][]float64{}
	for {
		r, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for i, name := range names {
			v := r.ColumnValue(name)
			switch kinds[i] {
			case value.KindString:
				strCols[name] = append(strCols[name], v.Str())
			case value.KindInt64:
				intCols[name] = append(intCols[name], v.Int())
			case value.KindFloat64:
				fltCols[name] = append(fltCols[name], v.Float())
			}
		}
	}
	tbl := powerdrill.NewTable("data")
	for i, name := range names {
		switch kinds[i] {
		case value.KindString:
			tbl.AddStringColumn(name, strCols[name])
		case value.KindInt64:
			tbl.AddInt64Column(name, intCols[name])
		case value.KindFloat64:
			tbl.AddFloat64Column(name, fltCols[name])
		}
	}
	return tbl, nil
}

// runAppend streams a CSV into an existing store through the ingestion
// path: rows buffer in memory, seal into on-disk segments, and are
// queryable (snapshot-isolated) the moment Append returns.
func runAppend(args []string) error {
	fs := flag.NewFlagSet("append", flag.ExitOnError)
	csvPath := fs.String("csv", "", "input CSV (headerless)")
	schema := fs.String("schema", "", "schema name:kind,... for the CSV")
	storeDir := fs.String("store", "", "existing store directory")
	batch := fs.Int("batch", 10_000, "rows per append batch")
	sealRows := fs.Int("seal", 0, "write-buffer rows per sealed segment (0 = store chunk size)")
	compact := fs.Bool("compact", false, "compact all ingest segments into one before exiting")
	fs.Parse(args)
	if *csvPath == "" || *schema == "" || *storeDir == "" {
		return fmt.Errorf("append needs -csv, -schema and -store")
	}
	names, kinds, err := parseSchema(*schema)
	if err != nil {
		return err
	}
	tbl, err := loadCSV(*csvPath, names, kinds)
	if err != nil {
		return err
	}
	store, _, err := powerdrill.Open(*storeDir, powerdrill.Options{IngestSealRows: *sealRows})
	if err != nil {
		return err
	}
	defer store.Close()

	start := time.Now()
	total := tbl.NumRows()
	for at := 0; at < total; at += *batch {
		n := *batch
		if at+n > total {
			n = total - at
		}
		rows := make([]int, n)
		for i := range rows {
			rows[i] = at + i
		}
		if err := store.Append(tbl.Select(rows)); err != nil {
			return err
		}
	}
	if err := store.Flush(); err != nil {
		return err
	}
	elapsed := time.Since(start)
	if *compact {
		if _, err := store.CompactNow(); err != nil {
			return err
		}
	}
	st, _ := store.IngestStats()
	fmt.Printf("appended %d rows in %v (%.0f rows/s) -> %s\n",
		total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds(), *storeDir)
	fmt.Printf("ingest: generation %d, %d segments (%d rows), %d seals, %d compactions; store now %d rows\n",
		st.Gen, st.Segments, st.SegmentRows, st.Seals, st.Compactions, store.NumRows())
	return nil
}

func runQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	storeDir := fs.String("store", "", "store directory")
	shards := fs.String("shards", "", "comma-separated shard store directories: query an in-process cluster instead of one store")
	connect := fs.String("connect", "", `remote node address sets ("a,b;c,d"): query a fleet of pdserver leaf/mixer processes`)
	q := fs.String("q", "", "SQL query, or '-' to read one query per line from stdin")
	parallelism := fs.Int("parallelism", 0, "chunk-scan workers per query (0 = all cores, 1 = sequential)")
	memBudget := fs.Int64("memory-budget", 0, "resident column byte budget (0 = unlimited, columns still load lazily)")
	replicas := fs.Int("replicas", 2, "replicas per shard with -shards")
	deadline := fs.Duration("deadline", 10*time.Second, "per-query deadline with -shards (0 = none)")
	fs.Parse(args)
	if *q == "" || (*storeDir == "" && *shards == "" && *connect == "") {
		return fmt.Errorf("query needs -q and one of -store, -shards or -connect")
	}
	if *connect != "" {
		var sets [][]string
		for _, grp := range strings.Split(*connect, ";") {
			var addrs []string
			for _, a := range strings.Split(grp, ",") {
				if a = strings.TrimSpace(a); a != "" {
					addrs = append(addrs, a)
				}
			}
			if len(addrs) > 0 {
				sets = append(sets, addrs)
			}
		}
		c, err := powerdrill.ConnectCluster(sets, powerdrill.ClusterOptions{Deadline: *deadline})
		if err != nil {
			return err
		}
		fmt.Printf("connected to %d remote subtrees (deadline %v)\n", len(sets), *deadline)
		return clusterQueries(c, *q)
	}
	if *shards != "" {
		dirs := strings.Split(*shards, ",")
		c, err := powerdrill.OpenCluster(dirs, powerdrill.ClusterOptions{
			Replicas: *replicas,
			Deadline: *deadline,
			Store: powerdrill.Options{
				ResultCacheBytes:  64 << 20,
				Parallelism:       *parallelism,
				MemoryBudgetBytes: *memBudget,
			},
		})
		if err != nil {
			return err
		}
		fmt.Printf("opened cluster: %d shards x %d replicas (deadline %v)\n",
			len(dirs), *replicas, *deadline)
		return clusterQueries(c, *q)
	}
	store, bytesRead, err := powerdrill.Open(*storeDir, powerdrill.Options{
		ResultCacheBytes:  64 << 20,
		Parallelism:       *parallelism,
		MemoryBudgetBytes: *memBudget,
	})
	if err != nil {
		return err
	}
	fmt.Printf("opened store lazily: %d rows, %d chunks (%0.2f MB manifest; columns load on demand)\n",
		store.NumRows(), store.NumChunks(), float64(bytesRead)/1e6)
	runOne := func(sqlText string) error {
		start := time.Now()
		res, err := store.Query(sqlText)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		printResult(res)
		warmth := "warm"
		if res.Stats.ColdLoads > 0 {
			warmth = fmt.Sprintf("cold: %d columns (%d chunks, %d dictionary entries), %.2f MB from disk in %d runs",
				res.Stats.ColdLoads, res.Stats.ColdChunkLoads, res.Stats.ColdDictLoads,
				float64(res.Stats.DiskBytesRead)/1e6, res.Stats.ReadRuns)
		}
		if res.Stats.CacheSkippedChunks > 0 {
			warmth += fmt.Sprintf("; %d chunks answered from result cache unloaded", res.Stats.CacheSkippedChunks)
		}
		fmt.Printf("-- %d rows in %v; chunks: %d/%d active, %d skipped, %d cached, %d scanned; %s\n\n",
			len(res.Rows), elapsed.Round(time.Microsecond),
			res.Stats.ActiveChunks, res.Stats.ChunksTotal,
			res.Stats.ChunksSkipped, res.Stats.ChunksCached, res.Stats.ChunksScanned, warmth)
		return nil
	}
	defer func() {
		if ms, ok := store.MemStats(); ok {
			budget := "unlimited"
			if ms.BudgetBytes > 0 {
				budget = fmt.Sprintf("%.2f MB", float64(ms.BudgetBytes)/1e6)
			}
			virtual := ""
			if ms.VirtualBytes > 0 {
				virtual = fmt.Sprintf(", %.2f MB virtual columns", float64(ms.VirtualBytes)/1e6)
			}
			fmt.Printf("memory: %.2f MB resident in %d entries (budget %s, policy %s%s); %d cold loads, %d evictions, %.0f%% hit rate\n",
				float64(ms.ResidentBytes)/1e6, ms.ResidentItems, budget, ms.Policy, virtual,
				ms.ColdLoads, ms.Evictions, 100*ms.HitRate())
		}
	}()
	if *q != "-" {
		return runOne(*q)
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "--") {
			continue
		}
		if err := runOne(line); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
		}
	}
	return sc.Err()
}

// clusterQueries answers queries from an assembled cluster — in-process
// shard directories or a remote fleet alike: replicated subtrees, hedged
// dispatch, per-child health, and partial answers with coverage reported
// when shards are missing.
func clusterQueries(c *powerdrill.Cluster, q string) error {
	runOne := func(sqlText string) error {
		start := time.Now()
		res, err := c.Query(sqlText)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		printResult(res)
		coverage := ""
		if res.Coverage < 1 {
			coverage = fmt.Sprintf("; PARTIAL ANSWER: %.1f%% of rows covered, %d shards missing",
				100*res.Coverage, res.Stats.ShardsMissing)
		}
		fmt.Printf("-- %d rows in %v%s\n\n", len(res.Rows), elapsed.Round(time.Microsecond), coverage)
		return nil
	}
	defer func() {
		st := c.Stats()
		fmt.Printf("cluster: %d queries, %d sub-queries, %d hedges, %d retries, %d replica races, %d primary failures\n",
			st.Queries, st.SubQueries, st.Hedges, st.Retries, st.ReplicaRaces, st.PrimaryFailures)
		if st.PartialAnswers > 0 || st.DeadlineExpired > 0 || st.BreakerOpens > 0 {
			fmt.Printf("cluster: %d partial answers, %d shards missed, %d deadline expiries, %d breaker opens, %d breaker skips\n",
				st.PartialAnswers, st.ShardsMissing, st.DeadlineExpired, st.BreakerOpens, st.BreakerSkips)
		}
		open := 0
		for _, h := range c.Health() {
			if h.Breaker == "open" || h.Breaker == "half-open" {
				open++
				fmt.Printf("cluster: leaf %s (shard %d replica %d) %s: %s\n",
					h.Name, h.Shard, h.Replica, h.Breaker, h.LastError)
			}
		}
		if open == 0 {
			fmt.Printf("cluster: all %d leaves healthy\n", len(c.Health()))
		}
	}()
	if q != "-" {
		return runOne(q)
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "--") {
			continue
		}
		if err := runOne(line); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
		}
	}
	return sc.Err()
}

func printResult(res *powerdrill.Result) {
	fmt.Println(strings.Join(res.Columns, "\t"))
	for _, r := range res.Rows {
		parts := make([]string, len(r))
		for i, v := range r {
			parts[i] = v.String()
		}
		fmt.Println(strings.Join(parts, "\t"))
	}
}

// runScrub walks a store directory offline and verifies every record
// checksum, printing one verdict per file. It never opens the store for
// query — a store too corrupt to open still scrubs — and never repairs.
func runScrub(args []string) error {
	fs := flag.NewFlagSet("scrub", flag.ExitOnError)
	storeDir := fs.String("store", "", "store directory")
	verbose := fs.Bool("v", false, "print clean files too, not just failures")
	fs.Parse(args)
	if *storeDir == "" {
		return fmt.Errorf("scrub needs -store")
	}
	start := time.Now()
	rep, err := powerdrill.Scrub(*storeDir)
	if err != nil {
		return err
	}
	var bytes int64
	for _, f := range rep.Files {
		bytes += f.Bytes
		if f.OK() {
			if *verbose {
				fmt.Printf("ok      %-40s %-24s %8d bytes  %d records\n", f.Path, f.Kind, f.Bytes, f.Records)
			}
			continue
		}
		fmt.Printf("CORRUPT %-40s %-24s %s\n", f.Path, f.Kind, f.Err)
	}
	fmt.Printf("scrubbed %d files (%.2f MB) in %v: %d records verified, %d corrupt\n",
		len(rep.Files), float64(bytes)/1e6, time.Since(start).Round(time.Millisecond), rep.Records, rep.Corrupt)
	if rep.Corrupt > 0 {
		return fmt.Errorf("%d corrupt file(s)", rep.Corrupt)
	}
	return nil
}

// runUpgrade converts a store of an older format generation — base,
// segments and WAL — which every other command refuses, into a new one.
func runUpgrade(args []string) error {
	fs := flag.NewFlagSet("upgrade", flag.ExitOnError)
	storeDir := fs.String("store", "", "store directory to convert")
	outDir := fs.String("out", "", "directory to write the converted store to")
	fs.Parse(args)
	if *storeDir == "" || *outDir == "" {
		return fmt.Errorf("upgrade needs -store and -out")
	}
	from, err := powerdrill.FormatGeneration(*storeDir)
	if err != nil {
		return err
	}
	if err := powerdrill.Upgrade(*storeDir, *outDir); err != nil {
		return err
	}
	fmt.Printf("upgraded %s (format generation %d) -> %s\n", *storeDir, from, *outDir)
	return nil
}

func runInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	storeDir := fs.String("store", "", "store directory")
	fs.Parse(args)
	if *storeDir == "" {
		return fmt.Errorf("info needs -store")
	}
	gen, err := powerdrill.FormatGeneration(*storeDir)
	if err != nil {
		return err
	}
	fmt.Printf("format: generation %d\n", gen)
	store, _, err := powerdrill.Open(*storeDir, powerdrill.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("store: %d rows, %d chunks\n", store.NumRows(), store.NumChunks())
	r, _, err := colstore.NewReader(*storeDir)
	if err != nil {
		return err
	}
	defer r.Close()
	fmt.Println("columns:")
	for _, cn := range store.Columns() {
		m, err := store.Memory(cn)
		if err != nil {
			return err
		}
		fmt.Printf("  %-24s elements %8.2f MB  chunk-dicts %8.2f MB  dict %8.2f MB",
			cn, float64(m.Elements)/1e6, float64(m.ChunkDicts)/1e6, float64(m.GlobalDict)/1e6)
		// The file bytes of the column's layout record; a virtual column
		// of the sidecar is not the manifest's.
		if layout, err := r.IndexBytes(cn); err == nil {
			fmt.Printf("  index %8d B", layout)
		}
		fmt.Println()
	}
	if ms, ok := store.MemStats(); ok {
		fmt.Printf("on disk: %.2f MB across %d column files\n", float64(ms.DiskBytesRead)/1e6, ms.ColdLoads)
	}
	return nil
}
