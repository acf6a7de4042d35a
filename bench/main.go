// Command bench is the repository's benchmark: click sessions, 20 chart
// queries per click, against four deployment shapes. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// def names one metric. The end-to-end list and its bounds are repeated in
// BENCHMARK.json, which is what the driver reads; a test keeps the two equal.
type def struct {
	name, unit string
}

var endToEndDefs = []def{
	{"click_p50_ms", "ms"},
	{"click_p90_ms", "ms"},
	{"cells_per_s", "1/s"},
	{"heap_mb", "MB"},
	{"setup_s", "s"},
}

var perLayerDefs = []def{
	{"sql.parse_us", "us"},
	{"exec.run_partial_p50_ms", "ms"},
	{"exec.run_partial_p90_ms", "ms"},
	{"exec.finalize_us", "us"},
	{"exec.row_scan_ms", "ms"},
	{"exec.scan_ns_per_row", "ns"},
	{"exec.skipped_frac", "frac"},
	{"exec.cached_frac", "frac"},
	{"exec.scanned_frac", "frac"},
	{"exec.kernel_chunk_frac", "frac"},
	{"cache.hit_rate", "frac"},
	{"cache.evictions", "count"},
	{"colstore.cold_loads", "count"},
	{"colstore.disk_bytes_read", "bytes"},
	{"colstore.read_calls", "count"},
	{"colstore.coalesced_frac", "frac"},
	{"colstore.decompress_ms", "ms"},
	{"colstore.checksum_verified", "count"},
	{"colstore.open_ms", "ms"},
	{"colstore.save_ms", "ms"},
	{"colstore.disk_bytes_per_row", "bytes/row"},
	{"memmgr.hit_rate", "frac"},
	{"memmgr.evictions", "count"},
	{"memmgr.evicted_bytes", "bytes"},
	{"memmgr.resident_bytes", "bytes"},
	{"ingest.append_ack_p50_ms", "ms"},
	{"ingest.append_ack_p90_ms", "ms"},
	{"ingest.appender_late_max_ms", "ms"},
	{"ingest.append_us_per_row", "us"},
	{"ingest.seals", "count"},
	{"ingest.compactions", "count"},
	{"ingest.segments_max", "count"},
	{"ingest.snapshot_us", "us"},
	{"ingest.snapshot_run_ms", "ms"},
	{"ingest.click_ms_quiet", "ms"},
	{"ingest.click_ms_maintenance", "ms"},
	{"cluster.rpc_overhead_ms", "ms"},
	{"cluster.mixer_self_ms", "ms"},
	{"cluster.root_self_ms", "ms"},
	{"cluster.wire_encode_us", "us"},
	{"cluster.wire_decode_us", "us"},
	{"cluster.merge_us", "us"},
	{"cluster.partial_bytes", "bytes"},
	{"cluster.hedges", "count"},
	{"cluster.retries", "count"},
	{"trace.click_p50_ms", "ms"},
	{"trace.clicks", "count"},
	{"trace.spans", "count"},
}

// set records a per-layer metric under its declared unit.
func (r *report) set(name string, v float64) {
	for _, d := range perLayerDefs {
		if d.name == name {
			r.metrics[name] = metric{v, d.unit}
			return
		}
	}
	panic("bench: undeclared metric " + name)
}

// commit is the source revision, stamped by run.sh.
var commit = "unknown"

// fingerprint says where and on what a report was measured.
type fingerprint struct {
	NumCPU      int     `json:"nproc"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"commit"`
	Seed        int64   `json:"seed"`
	Rows        int     `json:"rows"`
	Seconds     float64 `json:"seconds"`
	MinSessions int     `json:"min_sessions"`
}

func host(c *config) fingerprint {
	return fingerprint{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, c.seed, c.rows, c.seconds, c.minSessions}
}

// result is the line the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name        = flag.String("workload", "all", "workload to run: all, or one of the four names")
		seed        = flag.Int64("seed", 1, "seed of the table, the sessions and the appended batches")
		seconds     = flag.Float64("seconds", 20, "length of the timed phase")
		trace       = flag.Int("trace", 0, "1: traced run, per-layer metrics and span files; 0: timed run, end-to-end metrics")
		smoke       = flag.Bool("smoke", false, "a small table and a short phase, to see that everything runs")
		checkRepeat = flag.Bool("check-repeat", false, "run the timed suite twice and compare the two against the bounds")
	)
	flag.Parse()
	// A closed loop of one user and, on click-ingest, one appender: the load
	// never needs more than two cores, and the stores get the rest up to four.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	c := fullConfig(*seed, *seconds)
	if *smoke {
		c = smokeConfig(*seed)
	}
	c.outDir, c.workDir = "bench/out", ".bench_build"
	if err := os.MkdirAll(c.workDir, 0o755); err != nil {
		fatal(err)
	}
	var todo []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	fp, _ := json.Marshal(host(c))
	fmt.Printf("host %s\n", fp)

	ok := true
	if *checkRepeat {
		ok = repeatCheck(c, todo)
	} else {
		for _, w := range todo {
			// The whole suite, traced, also measures what tracing costs.
			ok = suite(c, w, *trace == 1, *name == "all") != nil && ok
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// fullConfig is the benchmark at its fixed size. The issue asked for a
// million rows; the driver's cap on a run's time (set-up three times, a
// reference replay, 92 runs in under an hour) leaves room for a fifth of
// that, and everything sized by the table is scaled with it: 100 chunks,
// batches of a thousandth of the table every 50 ms (2 % of the table per
// second), seals every ten batches.
func fullConfig(seed int64, seconds float64) *config {
	return &config{
		rows: 200_000, chunkRows: 2_000, seed: seed, seconds: seconds, minSessions: 13,
		setupReps: 3, batchRows: 200, batchEvery: 50 * time.Millisecond,
	}
}

func smokeConfig(seed int64) *config {
	return &config{
		rows: 50_000, chunkRows: 500, seed: seed, seconds: 1, minSessions: 2,
		setupReps: 1, batchRows: 50, batchEvery: 50 * time.Millisecond,
	}
}

// suite runs one workload and prints its report and the driver's line. With
// overhead set it runs timed and then traced, and prints how much slower the
// traced median click was. It returns the metrics of the last run, or nil if
// anything failed.
func suite(c *config, w workload, traced, overhead bool) map[string]metric {
	var base float64
	if traced && overhead {
		m := suite(c, w, false, false)
		if m == nil {
			return nil
		}
		base = m["click_p50_ms"].Value
	}
	rep, err := run(c, w, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return nil
	}
	defs := endToEndDefs
	if traced {
		defs = perLayerDefs
	}
	if base > 0 {
		rep.diag["trace_overhead_frac"] = metric{rep.metrics["trace.click_p50_ms"].Value/base - 1, "frac"}
	}
	printReport(rep, defs)
	if rep.failed > 0 {
		return nil
	}
	return rep.metrics
}

// printReport writes a report for a reader, then the line for the driver.
func printReport(rep *report, defs []def) {
	fmt.Printf("\n%s: %d sessions, %d clicks, %d operations, %d failed (failed_frac %.4f)\n",
		rep.workload, rep.sessions, rep.clicks, rep.attempted, rep.failed, float64(rep.failed)/float64(max(rep.attempted, 1)))
	for _, d := range defs {
		m := rep.metrics[d.name]
		fmt.Printf("  %-30s %14.4f %s\n", d.name, m.Value, m.Unit)
	}
	if len(rep.diag) > 0 {
		fmt.Println("  diagnostics:")
		names := make([]string, 0, len(rep.diag))
		for n := range rep.diag {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %-30s %14.4f %s\n", n, rep.diag[n].Value, rep.diag[n].Unit)
		}
	}
	for _, p := range rep.problems {
		fmt.Println("  problem:", p)
	}
	line, _ := json.Marshal(result{rep.failed == 0, rep.attempted, rep.failed, rep.metrics})
	fmt.Printf("%s\n", line)
}

// repeatCheck runs the timed suite twice and holds the two runs against the
// bounds of BENCHMARK.json: a benchmark whose own repeat differs by more than
// a bound cannot tell a regression of that size from noise.
func repeatCheck(c *config, todo []workload) bool {
	blob, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	var spec struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		fatal(err)
	}
	var runs [2]map[string]map[string]metric
	for i := range runs {
		runs[i] = map[string]map[string]metric{}
		for _, w := range todo {
			m := suite(c, w, false, false)
			if m == nil {
				return false
			}
			runs[i][w.name] = m
		}
	}
	ok := true
	fmt.Printf("\n%-16s %-14s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for _, w := range todo {
		for _, e := range spec.EndToEnd {
			a, b := runs[0][w.name][e.Name].Value, runs[1][w.name][e.Name].Value
			worse := (b - a) / a
			if e.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > e.Bound {
				verdict, ok = "  EXCEEDS", false
			}
			fmt.Printf("%-16s %-14s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n", w.name, e.Name, a, b, 100*worse, 100*e.Bound, verdict)
		}
	}
	return ok
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
