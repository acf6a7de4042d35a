// Command pdbench regenerates every table and figure of "Processing a
// Trillion Cells per Mouse Click" on synthetic data with the same shape as
// the paper's query logs.
//
// Usage:
//
//	pdbench -exp all                 # every experiment
//	pdbench -exp table1 -rows 5000000 -reps 5
//	pdbench -exp steps               # Tables 2, 3, 4 and the trie numbers
//	pdbench -exp reorder             # Section 3 row-reordering factors
//	pdbench -exp figure5             # latency vs data loaded from disk
//	pdbench -exp production          # Section 6 skip/cache/scan split
//	pdbench -exp click               # the 20-queries-per-click headline
//	pdbench -exp countdistinct       # Section 5 approximation error
//	pdbench -exp codecs              # Section 5 compressor comparison
//	pdbench -exp caches              # Section 5 eviction policies
//	pdbench -exp distributed         # Section 4 tree + replicas
//	pdbench -exp faulttol            # Section 4 hedging, breakers, coverage
//	pdbench -exp mixer               # Section 4 RPC mixer tree + rebalancing
//	pdbench -exp groupby             # ablation: counts-array vs hash
//	pdbench -exp skipping            # ablation: Section 2.2 on/off
//	pdbench -exp partitionorder      # ablation: field-order sensitivity
//	pdbench -exp coldstart           # Section 5 byte-budgeted lazy loading
//	pdbench -exp chunkres            # chunk-granular residency vs selectivity
//	pdbench -exp coldio              # per-chunk compression + coalesced cold reads
//	pdbench -exp virtcol             # budget-aware (persisted) virtual columns
//	pdbench -exp ingest              # streaming appends, snapshot queries, compaction
//	pdbench -exp kernels             # vectorized kernels vs scalar, bloom/dict-shard pruning
//	pdbench -exp durability          # WAL fsync cost, checksum overhead, offline scrub
//
// Absolute numbers depend on the host; the relationships (who wins, by
// what factor, where curves bend) are the reproduction target. The
// end-to-end click latency is measured by the benchmark in bench/ (see
// bench/README.md), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

// experiments maps -exp values to runners, in presentation order.
var experiments = []struct {
	name string
	desc string
	run  func(cfg config) error
}{
	{"table1", "Table 1: CSV vs record-io vs Dremel vs Basic (latency + memory)", runTable1},
	{"steps", "Tables 2-4: step-wise memory optimizations + trie numbers", runSteps},
	{"reorder", "Section 3: row reordering compression factors", runReorder},
	{"figure5", "Figure 5: latency by data loaded from disk", runFigure5},
	{"production", "Section 6: skipped/cached/scanned split", runProduction},
	{"click", "Section 1/6: one mouse click = 20 queries", runClick},
	{"countdistinct", "Section 5: approximate count distinct error", runCountDistinct},
	{"codecs", "Section 5: compression algorithm comparison", runCodecs},
	{"caches", "Section 5: cache eviction policies", runCaches},
	{"distributed", "Section 4: execution tree, replicas, stragglers", runDistributed},
	{"faulttol", "Section 4: deadlines, hedged re-dispatch, breakers, coverage", runFaultTol},
	{"mixer", "Section 4: RPC mixer tree vs flat coordinator; health-driven rebalancing", runMixerExp},
	{"groupby", "Ablation: counts-array vs hash-table group-by", runGroupBy},
	{"skipping", "Ablation: chunk skipping on/off", runSkipping},
	{"partitionorder", "Ablation: partition field order sensitivity", runPartitionOrder},
	{"coldstart", "Section 5: byte-budgeted lazy loading, cold vs warm", runColdStart},
	{"chunkres", "Section 5: chunk-granular residency vs restriction selectivity", runChunkRes},
	{"coldio", "Cold I/O: per-chunk compression, coalesced runs, cache-aware skips", runColdIO},
	{"virtcol", "Budget-aware virtual columns: sidecar persistence, eviction, span pruning", runVirtCol},
	{"ingest", "Streaming ingestion: append rate, snapshot query latency, compaction", runIngest},
	{"kernels", "Vectorized scan kernels vs scalar path; Bloom + dict-shard pruning", runKernels},
	{"durability", "Durable ingest: fsync policy cost, checksum overhead, offline scrub", runDurability},
}

// config carries the shared experiment parameters.
type config struct {
	rows         int
	reps         int
	seed         int64
	parallelism  int
	memoryBudget int64
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (or 'all', 'list')")
	rows := flag.Int("rows", 1_000_000, "dataset rows (paper: 5'000'000)")
	reps := flag.Int("reps", 3, "repetitions per latency measurement (paper: 5)")
	seed := flag.Int64("seed", 2012, "generator seed")
	parallelism := flag.Int("parallelism", 0, "chunk-scan workers per query (0 = all cores, 1 = sequential)")
	memoryBudget := flag.Int64("memory-budget", 0, "resident column byte budget for the coldstart experiment (0 = sweep fractions)")
	flag.Parse()

	cfg := config{rows: *rows, reps: *reps, seed: *seed, parallelism: *parallelism, memoryBudget: *memoryBudget}

	if *exp == "list" {
		for _, e := range experiments {
			fmt.Printf("  %-15s %s\n", e.name, e.desc)
		}
		return
	}
	ran := false
	for _, e := range experiments {
		if *exp != "all" && e.name != *exp {
			continue
		}
		ran = true
		fmt.Printf("\n=== %s — %s ===\n\n", e.name, e.desc)
		if err := e.run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "pdbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "pdbench: unknown experiment %q; try -exp list\n", *exp)
		os.Exit(1)
	}
}

// mb renders bytes as MB with two decimals, like the paper's tables.
func mb(bytes int64) string { return fmt.Sprintf("%.2f", float64(bytes)/1e6) }

// row prints one fixed-width table row.
func row(cells ...string) {
	var b strings.Builder
	for i, c := range cells {
		if i == 0 {
			fmt.Fprintf(&b, "%-12s", c)
		} else {
			fmt.Fprintf(&b, "%14s", c)
		}
	}
	fmt.Println(b.String())
}
