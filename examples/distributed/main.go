// Distributed runs the paper's Section 4 setup in one process: the data is
// sharded quasi-randomly over leaf servers, each shard partitioned into
// chunks, every sub-query dispatched to a primary and — after a straggler
// threshold, or immediately on error — its replica, and the group-by
// re-aggregated through a computation tree. The example injects
// stragglers and shows hedged dispatch hiding them, then runs under a
// deadline to show the partial-answer coverage accounting
// (see docs/cluster.md).
package main

import (
	"fmt"
	"log"
	"time"

	"powerdrill"
)

func main() {
	tbl := powerdrill.GenerateQueryLogs(400_000, 99)
	cluster, err := powerdrill.NewCluster(tbl, powerdrill.ClusterOptions{
		Shards:   8,
		Replicas: 2,
		Deadline: 5 * time.Second,
		Store: powerdrill.Options{
			PartitionFields:  []string{"country", "table_name"},
			MaxChunkRows:     5_000,
			OptimizeElements: true,
			ResultCacheBytes: 32 << 20,
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	q := `SELECT country, COUNT(*) AS c, SUM(latency), AVG(latency)
	      FROM data GROUP BY country ORDER BY c DESC LIMIT 8;`

	run := func(label string) {
		start := time.Now()
		res, err := cluster.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		coverage := ""
		if res.Coverage < 1 {
			coverage = fmt.Sprintf(" (PARTIAL: %.1f%% of rows, %d shards missing)",
				100*res.Coverage, res.Stats.ShardsMissing)
		}
		fmt.Printf("%s: %d result rows in %v%s\n", label, len(res.Rows), elapsed.Round(time.Millisecond), coverage)
		for _, row := range res.Rows[:3] {
			fmt.Printf("  %-4s count=%-8s sum=%-10s avg=%.1f\n",
				row[0], row[1], row[2], row[3].Float())
		}
	}

	run("healthy fleet    ")

	// 40% of the leaves become slow — evicted, overloaded, whatever
	// happens on a shared fleet. The replicas answer first.
	cluster.InjectStragglers(0.4, 250*time.Millisecond, 1)
	run("40% stragglers   ")

	st := cluster.Stats()
	fmt.Printf("\ncluster stats: %d queries, %d sub-queries, %d hedges, %d replica races, %d saved by replicas\n",
		st.Queries, st.SubQueries, st.Hedges, st.ReplicaRaces, st.PrimaryFailures)
	open := 0
	for _, h := range cluster.Health() {
		if h.Breaker != "closed" {
			open++
		}
	}
	fmt.Printf("leaf health: %d leaves, %d with a non-closed breaker\n", len(cluster.Health()), open)

	// Now the degraded case: a tight deadline and leaves so slow that some
	// shards cannot answer in time. Instead of failing the click, the
	// cluster serves whatever arrived and reports the coverage.
	small, err := powerdrill.NewCluster(tbl, powerdrill.ClusterOptions{
		Shards:   8,
		Replicas: 2,
		Deadline: 300 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	small.InjectStragglers(0.5, 10*time.Second, 3)
	fmt.Println()
	start := time.Now()
	res, err := small.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("300ms deadline, half the fleet hung: answered in %v with %.1f%% coverage (%d shards missing)\n",
		time.Since(start).Round(time.Millisecond), 100*res.Coverage, res.Stats.ShardsMissing)
	fmt.Println("\n(the paper sends every sub-query to a primary and a replica; here the")
	fmt.Println(" replica is asked only once the primary looks slow, the first answer wins,")
	fmt.Println(" and a shard with no healthy replica degrades the answer's coverage")
	fmt.Println(" instead of failing the click)")
}
