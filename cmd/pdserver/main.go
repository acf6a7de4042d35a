// Command pdserver runs one PowerDrill leaf server: it loads a persisted
// store (one shard) and answers partial queries over net/rpc, the role of
// an individual machine in the paper's Section 4 deployment. A coordinator
// built with powerdrill.ConnectCluster fans queries out to a fleet of
// pdserver processes and re-aggregates through the execution tree.
//
// The store opens lazily: columns load from disk on first touch, governed
// by -memory-budget, so a leaf can serve far more data than fits in RAM
// (the paper's Section 5). The optional -statz address exposes a JSON
// observability endpoint with resident bytes, budget, evictions and cache
// hit rates.
//
// With -shards it instead runs as a coordinator: the listed shard
// directories are opened as an in-process cluster (replicated, hedged,
// health-tracked — see docs/cluster.md) and queries are answered over
// HTTP (/query) with per-leaf health on /statz.
//
// With -mixer it runs as an inner serving-tree node: it answers the same
// PartialQuery RPC a leaf does, but computes each answer by fanning out to
// the listed child nodes (leaf or mixer processes — trees stack) and
// shipping one merged partial up. With -connect it runs as a coordinator
// over remote nodes. Both take address sets: ';' separates child subtrees,
// ',' separates a subtree's replica addresses.
//
// Usage:
//
//	pdserver -store ./shard0 -listen :7070 -memory-budget 268435456 -statz :8080
//	pdserver -store ./shard0 -listen :7070 -scrub-interval 1h
//	pdserver -shards ./shard0,./shard1 -statz :8080 -deadline 10s
//	pdserver -mixer "h1:7070,h1b:7070;h2:7070" -listen :7071 -statz :8081
//	pdserver -connect "mix1:7071,mix1b:7071;mix2:7071" -statz :8080
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"powerdrill"
)

func main() {
	storeDir := flag.String("store", "", "persisted store directory (one shard)")
	shards := flag.String("shards", "", "comma-separated shard directories: run as a coordinator over an in-process cluster instead of one leaf")
	listen := flag.String("listen", ":7070", "listen address")
	cacheBytes := flag.Int64("cache", 64<<20, "result cache bytes")
	parallelism := flag.Int("parallelism", 0, "chunk-scan workers per query (0 = all cores, 1 = sequential)")
	memBudget := flag.Int64("memory-budget", 0, "resident column byte budget (0 = unlimited, columns still load lazily)")
	statz := flag.String("statz", "", "HTTP address for the /statz JSON endpoint (disabled when empty; required with -shards)")
	replicas := flag.Int("replicas", 2, "replicas per shard in coordinator mode")
	deadline := flag.Duration("deadline", 10*time.Second, "per-query deadline in coordinator mode (0 = none)")
	mixer := flag.String("mixer", "", `child address sets ("a,b;c,d"): run as a mixer node over them instead of serving a store`)
	connect := flag.String("connect", "", `remote node address sets ("a,b;c,d"): run as a coordinator over leaf/mixer processes`)
	scrubInterval := flag.Duration("scrub-interval", 0, "background scrub cadence for the leaf's store (0 = off)")
	flag.Parse()
	if *mixer != "" {
		if err := runMixer(*mixer, *listen, *statz, *deadline); err != nil {
			fmt.Fprintf(os.Stderr, "pdserver: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *connect != "" {
		if err := runConnect(*connect, *statz, *deadline); err != nil {
			fmt.Fprintf(os.Stderr, "pdserver: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *shards != "" {
		if err := runCoordinator(strings.Split(*shards, ","), *statz, coordinatorOptions{
			replicas:    *replicas,
			deadline:    *deadline,
			cacheBytes:  *cacheBytes,
			parallelism: *parallelism,
			memBudget:   *memBudget,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "pdserver: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "pdserver: -store or -shards is required")
		os.Exit(2)
	}
	store, _, err := powerdrill.Open(*storeDir, powerdrill.Options{
		ResultCacheBytes:  *cacheBytes,
		Parallelism:       *parallelism,
		MemoryBudgetBytes: *memBudget,
		ScrubInterval:     *scrubInterval,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pdserver: %v\n", err)
		os.Exit(1)
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pdserver: %v\n", err)
		os.Exit(1)
	}
	budget := "unlimited"
	if *memBudget > 0 {
		budget = fmt.Sprintf("%.1f MB", float64(*memBudget)/1e6)
	}
	fmt.Printf("pdserver: serving %d rows (%d chunks, lazy columns, memory budget %s) on %s\n",
		store.NumRows(), store.NumChunks(), budget, l.Addr())
	var statzSrv *http.Server
	if *statz != "" {
		statzSrv = &http.Server{Addr: *statz, Handler: statzMux(store)}
		go func() {
			if err := statzSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "pdserver: statz: %v\n", err)
			}
		}()
		fmt.Printf("pdserver: /statz on %s\n", *statz)
	}

	// SIGTERM/SIGINT triggers a graceful shutdown: stop accepting, drain
	// in-flight HTTP requests, then flush the write buffer so every
	// acknowledged append is sealed durably before the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- powerdrill.ServeShard(l, store) }()
	select {
	case err := <-serveErr:
		_ = store.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "pdserver: %v\n", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop() // a second signal kills immediately
		fmt.Println("pdserver: signal received; draining, flushing, closing")
		if err := shutdownLeaf(l, statzSrv, store, serveErr); err != nil {
			fmt.Fprintf(os.Stderr, "pdserver: shutdown: %v\n", err)
			os.Exit(1)
		}
	}
}

// shutdownLeaf runs the graceful-shutdown sequence: close the RPC
// listener (new connections refused, the serve loop exits), drain the
// observability server's in-flight requests, then Flush — sealing every
// buffered row into a committed segment — and Close the store. After it
// returns, every acknowledged append is durable and the process can
// exit or be killed safely.
func shutdownLeaf(l net.Listener, statzSrv *http.Server, store *powerdrill.Store, serveErr <-chan error) error {
	_ = l.Close()
	if statzSrv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = statzSrv.Shutdown(sctx)
		cancel()
	}
	if serveErr != nil {
		<-serveErr // the RPC accept loop has exited
	}
	if err := store.Flush(); err != nil {
		_ = store.Close()
		return err
	}
	return store.Close()
}

type coordinatorOptions struct {
	replicas    int
	deadline    time.Duration
	cacheBytes  int64
	parallelism int
	memBudget   int64
}

// runCoordinator opens the shard directories as an in-process cluster and
// serves /query and /statz (cluster health included) on the statz address.
func runCoordinator(dirs []string, statzAddr string, o coordinatorOptions) error {
	if statzAddr == "" {
		return fmt.Errorf("coordinator mode needs -statz (it serves /query and /statz over HTTP)")
	}
	c, err := powerdrill.OpenCluster(dirs, powerdrill.ClusterOptions{
		Replicas: o.replicas,
		Deadline: o.deadline,
		Store: powerdrill.Options{
			ResultCacheBytes:  o.cacheBytes,
			Parallelism:       o.parallelism,
			MemoryBudgetBytes: o.memBudget,
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("pdserver: coordinating %d shards x %d replicas (deadline %v); /query and /statz on %s\n",
		len(dirs), o.replicas, o.deadline, statzAddr)
	return serveCoordinatorStatz(statzAddr, c)
}

// parseAddrSets parses "a,b;c,d" into address sets: ';' separates child
// subtrees, ',' separates a subtree's replica addresses.
func parseAddrSets(s string) [][]string {
	var sets [][]string
	for _, grp := range strings.Split(s, ";") {
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
	return sets
}

// runMixer serves an inner serving-tree node: the same RPC surface as a
// leaf, answered by fanning out to the child nodes and merging. Children
// that are down at startup join once reachable.
func runMixer(children, listen, statzAddr string, deadline time.Duration) error {
	sets := parseAddrSets(children)
	if len(sets) == 0 {
		return fmt.Errorf("-mixer needs at least one child address set")
	}
	l, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	m := powerdrill.ConnectMixer(l.Addr().String(), sets, powerdrill.ClusterOptions{Deadline: deadline})
	fmt.Printf("pdserver: mixing %d child subtrees (deadline %v) on %s\n",
		len(sets), deadline, l.Addr())
	if statzAddr != "" {
		go func() {
			mux := http.NewServeMux()
			mux.Handle("/statz", mixerStatzHandler(m))
			if err := http.ListenAndServe(statzAddr, mux); err != nil {
				fmt.Fprintf(os.Stderr, "pdserver: statz: %v\n", err)
			}
		}()
		fmt.Printf("pdserver: /statz on %s\n", statzAddr)
	}
	return powerdrill.ServeMixer(l, m)
}

// runConnect serves a coordinator over remote leaf or mixer processes:
// /query and /statz over HTTP, exactly like -shards but with the serving
// tree living in other processes.
func runConnect(addrs, statzAddr string, deadline time.Duration) error {
	if statzAddr == "" {
		return fmt.Errorf("coordinator mode needs -statz (it serves /query and /statz over HTTP)")
	}
	sets := parseAddrSets(addrs)
	if len(sets) == 0 {
		return fmt.Errorf("-connect needs at least one node address set")
	}
	c, err := powerdrill.ConnectCluster(sets, powerdrill.ClusterOptions{Deadline: deadline})
	if err != nil {
		return err
	}
	fmt.Printf("pdserver: coordinating %d remote subtrees (deadline %v); /query and /statz on %s\n",
		len(sets), deadline, statzAddr)
	return serveCoordinatorStatz(statzAddr, c)
}
