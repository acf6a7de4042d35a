package powerdrill

import (
	"context"
	"net"
	"time"

	"powerdrill/internal/cluster"
	"powerdrill/internal/exec"
	"powerdrill/internal/memmgr"
	"powerdrill/internal/sql"
)

// ClusterOptions configures distributed execution (paper, Section 4).
// The dispatch policy is fixed: the replica is asked once the primary
// takes 3× its shard's moving latency (clamped to [1ms, 1s]), a failed
// sub-query is re-dispatched up to twice with jittered backoff, and a
// leaf's circuit breaker opens after 3 consecutive failures for 1s
// (docs/cluster.md).
type ClusterOptions struct {
	// Shards is the number of data shards (the paper keeps 5–7 million
	// rows per shard). Default 8.
	Shards int
	// Replicas per sub-query: 2 enables the paper's primary+replica
	// scheme (default), 1 disables it.
	Replicas int
	// Store configures the per-shard imports.
	Store Options
	// Deadline bounds each query's wall clock (0 = none). When shards
	// cannot answer in time the cluster serves a partial answer with
	// Result.Coverage < 1 instead of hanging.
	Deadline time.Duration
}

func (o ClusterOptions) clusterOptions() cluster.Options {
	return cluster.Options{Shards: o.Shards, Replicas: o.Replicas, Deadline: o.Deadline}
}

// Cluster executes queries over sharded, replicated leaf servers through a
// multi-level aggregation tree.
type Cluster struct {
	inner *cluster.Cluster
	// mgr is the shared memory manager of clusters assembled with
	// OpenCluster; nil otherwise.
	mgr *memmgr.Manager
}

// NewCluster shards a raw table and builds an in-process cluster.
func NewCluster(tbl *Table, opts ClusterOptions) (*Cluster, error) {
	copts := opts.clusterOptions()
	copts.Store = opts.Store.storeOptions()
	copts.Engine = opts.Store.engineOptions()
	c, err := cluster.NewLocal(tbl, copts)
	if err != nil {
		return nil, err
	}
	return &Cluster{inner: c}, nil
}

// OpenCluster assembles an in-process cluster from shard directories
// persisted with Store.Save, opening every shard lazily: column data loads
// on first touch and all shards share one memory budget
// (opts.Store.MemoryBudgetBytes, 0 = unlimited) and one admission gate —
// the whole process stays within a single resident-byte and worker budget
// however many shards it serves. Replicas open the same directory and
// share resident columns.
func OpenCluster(shardDirs []string, opts ClusterOptions) (*Cluster, error) {
	if err := validateMemoryPolicy(opts.Store.MemoryPolicy); err != nil {
		return nil, err
	}
	mgr := memmgr.New(opts.Store.MemoryBudgetBytes, opts.Store.MemoryPolicy)
	copts := opts.clusterOptions()
	copts.Engine = opts.Store.engineOptions()
	c, err := cluster.OpenShards(shardDirs, copts, mgr)
	if err != nil {
		return nil, err
	}
	return &Cluster{inner: c, mgr: mgr}, nil
}

// MemStats reports the shared memory manager's accounting for clusters
// assembled with OpenCluster; ok is false otherwise.
func (c *Cluster) MemStats() (MemoryStats, bool) {
	if c.mgr == nil {
		return MemoryStats{}, false
	}
	return c.mgr.Stats(), true
}

// ConnectCluster assembles a cluster from remote leaf servers started with
// ServeShard (cmd/pdserver); addrSets[i] lists the addresses of shard i's
// replicas. Servers that are down at assembly are not fatal: their leaves
// are dialed lazily on first use, the cluster serves (partial) answers
// without them, and they join automatically once reachable.
func ConnectCluster(addrSets [][]string, opts ClusterOptions) (*Cluster, error) {
	var leafSets [][]cluster.Leaf
	for _, addrs := range addrSets {
		var replicas []cluster.Leaf
		for _, a := range addrs {
			replicas = append(replicas, cluster.NewRemoteLeaf(a))
		}
		leafSets = append(leafSets, replicas)
	}
	copts := opts.clusterOptions()
	copts.Shards = len(addrSets)
	return &Cluster{inner: cluster.FromLeaves(leafSets, copts)}, nil
}

// Query runs a SQL query across the cluster: leaves aggregate their
// shards, inner levels merge, the root finalizes ORDER BY and LIMIT.
// When shards are unreachable within the deadline the answer is partial:
// Result.Coverage reports the fraction of rows it spans.
func (c *Cluster) Query(sqlText string) (*Result, error) {
	return c.QueryContext(context.Background(), sqlText)
}

// QueryContext is Query under a caller-supplied context (deadline or
// cancellation); ClusterOptions.Deadline still applies when set.
func (c *Cluster) QueryContext(ctx context.Context, sqlText string) (*Result, error) {
	return c.inner.QueryContext(ctx, sqlText)
}

// Close shuts the cluster's connections to its servers (ConnectCluster);
// whatever is still in flight on them fails, and later queries find no
// server. An in-process cluster holds none. Closing again is a no-op.
func (c *Cluster) Close() error { return c.inner.Close() }

// ClusterStats counts distributed execution events.
type ClusterStats = cluster.Stats

// LeafHealth is one leaf server's health as seen by the coordinator.
type LeafHealth = cluster.LeafHealth

// Stats returns cumulative distributed-execution counters.
func (c *Cluster) Stats() ClusterStats { return c.inner.Stats() }

// Health reports every leaf's circuit-breaker state and failure counts,
// in shard-then-replica order.
func (c *Cluster) Health() []LeafHealth { return c.inner.Health() }

// InjectStragglers marks a random fraction of leaf servers as slow by
// delay, for tail-latency experiments; replicas hide them.
func (c *Cluster) InjectStragglers(frac float64, delay time.Duration, seed int64) {
	c.inner.InjectStragglers(frac, delay, seed)
}

// ServeShard serves a store as a leaf server on the listener; it blocks.
// Pair with ConnectCluster. The store's own engine answers the RPCs, so
// local queries, remote partials, and the /statz counters all share one
// result cache and one set of statistics. A store with an append path
// answers from a snapshot of it, as Query does: rows appended through
// Append (or pdserver's POST /ingest) reach coordinators as soon as
// they reach local queries.
func ServeShard(l net.Listener, s *Store) error {
	return cluster.ServeNode(l, shardLeaf{name: l.Addr().String(), s: s})
}

// shardLeaf is the serving-tree leaf over a Store.
type shardLeaf struct {
	name string
	s    *Store
}

func (l shardLeaf) Name() string { return l.name }

// PartialQuery implements cluster.Leaf: the store's engine, or a snapshot
// of its append stream, runs the partial under ctx.
func (l shardLeaf) PartialQuery(ctx context.Context, sqlText string) (*exec.Partial, error) {
	return runOn(l.s, sqlText, func(r runner, stmt *sql.SelectStmt) (*exec.Partial, error) {
		return r.RunPartialContext(ctx, stmt)
	})
}

// NumRows answers the coordinator's Stat round (cluster.RowCounter).
func (l shardLeaf) NumRows(context.Context) (int64, error) { return int64(l.s.NumRows()), nil }

// Mixer is an inner node of the serving tree: it answers partial queries
// like a leaf but computes them by fanning out to child nodes (leaf or
// mixer processes) and merging their partials. Serve it with ServeMixer
// and point a parent — ConnectCluster or a higher ConnectMixer — at its
// address; trees stack to any depth.
type Mixer struct {
	inner *cluster.Mixer
}

// ConnectMixer assembles a mixer over remote children;
// childAddrSets[i] lists the addresses of child subtree i's replicas
// (each a leaf server or another mixer). Children down at assembly join
// automatically once reachable, exactly like ConnectCluster's leaves.
func ConnectMixer(name string, childAddrSets [][]string, opts ClusterOptions) *Mixer {
	var childSets [][]cluster.Leaf
	for _, addrs := range childAddrSets {
		var replicas []cluster.Leaf
		for _, a := range addrs {
			replicas = append(replicas, cluster.NewRemoteLeaf(a))
		}
		childSets = append(childSets, replicas)
	}
	return &Mixer{inner: cluster.NewMixer(name, childSets, opts.clusterOptions())}
}

// ServeMixer serves the mixer's RPC service on l; it blocks.
func ServeMixer(l net.Listener, m *Mixer) error {
	return cluster.ServeNode(l, m.inner)
}

// Close shuts the mixer's connections to its children. The listener
// ServeMixer was given stays the caller's to close. Closing again is a
// no-op.
func (m *Mixer) Close() error { return m.inner.Close() }

// Stats returns the mixer's own dispatch counters (its fan-out to its
// children; the coordinator's counters are separate).
func (m *Mixer) Stats() ClusterStats { return m.inner.Stats() }

// Health reports the mixer's view of its children's health.
func (m *Mixer) Health() []LeafHealth { return m.inner.Health() }
