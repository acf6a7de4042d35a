// Package cluster implements the distributed execution of Section 4: the
// data is sharded quasi-randomly across leaf servers (each shard then
// partitioned into chunks independently), queries are rewritten into
// multi-level aggregations over a computation tree, and every sub-query
// can be answered by a primary or a replica server.
//
// The tree is built from one abstraction: a node that answers
// PartialQuery. Leaves execute the sub-query on their shard; Mixers
// (mixer.go) are inner nodes that fan out to child nodes — leaves or
// deeper mixers — and ship one merged partial up. Both sides of every
// edge run the same dispatch machinery (dispatch.go), extracted into a
// dispatcher any node embeds, so the full straggler/failure story applies
// per level:
//
//   - Every query runs under a context deadline threaded down to the
//     leaves; a hung machine can cost at most the deadline, never a hung
//     mouse click.
//   - Sub-queries are hedged, not raced: the primary is asked first and
//     the replica only after a straggler threshold (a multiple of a moving
//     per-shard latency estimate — see hedge.go), or immediately on error.
//   - Failed attempts are re-dispatched with capped, jittered exponential
//     backoff while the deadline allows.
//   - Each child carries a consecutive-failure circuit breaker (health.go),
//     so known-dead nodes are skipped instead of timed out against, and
//     rejoin via half-open probes when they recover.
//   - When a shard exhausts replicas, retries and deadline, the query
//     degrades instead of failing: the merged answer is served with
//     Coverage < 1 and the missing shards' row counts accounted — the
//     paper's UI reports exactly this fraction next to every answer.
//
// Each shard's replica set is fixed when the tree is assembled
// (topology.go); hedging and the breakers route around a slow or dead
// replica without moving it.
//
// Leaves are in-process by default (the unit tests and benchmarks run a
// whole cluster in one binary); rpc.go exposes the same node interface
// over net/rpc for multi-process deployments (partials cross the wire in
// the versioned exec.EncodePartial form), and faultinject.go provides the
// fault harness the tests drive.
//
// Time comes from one clock (clock.go). Constructors install the real
// one; breakers, latency estimates, hedge and retry timers, injected
// straggles and the RPC dial backoff all read it, so in-package tests run
// a whole tree on one manually advanced clock. Query deadlines and the
// Stat round's timeout stay real context deadlines.
package cluster

import (
	"context"
	"math/rand"
	"time"

	"powerdrill/internal/colstore"
	"powerdrill/internal/exec"
	"powerdrill/internal/sql"
)

// Leaf answers partial queries for one subtree: a real leaf covers one
// shard, a Mixer covers every shard below it. The coordinator does not
// distinguish the two.
type Leaf interface {
	// PartialQuery executes sql and returns the mergeable partial. The
	// context carries the query's deadline: implementations must return
	// promptly (with ctx.Err or a partial already computed) once it
	// expires.
	PartialQuery(ctx context.Context, sqlText string) (*exec.Partial, error)
	// Name identifies the server in logs and stats.
	Name() string
}

// RowCounter is an optional Leaf extension: nodes that can report how many
// rows they serve without running a query. The dispatcher asks it (over
// RPC: the Leaf.Stat method) for shards whose row counts are still
// unknown, concurrently with the first query's scatter — so Coverage is
// exact from the first answer even for shards that never respond.
type RowCounter interface {
	NumRows(ctx context.Context) (int64, error)
}

// LocalLeaf wraps an engine as a Leaf, with composable fault injection.
type LocalLeaf struct {
	name   string
	engine *exec.Engine
	inj    Injector
}

// NewLocalLeaf creates an in-process leaf server.
func NewLocalLeaf(name string, engine *exec.Engine) *LocalLeaf {
	l := &LocalLeaf{name: name, engine: engine}
	l.inj.name, l.inj.clk = name, wall{}
	return l
}

// Name implements Leaf.
func (l *LocalLeaf) Name() string { return l.name }

// Inject exposes the leaf's fault injector.
func (l *LocalLeaf) Inject() *Injector { return &l.inj }

// SetStraggle makes subsequent queries take at least d.
func (l *LocalLeaf) SetStraggle(d time.Duration) { l.inj.SetStraggle(d) }

// SetFail makes subsequent queries fail.
func (l *LocalLeaf) SetFail(fail bool) { l.inj.SetFail(fail) }

// Engine exposes the underlying engine (for stats).
func (l *LocalLeaf) Engine() *exec.Engine { return l.engine }

// PartialQuery implements Leaf. ctx reaches the engine: an injected
// latency wait, and the engine's query at its cancellation points, stop
// when it is done. A hedge loser's scan thus stops once the query that
// launched it returns under a deadline or a cancel; with neither it runs
// to completion and warms the caches.
func (l *LocalLeaf) PartialQuery(ctx context.Context, sqlText string) (*exec.Partial, error) {
	if err := l.inj.admit(ctx); err != nil {
		return nil, err
	}
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	return l.engine.RunPartialContext(ctx, stmt)
}

// NumRows implements RowCounter. It deliberately bypasses the fault
// injector: a leaf whose queries fail can still report its shard size,
// which is what lets Coverage degrade exactly.
func (l *LocalLeaf) NumRows(ctx context.Context) (int64, error) {
	return int64(l.engine.Store().NumRows()), nil
}

// Options configures a cluster. The dispatch policy is not among them: it
// is the same for every deployment (hedge.go).
type Options struct {
	// Shards is the number of data shards (default 8). The paper keeps
	// 5–7 million rows per shard in production.
	Shards int
	// Replicas per sub-query: 1 (no replication) or 2 (the paper's
	// primary + replica scheme). Default 2.
	Replicas int
	// Store configures the per-shard column stores.
	Store colstore.Options
	// Engine configures the per-shard engines.
	Engine exec.Options
	// Deadline bounds each Query's wall clock (0 = none). QueryContext
	// callers can carry their own deadline instead; both compose.
	Deadline time.Duration
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 8
	}
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	if o.Replicas > 2 {
		o.Replicas = 2
	}
	if o.Engine.Gate == nil {
		// One admission gate for every leaf engine in the process: a query
		// fanning out to all shards (× replicas) shares one worker budget
		// instead of each leaf spawning its own full complement.
		o.Engine.Gate = exec.NewGate(o.Engine.Parallelism)
	}
	return o
}

// newLeafState wires a leaf into shard si at replica index r on server srv.
func newLeafState(leaf Leaf, si, r int, srv string) *leafState {
	return &leafState{leaf: leaf, shard: si, replica: r, server: srv}
}

// Cluster is the root of the serving tree: a dispatcher over replicated
// children (leaves or mixers) that finalizes merged partials into results.
type Cluster struct {
	dispatcher
	// leaves are the distinct local leaves (for fault injection); remote
	// clusters leave this nil.
	leaves []*LocalLeaf
}

// Leaves returns the local leaves for fault injection in tests.
func (c *Cluster) Leaves() []*LocalLeaf { return c.leaves }

// Query runs a SQL query over the whole cluster under Options.Deadline:
// leaves compute partials for their shards in parallel, the partials are
// merged, and the root finalizes (AVG, ORDER BY, LIMIT).
func (c *Cluster) Query(sqlText string) (*exec.Result, error) {
	return c.QueryContext(context.Background(), sqlText)
}

// QueryContext is Query under a caller-supplied context; Options.Deadline
// (when set) still caps the total wall clock. When shards are unreachable
// within the deadline the merged answer is served anyway with
// Result.Coverage < 1. The error is non-nil only when parsing fails,
// merging fails, or no shard answered at all.
func (c *Cluster) QueryContext(ctx context.Context, sqlText string) (*exec.Result, error) {
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	if c.opts.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opts.Deadline)
		defer cancel()
	}
	merged, missing, err := c.gather(ctx, sqlText)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.stats.Queries++
	if len(missing) > 0 {
		c.stats.PartialAnswers++
	}
	c.mu.Unlock()
	return exec.FinalizePartial(stmt, merged)
}

// InjectStragglers marks a random fraction of leaves as slow, for tail
// latency experiments.
func (c *Cluster) InjectStragglers(frac float64, delay time.Duration, seed int64) {
	r := rand.New(rand.NewSource(seed))
	for _, l := range c.Leaves() {
		if r.Float64() < frac {
			l.SetStraggle(delay)
		} else {
			l.SetStraggle(0)
		}
	}
}
