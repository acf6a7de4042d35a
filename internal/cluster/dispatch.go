package cluster

// The dispatcher is the dispatch half of a serving-tree node, extracted
// from Cluster so that every level of the tree runs the same machinery:
// the coordinator embeds one to reach its children, and each Mixer embeds
// one to reach *its* children (leaves or deeper mixers). Hedging, retries,
// breakers and coverage accounting therefore apply per level — a straggling
// leaf is hedged by its mixer, a straggling mixer by the coordinator.

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"powerdrill/internal/exec"
)

// Stats counts distributed execution events.
type Stats struct {
	Queries         int64 `json:"queries"`
	SubQueries      int64 `json:"sub_queries"`
	ReplicaRaces    int64 `json:"replica_races"`    // sub-queries issued to more than one server
	PrimaryFailures int64 `json:"primary_failures"` // sub-queries answered by a non-primary replica
	// Hedges counts secondary dispatches fired by the straggler threshold
	// (including the immediate hedge on shards with no latency estimate).
	Hedges int64 `json:"hedges"`
	// Retries counts re-dispatches after a replica error: speculative
	// immediate ones and backoff retries alike.
	Retries int64 `json:"retries"`
	// DeadlineExpired counts sub-queries abandoned because the query
	// deadline expired before any replica answered.
	DeadlineExpired int64 `json:"deadline_expired"`
	// ShardsMissing counts shard answers missing from served results —
	// every one of them degraded a query's coverage below 1.
	ShardsMissing int64 `json:"shards_missing"`
	// PartialAnswers counts queries served with Coverage < 1.
	PartialAnswers int64 `json:"partial_answers"`
	// BreakerOpens counts circuit breakers tripping open; BreakerSkips
	// counts dispatches skipped because a breaker was open.
	BreakerOpens int64 `json:"breaker_opens"`
	BreakerSkips int64 `json:"breaker_skips"`
}

// shardState holds one shard's replicas and its dispatch-side state.
type shardState struct {
	lat      latEstimate
	replicas []*leafState // fixed at assembly

	mu   sync.Mutex
	rows int64 // known row count (0 until learned; see learnRows)
}

// learnRows records the shard's row count, so coverage accounting can
// charge the shard even after its leaves die. NewLocal/OpenShards know it
// at assembly; RPC clusters learn it from the Stat RPC or the first
// answer.
func (s *shardState) learnRows(n int64) {
	if n <= 0 {
		return
	}
	s.mu.Lock()
	s.rows = n
	s.mu.Unlock()
}

func (s *shardState) knownRows() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rows
}

// dispatcher fans sub-queries out to replicated children and merges the
// answers, with per-child hedging, retries, breakers and coverage
// accounting. Cluster (the root) and Mixer (inner nodes) embed it.
type dispatcher struct {
	opts   Options
	shards []*shardState
	clk    clock

	mu    sync.Mutex
	stats Stats

	// rowsKnown short-circuits the pre-query Stat round once every
	// shard's row count has been learned.
	rowsKnown atomic.Bool
	// closed is set by Close: a sub-query that fails from then on retries
	// no child, since none can answer.
	closed atomic.Bool
}

// setChildren wires childSets into d under opts; childSets[i] holds the
// replicas of child i, each its own server.
func (d *dispatcher) setChildren(childSets [][]Leaf, opts Options) {
	opts.Shards = len(childSets)
	d.opts, d.clk = opts.withDefaults(), wall{}
	for i, replicas := range childSets {
		s := &shardState{}
		for r, leaf := range replicas {
			s.replicas = append(s.replicas, newLeafState(leaf, i, r, leaf.Name()))
		}
		d.shards = append(d.shards, s)
	}
}

// bump adds n to one stats counter.
func (d *dispatcher) bump(field *int64, n int64) {
	d.mu.Lock()
	*field += n
	d.mu.Unlock()
}

// Stats returns cumulative distributed-execution counters.
func (d *dispatcher) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Health reports every child's dispatch-side health (breaker state,
// success/failure counts, latency estimate, last error), in
// shard-then-replica order.
func (d *dispatcher) Health() []LeafHealth {
	var out []LeafHealth
	for _, s := range d.shards {
		for _, ls := range s.replicas {
			out = append(out, ls.health())
		}
	}
	return out
}

// Close closes every child that can be closed: the RPC clients' connections
// — which also ends whatever is still in flight on them, hedge losers and
// Stat rounds included, so that no goroutine of the node outlives it — and
// in-process mixers, which close their own children in turn. Queries after
// Close fail as they would against a fleet that is down, and a sub-query
// still in flight returns its first failure without a retry. Closing
// again is a no-op.
func (d *dispatcher) Close() error {
	d.closed.Store(true)
	var first error
	for _, s := range d.shards {
		for _, ls := range s.replicas {
			if c, ok := ls.leaf.(io.Closer); ok {
				if err := c.Close(); err != nil && first == nil {
					first = err
				}
			}
		}
	}
	return first
}

// gather runs one fan-out round: scatter the sub-query to every shard,
// merge what arrived in one exec.MergeAll, and charge shards that never
// answered to the stats so Coverage degrades correctly. It is the shared
// core of Cluster.QueryContext and Mixer.PartialQuery. The returned error
// is non-nil only when not a single shard answered or a merge failed.
func (d *dispatcher) gather(ctx context.Context, sqlText string) (*exec.Partial, []int, error) {
	// Shards whose row counts are still unknown are asked via the Stat
	// RPC concurrently with the scatter, so the very first query already
	// accounts a dead shard's rows in its Coverage.
	var rowsWG sync.WaitGroup
	if !d.allRowsKnown() {
		rowsWG.Add(1)
		go func() {
			defer rowsWG.Done()
			d.refreshRows(ctx)
		}()
	}
	partials, missing, err := d.scatter(ctx, sqlText)
	rowsWG.Wait()
	if err != nil {
		return nil, nil, err
	}
	merged, err := exec.MergeAll(partials)
	if err != nil {
		return nil, nil, err
	}
	for _, si := range missing {
		merged.Stats.RowsTotal += d.shards[si].knownRows()
		merged.Stats.ShardsMissing++
	}
	if len(missing) > 0 {
		d.bump(&d.stats.ShardsMissing, int64(len(missing)))
	}
	return merged, missing, nil
}

// rowStatTimeout bounds the pre-query Stat round: a hung server must not
// hold up coverage accounting longer than this (the shard simply stays
// unknown and is retried on the next query).
const rowStatTimeout = 2 * time.Second

// allRowsKnown reports whether every shard's row count has been learned.
func (d *dispatcher) allRowsKnown() bool {
	if d.rowsKnown.Load() {
		return true
	}
	for _, s := range d.shards {
		if s.knownRows() <= 0 {
			return false
		}
	}
	d.rowsKnown.Store(true)
	return true
}

// refreshRows asks shards with unknown row counts for them through the
// optional RowCounter extension (the Leaf.Stat RPC). Shards with no
// answering replica stay unknown and are retried next query.
func (d *dispatcher) refreshRows(ctx context.Context) {
	ctx, cancel := context.WithTimeout(ctx, rowStatTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for _, s := range d.shards {
		if s.knownRows() > 0 {
			continue
		}
		wg.Add(1)
		go func(s *shardState) {
			defer wg.Done()
			for _, ls := range s.replicas {
				rc, ok := ls.leaf.(RowCounter)
				if !ok {
					continue
				}
				if n, err := rc.NumRows(ctx); err == nil && n > 0 {
					s.learnRows(n)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	d.allRowsKnown() // cache the verdict if everything answered
}

// scatter fans the sub-query out to every shard. It returns the partials
// that arrived and the indices of shards that did not; the error is
// non-nil only when not a single shard answered.
func (d *dispatcher) scatter(ctx context.Context, sqlText string) ([]*exec.Partial, []int, error) {
	results := make([]*exec.Partial, len(d.shards))
	errs := make([]error, len(d.shards))
	var wg sync.WaitGroup
	for i := range d.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = d.askShard(ctx, i, sqlText)
		}(i)
	}
	wg.Wait()
	partials := make([]*exec.Partial, 0, len(d.shards))
	var missing []int
	var firstErr error
	for i, err := range errs {
		if err != nil {
			missing = append(missing, i)
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: shard %d: %w", i, err)
			}
			continue
		}
		partials = append(partials, results[i])
	}
	if len(partials) == 0 && firstErr != nil {
		return nil, nil, firstErr
	}
	return partials, missing, nil
}

// askShard answers one shard's sub-query with tiered hedging:
//
//  1. Dispatch to the primary (breaker-open replicas are skipped).
//  2. If it has not answered within the hedge delay, dispatch the replica
//     too (at once while the shard has no latency estimate); the first
//     success wins. An error brings the replica in immediately
//     (speculative re-dispatch).
//  3. When every allowed replica has been tried, re-dispatch with capped
//     jittered backoff until maxRetries or the deadline runs out.
func (d *dispatcher) askShard(ctx context.Context, si int, sqlText string) (*exec.Partial, error) {
	s := d.shards[si]
	d.bump(&d.stats.SubQueries, 1)

	// Dispatch order: primary first, breaker-open leaves skipped. If every
	// breaker is open the shard fails fast — it will be probed again after
	// the cooldown — instead of burning the deadline on known-dead leaves.
	now := d.clk.now()
	order := make([]*leafState, 0, len(s.replicas))
	var skipped int64
	for _, ls := range s.replicas {
		if ls.allowed(now) {
			order = append(order, ls)
		} else {
			skipped++
		}
	}
	if skipped > 0 {
		d.bump(&d.stats.BreakerSkips, skipped)
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("shard %d: all %d replicas circuit-open", si, len(s.replicas))
	}

	type answer struct {
		part    *exec.Partial
		err     error
		ls      *leafState
		elapsed time.Duration
	}
	// Buffered for every launch this sub-query can possibly make, so late
	// finishers never block (they just finish in the background, like the
	// paper's losing replica).
	ch := make(chan answer, len(order)*(1+maxRetries)+2)
	inflight := 0
	launch := func(ls *leafState) {
		inflight++
		go func() {
			start := d.clk.now()
			part, err := ls.leaf.PartialQuery(ctx, sqlText)
			elapsed := d.clk.now().Sub(start)
			if err == nil {
				// Per-leaf latency is observed here, in the launch
				// goroutine, so hedge losers that finish long after the
				// winner still feed the estimate /statz shows — a
				// straggling replica looks slow even though it never wins.
				ls.observe(elapsed)
			}
			ch <- answer{part, err, ls, elapsed}
		}()
	}

	raced := false
	markRaced := func(ls *leafState) {
		if !raced && ls != order[0] {
			raced = true
			d.bump(&d.stats.ReplicaRaces, 1)
		}
	}
	next := 0 // next undispatched entry in order
	hedge := func() {
		d.bump(&d.stats.Hedges, 1)
		markRaced(order[next])
		launch(order[next])
		next++
	}

	launch(order[next])
	next++
	// The hedge timer is armed only while an undispatched replica remains.
	// A shard with no latency estimate yet asks it right away.
	var hedgeCh <-chan time.Time
	if next < len(order) {
		if delay := hedgeDelay(&s.lat); delay > 0 {
			c, stop := d.clk.timer(delay)
			defer stop()
			hedgeCh = c
		} else {
			hedge()
		}
	}

	retriesLeft := maxRetries
	retryAttempt := 0            // backoff exponent + rotation cursor
	var retryCh <-chan time.Time // pending backoff timer
	var firstErr error

	finish := func(a answer) *exec.Partial {
		a.ls.success()
		s.lat.observe(a.elapsed)
		s.learnRows(a.part.Stats.RowsTotal)
		if a.ls.replica != 0 {
			d.bump(&d.stats.PrimaryFailures, 1)
		}
		return a.part
	}

	for {
		select {
		case a := <-ch:
			inflight--
			if a.err == nil {
				// Record outcomes that already arrived before returning the
				// win: dropping a buffered failure would slow its breaker.
			drain:
				for {
					select {
					case b := <-ch:
						inflight--
						if b.err == nil {
							b.ls.success()
						} else if b.ls.failure(b.err, d.clk.now()) {
							d.bump(&d.stats.BreakerOpens, 1)
						}
					default:
						break drain
					}
				}
				return finish(a), nil
			}
			if a.ls.failure(a.err, d.clk.now()) {
				d.bump(&d.stats.BreakerOpens, 1)
			}
			if firstErr == nil {
				firstErr = a.err
			}
			if d.closed.Load() {
				// The node is closed, and so are its children: no retry
				// or re-dispatch can be answered. Attempts still in flight
				// drain into the buffered channel.
				return nil, firstErr
			}
			if ctx.Err() != nil {
				// Deadline already gone: no point re-dispatching.
				if inflight == 0 {
					d.bump(&d.stats.DeadlineExpired, 1)
					return nil, firstErr
				}
				continue
			}
			switch {
			case next < len(order):
				// Speculative re-dispatch: bring the replica in now
				// instead of waiting for the hedge timer.
				hedgeCh = nil
				d.bump(&d.stats.Retries, 1)
				markRaced(order[next])
				launch(order[next])
				next++
			case retriesLeft > 0 && retryCh == nil:
				retriesLeft--
				d.bump(&d.stats.Retries, 1)
				c, stop := d.clk.timer(backoffDelay(retryBackoff, hedgeMaxDelay, retryAttempt))
				defer stop()
				retryCh = c
			case inflight == 0 && retryCh == nil:
				return nil, firstErr
			}
		case <-hedgeCh:
			hedgeCh = nil
			hedge()
		case <-retryCh:
			retryCh = nil
			target := order[retryAttempt%len(order)]
			retryAttempt++
			markRaced(target)
			launch(target)
		case <-ctx.Done():
			// The deadline expired with attempts still in flight. Leaves
			// abandon injected waits and RPC calls promptly on ctx, so the
			// launched goroutines drain into the buffered channel without
			// anyone reading — no goroutine outlives its leaf call.
			d.bump(&d.stats.DeadlineExpired, 1)
			if firstErr != nil {
				return nil, firstErr
			}
			return nil, ctx.Err()
		}
	}
}
