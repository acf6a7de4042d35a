package cluster

// RPC-layer fault tolerance over real loopback TCP: connection teardown
// and redial, mid-query connection kills with replica failover, non-fatal
// assembly against down servers, and concurrent queries under stragglers
// (the -race exercise).

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"powerdrill/internal/colstore"
	"powerdrill/internal/exec"
	"powerdrill/internal/table"
	"powerdrill/internal/value"
)

// serveShardLeaf starts an RPC server for one shard table and returns its
// address plus the server-side LocalLeaf (for fault injection).
func serveShardLeaf(t *testing.T, shardTbl *table.Table) (string, *LocalLeaf) {
	t.Helper()
	store, err := colstore.FromTable(shardTbl, storeOpts())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	leaf := NewLocalLeaf(ln.Addr().String(), exec.New(store, exec.Options{}))
	go ServeNode(ln, leaf)
	return ln.Addr().String(), leaf
}

// TestRemoteLeafRedial: a RemoteLeaf must survive its server going away
// and coming back — teardown on connection error, redial (after the dial
// backoff window) on recovery.
func TestRemoteLeafRedial(t *testing.T) {
	tbl := logs(1000)
	addr, _ := serveShardLeaf(t, tbl.Shard(1)[0])
	proxy, err := NewFlakyProxy(addr, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	remote := NewRemoteLeaf(proxy.Addr())
	defer remote.Close()
	clk := newFakeClock(t)
	clk.attach(remote)
	ctx := context.Background()
	if _, err := remote.PartialQuery(ctx, countQuery); err != nil {
		t.Fatalf("first query: %v", err)
	}
	// Server "dies": refuse new connections, sever the live one.
	proxy.SetDown(true)
	if _, err := remote.PartialQuery(ctx, countQuery); err == nil {
		t.Fatal("query succeeded against a down server")
	}
	// Server comes back; past any dial backoff window the next call
	// redials transparently.
	proxy.SetDown(false)
	clk.advance(dialBackoffMax)
	if _, err := remote.PartialQuery(ctx, countQuery); err != nil {
		t.Fatalf("leaf did not redial after the server came back: %v", err)
	}
}

// TestRPCFailoverMidQuery: the primary's TCP connection is severed while
// its (straggling) sub-query is in flight; the replica must answer and the
// stats must record the failover.
func TestRPCFailoverMidQuery(t *testing.T) {
	tbl := logs(2000)
	shardTbl := tbl.Shard(1)[0]
	primaryAddr, primaryLeaf := serveShardLeaf(t, shardTbl)
	replicaAddr, _ := serveShardLeaf(t, shardTbl)
	proxy, err := NewFlakyProxy(primaryAddr, 11)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	primary := NewRemoteLeaf(proxy.Addr())
	replica := NewRemoteLeaf(replicaAddr)
	defer primary.Close()
	defer replica.Close()
	c := FromLeaves([][]Leaf{{primary, replica}}, Options{Replicas: 2})
	clk := newFakeClock(t)
	clk.attach(c, primaryLeaf)
	// A latency estimate, as a first query leaves one on the real clock,
	// makes hedging tiered: the primary is asked first, and no query
	// leaves a losing call in flight.
	c.shards[0].lat.observe(time.Millisecond)

	want, err := c.Query(countQuery)
	if err != nil {
		t.Fatal(err)
	}
	delay := hedgeDelay(&c.shards[0].lat)
	// The primary's server straggles; sever its connection mid-call.
	const straggle = 300 * time.Millisecond
	primaryLeaf.SetStraggle(straggle)
	armed := clk.armed()
	done := make(chan error, 1)
	var got *exec.Result
	go func() {
		var err error
		got, err = c.Query(countQuery)
		done <- err
	}()
	clk.waitArmed(armed + 2) // the hedge timer and the straggling call
	proxy.KillActive()
	// The client resends on a fresh connection, which straggles too; the
	// hedge hides it long before the straggle passes.
	clk.waitArmed(armed + 3)
	clk.advance(delay)
	if err := <-done; err != nil {
		t.Fatalf("query with primary killed mid-flight: %v", err)
	}
	clk.advance(straggle) // release the server's calls
	if got.Coverage != 1 {
		t.Errorf("coverage = %v after failover, want 1", got.Coverage)
	}
	g := append([][]value.Value{}, got.Rows...)
	w := append([][]value.Value{}, want.Rows...)
	sortRows(g)
	sortRows(w)
	if !equalRows(t, g, w) {
		t.Error("failover answer diverged")
	}
	st := c.Stats()
	if st.PrimaryFailures == 0 {
		t.Errorf("failover not recorded: %+v", st)
	}
	// The torn-down primary connection must redial on a later query.
	primaryLeaf.SetStraggle(0)
	if _, err := c.Query(countQuery); err != nil {
		t.Fatalf("query after failover: %v", err)
	}
}

// TestRemoteAssemblyNonFatal: assembling a cluster against a server that
// is down must not fail; the cluster serves degraded answers (missing
// shard counted) and the leaf joins automatically once the server is up
// and its breaker half-opens.
func TestRemoteAssemblyNonFatal(t *testing.T) {
	tbl := logs(2000)
	shards := tbl.Shard(2)
	upAddr, _ := serveShardLeaf(t, shards[0])
	downAddr, _ := serveShardLeaf(t, shards[1])
	proxy, err := NewFlakyProxy(downAddr, 13)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	proxy.SetDown(true)

	up := NewRemoteLeaf(upAddr)
	down := NewRemoteLeaf(proxy.Addr())
	defer up.Close()
	defer down.Close()
	c := FromLeaves([][]Leaf{{up}, {down}}, Options{Replicas: 1})
	clk := newFakeClock(t)
	clk.attach(c)

	var res *exec.Result
	clk.drive(func() { res, err = c.Query(countQuery) })
	if err != nil {
		t.Fatalf("query with one shard's server down: %v", err)
	}
	if res.Stats.ShardsMissing != 1 {
		t.Errorf("ShardsMissing = %d, want 1", res.Stats.ShardsMissing)
	}
	if c.Stats().PartialAnswers == 0 {
		t.Error("partial answer not recorded")
	}
	// The first attempt and maxRetries re-dispatches failed: the breaker
	// is open.
	if got := c.Health()[1].Breaker; got != "open" {
		t.Fatalf("down leaf's breaker = %q, want open", got)
	}
	// Bring the server up: past the breaker cooldown (and any dial backoff)
	// a half-open probe redials and the shard rejoins with full coverage.
	proxy.SetDown(false)
	want := singleNodeResult(t, tbl, countQuery)
	clk.advance(max(breakerCooldown, dialBackoffMax))
	clk.drive(func() { res, err = c.Query(countQuery) })
	if err != nil || res.Coverage != 1 || res.Stats.ShardsMissing != 0 {
		t.Fatalf("shard did not rejoin: coverage=%v missing=%d err=%v",
			res.Coverage, res.Stats.ShardsMissing, err)
	}
	g := append([][]value.Value{}, res.Rows...)
	w := append([][]value.Value{}, want...)
	sortRows(g)
	sortRows(w)
	if !equalRows(t, g, w) {
		t.Error("rejoined cluster answer diverged from single node")
	}
}

// TestRPCClusterConcurrent hammers a real-TCP cluster with concurrent
// queries while stragglers are injected server-side — the -race exercise
// for the dispatch machinery and the RemoteLeaf lifecycle.
func TestRPCClusterConcurrent(t *testing.T) {
	tbl := logs(3000)
	shards := tbl.Shard(2)
	var leafSets [][]Leaf
	var serverLeaves []*LocalLeaf
	for _, shardTbl := range shards {
		var replicas []Leaf
		for r := 0; r < 2; r++ {
			addr, leaf := serveShardLeaf(t, shardTbl)
			serverLeaves = append(serverLeaves, leaf)
			remote := NewRemoteLeaf(addr)
			defer remote.Close()
			replicas = append(replicas, remote)
		}
		leafSets = append(leafSets, replicas)
	}
	c := FromLeaves(leafSets, Options{Replicas: 2, Deadline: 10 * time.Second})
	want := singleNodeResult(t, tbl, countQuery)
	// Straggle one replica per shard server-side.
	for i, leaf := range serverLeaves {
		if i%2 == 0 {
			leaf.SetStraggle(30 * time.Millisecond)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := c.Query(countQuery)
				if err != nil {
					errs <- err
					return
				}
				got := append([][]value.Value{}, res.Rows...)
				w := append([][]value.Value{}, want...)
				sortRows(got)
				sortRows(w)
				if !equalRows(t, got, w) {
					t.Error("concurrent query diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
