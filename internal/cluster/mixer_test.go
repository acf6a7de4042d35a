package cluster

// Tests for the real mixer tier: topology-invariant results (bit-for-bit,
// floats included), per-level coverage accounting, the Stat RPC making the
// very first query's Coverage exact, and mixer failover over real RPC.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"powerdrill/internal/colstore"
	"powerdrill/internal/exec"
	"powerdrill/internal/sql"
	"powerdrill/internal/table"
	"powerdrill/internal/value"
)

// floatTable builds a table whose float column spans enough orders of
// magnitude that summing it in a different order changes the low bits —
// exactly what a topology-dependent merge order would expose.
func floatTable(rows int) *table.Table {
	r := rand.New(rand.NewSource(7))
	ks := make([]string, rows)
	fs := make([]float64, rows)
	for i := range ks {
		ks[i] = fmt.Sprintf("g%d", i%7)
		fs[i] = (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(12)))
	}
	t := table.New("data")
	t.AddStringColumn("k", ks)
	t.AddFloat64Column("f", fs)
	return t
}

// buildLeaves shards tbl n ways and wraps each shard in a LocalLeaf.
func buildLeaves(t *testing.T, tbl *table.Table, n int, sopts colstore.Options) []*LocalLeaf {
	t.Helper()
	shards := tbl.Shard(n)
	leaves := make([]*LocalLeaf, n)
	for i, st := range shards {
		store, err := colstore.FromTable(st, sopts)
		if err != nil {
			t.Fatal(err)
		}
		leaves[i] = NewLocalLeaf(fmt.Sprintf("leaf%d", i), exec.New(store, exec.Options{}))
	}
	return leaves
}

func singles(leaves []*LocalLeaf) [][]Leaf {
	var sets [][]Leaf
	for _, l := range leaves {
		sets = append(sets, []Leaf{l})
	}
	return sets
}

// sortedCopy orders a copy of rows canonically, so answers to queries
// without a total ORDER BY compare as sets.
func sortedCopy(rows [][]value.Value) [][]value.Value {
	out := append([][]value.Value{}, rows...)
	sortRows(out)
	return out
}

// bitIdenticalRows demands exact equality — for floats, the very bits.
func bitIdenticalRows(a, b [][]value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			av, bv := a[i][j], b[i][j]
			if av.Kind() != bv.Kind() {
				return false
			}
			if av.Kind() == value.KindFloat64 {
				if math.Float64bits(av.Float()) != math.Float64bits(bv.Float()) {
					return false
				}
				continue
			}
			if !av.Equal(bv) {
				return false
			}
		}
	}
	return true
}

// TestTopologyEquivalence is the mixer-tier correctness claim: the same 12
// leaves arranged as a flat coordinator, a 2-level mixer tree and a 3-level
// uneven tree must answer bit-for-bit identically — float SUM/AVG included
// — with identical summed scan statistics.
func TestTopologyEquivalence(t *testing.T) {
	opts := Options{Replicas: 1}
	cases := []struct {
		name    string
		tbl     *table.Table
		sopts   colstore.Options
		queries []string
	}{
		{"logs", logs(4000), storeOpts(), distributedQueries()},
		{"floats", floatTable(6000), colstore.Options{MaxChunkRows: 250}, []string{
			`SELECT k, SUM(f) as s, AVG(f), COUNT(*) FROM data GROUP BY k ORDER BY s DESC, k ASC;`,
			`SELECT k, MIN(f), MAX(f) FROM data GROUP BY k;`,
			`SELECT SUM(f), AVG(f) FROM data;`,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			leaves := buildLeaves(t, tc.tbl, 12, tc.sopts)

			flat := FromLeaves(singles(leaves), opts)

			// Two levels: three mixers over four leaves each.
			var mixers []*Mixer
			var twoSets [][]Leaf
			for g := 0; g < 3; g++ {
				m := NewMixer(fmt.Sprintf("mix%d", g), singles(leaves[g*4:(g+1)*4]), opts)
				mixers = append(mixers, m)
				twoSets = append(twoSets, []Leaf{m})
			}
			two := FromLeaves(twoSets, opts)

			// Three levels, uneven: one branch is mixer→mixer→leaves, one is
			// mixer→leaves, and two leaves hang off the root directly.
			sa := NewMixer("sub-a", singles(leaves[0:3]), opts)
			sb := NewMixer("sub-b", singles(leaves[3:6]), opts)
			ma := NewMixer("mid-a", [][]Leaf{{sa}, {sb}}, opts)
			mb := NewMixer("mid-b", singles(leaves[6:10]), opts)
			three := FromLeaves([][]Leaf{{ma}, {mb}, {leaves[10]}, {leaves[11]}}, opts)

			total := int64(tc.tbl.NumRows())
			for _, q := range tc.queries {
				ref, err := flat.Query(q)
				if err != nil {
					t.Fatalf("flat %q: %v", q, err)
				}
				if ref.Coverage != 1 {
					t.Fatalf("flat %q: coverage %v", q, ref.Coverage)
				}
				if ref.Stats.RowsTotal != total || ref.Stats.RowsCovered != total {
					t.Fatalf("flat %q: rows %d/%d, table has %d",
						q, ref.Stats.RowsCovered, ref.Stats.RowsTotal, total)
				}
				for name, c := range map[string]*Cluster{"2-level": two, "3-level": three} {
					got, err := c.Query(q)
					if err != nil {
						t.Fatalf("%s %q: %v", name, q, err)
					}
					if !bitIdenticalRows(sortedCopy(got.Rows), sortedCopy(ref.Rows)) {
						t.Errorf("%s %q: rows diverged from flat coordinator", name, q)
					}
					if got.Coverage != 1 {
						t.Errorf("%s %q: coverage %v", name, q, got.Coverage)
					}
					if got.Stats.RowsTotal != ref.Stats.RowsTotal ||
						got.Stats.RowsCovered != ref.Stats.RowsCovered ||
						got.Stats.RowsScanned != ref.Stats.RowsScanned ||
						got.Stats.ChunksScanned != ref.Stats.ChunksScanned {
						t.Errorf("%s %q: stats diverged: got rows %d/%d scanned %d chunks %d, flat rows %d/%d scanned %d chunks %d",
							name, q,
							got.Stats.RowsCovered, got.Stats.RowsTotal, got.Stats.RowsScanned, got.Stats.ChunksScanned,
							ref.Stats.RowsCovered, ref.Stats.RowsTotal, ref.Stats.RowsScanned, ref.Stats.ChunksScanned)
					}
				}
			}

			// Fan-out accounting: the 2-level root dispatches one sub-query
			// per mixer per query; each mixer fans out to its four leaves.
			nq := int64(len(tc.queries))
			if st := two.Stats(); st.SubQueries != 3*nq {
				t.Errorf("2-level root SubQueries = %d, want %d", st.SubQueries, 3*nq)
			}
			for _, m := range mixers {
				if st := m.Stats(); st.Queries != nq || st.SubQueries != 4*nq {
					t.Errorf("mixer %s: Queries=%d SubQueries=%d, want %d and %d",
						m.Name(), st.Queries, st.SubQueries, nq, 4*nq)
				}
			}
		})
	}
}

// TestMixerCoverageOnLeafDeath: a leaf dying two levels below the root
// must surface as exact Coverage at the root — charged by its mixer (whose
// ShardsMissing grows), not by the root (whose own children all answered).
func TestMixerCoverageOnLeafDeath(t *testing.T) {
	tbl := logs(3000)
	leaves := buildLeaves(t, tbl, 4, storeOpts())
	opts := Options{Replicas: 1}
	ma := NewMixer("mix-a", singles(leaves[0:2]), opts)
	mb := NewMixer("mix-b", singles(leaves[2:4]), opts)
	root := FromLeaves([][]Leaf{{ma}, {mb}}, opts)
	clk := newFakeClock(t)
	clk.attach(root)

	leaves[3].SetFail(true)
	var res *exec.Result
	var err error
	clk.drive(func() { res, err = root.Query(countQuery) })
	if err != nil {
		t.Fatal(err)
	}
	total := int64(tbl.NumRows())
	dead := int64(tbl.Shard(4)[3].NumRows())
	want := float64(total-dead) / float64(total)
	if res.Coverage != want {
		t.Errorf("coverage = %v, want exactly %v (dead shard has %d of %d rows)",
			res.Coverage, want, dead, total)
	}
	if st := mb.Stats(); st.ShardsMissing == 0 {
		t.Error("mixer above the dead leaf charged no missing shard")
	}
	if st := root.Stats(); st.ShardsMissing != 0 {
		t.Errorf("root charged %d missing shards; both mixers answered", st.ShardsMissing)
	}

	// Its first attempt and maxRetries re-dispatches all failed, which
	// opened the dead leaf's breaker in its mixer.
	if got := mb.Health()[1].Breaker; got != "open" {
		t.Errorf("dead leaf's breaker = %q, want open", got)
	}

	// The leaf recovers: once the cooldown has passed, the half-open probe
	// brings coverage back to 1 through the same tree.
	leaves[3].SetFail(false)
	clk.advance(breakerCooldown)
	clk.drive(func() { res, err = root.Query(countQuery) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage != 1 {
		t.Errorf("coverage after recovery = %v, want 1", res.Coverage)
	}
}

// TestFirstQueryCoverageExact is the Stat-RPC satellite: a cluster
// assembled from leaves with unknown row counts must already report exact
// Coverage on its very first query when a shard is dead — the counts
// arrive via RowCounter concurrently with the scatter.
func TestFirstQueryCoverageExact(t *testing.T) {
	tbl := logs(2000)
	leaves := buildLeaves(t, tbl, 4, storeOpts())
	c := FromLeaves(singles(leaves), Options{Replicas: 1})
	clk := newFakeClock(t)
	clk.attach(c)
	leaves[1].SetFail(true)

	var res *exec.Result
	var err error
	clk.drive(func() { res, err = c.Query(countQuery) })
	if err != nil {
		t.Fatal(err)
	}
	total := int64(tbl.NumRows())
	dead := int64(tbl.Shard(4)[1].NumRows())
	if res.Stats.RowsTotal != total {
		t.Errorf("first query RowsTotal = %d, want %d (dead shard unaccounted)",
			res.Stats.RowsTotal, total)
	}
	if want := float64(total-dead) / float64(total); res.Coverage != want {
		t.Errorf("first query coverage = %v, want exactly %v", res.Coverage, want)
	}
}

// checkGoroutines fails the test if, once every cleanup registered after
// this call has run, more goroutines are alive than there were at the call:
// Close on the tree's nodes plus closing the listeners must end them all —
// connection readers, servers' per-connection loops, hedge losers.
func checkGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			buf := make([]byte, 1<<20)
			t.Errorf("%d goroutines alive after Close, %d before the test:\n%s",
				n, before, buf[:runtime.Stack(buf, true)])
		}
	})
}

// closeAtCleanup closes a tree node when the test ends, twice: Close is
// idempotent.
func closeAtCleanup(t *testing.T, node io.Closer) {
	t.Helper()
	t.Cleanup(func() {
		if err := node.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		if err := node.Close(); err != nil {
			t.Errorf("second Close: %v", err)
		}
	})
}

// serveNodeAddr serves node over real loopback RPC and returns its address.
func serveNodeAddr(t *testing.T, node Leaf) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go ServeNode(ln, node)
	return ln.Addr().String()
}

// TestRPCStatFirstQueryCoverage drives the Leaf.Stat RPC end-to-end: a
// remote leaf whose queries fail still reports its row count, so the first
// query over the wire is exactly covered.
func TestRPCStatFirstQueryCoverage(t *testing.T) {
	checkGoroutines(t)
	tbl := logs(2000)
	leaves := buildLeaves(t, tbl, 2, storeOpts())
	leaves[0].SetFail(true)
	clk := newFakeClock(t)
	var sets [][]Leaf
	for _, l := range leaves {
		clk.attach(l)
		sets = append(sets, []Leaf{NewRemoteLeaf(serveNodeAddr(t, l))})
	}
	c := FromLeaves(sets, Options{Replicas: 1})
	clk.attach(c)
	closeAtCleanup(t, c)

	var res *exec.Result
	var err error
	clk.drive(func() { res, err = c.Query(countQuery) })
	if err != nil {
		t.Fatal(err)
	}
	total := int64(tbl.NumRows())
	dead := int64(tbl.Shard(2)[0].NumRows())
	if res.Stats.RowsTotal != total {
		t.Errorf("RowsTotal = %d, want %d", res.Stats.RowsTotal, total)
	}
	if want := float64(total-dead) / float64(total); res.Coverage != want {
		t.Errorf("coverage = %v, want exactly %v", res.Coverage, want)
	}
}

// TestMixerKilledMidQueryFailsOver runs a two-level tree of real RPC
// processes — four leaf servers, two replica mixer servers over them —
// checks that healthy it answers as a flat coordinator does, kills the
// primary mixer's connections mid-query, and demands the replica mixer
// deliver the identical full-coverage answer.
func TestMixerKilledMidQueryFailsOver(t *testing.T) {
	checkGoroutines(t)
	tbl := logs(3000)
	leaves := buildLeaves(t, tbl, 4, storeOpts())
	clk := newFakeClock(t)
	var leafAddrs []string
	for _, l := range leaves {
		clk.attach(l)
		leafAddrs = append(leafAddrs, serveNodeAddr(t, l))
	}
	mixerOver := func(name string) *Mixer {
		var sets [][]Leaf
		for _, a := range leafAddrs {
			sets = append(sets, []Leaf{NewRemoteLeaf(a)})
		}
		m := NewMixer(name, sets, Options{Replicas: 1})
		clk.attach(m)
		closeAtCleanup(t, m)
		return m
	}
	addrA := serveNodeAddr(t, mixerOver("mixer-a"))
	addrB := serveNodeAddr(t, mixerOver("mixer-b"))

	proxy, err := NewFlakyProxy(addrA, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	root := FromLeaves([][]Leaf{{NewRemoteLeaf(proxy.Addr()), NewRemoteLeaf(addrB)}}, Options{Replicas: 2})
	clk.attach(root)
	closeAtCleanup(t, root)
	// With a latency estimate the root asks the replica mixer only after
	// the hedge delay, which never passes on a clock nothing advances, or
	// once the primary fails: no query races the two mixers, and the
	// failover below is kill-triggered, not a hedge that would have fired
	// anyway.
	root.shards[0].lat.observe(time.Millisecond)

	ref, err := root.Query(countQuery)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Coverage != 1 {
		t.Fatalf("baseline coverage = %v", ref.Coverage)
	}
	// Healthy, the RPC tree answers as a flat coordinator over the same
	// leaves does, float aggregates bit for bit.
	flat := FromLeaves(singles(leaves), Options{Replicas: 1})
	closeAtCleanup(t, flat)
	for _, q := range distributedQueries() {
		want, err := flat.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := root.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.Coverage != 1 || !bitIdenticalRows(sortedCopy(got.Rows), sortedCopy(want.Rows)) {
			t.Fatalf("%q: the RPC tree answered %v at coverage %v, the flat coordinator %v", q, got.Rows, got.Coverage, want.Rows)
		}
	}

	// Slow the whole leaf tier down so the primary mixer's answer is still
	// in flight when its transport dies.
	const straggle = 200 * time.Millisecond
	for _, l := range leaves {
		l.SetStraggle(straggle)
	}
	type outcome struct {
		res *exec.Result
		err error
	}
	done := make(chan outcome, 1)
	armed := clk.armed()
	go func() {
		res, err := root.Query(countQuery)
		done <- outcome{res, err}
	}()
	// The root's hedge timer and the primary mixer's four leaf calls.
	clk.waitArmed(armed + 5)
	proxy.SetDown(true)
	proxy.KillActive()
	// The replica mixer's four leaf calls join them; the straggle passes.
	clk.waitArmed(armed + 9)
	clk.advance(straggle)

	o := <-done
	if o.err != nil {
		t.Fatalf("query after mixer kill: %v", o.err)
	}
	if o.res.Coverage != 1 {
		t.Errorf("coverage after failover = %v, want 1", o.res.Coverage)
	}
	if !bitIdenticalRows(sortedCopy(o.res.Rows), sortedCopy(ref.Rows)) {
		t.Error("failover answer diverged from the healthy baseline")
	}
	if st := root.Stats(); st.PrimaryFailures == 0 || st.Retries == 0 || st.Hedges != 0 {
		t.Errorf("expected a kill-triggered re-dispatch and no hedge; stats = %+v", st)
	}
}

// TestMixerRefusesOverlongQuery: a mixer forwards statement text unparsed,
// so it checks the parser's 1 MiB bound itself. Text one byte over is
// refused with a *sql.LengthError before any child is asked; text at the
// bound is answered.
func TestMixerRefusesOverlongQuery(t *testing.T) {
	leaves := buildLeaves(t, logs(600), 2, storeOpts())
	m := NewMixer("mix", singles(leaves), Options{Replicas: 1})
	closeAtCleanup(t, m)
	at := countQuery + strings.Repeat(" ", 1<<20-len(countQuery))
	var le *sql.LengthError
	if _, err := m.PartialQuery(context.Background(), at+" "); !errors.As(err, &le) {
		t.Fatalf("%d bytes: got %v, want a *sql.LengthError", len(at)+1, err)
	}
	for _, l := range leaves {
		if calls := l.Inject().Calls(); calls != 0 {
			t.Fatalf("%s was asked %d times for a refused query", l.Name(), calls)
		}
	}
	if _, err := m.PartialQuery(context.Background(), at); err != nil {
		t.Fatalf("%d bytes: %v", len(at), err)
	}
}
