package cluster

// Tests for the fault-tolerance machinery: deadlines, hedged re-dispatch,
// retries, circuit breakers and partial-result coverage, driven through
// the composable fault injectors in faultinject.go.

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"powerdrill/internal/exec"
)

const countQuery = `SELECT country, COUNT(*) FROM data GROUP BY country;`

// TestDeadlineNoHang is the regression test for hung leaves: both replicas
// of every shard hang far longer than the deadline; the query must return
// promptly (error or partial) and must not leak the dispatch goroutines.
func TestDeadlineNoHang(t *testing.T) {
	tbl := logs(1000)
	c, err := NewLocal(tbl, Options{
		Shards: 2, Replicas: 2, Store: storeOpts(),
		Deadline: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, leaf := range c.Leaves() {
		leaf.SetStraggle(10 * time.Second)
	}
	before := runtime.NumGoroutine()
	start := time.Now()
	res, err := c.Query(countQuery)
	elapsed := time.Since(start)
	if elapsed > time.Second {
		t.Fatalf("query hung for %v with a 100ms deadline", elapsed)
	}
	if err == nil && res.Coverage >= 1 {
		t.Error("full answer from a cluster of hung leaves")
	}
	if c.Stats().DeadlineExpired == 0 {
		t.Error("deadline expiry not recorded")
	}
	// Injected waits are abandoned on ctx, so the dispatch goroutines must
	// drain quickly — well before the injected 10s.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestHealthyCoverageIsOne: with nothing injected, answers are full and
// say so.
func TestHealthyCoverageIsOne(t *testing.T) {
	tbl := logs(1000)
	c, err := NewLocal(tbl, Options{Shards: 3, Replicas: 2, Store: storeOpts()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(countQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage != 1 {
		t.Errorf("healthy coverage = %v, want 1", res.Coverage)
	}
	if res.Stats.RowsCovered != int64(tbl.NumRows()) || res.Stats.RowsTotal != int64(tbl.NumRows()) {
		t.Errorf("rows covered/total = %d/%d, want %d/%d",
			res.Stats.RowsCovered, res.Stats.RowsTotal, tbl.NumRows(), tbl.NumRows())
	}
	if res.Stats.ShardsMissing != 0 {
		t.Errorf("ShardsMissing = %d on a healthy cluster", res.Stats.ShardsMissing)
	}
}

// TestShardLossCoverage is the acceptance scenario: both replicas of one
// shard dead, the query completes within the deadline with Coverage < 1
// and the missing shard's rows charged to the denominator.
func TestShardLossCoverage(t *testing.T) {
	tbl := logs(2000)
	c, err := NewLocal(tbl, Options{
		Shards: 4, Replicas: 2, Store: storeOpts(),
		Deadline: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock(t)
	clk.attach(c)
	// Kill both replicas of shard 0.
	c.Leaves()[0].SetFail(true)
	c.Leaves()[1].SetFail(true)
	start := time.Now()
	var res *exec.Result
	clk.drive(func() { res, err = c.Query(countQuery) })
	if err != nil {
		t.Fatalf("query with one shard fully dead: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("query took %v, beyond the deadline", elapsed)
	}
	if res.Coverage >= 1 || res.Coverage <= 0 {
		t.Errorf("coverage = %v, want in (0, 1)", res.Coverage)
	}
	if res.Stats.ShardsMissing != 1 {
		t.Errorf("ShardsMissing = %d, want 1", res.Stats.ShardsMissing)
	}
	// The denominator must include the dead shard's rows.
	if res.Stats.RowsTotal != int64(tbl.NumRows()) {
		t.Errorf("RowsTotal = %d, want %d (all shards accounted)", res.Stats.RowsTotal, tbl.NumRows())
	}
	if res.Stats.RowsCovered >= res.Stats.RowsTotal {
		t.Errorf("RowsCovered = %d not below RowsTotal = %d", res.Stats.RowsCovered, res.Stats.RowsTotal)
	}
	st := c.Stats()
	if st.Retries == 0 {
		t.Errorf("no retries recorded against a dead shard: %+v", st)
	}
}

// TestHedgingHidesStragglersP99 is the acceptance scenario for tiered
// hedging: 30% of shards get a straggling primary at 10× the straggle
// base; hedged re-dispatch must keep p99 well under the straggle delay.
func TestHedgingHidesStragglersP99(t *testing.T) {
	tbl := logs(2000)
	c, err := NewLocal(tbl, Options{Shards: 10, Replicas: 2, Store: storeOpts()})
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock(t)
	clk.attach(c)
	// Warm latency estimates, as a first query leaves them on the real
	// clock: every shard arms its hedge timer at 3× its estimate.
	for _, s := range c.shards {
		s.lat.observe(time.Millisecond)
	}
	// Straggle the primaries of 3 of 10 shards at 10× a generous base.
	const straggle = 200 * time.Millisecond
	for i, leaf := range c.Leaves() {
		if shard := i / 2; i%2 == 0 && shard < 3 {
			leaf.SetStraggle(straggle)
		}
	}
	const n = 30
	lat := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		var delay time.Duration // the straggling shards' latest hedge
		for _, s := range c.shards[:3] {
			delay = max(delay, hedgeDelay(&s.lat))
		}
		armed, start := clk.armed(), clk.now()
		done := make(chan error, 1)
		var res *exec.Result
		go func() {
			var err error
			res, err = c.Query(countQuery)
			done <- err
		}()
		// Ten hedge timers and three straggling calls: let the hedges pass.
		clk.waitArmed(armed + 13)
		clk.advance(delay)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if res.Coverage != 1 {
			t.Fatalf("coverage dropped to %v under stragglers", res.Coverage)
		}
		lat = append(lat, clk.now().Sub(start))
		clk.advance(straggle) // release the straggling primaries
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	p50, p99 := lat[n/2], lat[n*99/100]
	t.Logf("p50=%v p99=%v straggle=%v stats=%+v", p50, p99, straggle, c.Stats())
	if p99 >= straggle {
		t.Errorf("p99 = %v did not beat the %v straggle: hedging is not re-dispatching", p99, straggle)
	}
	if c.Stats().Hedges == 0 {
		t.Error("no hedges recorded under stragglers")
	}
}

// TestBreakerSkipsDeadLeaf: a sticky-dead leaf must stop receiving
// dispatches once its breaker opens, and rejoin via a half-open probe
// after it heals and the cooldown passes.
func TestBreakerSkipsDeadLeaf(t *testing.T) {
	tbl := logs(1000)
	c, err := NewLocal(tbl, Options{Shards: 2, Replicas: 2, Store: storeOpts()})
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock(t)
	clk.attach(c)
	// A latency estimate makes shard 0's dispatch tiered: the primary is
	// asked first, and the replica only once the primary has failed, as
	// the hedge delay never passes on a clock nothing advances. So every
	// failure reaches the breaker before the replica's win does.
	c.shards[0].lat.observe(time.Millisecond)
	dead := c.Leaves()[0] // shard 0 primary
	dead.SetFail(true)
	for i := 0; i < breakerThreshold; i++ {
		if _, err := c.Query(countQuery); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Health()[0].Breaker; got != "open" {
		t.Fatalf("breaker = %q after %d failures, want open (health=%+v)", got, breakerThreshold, c.Health()[0])
	}
	if c.Stats().BreakerOpens == 0 {
		t.Error("breaker trip not recorded in stats")
	}
	// While open, up to the last nanosecond of the cooldown, dispatch
	// must skip the leaf entirely.
	clk.advance(breakerCooldown - time.Nanosecond)
	calls := dead.Inject().Calls()
	if _, err := c.Query(countQuery); err != nil {
		t.Fatal(err)
	}
	if got := dead.Inject().Calls(); got != calls {
		t.Errorf("open breaker did not stop dispatch: calls %d -> %d", calls, got)
	}
	if c.Stats().BreakerSkips == 0 {
		t.Error("breaker skip not recorded in stats")
	}
	// Heal the leaf and let the cooldown pass: a half-open probe closes it.
	dead.SetFail(false)
	clk.advance(time.Nanosecond)
	if _, err := c.Query(countQuery); err != nil {
		t.Fatal(err)
	}
	if got := dead.Inject().Calls(); got == calls {
		t.Error("half-open probe never dispatched after cooldown")
	}
	if got := c.Health()[0].Breaker; got != "closed" {
		t.Errorf("breaker = %q after successful probe, want closed", got)
	}
}

// TestRetriesAbsorbTransientFaults: one-shot failures (FailNext) must be
// absorbed by re-dispatch with no coverage loss.
func TestRetriesAbsorbTransientFaults(t *testing.T) {
	tbl := logs(1000)
	c, err := NewLocal(tbl, Options{Shards: 2, Replicas: 2, Store: storeOpts()})
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock(t)
	clk.attach(c)
	// Fail the next call on every leaf: first dispatches all fail, the
	// re-dispatches succeed.
	for _, leaf := range c.Leaves() {
		leaf.Inject().FailNext(1)
	}
	var res *exec.Result
	clk.drive(func() { res, err = c.Query(countQuery) })
	if err != nil {
		t.Fatalf("transient faults were fatal: %v", err)
	}
	if res.Coverage != 1 {
		t.Errorf("coverage = %v after transient faults, want 1", res.Coverage)
	}
	if c.Stats().Retries == 0 {
		t.Error("no retries recorded")
	}
}

// TestErrorRateEventuallyCovers: a flaky cluster (30% error rate on every
// leaf) still serves full answers nearly always, via hedges and retries.
func TestErrorRateEventuallyCovers(t *testing.T) {
	tbl := logs(1000)
	c, err := NewLocal(tbl, Options{Shards: 4, Replicas: 2, Store: storeOpts()})
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock(t)
	clk.attach(c)
	for i, leaf := range c.Leaves() {
		leaf.Inject().SetErrorRate(0.3, int64(1000+i))
	}
	full := 0
	const n = 20
	for i := 0; i < n; i++ {
		// A flaky leaf is not a dead one and should keep being asked: the
		// cooldown passes between queries, so a leaf whose breaker a run
		// of failures opened is probed again on the next one.
		clk.advance(breakerCooldown)
		var res *exec.Result
		var err error
		clk.drive(func() { res, err = c.Query(countQuery) })
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if res.Coverage == 1 {
			full++
		}
	}
	// Each sub-query gets 2 replicas + 2 retries at 30% failure: the
	// chance all four fail is ~0.8%; over 4 shards × 20 queries a run of
	// mostly-full answers is overwhelmingly likely.
	if full < n*3/4 {
		t.Errorf("only %d/%d queries reached full coverage at 30%% error rate", full, n)
	}
	if c.Stats().Retries == 0 {
		t.Error("no retries recorded under an injected error rate")
	}
}

// TestSlowStartHedged: a slow-starting leaf (cold caches after a restart)
// straggles its first calls; hedging must absorb the warm-up without
// failing queries.
func TestSlowStartHedged(t *testing.T) {
	tbl := logs(1000)
	c, err := NewLocal(tbl, Options{Shards: 2, Replicas: 2, Store: storeOpts()})
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock(t)
	clk.attach(c)
	// Warm latency estimates, as a first query leaves them on the real
	// clock, so the slow start is a straggle relative to an estimate.
	for _, s := range c.shards {
		s.lat.observe(time.Millisecond)
	}
	const slow = 300 * time.Millisecond
	c.Leaves()[0].Inject().SetSlowStart(3, slow)
	for i := 0; i < 4; i++ {
		delay := hedgeDelay(&c.shards[0].lat)
		armed, start := clk.armed(), clk.now()
		done := make(chan error, 1)
		var res *exec.Result
		go func() {
			var err error
			res, err = c.Query(countQuery)
			done <- err
		}()
		if i < 3 {
			// Two hedge timers and the slow call: let shard 0's hedge pass.
			clk.waitArmed(armed + 3)
			clk.advance(delay)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if res.Coverage != 1 {
			t.Fatalf("coverage = %v during slow start", res.Coverage)
		}
		if elapsed := clk.now().Sub(start); elapsed >= slow {
			t.Errorf("query %d took %v: slow-start straggle not hedged", i, elapsed)
		}
		clk.advance(slow) // release the slow call
	}
}

// TestBackoffDelay sanity-checks the retry backoff envelope.
func TestBackoffDelay(t *testing.T) {
	base, max := 2*time.Millisecond, 100*time.Millisecond
	for attempt := 0; attempt < 10; attempt++ {
		want := base << attempt
		if want > max {
			want = max
		}
		for i := 0; i < 20; i++ {
			d := backoffDelay(base, max, attempt)
			if d < want/2 || d > want {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, want/2, want)
			}
		}
	}
	if d := backoffDelay(0, max, 3); d != 0 {
		t.Errorf("zero base gave delay %v", d)
	}
}

// TestHedgeDelay checks the straggler-threshold policy: immediate while
// cold, proportional and clamped once warm. TestClockHedgeThreshold checks
// that a hedge fires at that delay.
func TestHedgeDelay(t *testing.T) {
	var lat latEstimate
	if d := hedgeDelay(&lat); d != 0 {
		t.Errorf("cold shard hedge delay = %v, want 0 (immediate race)", d)
	}
	lat.observe(10 * time.Millisecond)
	if d := hedgeDelay(&lat); d != 30*time.Millisecond {
		t.Errorf("hedge delay = %v, want 3x estimate = 30ms", d)
	}
	lat = latEstimate{}
	lat.observe(10 * time.Microsecond)
	if d := hedgeDelay(&lat); d != hedgeMinDelay {
		t.Errorf("hedge delay = %v, want clamped to min %v", d, hedgeMinDelay)
	}
	lat = latEstimate{}
	lat.observe(10 * time.Second)
	if d := hedgeDelay(&lat); d != hedgeMaxDelay {
		t.Errorf("hedge delay = %v, want clamped to max %v", d, hedgeMaxDelay)
	}
}
