package cluster

// The fake clock the fault tests run the serving tree on, and the tests of
// the dispatch policy itself on it: the breaker's states, the hedge
// threshold and the injected straggle.

import (
	"context"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock: time stands still until a test
// moves it, and a timer fires only once the time reaches its deadline.
type fakeClock struct {
	mu       sync.Mutex
	cond     *sync.Cond // broadcast whenever a timer is armed
	t        time.Time
	timers   map[*fakeTimer]bool // armed, neither fired nor stopped
	arms     int                 // timers armed since the clock was made
	kick     chan struct{}       // signalled whenever a timer is armed
	released bool                // every timer fires as it is armed
}

type fakeTimer struct {
	at time.Time
	c  chan time.Time
}

// newFakeClock makes a fake clock that is released when t ends, so the
// work a test leaves in flight drains before its goroutines are counted.
func newFakeClock(t *testing.T) *fakeClock {
	f := &fakeClock{t: time.Unix(1e9, 0), timers: map[*fakeTimer]bool{}, kick: make(chan struct{}, 1)}
	f.cond = sync.NewCond(&f.mu)
	t.Cleanup(f.release)
	return f
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) timer(d time.Duration) (<-chan time.Time, func() bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	tm := &fakeTimer{at: f.t.Add(d), c: make(chan time.Time, 1)}
	f.arms++
	f.cond.Broadcast()
	if d <= 0 || f.released {
		tm.c <- f.t
		return tm.c, func() bool { return false }
	}
	f.timers[tm] = true
	select {
	case f.kick <- struct{}{}:
	default:
	}
	return tm.c, func() bool {
		f.mu.Lock()
		defer f.mu.Unlock()
		armed := f.timers[tm]
		delete(f.timers, tm)
		return armed
	}
}

// advance moves the time forward by d and fires every timer it reaches.
func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(d)
	for tm := range f.timers {
		if !tm.at.After(f.t) {
			tm.c <- tm.at
			delete(f.timers, tm)
		}
	}
}

// release fires every pending timer, and from then on every timer as soon
// as it is armed: hedge losers, retries and straggles a test leaves
// behind finish without anyone moving the time.
func (f *fakeClock) release() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.released = true
	for tm := range f.timers {
		tm.c <- tm.at
		delete(f.timers, tm)
	}
}

// pending reports how many timers are armed and neither fired nor stopped.
func (f *fakeClock) pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.timers)
}

// armed reports how many timers were armed since the clock was made.
func (f *fakeClock) armed() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.arms
}

// waitArmed blocks until n timers in all have been armed: the point at
// which every goroutine a test expects to wait on the clock is waiting.
func (f *fakeClock) waitArmed(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.arms < n {
		f.cond.Wait()
	}
}

// fireNext moves the time to the earliest pending timer, unless it is
// already past it, and fires that timer; false when none is pending.
func (f *fakeClock) fireNext() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	var next *fakeTimer
	for tm := range f.timers {
		if next == nil || tm.at.Before(next.at) {
			next = tm
		}
	}
	if next == nil {
		return false
	}
	if next.at.After(f.t) {
		f.t = next.at
	}
	next.c <- next.at
	delete(f.timers, next)
	return true
}

// drive runs fn and, while it runs, fires every timer as soon as it is
// armed, earliest first: retry backoffs go ahead without anyone waiting
// them out, and the time moves only as far as the timers set. Only for
// trees in which no timer races another (no straggle beside a hedge).
func (f *fakeClock) drive(fn func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	for {
		select {
		case <-done:
			return
		case <-f.kick:
			for f.fireNext() {
			}
		}
	}
}

// attach puts nodes on f, with every node below a dispatcher among them.
// A RemoteLeaf's server-side node is reached only by passing it too.
func (f *fakeClock) attach(nodes ...any) {
	for _, n := range nodes {
		var d *dispatcher
		switch n := n.(type) {
		case *Cluster:
			d = &n.dispatcher
		case *Mixer:
			d = &n.dispatcher
		case *LocalLeaf:
			n.inj.mu.Lock()
			n.inj.clk = f
			n.inj.mu.Unlock()
		case *RemoteLeaf:
			n.mu.Lock()
			n.clk = f
			n.mu.Unlock()
		}
		if d == nil {
			continue
		}
		d.clk = f
		for _, s := range d.shards {
			for _, ls := range s.replicas {
				f.attach(ls.leaf)
			}
		}
	}
}

// TestClockBreakerPolicy walks one breaker through its states on the fake
// clock: closed through failures a success interrupts, open at the
// threshold's consecutive failure, shut until the cooldown has passed to
// the nanosecond, one half-open probe then, and a failed probe restarting
// the cooldown.
func TestClockBreakerPolicy(t *testing.T) {
	const (
		allow = iota
		fail
		succeed
	)
	steps := []struct {
		advance time.Duration
		op      int
		want    bool // allow's verdict, or whether fail tripped the breaker
		state   string
	}{
		{0, fail, false, "closed"},
		{0, fail, false, "closed"},
		{0, succeed, false, "closed"}, // a success resets the count
		{0, fail, false, "closed"},
		{0, fail, false, "closed"},
		{0, allow, true, "closed"},
		{0, fail, true, "open"}, // breakerThreshold = 3 in a row
		{0, allow, false, "open"},
		{breakerCooldown - time.Nanosecond, allow, false, "open"},
		{time.Nanosecond, allow, true, "half-open"}, // the probe
		{0, allow, false, "half-open"},              // and only one
		{0, fail, true, "open"},                     // a failed probe reopens at once
		{breakerCooldown - time.Nanosecond, allow, false, "open"},
		{time.Nanosecond, allow, true, "half-open"},
		{0, succeed, false, "closed"},
		{0, allow, true, "closed"},
	}
	clk := newFakeClock(t)
	var b breaker
	for i, st := range steps {
		clk.advance(st.advance)
		var got bool
		switch st.op {
		case allow:
			got = b.allow(clk.now())
		case fail:
			got = b.failure(clk.now())
		case succeed:
			b.success()
		}
		state, _, _ := b.snapshot()
		if got != st.want || state != st.state {
			t.Fatalf("step %d (op %d after %v): got %v in state %q, want %v in %q",
				i, st.op, st.advance, got, state, st.want, st.state)
		}
	}
	if _, _, opens := b.snapshot(); opens != 2 {
		t.Errorf("breaker opened %d times, want 2", opens)
	}
}

// TestClockHedgeThreshold checks that a warm shard's replica is asked
// exactly when hedgeMultiplier × the latency estimate has passed, clamped
// to [hedgeMinDelay, hedgeMaxDelay]: not a nanosecond before, and at once
// then, with the primary straggling far longer.
func TestClockHedgeThreshold(t *testing.T) {
	for _, tc := range []struct {
		est, want time.Duration
	}{
		{10 * time.Millisecond, 30 * time.Millisecond},
		{10 * time.Microsecond, hedgeMinDelay},
		{10 * time.Second, hedgeMaxDelay},
	} {
		t.Run(tc.est.String(), func(t *testing.T) {
			c, err := NewLocal(logs(300), Options{Shards: 1, Replicas: 2, Store: storeOpts()})
			if err != nil {
				t.Fatal(err)
			}
			clk := newFakeClock(t)
			clk.attach(c)
			c.shards[0].lat.observe(tc.est)
			c.Leaves()[0].SetStraggle(time.Hour)

			done := make(chan error, 1)
			go func() {
				_, err := c.Query(countQuery)
				done <- err
			}()
			clk.waitArmed(2) // the primary's straggle and the hedge timer
			clk.advance(tc.want - time.Nanosecond)
			if n, h := clk.pending(), c.Stats().Hedges; n != 2 || h != 0 {
				t.Fatalf("%v before the threshold: %d timers pending, %d hedges; want 2 and 0", tc.want-time.Nanosecond, n, h)
			}
			clk.advance(time.Nanosecond)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if st := c.Stats(); st.Hedges != 1 || st.PrimaryFailures != 1 {
				t.Errorf("at the threshold: %d hedges, %d answers from the replica; want 1 and 1", st.Hedges, st.PrimaryFailures)
			}
			clk.advance(time.Hour) // release the straggling primary
		})
	}
}

// TestClockStraggle: an injected straggle holds a call until the clock
// passes it, and no longer; a caller's expired context abandons it with
// the clock standing still.
func TestClockStraggle(t *testing.T) {
	leaf := buildLeaves(t, logs(300), 1, storeOpts())[0]
	clk := newFakeClock(t)
	clk.attach(leaf)
	const straggle = 50 * time.Millisecond
	leaf.SetStraggle(straggle)

	done := make(chan error, 1)
	go func() {
		_, err := leaf.PartialQuery(context.Background(), countQuery)
		done <- err
	}()
	clk.waitArmed(1)
	clk.advance(straggle - time.Nanosecond)
	if n := clk.pending(); n != 1 {
		t.Fatalf("straggle released %v early: %d timers pending", time.Nanosecond, n)
	}
	clk.advance(time.Nanosecond)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		_, err := leaf.PartialQuery(ctx, countQuery)
		done <- err
	}()
	clk.waitArmed(2)
	cancel()
	if err := <-done; err != context.Canceled {
		t.Errorf("cancelled straggle returned %v, want context.Canceled", err)
	}
	if n := clk.pending(); n != 0 {
		t.Errorf("%d timers left armed by an abandoned straggle", n)
	}
}

// TestClockNoRetryAfterClose: a sub-query still in flight when its node
// closes, and failing after, returns that failure. It arms no backoff
// timer against children that can never answer and counts no retry, and
// no goroutine is left waiting on the clock: the check runs before the
// clock is released.
func TestClockNoRetryAfterClose(t *testing.T) {
	c, err := NewLocal(logs(300), Options{Shards: 1, Replicas: 1, Store: storeOpts()})
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock(t)
	checkGoroutines(t)
	clk.attach(c)
	leaf := c.Leaves()[0]
	leaf.SetStraggle(time.Hour)
	leaf.SetFail(true)

	done := make(chan error, 1)
	go func() {
		_, err := c.Query(countQuery)
		done <- err
	}()
	clk.waitArmed(1) // the straggle
	select {
	case <-clk.kick:
	default:
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	retries := c.Stats().Retries
	clk.advance(time.Hour) // the call fails now, after Close
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("a query whose only leaf failed answered")
		}
	case <-clk.kick:
		t.Fatalf("a sub-query failing after Close armed a timer (%d armed in all)", clk.armed())
	}
	if n, r := clk.armed(), c.Stats().Retries; n != 1 || r != retries {
		t.Errorf("after Close: %d timers armed in all, %d retries; want 1 and %d", n, r, retries)
	}
}
