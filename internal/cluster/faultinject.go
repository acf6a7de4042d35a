package cluster

// Fault injection for the serving tree. The paper's leaves run on a busy
// shared cluster where processes straggle (overload, eviction), die, come
// back, and flap — the harness here reproduces those modes composably so
// the hedging/breaker/coverage machinery can be exercised deterministically
// in tests:
//
//   - Straggle:   every call waits a fixed extra latency (overloaded box).
//   - SlowStart:  only the next n calls straggle (page-cache-cold restart).
//   - Fail:       sticky failure until cleared (dead machine).
//   - FailNext:   the next n calls fail, then recover (transient fault).
//   - ErrorRate:  each call fails with probability p (flaky machine).
//
// For the RPC path, FlakyProxy sits between a RemoteLeaf and its server
// and injects transport-level faults: refused connections, randomly
// dropped dials, and mid-call connection kills.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Injector simulates machine-level faults for one leaf. All knobs compose:
// a call first waits out the injected latency (abandoning the wait when the
// caller's context expires), then rolls for failure. The zero value injects
// nothing.
type Injector struct {
	name string
	clk  clock

	mu             sync.Mutex
	straggle       time.Duration
	slowStartLeft  int
	slowStartDelay time.Duration
	failSticky     bool
	failNext       int
	errorRate      float64
	rng            *rand.Rand
	calls          int64
}

// SetStraggle makes every subsequent call take at least d (0 clears).
func (in *Injector) SetStraggle(d time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.straggle = d
}

// SetFail makes subsequent calls fail until cleared (a dead machine).
func (in *Injector) SetFail(fail bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.failSticky = fail
}

// FailNext makes exactly the next n calls fail, then recovers — a
// transient fault the retry/half-open machinery should absorb.
func (in *Injector) FailNext(n int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.failNext = n
}

// SetErrorRate makes each call fail independently with probability p,
// deterministically per seed (0 clears).
func (in *Injector) SetErrorRate(p float64, seed int64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.errorRate = p
	in.rng = rand.New(rand.NewSource(seed))
}

// SetSlowStart makes only the next n calls take at least d — a server
// warming its caches after joining.
func (in *Injector) SetSlowStart(n int, d time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.slowStartLeft = n
	in.slowStartDelay = d
}

// Calls reports how many calls reached this leaf (including injected
// failures) — tests use it to prove open breakers stop dispatch.
func (in *Injector) Calls() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.calls
}

// admit applies the injected faults for one call: it waits out the
// configured latency — returning early with ctx.Err() if the caller's
// deadline expires first, which is how a hung leaf stops hanging the
// query — and then returns the injected error, if any.
func (in *Injector) admit(ctx context.Context) error {
	in.mu.Lock()
	in.calls++
	delay := in.straggle
	if in.slowStartLeft > 0 {
		in.slowStartLeft--
		if in.slowStartDelay > delay {
			delay = in.slowStartDelay
		}
	}
	fail := in.failSticky
	if !fail && in.failNext > 0 {
		in.failNext--
		fail = true
	}
	if !fail && in.errorRate > 0 && in.rng.Float64() < in.errorRate {
		fail = true
	}
	name, clk := in.name, in.clk
	in.mu.Unlock()

	if delay > 0 {
		c, stop := clk.timer(delay)
		defer stop()
		select {
		case <-c:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if fail {
		return fmt.Errorf("cluster: leaf %s: injected failure", name)
	}
	return ctx.Err()
}

// FlakyProxy is a TCP proxy that injects transport faults between an RPC
// client and a leaf server: connections can be refused (down), dropped at
// accept with a probability, or severed mid-call. It exercises the
// RemoteLeaf teardown/redial path over a real socket.
type FlakyProxy struct {
	ln     net.Listener
	target string

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	dropProb float64
	rng      *rand.Rand
	down     bool
	dropped  int64
}

// NewFlakyProxy starts a proxy on a loopback port forwarding to target.
func NewFlakyProxy(target string, seed int64) (*FlakyProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &FlakyProxy{
		ln:     ln,
		target: target,
		conns:  make(map[net.Conn]struct{}),
		rng:    rand.New(rand.NewSource(seed)),
	}
	go p.acceptLoop()
	return p, nil
}

// Addr is the address clients should dial instead of the target.
func (p *FlakyProxy) Addr() string { return p.ln.Addr().String() }

// SetDown refuses new connections and severs active ones while true.
func (p *FlakyProxy) SetDown(down bool) {
	p.mu.Lock()
	p.down = down
	p.mu.Unlock()
	if down {
		p.KillActive()
	}
}

// SetDropProb drops each new connection with probability prob.
func (p *FlakyProxy) SetDropProb(prob float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dropProb = prob
}

// KillActive severs every established connection mid-flight: in-flight
// RPC calls on them fail with a connection error.
func (p *FlakyProxy) KillActive() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for c := range p.conns {
		c.Close()
	}
}

// Dropped reports how many connections were refused or dropped.
func (p *FlakyProxy) Dropped() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dropped
}

// Close stops the proxy and severs everything.
func (p *FlakyProxy) Close() error {
	err := p.ln.Close()
	p.KillActive()
	return err
}

func (p *FlakyProxy) acceptLoop() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		drop := p.down || (p.dropProb > 0 && p.rng.Float64() < p.dropProb)
		if drop {
			p.dropped++
		}
		p.mu.Unlock()
		if drop {
			conn.Close()
			continue
		}
		upstream, err := net.Dial("tcp", p.target)
		if err != nil {
			conn.Close()
			continue
		}
		p.mu.Lock()
		p.conns[conn] = struct{}{}
		p.conns[upstream] = struct{}{}
		p.mu.Unlock()
		closeBoth := func() {
			conn.Close()
			upstream.Close()
			p.mu.Lock()
			delete(p.conns, conn)
			delete(p.conns, upstream)
			p.mu.Unlock()
		}
		var once sync.Once
		pipe := func(dst, src net.Conn) {
			io.Copy(dst, src)
			once.Do(closeBoth)
		}
		go pipe(upstream, conn)
		go pipe(conn, upstream)
	}
}
