package cluster

// Per-leaf health tracking. On the paper's shared fleet some leaf is
// always dead or dying; without health state every query pays a dial
// timeout (or a full deadline) re-discovering that. Each leaf carries a
// consecutive-failure circuit breaker:
//
//	closed ──(breakerThreshold consecutive failures)──▶ open
//	open ──(breakerCooldown elapses, one probe admitted)──▶ half-open
//	half-open ──probe succeeds──▶ closed
//	half-open ──probe fails──▶ open (cooldown restarts)
//
// While open, dispatch skips the leaf entirely — the shard's other
// replica (or the coverage accounting) absorbs the loss — so a known-dead
// machine costs nothing instead of a timeout per query. The half-open
// probe is how a leaf that was down at startup joins once it is healthy.

import (
	"sync"
	"time"
)

// breakerState enumerates the circuit-breaker states.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is one leaf's consecutive-failure circuit breaker.
type breaker struct {
	mu          sync.Mutex
	state       breakerState
	consecutive int
	openedAt    time.Time
	probing     bool // a half-open probe is in flight
	opens       int64
}

// allow reports whether a dispatch may proceed: always while closed; while
// open only after the cooldown, and then exactly one probe at a time.
func (b *breaker) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Sub(b.openedAt) < breakerCooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// success records a completed call and closes the breaker.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.consecutive = 0
	b.probing = false
}

// failure records a failed call; it reports whether this failure tripped
// the breaker open (a failed half-open probe re-opens it immediately).
func (b *breaker) failure(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive++
	tripped := false
	switch b.state {
	case breakerHalfOpen:
		tripped = true
	case breakerClosed:
		tripped = b.consecutive >= breakerThreshold
	}
	if tripped {
		b.state = breakerOpen
		b.openedAt = now
		b.probing = false
		b.opens++
	}
	return tripped
}

func (b *breaker) snapshot() (state string, consecutive int, opens int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state.String(), b.consecutive, b.opens
}

// leafState wraps a Leaf with its dispatch-side health bookkeeping.
type leafState struct {
	leaf    Leaf
	shard   int
	replica int
	server  string // label of the server the replica lives on
	br      breaker
	// lat tracks this replica's completed-attempt latency — observed for
	// hedge losers too, so a straggler accumulates a high estimate even
	// when it never wins a race. Health reports it.
	lat latEstimate

	mu        sync.Mutex
	successes int64
	failures  int64
	lastErr   string
}

// observe feeds the replica's latency estimate.
func (ls *leafState) observe(d time.Duration) { ls.lat.observe(d) }

// allowed reports whether the breaker admits a dispatch now.
func (ls *leafState) allowed(now time.Time) bool {
	return ls.br.allow(now)
}

// success records a served sub-query.
func (ls *leafState) success() {
	ls.mu.Lock()
	ls.successes++
	ls.mu.Unlock()
	ls.br.success()
}

// failure records a failed sub-query; it reports whether the breaker
// tripped open.
func (ls *leafState) failure(err error, now time.Time) bool {
	ls.mu.Lock()
	ls.failures++
	if err != nil {
		ls.lastErr = err.Error()
	}
	ls.mu.Unlock()
	return ls.br.failure(now)
}

// LeafHealth is one leaf's health as seen by the coordinator — surfaced
// through Cluster.Health, the public powerdrill API and pdserver /statz.
type LeafHealth struct {
	Name    string `json:"name"`
	Shard   int    `json:"shard"`
	Replica int    `json:"replica"`
	// Server labels the server the replica lives on.
	Server string `json:"server,omitempty"`
	// Breaker is "closed", "open" or "half-open".
	Breaker             string `json:"breaker"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	Successes           int64  `json:"successes"`
	Failures            int64  `json:"failures"`
	// BreakerOpens counts how many times this leaf's breaker tripped.
	BreakerOpens int64 `json:"breaker_opens"`
	// LatencyEWMA is the replica's moving completed-attempt latency
	// (0 = no observation yet). /statz shows it in milliseconds.
	LatencyEWMA time.Duration `json:"-"`
	LastError   string        `json:"last_error,omitempty"`
}

func (ls *leafState) health() LeafHealth {
	ls.mu.Lock()
	h := LeafHealth{
		Name:        ls.leaf.Name(),
		Shard:       ls.shard,
		Replica:     ls.replica,
		Server:      ls.server,
		Successes:   ls.successes,
		Failures:    ls.failures,
		LatencyEWMA: ls.lat.value(),
		LastError:   ls.lastErr,
	}
	ls.mu.Unlock()
	h.Breaker, h.ConsecutiveFailures, h.BreakerOpens = ls.br.snapshot()
	return h
}
