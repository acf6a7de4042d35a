package cluster

import "time"

// clock is the serving tree's one source of time. A dispatcher reads it
// for its breakers, its latency estimates and its hedge and retry timers,
// an Injector for its straggles and a RemoteLeaf for its dial backoff.
// Every constructor installs the real clock; in-package tests put a whole
// tree on one manually advanced clock instead.
type clock interface {
	now() time.Time
	// timer returns a channel that receives once d has passed, and a
	// function that stops the timer.
	timer(d time.Duration) (<-chan time.Time, func() bool)
}

// wall is the real clock.
type wall struct{}

func (wall) now() time.Time { return time.Now() }

func (wall) timer(d time.Duration) (<-chan time.Time, func() bool) {
	t := time.NewTimer(d)
	return t.C, t.Stop
}
