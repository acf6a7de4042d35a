package exec

import (
	"context"
	"runtime"
)

// Gate is the cross-query admission controller: a weighted semaphore over
// scan workers. Each query asks for as many workers as its chunk fan-out
// wants; under contention it is granted fewer (at least one), so N
// concurrent queries share the machine smoothly instead of spawning
// N × GOMAXPROCS goroutines and thrashing the scheduler. One Gate may be
// shared across engines — a cluster leaf process gives all its shard
// engines the same gate, making the budget truly engine-level.
//
// Granting is work-conserving and partial: an arriving query takes
// min(want, free) tokens as soon as at least one is free, rather than
// waiting for its full request. Worker counts never affect results (chunk
// partials merge in chunk order regardless of who computed them), so
// admission shrinks only parallelism, never changes answers.
type Gate struct {
	// tokens holds one element per granted worker.
	tokens chan struct{}
}

// NewGate creates a gate admitting at most capacity concurrent workers.
// capacity <= 0 uses runtime.GOMAXPROCS(0).
func NewGate(capacity int) *Gate {
	if capacity <= 0 {
		capacity = runtime.GOMAXPROCS(0)
	}
	return &Gate{tokens: make(chan struct{}, capacity)}
}

// Capacity returns the total worker budget.
func (g *Gate) Capacity() int { return cap(g.tokens) }

// InUse returns the number of currently granted workers.
func (g *Gate) InUse() int { return len(g.tokens) }

// AcquireUpTo blocks until at least one worker token is free, then takes
// up to want of the free tokens and returns how many it took. want < 1 is
// treated as 1. A free token is always taken; a caller still waiting at a
// full gate when ctx is done takes nothing and gets ctx.Err().
func (g *Gate) AcquireUpTo(ctx context.Context, want int) (int, error) {
	select {
	case g.tokens <- struct{}{}:
	default:
		select {
		case g.tokens <- struct{}{}:
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	n := 1
	for ; n < want; n++ {
		select {
		case g.tokens <- struct{}{}:
		default:
			return n, nil
		}
	}
	return n, nil
}

// Release returns n tokens taken by AcquireUpTo.
func (g *Gate) Release(n int) {
	for range n {
		<-g.tokens
	}
}
