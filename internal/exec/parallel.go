package exec

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelism resolves the effective worker count for one query.
func (e *Engine) parallelism() int {
	if e.opts.Parallelism > 0 {
		return e.opts.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// chunkWorkers clamps the worker count to [1, nChunks] — the single source
// for both the number of goroutines forEachChunk spawns and the length of
// the callers' per-worker state slices, which must agree so worker indices
// stay in range.
func (e *Engine) chunkWorkers(nChunks int) int {
	w := e.parallelism()
	if w > nChunks {
		w = nChunks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// forEachChunk runs fn(worker, chunk) for every chunk index in [0, n),
// fanning out over up to `workers` goroutines. Chunks are claimed in
// ascending order from a shared counter rather than striped statically, so
// cheap chunks (skipped or cached) don't leave a worker idle while another
// grinds through a run of expensive ones. worker is a stable index in
// [0, workers) identifying the claiming goroutine, letting callers give each
// worker private accumulator state without locks.
//
// The first error stops all workers from claiming further chunks and is
// returned; chunks already being scanned finish first. ctx's Done channel,
// captured once, is polled without blocking before each claim: once it is
// closed no further chunk is claimed, and a call that stopped short returns
// ctx.Err() — the query's cancellation point inside a chunk sweep. Nothing
// else stops a sweep early: a row scan stops at LIMIT between its rounds.
//
// workers <= 1 degenerates to the sequential loop on the caller's
// goroutine — the Parallelism: 1 engine spawns nothing.
func forEachChunk(ctx context.Context, n, workers int, fn func(worker, chunk int) error) error {
	if n <= 0 {
		return nil
	}
	done := ctx.Done()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for ci := 0; ci < n; ci++ {
			if closed(done) {
				return ctx.Err()
			}
			if err := fn(0, ci); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		errMu  sync.Mutex
		first  error
	)
	fail := func(err error) {
		errMu.Lock()
		if first == nil {
			first = err
		}
		errMu.Unlock()
		failed.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !failed.Load() {
				if closed(done) {
					fail(ctx.Err())
					return
				}
				ci := int(next.Add(1)) - 1
				if ci >= n {
					return
				}
				if err := fn(w, ci); err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return first
}

// closed reports, without blocking, whether done is closed; a nil done (a
// context that is never cancelled) never is.
func closed(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// Add folds another query's, unit's or worker's counters into qs: every
// field is a sum (TestQueryStatsAddCoversEveryField holds it to that).
func (qs *QueryStats) Add(o QueryStats) {
	src := reflect.ValueOf(o)
	qs.eachCounter(func(i int, c reflect.Value) { c.SetInt(c.Int() + src.Field(i).Int()) })
}

// eachCounter calls fn with the index and the settable value of every
// QueryStats field, in declaration order — the one walk over the counters,
// which Add and the wire codec (statsCounters, setStatsCounters) share.
func (qs *QueryStats) eachCounter(fn func(i int, c reflect.Value)) {
	v := reflect.ValueOf(qs).Elem()
	for i := range v.NumField() {
		fn(i, v.Field(i))
	}
}
