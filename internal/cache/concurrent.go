package cache

import "sync"

// Synchronized wraps a Cache with a mutex, making it safe for concurrent
// use. The eviction policies in this package mutate their recency lists on
// every Get, so even read-only-looking accesses must serialize; the engine's
// parallel chunk workers share one result cache through this wrapper.
//
// The lock is held only for the policy bookkeeping (list moves, map
// lookups), never while computing a value, so contention stays bounded by
// the cache's own constant-time operations.
type Synchronized struct {
	mu    sync.Mutex
	inner Cache
}

// NewSynchronized wraps inner, which must be non-nil.
func NewSynchronized(inner Cache) *Synchronized {
	if inner == nil {
		panic("cache: NewSynchronized(nil)")
	}
	return &Synchronized{inner: inner}
}

// Keys implements KeyLister.
func (s *Synchronized) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.(KeyLister).Keys()
}

// Get implements Cache.
func (s *Synchronized) Get(key string) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Get(key)
}

// Put implements Cache.
func (s *Synchronized) Put(key string, value any, size int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inner.Put(key, value, size)
}

// Remove implements Cache.
func (s *Synchronized) Remove(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inner.Remove(key)
}

// Len implements Cache.
func (s *Synchronized) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Len()
}

// SizeBytes implements Cache.
func (s *Synchronized) SizeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.SizeBytes()
}

// Stats implements Cache.
func (s *Synchronized) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Stats()
}

// Name implements Cache.
func (s *Synchronized) Name() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Name()
}

// OnEvict implements EvictionNotifier when the wrapped policy does; the
// callback runs with the Synchronized mutex held, so it must not call back
// into the cache.
func (s *Synchronized) OnEvict(fn func(key string, value any, size int64)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n, ok := s.inner.(EvictionNotifier); ok {
		n.OnEvict(fn)
	}
}

var _ Cache = (*Synchronized)(nil)
