package cache

import "sync"

// Synchronized is a Cache behind a mutex, safe for concurrent use. LIRS
// moves entries in S and Q on every Get, so even read-only-looking
// accesses must serialize; the engine's parallel chunk workers share one
// result cache through this wrapper. The lock is held only for the cache's
// bookkeeping, never while computing a value.
type Synchronized struct {
	mu sync.Mutex
	c  *Cache
}

// NewSynchronized creates a synchronized cache holding at most capacity
// bytes.
func NewSynchronized(capacity int64) *Synchronized {
	return &Synchronized{c: New(capacity, nil)}
}

// Get is Cache.Get.
func (s *Synchronized) Get(key string) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c.Get(key)
}

// Put is Cache.Put.
func (s *Synchronized) Put(key string, value any, size int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.c.Put(key, value, size)
}

// Stats is Cache.Stats.
func (s *Synchronized) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c.Stats()
}
