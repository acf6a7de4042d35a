// Package memmgr is PowerDrill's byte-budgeted memory manager: the
// Section 5 mechanism that lets one machine "serve" far more data than fits
// in RAM. Data loads lazily from the persisted format on first touch,
// in-flight scans pin what they are using, and when the budget is exceeded
// cold entries are evicted by internal/cache's LIRS policy (scan-resistant,
// so a one-time full scan cannot flush the interactive working set, and
// loop-resistant, so a click's queries cycling a working set larger than
// the budget keep most of it resident).
//
// The manager is deliberately key-agnostic: callers decide what an entry
// is. colstore uses one entry per (column, chunk) pair, one per frame of a
// column's global dictionary, and one per column's layout record (keys
// "<dir>\x00<column>#<chunk>", "<dir>\x00<column>#f<frame>" and
// "<dir>\x00<column>#index").
// Namespacing by absolute store directory means replicas opened from the
// same path share residency. One Manager may be shared by many stores —
// every shard of a cluster leaf process, for example — to enforce a single
// process-wide budget.
//
// # The pin/evict contract
//
// The LIRS cache holds every resident entry, pinned or not, and its
// capacity is the budget. A pin is a count on the cache's entry.
//
//   - Acquire(key, load) returns the entry's value and pins it. A pinned
//     entry is NEVER evicted, whatever the budget: victim selection skips
//     it. Pins are counted: two queries pinning one entry share it, and it
//     stays until both have released. PinResident pins every resident key
//     of a list under one lock and hands back the cold ones.
//   - Release(key) drops one pin; ReleaseAll drops one per key under one
//     lock, in order. When the last pin goes, the entry is evictable again
//     — still resident, where its accesses put it in the cache. An entry
//     larger than the whole budget is dropped then (still counted as an
//     eviction).
//   - Cold loads are deduplicated: concurrent Acquire calls for one key
//     share a single load; the waiters count as hits, the loader as the
//     cold load. A failed load is returned to every waiter and leaves no
//     entry behind, so the next Acquire retries.
//   - Values must be immutable after load. That is what makes eviction
//     followed by reload bit-for-bit deterministic, and what lets scans
//     read entries without any lock. A caller that kept a pointer past
//     Release may keep using it safely — eviction only frees the
//     manager's accounting, the Go heap data lives while referenced.
//
// # Budget semantics
//
// The budget bounds the resident bytes. Pinned bytes may transiently
// exceed it — a query that needs N chunks at once must hold all N — which
// is the "± one working set" slack the accounting documents: the cache
// evicts until the budget holds or only pinned entries are left, so
// steady-state (unpinned) residency is always within the budget. Budget 0
// means unlimited: entries still load lazily and are tracked, but nothing
// is ever evicted.
//
// Hotness survives a pin by construction: the entry never leaves the
// cache, and the pin is the access that makes it LIR when it is
// re-referenced while still in the recency stack, so scan resistance
// engages for the interactive working set. Pins do cap the policy, though:
// the victim is the oldest unpinned HIR entry, and only when every HIR
// entry is pinned the bottom-most unpinned LIR one, so a query whose pins
// exceed the budget's HIR share evicts LIR entries to stay within it.
package memmgr
