package memmgr

// The manager tracks two tiers (see doc.go for the full pin/evict
// contract):
//
//   - pinned entries: acquired by at least one in-flight query. Never
//     evicted; their bytes shrink the evictable tier's capacity instead.
//   - unpinned resident entries: held by the replacement policy, evicted
//     whenever pinnedBytes + policyBytes would exceed the budget.

import (
	"math"
	"strings"
	"sync"

	"powerdrill/internal/cache"
)

// LoadFunc produces the value for a key on a cold miss. It reports the
// value's resident (in-memory) size and how many bytes were read from disk
// to build it — the quantity the paper's Figure 5 charges.
type LoadFunc func() (value any, residentBytes, diskBytes int64, err error)

// item is the managed unit: the value plus its sizes.
type item struct {
	value    any
	size     int64
	diskSize int64
	// virtual marks entries backing materialized virtual columns; their
	// resident bytes are additionally reported as Stats.VirtualBytes so
	// operators can see how much of the budget drill-down materializations
	// occupy.
	virtual bool
}

// pinEntry is a resident entry held by at least one in-flight query.
type pinEntry struct {
	it   *item
	pins int
	// hot records that the entry has been accessed more than once, so that
	// on release it is restored to the policy's frequency tier (Am/T2)
	// rather than re-entering probation — without this, the pin/release
	// cycle would demote every entry to first-timer status and the 2Q/ARC
	// scan resistance would never engage.
	hot bool
}

// inflight deduplicates concurrent loads of one key.
type inflight struct {
	done chan struct{}
	err  error
}

// Stats is a snapshot of the manager's accounting.
type Stats struct {
	// BudgetBytes is the configured budget (0 = unlimited).
	BudgetBytes int64 `json:"budget_bytes"`
	// ResidentBytes is pinned + evictable resident bytes.
	ResidentBytes int64 `json:"resident_bytes"`
	// PinnedBytes is the portion held by in-flight queries.
	PinnedBytes int64 `json:"pinned_bytes"`
	// ResidentItems counts resident entries across both tiers.
	ResidentItems int `json:"resident_items"`
	// VirtualBytes is the portion of ResidentBytes held by materialized
	// virtual columns (entries acquired or inserted with virtual = true).
	VirtualBytes int64 `json:"virtual_bytes"`
	// Hits counts Acquire calls served from resident data.
	Hits int64 `json:"hits"`
	// ColdLoads counts Acquire calls that had to load from disk.
	ColdLoads int64 `json:"cold_loads"`
	// ColdBytesLoaded sums the resident bytes of cold loads.
	ColdBytesLoaded int64 `json:"cold_bytes_loaded"`
	// DiskBytesRead sums the disk bytes of cold loads.
	DiskBytesRead int64 `json:"disk_bytes_read"`
	// Evictions counts entries displaced to satisfy the budget.
	Evictions int64 `json:"evictions"`
	// EvictedBytes sums the resident bytes of evicted entries.
	EvictedBytes int64 `json:"evicted_bytes"`
	// Policy names the replacement policy ("lru", "2q", "arc").
	Policy string `json:"policy"`
}

// HitRate returns Hits / (Hits + ColdLoads), or 0 before any access.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.ColdLoads
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Manager is the global byte-budget memory manager. One Manager may be
// shared by many stores (e.g. every shard of a cluster leaf process);
// callers namespace their keys. All methods are safe for concurrent use.
type Manager struct {
	mu sync.Mutex

	budget int64 // 0 = unlimited
	policy cache.Cache
	// pinned holds entries with pins > 0; they are not in the policy.
	pinned      map[string]*pinEntry
	pinnedBytes int64
	loading     map[string]*inflight

	hits, coldLoads         int64
	coldBytes, diskBytes    int64
	evictions, evictedBytes int64
	// condemned holds key prefixes whose entries must not re-enter the
	// policy: DropNamespace retired the namespace while some of its entries
	// were still pinned by a draining query. Release drops such stragglers
	// instead of re-admitting them; a prefix is removed once no pinned key
	// matches it, so the set stays bounded by in-flight retirements.
	condemned map[string]struct{}
	// virtualBytes tracks the resident bytes of virtual-column entries
	// across both tiers (grows when one becomes resident, shrinks when one
	// leaves residency via eviction or an oversized drop).
	virtualBytes int64
}

// unlimitedCapacity stands in for "no budget" so the policies never evict.
const unlimitedCapacity = math.MaxInt64 / 4

// New creates a manager with the given byte budget (0 or negative =
// unlimited: columns still load lazily and are tracked, but nothing is ever
// evicted). policyName selects the replacement policy for unpinned
// residents: "lru", "arc", or "2q" (the default for any other value).
func New(budgetBytes int64, policyName string) *Manager {
	if budgetBytes < 0 {
		budgetBytes = 0
	}
	capacity := budgetBytes
	if capacity == 0 {
		capacity = unlimitedCapacity
	}
	var policy cache.Cache
	switch policyName {
	case "lru":
		policy = cache.NewLRU(capacity)
	case "arc":
		policy = cache.NewARC(capacity)
	default:
		policy = cache.NewTwoQ(capacity)
	}
	m := &Manager{
		budget:  budgetBytes,
		policy:  policy,
		pinned:  make(map[string]*pinEntry),
		loading: make(map[string]*inflight),
	}
	// The callback runs inside policy calls, which only happen under m.mu.
	policy.(cache.EvictionNotifier).OnEvict(func(_ string, v any, size int64) {
		m.evictions++
		m.evictedBytes += size
		if it, ok := v.(*item); ok && it.virtual {
			m.virtualBytes -= size
		}
	})
	return m
}

// Budget returns the configured budget in bytes (0 = unlimited).
func (m *Manager) Budget() int64 { return m.budget }

// evictableCapacity is the byte budget left for unpinned residents.
// Requires m.mu.
func (m *Manager) evictableCapacity() int64 {
	if m.budget == 0 {
		return unlimitedCapacity
	}
	c := m.budget - m.pinnedBytes
	if c < 0 {
		c = 0
	}
	return c
}

// syncCapacity pushes the current evictable capacity into the policy,
// evicting as needed. Requires m.mu.
func (m *Manager) syncCapacity() {
	m.policy.(cache.Resizer).SetCapacity(m.evictableCapacity())
}

// Acquire returns the value for key, pinning it until Release. On a cold
// miss the value is produced by load (deduplicated across concurrent
// callers); cold reports whether this call performed the load. Pinned
// entries are never evicted.
func (m *Manager) Acquire(key string, load LoadFunc) (value any, cold bool, err error) {
	return m.acquire(key, false, load)
}

// AcquireVirtual is Acquire for entries backing materialized virtual
// columns: identical semantics, but the entry's resident bytes are
// additionally tracked in Stats.VirtualBytes. A key's virtual-ness is a
// property of the column it belongs to and must be consistent across
// callers.
func (m *Manager) AcquireVirtual(key string, load LoadFunc) (value any, cold bool, err error) {
	return m.acquire(key, true, load)
}

func (m *Manager) acquire(key string, virtual bool, load LoadFunc) (value any, cold bool, err error) {
	m.mu.Lock()
	for {
		// Already pinned by another query: share the pin. The second access
		// proves the entry hot.
		if p, ok := m.pinned[key]; ok {
			p.pins++
			p.hot = true
			m.hits++
			m.mu.Unlock()
			return p.it.value, false, nil
		}
		// Resident but unpinned: move from the policy to the pinned tier.
		// The Get itself is this entry's second-or-later access, so it is
		// hot by the 2Q/ARC definition.
		if v, ok := m.policy.Get(key); ok {
			it := v.(*item)
			m.policy.Remove(key)
			m.pinned[key] = &pinEntry{it: it, pins: 1, hot: true}
			m.pinnedBytes += it.size
			m.syncCapacity()
			m.hits++
			m.mu.Unlock()
			return it.value, false, nil
		}
		// A load is already in flight: wait for it, then retry.
		if fl, ok := m.loading[key]; ok {
			m.mu.Unlock()
			<-fl.done
			if fl.err != nil {
				return nil, false, fl.err
			}
			m.mu.Lock()
			continue
		}
		break
	}
	// Cold miss: this caller performs the load.
	fl := &inflight{done: make(chan struct{})}
	m.loading[key] = fl
	m.mu.Unlock()

	v, size, disk, err := load()

	m.mu.Lock()
	delete(m.loading, key)
	if err != nil {
		fl.err = err
		close(fl.done)
		m.mu.Unlock()
		return nil, false, err
	}
	it := &item{value: v, size: size, diskSize: disk, virtual: virtual}
	m.pinned[key] = &pinEntry{it: it, pins: 1}
	m.pinnedBytes += size
	m.coldLoads++
	m.coldBytes += size
	m.diskBytes += disk
	if virtual {
		m.virtualBytes += size
	}
	m.syncCapacity()
	close(fl.done)
	m.mu.Unlock()
	return v, true, nil
}

// Insert registers an already built value as a resident, pinned entry —
// the path a freshly materialized virtual column takes: the data exists in
// memory before the manager ever sees it, so there is no LoadFunc, no cold
// counter and no disk charge, but the bytes still enter the budget
// (syncCapacity evicts cold unpinned entries to make room). The returned
// value is the resident one: when another store sharing the manager
// already inserted or loaded the key, that entry is pinned and returned
// instead and v is dropped. Callers must Release the key like any Acquire.
func (m *Manager) Insert(key string, v any, size int64, virtual bool) any {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p, ok := m.pinned[key]; ok {
		p.pins++
		p.hot = true
		return p.it.value
	}
	if got, ok := m.policy.Get(key); ok {
		it := got.(*item)
		m.policy.Remove(key)
		m.pinned[key] = &pinEntry{it: it, pins: 1, hot: true}
		m.pinnedBytes += it.size
		m.syncCapacity()
		return it.value
	}
	it := &item{value: v, size: size, virtual: virtual}
	m.pinned[key] = &pinEntry{it: it, pins: 1}
	m.pinnedBytes += size
	if virtual {
		m.virtualBytes += size
	}
	m.syncCapacity()
	return v
}

// Resident reports whether key is resident (pinned or held by the policy)
// without loading, pinning, promoting, or counting a hit — the peek the
// coalesced-prefetch planner uses to decide which chunks need disk reads.
// The answer is advisory: another goroutine may load or evict the entry
// immediately after.
func (m *Manager) Resident(key string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.pinned[key]; ok {
		return true
	}
	return m.policy.Contains(key)
}

// Release drops one pin on key. When the last pin goes, the entry re-enters
// the replacement policy (or is evicted immediately if it no longer fits
// the remaining budget). Release of an unknown key is a no-op.
func (m *Manager) Release(key string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.pinned[key]
	if !ok {
		return
	}
	p.pins--
	if p.pins > 0 {
		return
	}
	delete(m.pinned, key)
	m.pinnedBytes -= p.it.size
	m.syncCapacity()
	if m.isCondemned(key) {
		// The entry's namespace was retired (DropNamespace) while this
		// query was still draining: drop it instead of re-admitting it.
		if p.it.virtual {
			m.virtualBytes -= p.it.size
		}
		m.pruneCondemned()
		return
	}
	if p.it.size > m.evictableCapacity() {
		// Will never fit the evictable tier: drop now. The policies would
		// silently refuse oversized entries; counting here keeps the
		// eviction accounting exact.
		m.evictions++
		m.evictedBytes += p.it.size
		if p.it.virtual {
			m.virtualBytes -= p.it.size
		}
		return
	}
	m.policy.Put(key, p.it, p.it.size)
	if p.hot {
		// Restore frequency-tier status: the Put re-entered probation
		// (Acquire removed the entry and its ghost), so replay one access
		// to promote it back to Am/T2. Policy-internal hit counters move,
		// but the manager reports its own counters, not the policy's.
		m.policy.Get(key)
	}
}

// DropNamespace removes every resident entry whose key starts with prefix
// — the retirement path for a store generation superseded by ingest
// compaction: its chunks and dictionaries leave the budget at once instead
// of lingering until eviction pressure finds them. Unpinned entries are
// dropped immediately; entries still pinned by a draining query are
// condemned and dropped on their final Release instead of re-entering the
// policy. Returns the count and bytes of the entries dropped immediately.
func (m *Manager) DropNamespace(prefix string) (dropped int, droppedBytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, key := range m.policy.(cache.KeyLister).Keys() {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		v, ok := m.policy.Get(key)
		if !ok {
			continue
		}
		it := v.(*item)
		m.policy.Remove(key)
		if it.virtual {
			m.virtualBytes -= it.size
		}
		dropped++
		droppedBytes += it.size
	}
	for key := range m.pinned {
		if strings.HasPrefix(key, prefix) {
			if m.condemned == nil {
				m.condemned = make(map[string]struct{}, 2)
			}
			m.condemned[prefix] = struct{}{}
			break
		}
	}
	return dropped, droppedBytes
}

// isCondemned reports whether key belongs to a retired namespace. Requires
// m.mu. The condemned set holds only prefixes with pinned stragglers, so
// the scan is over a handful of entries at most.
func (m *Manager) isCondemned(key string) bool {
	for prefix := range m.condemned {
		if strings.HasPrefix(key, prefix) {
			return true
		}
	}
	return false
}

// pruneCondemned drops condemned prefixes no pinned key matches anymore.
// Requires m.mu.
func (m *Manager) pruneCondemned() {
	for prefix := range m.condemned {
		alive := false
		for key := range m.pinned {
			if strings.HasPrefix(key, prefix) {
				alive = true
				break
			}
		}
		if !alive {
			delete(m.condemned, prefix)
		}
	}
}

// Stats returns a snapshot of the manager's accounting.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		BudgetBytes:     m.budget,
		ResidentBytes:   m.pinnedBytes + m.policy.SizeBytes(),
		PinnedBytes:     m.pinnedBytes,
		ResidentItems:   len(m.pinned) + m.policy.Len(),
		VirtualBytes:    m.virtualBytes,
		Hits:            m.hits,
		ColdLoads:       m.coldLoads,
		ColdBytesLoaded: m.coldBytes,
		DiskBytesRead:   m.diskBytes,
		Evictions:       m.evictions,
		EvictedBytes:    m.evictedBytes,
		Policy:          m.policy.Name(),
	}
}
