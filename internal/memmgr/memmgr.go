package memmgr

// The LIRS cache holds every resident entry, pinned or not, and its capacity
// is the budget (see doc.go for the full pin/evict contract). A pin is a
// count on the cache's entry: the cache never picks a pinned victim, so
// pinned bytes may transiently exceed the budget.

import (
	"fmt"
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
	derived int64 // the part of size charged after admission (Charge)
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
	// ResidentBytes is the resident bytes, pinned or not.
	ResidentBytes int64 `json:"resident_bytes"`
	// PinnedBytes is the portion held by in-flight queries.
	PinnedBytes int64 `json:"pinned_bytes"`
	// ResidentItems counts resident entries, pinned or not.
	ResidentItems int `json:"resident_items"`
	// VirtualBytes is the portion of ResidentBytes held by materialized
	// virtual columns (entries acquired or inserted with virtual = true).
	VirtualBytes int64 `json:"virtual_bytes"`
	// DerivedBytes is the portion charged after admission (Charge).
	DerivedBytes int64 `json:"derived_bytes"`
	// Hits counts pins served from resident data, by Acquire or
	// PinResident.
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
	// Policy names the replacement policy: always "lirs".
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

	budget   int64 // 0 = unlimited
	resident *cache.Cache
	// pinnedBytes sums the entries with at least one pin: it moves when a
	// count goes 0→1 and 1→0.
	pinnedBytes int64
	loading     map[string]*inflight

	hits, coldLoads         int64
	coldBytes, diskBytes    int64
	evictions, evictedBytes int64
	// condemned maps key prefixes whose entries must not stay resident to
	// the number of their entries still pinned: DropNamespace retired the
	// namespace while a draining query held some of them. The last release
	// of such a straggler removes it; a prefix goes when its count reaches
	// zero, so the map stays bounded by in-flight retirements.
	condemned map[string]int
	// virtualBytes tracks the resident bytes of virtual-column entries
	// (grows when one becomes resident, shrinks when one leaves residency
	// via eviction or removal), derived charges aside; derivedBytes tracks
	// those charges.
	virtualBytes, derivedBytes int64
}

// unlimitedCapacity stands in for "no budget" so the cache never evicts.
const unlimitedCapacity = math.MaxInt64 / 4

// Policy is the name of the one replacement policy, as Stats reports it.
const Policy = "lirs"

// New creates a manager with the given byte budget (0 or negative =
// unlimited: columns still load lazily and are tracked, but nothing is ever
// evicted). policyName must be "" or "lirs": LIRS is the only replacement
// policy, and any other name, "2q" included, is a caller's bug that panics.
func New(budgetBytes int64, policyName string) *Manager {
	if policyName != "" && policyName != Policy {
		panic(fmt.Sprintf("memmgr: unknown replacement policy %q (lirs is the only one)", policyName))
	}
	if budgetBytes < 0 {
		budgetBytes = 0
	}
	capacity := budgetBytes
	if capacity == 0 {
		capacity = unlimitedCapacity
	}
	m := &Manager{
		budget:  budgetBytes,
		loading: make(map[string]*inflight),
	}
	// The callback runs inside cache calls, which only happen under m.mu.
	// The cache never evicts a pinned entry, so pinnedBytes stays put.
	m.resident = cache.New(capacity, func(_ string, v any, size int64) {
		m.evictions++
		m.evictedBytes += size
		m.left(v.(*item))
	})
	return m
}

// Budget returns the configured budget in bytes (0 = unlimited).
func (m *Manager) Budget() int64 { return m.budget }

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
		// Resident, pinned or not: one more pin. The pin is the access that
		// makes a HIR entry still in LIRS's recency stack LIR.
		if it, ok := m.pin(key); ok {
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
	defer m.mu.Unlock()
	delete(m.loading, key)
	if err != nil {
		fl.err = err
		close(fl.done)
		return nil, false, err
	}
	it := m.admit(key, &item{value: v, size: size, diskSize: disk, virtual: virtual})
	m.coldLoads++
	m.coldBytes += size
	m.diskBytes += disk
	close(fl.done)
	return it.value, true, nil
}

// pin adds one pin to key's entry if it is resident. Requires m.mu.
func (m *Manager) pin(key string) (*item, bool) {
	v, pins, ok := m.resident.Pin(key)
	if !ok {
		return nil, false
	}
	it := v.(*item)
	if pins == 1 {
		m.pinned(key, it, 1)
	}
	return it, true
}

// admit makes it key's resident entry, holding one pin, and returns the
// resident item. When the key is already resident (an Insert raced a
// load), that entry gains the pin instead and it is dropped. Entries are
// admitted whatever their size; the cache evicts unpinned ones to make
// room. Requires m.mu.
func (m *Manager) admit(key string, it *item) *item {
	if got, ok := m.pin(key); ok {
		return got
	}
	m.resident.PutPinned(key, it, it.size)
	m.pinned(key, it, 1)
	if it.virtual {
		m.virtualBytes += it.size
	}
	return it
}

// pinned accounts an entry whose pin count went 0→1 (delta 1) or 1→0
// (delta −1). Requires m.mu.
func (m *Manager) pinned(key string, it *item, delta int) {
	m.pinnedBytes += int64(delta) * it.size
	for prefix := range m.condemned {
		if strings.HasPrefix(key, prefix) {
			if m.condemned[prefix] += delta; m.condemned[prefix] == 0 {
				delete(m.condemned, prefix)
			}
		}
	}
}

// Insert registers an already built value as a resident, pinned entry —
// the path a freshly materialized virtual column takes: the data exists in
// memory before the manager ever sees it, so there is no LoadFunc, no cold
// counter and no disk charge, but the bytes still enter the budget (the
// cache evicts cold unpinned entries to make room). The returned value is
// the resident one: when another store sharing the manager already
// inserted or loaded the key, that entry is pinned and returned instead
// and v is dropped. Callers must Release the key like any Acquire.
func (m *Manager) Insert(key string, v any, size int64, virtual bool) any {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.admit(key, &item{value: v, size: size, virtual: virtual}).value
}

// PinResident pins every resident key of keys under one lock — the warm
// half of a column's chunks, pinned before the cold half loads so those
// loads cannot evict it. Each pinned key counts a hit and its value goes to
// values[i] (len(values) must be len(keys)). The indices of the keys that
// are not resident are appended to cold, for the caller to Acquire.
func (m *Manager) PinResident(keys []string, values []any, cold []int) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, key := range keys {
		it, ok := m.pin(key)
		if !ok {
			cold = append(cold, i)
			continue
		}
		m.hits++
		values[i] = it.value
	}
	return cold
}

// Release drops one pin on key; see ReleaseAll.
func (m *Manager) Release(key string) { m.ReleaseAll([]string{key}) }

// ReleaseAll drops one pin on each key under one lock, in order. When an
// entry's last pin goes it becomes evictable again — still resident, in
// the place its accesses gave it in the cache — unless it is larger than
// the budget, when it is dropped at once (counted as an eviction), or its
// namespace was retired, when it is removed. Keys not pinned are skipped.
func (m *Manager) ReleaseAll(keys []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, key := range keys {
		remove := len(m.condemned) > 0 && m.isCondemned(key)
		v, pins, ok := m.resident.Unpin(key, remove)
		if !ok || pins > 0 {
			continue
		}
		it := v.(*item)
		m.pinned(key, it, -1)
		if remove {
			m.left(it)
		}
	}
}

// left accounts an entry that left residency. Requires m.mu.
func (m *Manager) left(it *item) {
	if it.virtual {
		m.virtualBytes -= it.size - it.derived
	}
	m.derivedBytes -= it.derived
}

// Charge adds n bytes built from key's value after its admission — a
// chunk's derived tables — to its entry, which the caller holds pinned. The
// bytes count in ResidentBytes and DerivedBytes, the cache evicts unpinned
// entries for them, and they leave with the entry.
func (m *Manager) Charge(key string, n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if v, _, ok := m.resident.Grow(key, n); ok {
		it := v.(*item)
		it.size, it.derived = it.size+n, it.derived+n
		m.derivedBytes, m.pinnedBytes = m.derivedBytes+n, m.pinnedBytes+n
	}
}

// DropNamespace removes every resident entry whose key starts with prefix
// — the retirement path for a store generation superseded by ingest
// compaction: its chunks and dictionaries leave the budget at once instead
// of lingering until eviction pressure finds them. Unpinned entries are
// dropped immediately; entries still pinned by a draining query are
// condemned and dropped on their final Release instead of becoming
// evictable. Returns the count and bytes of the entries dropped immediately.
func (m *Manager) DropNamespace(prefix string) (dropped int, droppedBytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	stragglers := 0
	for _, key := range m.resident.Keys() {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		v, pins, _ := m.resident.Drop(key)
		if pins > 0 {
			stragglers++
			continue
		}
		it := v.(*item)
		m.left(it)
		dropped++
		droppedBytes += it.size
	}
	if stragglers > 0 {
		if m.condemned == nil {
			m.condemned = make(map[string]int, 2)
		}
		m.condemned[prefix] = stragglers
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

// Stats returns a snapshot of the manager's accounting.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		BudgetBytes:     m.budget,
		ResidentBytes:   m.resident.SizeBytes(),
		PinnedBytes:     m.pinnedBytes,
		ResidentItems:   m.resident.Len(),
		VirtualBytes:    m.virtualBytes,
		DerivedBytes:    m.derivedBytes,
		Hits:            m.hits,
		ColdLoads:       m.coldLoads,
		ColdBytesLoaded: m.coldBytes,
		DiskBytesRead:   m.diskBytes,
		Evictions:       m.evictions,
		EvictedBytes:    m.evictedBytes,
		Policy:          Policy,
	}
}
