package memmgr

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// loader returns a LoadFunc producing a fixed payload and counting calls.
func loader(calls *atomic.Int64, size int64) LoadFunc {
	return func() (any, int64, int64, error) {
		calls.Add(1)
		return make([]byte, size), size, size * 2, nil
	}
}

// TestAcquireColdThenWarm also checks that New takes "lirs", the name of
// its one replacement policy, and panics on "2q", the name of a removed one.
func TestAcquireColdThenWarm(t *testing.T) {
	t.Run("2q", func(t *testing.T) {
		m := New(1000, Policy)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal(`New(1000, "2q") did not panic`)
				}
			}()
			New(1000, "2q")
		}()
		var calls atomic.Int64
		v, cold, err := m.Acquire("a", loader(&calls, 100))
		if err != nil || !cold || v == nil {
			t.Fatalf("first Acquire = %v cold=%v err=%v", v, cold, err)
		}
		m.Release("a")
		_, cold, err = m.Acquire("a", loader(&calls, 100))
		if err != nil || cold {
			t.Fatalf("second Acquire cold=%v err=%v, want warm", cold, err)
		}
		m.Release("a")
		if calls.Load() != 1 {
			t.Fatalf("load ran %d times, want 1", calls.Load())
		}
		st := m.Stats()
		if st.ColdLoads != 1 || st.Hits != 1 || st.ResidentBytes != 100 || st.DiskBytesRead != 200 {
			t.Fatalf("stats = %+v", st)
		}
	})
}

func TestBudgetEvictsCold(t *testing.T) {
	m := New(250, "")
	var calls atomic.Int64
	for _, k := range []string{"a", "b", "c"} {
		if _, _, err := m.Acquire(k, loader(&calls, 100)); err != nil {
			t.Fatal(err)
		}
		m.Release(k)
	}
	st := m.Stats()
	if st.ResidentBytes > 250 {
		t.Fatalf("resident %d exceeds budget 250", st.ResidentBytes)
	}
	if st.Evictions == 0 {
		t.Fatal("expected evictions under a 250-byte budget with 300 bytes loaded")
	}
	// "a" (least recently used) must be cold again; "c" warm.
	if _, cold, _ := m.Acquire("c", loader(&calls, 100)); cold {
		t.Fatal("most recent entry was evicted")
	}
	m.Release("c")
	if _, cold, _ := m.Acquire("a", loader(&calls, 100)); !cold {
		t.Fatal("evicted entry came back warm")
	}
	m.Release("a")
}

func TestPinnedEntriesSurviveBudgetPressure(t *testing.T) {
	m := New(150, "")
	var calls atomic.Int64
	// Pin "a" and keep it pinned while loading entries that overflow the
	// budget.
	if _, _, err := m.Acquire("a", loader(&calls, 100)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		k := fmt.Sprintf("x%d", i)
		if _, _, err := m.Acquire(k, loader(&calls, 100)); err != nil {
			t.Fatal(err)
		}
		m.Release(k)
	}
	before := calls.Load()
	if _, cold, _ := m.Acquire("a", loader(&calls, 100)); cold {
		t.Fatal("pinned entry was evicted")
	}
	if calls.Load() != before {
		t.Fatal("pinned re-acquire triggered a load")
	}
	m.Release("a")
	m.Release("a")
	st := m.Stats()
	if st.PinnedBytes != 0 {
		t.Fatalf("pinned bytes = %d after full release", st.PinnedBytes)
	}
	if st.ResidentBytes > 150 {
		t.Fatalf("resident %d exceeds budget after release", st.ResidentBytes)
	}
}

func TestOversizedEntryDroppedOnRelease(t *testing.T) {
	m := New(50, "")
	var calls atomic.Int64
	if _, _, err := m.Acquire("big", loader(&calls, 100)); err != nil {
		t.Fatal(err)
	}
	// While pinned it is resident even though it exceeds the budget.
	if st := m.Stats(); st.PinnedBytes != 100 {
		t.Fatalf("pinned = %d, want 100", st.PinnedBytes)
	}
	m.Release("big")
	st := m.Stats()
	if st.ResidentBytes != 0 || st.Evictions != 1 || st.EvictedBytes != 100 {
		t.Fatalf("after release: %+v", st)
	}
	if _, cold, _ := m.Acquire("big", loader(&calls, 100)); !cold {
		t.Fatal("oversized entry should reload cold")
	}
	m.Release("big")
}

func TestUnlimitedBudgetNeverEvicts(t *testing.T) {
	m := New(0, "")
	var calls atomic.Int64
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%d", i)
		if _, _, err := m.Acquire(k, loader(&calls, 1000)); err != nil {
			t.Fatal(err)
		}
		m.Release(k)
	}
	st := m.Stats()
	if st.Evictions != 0 || st.ResidentItems != 100 || st.ResidentBytes != 100_000 {
		t.Fatalf("unlimited stats = %+v", st)
	}
}

func TestSingleflightLoad(t *testing.T) {
	m := New(0, "")
	var calls atomic.Int64
	var started sync.WaitGroup
	release := make(chan struct{})
	slow := func() (any, int64, int64, error) {
		calls.Add(1)
		<-release
		return "v", 10, 10, nil
	}
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	started.Add(n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started.Done()
			_, _, errs[i] = m.Acquire("k", slow)
		}(i)
	}
	started.Wait()
	close(release)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("load ran %d times, want 1", calls.Load())
	}
	st := m.Stats()
	if st.ColdLoads != 1 || st.Hits != n-1 {
		t.Fatalf("stats = %+v", st)
	}
	for i := 0; i < n; i++ {
		m.Release("k")
	}
	if st := m.Stats(); st.PinnedBytes != 0 {
		t.Fatalf("pinned = %d after all releases", st.PinnedBytes)
	}
}

func TestLoadErrorPropagatesAndRetries(t *testing.T) {
	m := New(0, "")
	boom := errors.New("boom")
	fail := func() (any, int64, int64, error) { return nil, 0, 0, boom }
	if _, _, err := m.Acquire("k", fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// A failed load leaves nothing resident; the next Acquire retries.
	var calls atomic.Int64
	if _, cold, err := m.Acquire("k", loader(&calls, 10)); err != nil || !cold {
		t.Fatalf("retry cold=%v err=%v", cold, err)
	}
	m.Release("k")
}

func TestConcurrentChurn(t *testing.T) {
	m := New(500, "")
	var calls atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (w+i)%10)
				v, _, err := m.Acquire(k, loader(&calls, 100))
				if err != nil {
					t.Error(err)
					return
				}
				if len(v.([]byte)) != 100 {
					t.Error("bad value")
					return
				}
				m.Release(k)
			}
		}(w)
	}
	wg.Wait()
	st := m.Stats()
	if st.PinnedBytes != 0 {
		t.Fatalf("pinned = %d after churn", st.PinnedBytes)
	}
	if st.ResidentBytes > 500 {
		t.Fatalf("resident %d exceeds budget", st.ResidentBytes)
	}
}

func TestDropNamespace(t *testing.T) {
	m := New(0, "")
	var calls atomic.Int64
	for _, key := range []string{"seg1\x00a", "seg1\x00b", "seg2\x00a"} {
		if _, _, err := m.Acquire(key, loader(&calls, 100)); err != nil {
			t.Fatal(err)
		}
		m.Release(key)
	}
	dropped, bytes := m.DropNamespace("seg1\x00")
	if dropped != 2 || bytes != 200 {
		t.Fatalf("DropNamespace = (%d, %d), want (2, 200)", dropped, bytes)
	}
	st := m.Stats()
	if st.ResidentBytes != 100 || st.ResidentItems != 1 {
		t.Fatalf("after drop: %+v", st)
	}
	// The surviving namespace still answers warm; the dropped one reloads.
	_, cold, _ := m.Acquire("seg2\x00a", loader(&calls, 100))
	m.Release("seg2\x00a")
	if cold {
		t.Fatal("seg2 entry dropped with seg1 namespace")
	}
	_, cold, _ = m.Acquire("seg1\x00a", loader(&calls, 100))
	m.Release("seg1\x00a")
	if !cold {
		t.Fatal("seg1 entry survived DropNamespace")
	}
}

func TestDropNamespacePinnedStraggler(t *testing.T) {
	m := New(0, "")
	var calls atomic.Int64
	// Pinned entry: dropped only when its last pin releases, and it must
	// not re-enter the policy then.
	if _, _, err := m.Acquire("seg1\x00a", loader(&calls, 100)); err != nil {
		t.Fatal(err)
	}
	dropped, _ := m.DropNamespace("seg1\x00")
	if dropped != 0 {
		t.Fatalf("pinned entry dropped while held: %d", dropped)
	}
	m.Release("seg1\x00a")
	if st := m.Stats(); st.ResidentBytes != 0 || st.ResidentItems != 0 {
		t.Fatalf("condemned entry survived release: %+v", st)
	}
	_, cold, _ := m.Acquire("seg1\x00a", loader(&calls, 100))
	m.Release("seg1\x00a")
	if !cold {
		t.Fatal("condemned entry re-entered the cache")
	}
}

// TestPinResidentThenReleaseAll: the batched pin takes the resident keys
// under one lock, counting a hit each, and hands back the cold ones; the
// batched release drops the pins in order, so the first key released is
// the first one the policy may evict.
func TestPinResidentThenReleaseAll(t *testing.T) {
	m := New(250, "")
	var calls atomic.Int64
	for _, k := range []string{"a", "b"} {
		if _, _, err := m.Acquire(k, loader(&calls, 100)); err != nil {
			t.Fatal(err)
		}
		m.Release(k)
	}
	keys := []string{"a", "x", "b"}
	values := make([]any, len(keys))
	cold := m.PinResident(keys, values, nil)
	if len(cold) != 1 || cold[0] != 1 || values[0] == nil || values[1] != nil || values[2] == nil {
		t.Fatalf("PinResident: cold %v, values %v", cold, values)
	}
	if st := m.Stats(); st.Hits != 2 || st.PinnedBytes != 200 {
		t.Fatalf("after PinResident: %+v", st)
	}
	// The cold key overshoots the budget while everything is pinned.
	if _, cold, err := m.Acquire("x", loader(&calls, 100)); err != nil || !cold {
		t.Fatalf("Acquire(x) cold=%v err=%v", cold, err)
	}
	if st := m.Stats(); st.ResidentBytes != 300 || st.Evictions != 0 {
		t.Fatalf("pinned overshoot: %+v", st)
	}
	m.ReleaseAll([]string{"a", "b", "x", "never-pinned"})
	st := m.Stats()
	if st.PinnedBytes != 0 || st.ResidentBytes != 200 || st.Evictions != 1 {
		t.Fatalf("after ReleaseAll: %+v", st)
	}
	if _, cold, _ := m.Acquire("a", loader(&calls, 100)); !cold {
		t.Fatal("the first key released was not the one evicted")
	}
	m.Release("a")
}

// TestDropNamespaceDrainingColdLoad: a draining query that cold-loads one
// more entry of a retired namespace gets it, and its release drops it with
// the stragglers; once they are gone the namespace admits entries again.
func TestDropNamespaceDrainingColdLoad(t *testing.T) {
	m := New(0, "")
	var calls atomic.Int64
	if _, _, err := m.Acquire("seg1\x00a", loader(&calls, 100)); err != nil {
		t.Fatal(err)
	}
	m.DropNamespace("seg1\x00")
	if _, cold, err := m.Acquire("seg1\x00b", loader(&calls, 100)); err != nil || !cold {
		t.Fatalf("draining cold load: cold=%v err=%v", cold, err)
	}
	m.ReleaseAll([]string{"seg1\x00a", "seg1\x00b"})
	if st := m.Stats(); st.ResidentItems != 0 || st.PinnedBytes != 0 {
		t.Fatalf("stragglers survived their release: %+v", st)
	}
	m.Acquire("seg1\x00a", loader(&calls, 100))
	m.Release("seg1\x00a")
	if st := m.Stats(); st.ResidentItems != 1 {
		t.Fatalf("namespace still condemned after its stragglers left: %+v", st)
	}
}
