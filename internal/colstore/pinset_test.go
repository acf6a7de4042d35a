package colstore

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"testing"

	"powerdrill/internal/memmgr"
	"powerdrill/internal/workload"
)

// TestColumnChunksPinsWarmBeforeCold: a column whose first half is warm,
// under a budget that holds about that half, is pinned whole by one
// ColumnChunks call that cold-loads exactly the other half. Pinning the
// warm half before loading the cold one is what keeps the call's own cold
// batch from evicting the chunks it found resident, and from reloading
// them one at a time outside the coalesced read.
func TestColumnChunksPinsWarmBeforeCold(t *testing.T) {
	t.Run("2q", func(t *testing.T) {
		const col = "latency"
		_, dir := buildSavedStore(t, 30000, "zippy")
		eager, _, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		n := eager.NumChunks()
		if n < 60 {
			t.Fatalf("store has %d chunks, want at least 60", n)
		}
		half := n / 2
		full := eager.Column(col)
		budget := full.Dict.MemoryBytes() + savedLayout(t, dir, col).memoryBytes()
		warm := make([]bool, n)
		for ci := 0; ci < half; ci++ {
			ch := full.Chunks[ci]
			budget += ch.MemoryElements() + ch.MemoryChunkDict()
			warm[ci] = true
		}
		mgr := memmgr.New(budget, "")
		lazy, _, err := OpenLazy(dir, mgr)
		if err != nil {
			t.Fatal(err)
		}
		ps := lazy.NewPinSet()
		if _, err := ps.ColumnChunks(col, warm); err != nil {
			t.Fatal(err)
		}
		ids := make([]uint32, full.Dict.Len())
		for i := range ids {
			ids[i] = uint32(i)
		}
		if _, err := ps.Values(col, ids); err != nil { // every dictionary frame
			t.Fatal(err)
		}
		ps.Release()
		want := half + 1 + savedLayout(t, dir, col).numFrames()
		if st := mgr.Stats(); st.Evictions != 0 || st.ResidentItems != want {
			t.Fatalf("warm-up left %d entries resident, %d evictions; want %d, 0", st.ResidentItems, st.Evictions, want)
		}
		ps = lazy.NewPinSet()
		view, err := ps.ColumnChunks(col, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ps.ColdChunkLoads != int64(n-half) {
			t.Fatalf("ColumnChunks cold-loaded %d chunks, want the %d not resident before it", ps.ColdChunkLoads, n-half)
		}
		for ci, ch := range view.Chunks {
			if ch == nil || ch.Rows() != full.Chunks[ci].Rows() {
				t.Fatalf("chunk %d not pinned into the view", ci)
			}
		}
		ps.Release()
		if st := mgr.Stats(); st.PinnedBytes != 0 || st.ResidentBytes > budget {
			t.Fatalf("after release: pinned %d, resident %d of a %d budget", st.PinnedBytes, st.ResidentBytes, budget)
		}
	})
}

// TestPinChunksChecksumMidBatch: a corrupt record in the middle of a cold
// batch fails the pin with its ChecksumError, counted once, at every worker
// count. The chunks before it in admission order are admitted; those
// decoded after it are dropped, and nothing stays pinned after Release.
func TestPinChunksChecksumMidBatch(t *testing.T) {
	built, dir := buildSavedStore(t, 8000, "zippy")
	col := built.Columns()[0]
	n := built.NumChunks()
	if n < 8 {
		t.Fatalf("store has %d chunks, want at least 8", n)
	}
	mid := n / 2
	r, _, err := NewReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	off, size, err := r.ChunkFileRange(col, mid)
	if err != nil {
		t.Fatal(err)
	}
	flipBit(t, filepath.Join(dir, "col_0000.bin"), off+size/2)
	for _, workers := range []int{1, 4} {
		mgr := memmgr.New(0, "")
		lazy, _, err := OpenLazy(dir, mgr)
		if err != nil {
			t.Fatal(err)
		}
		ps := lazy.NewPinSet()
		_, err = ps.PinChunks(context.Background(), []string{col}, nil, workers)
		var ce *ChecksumError
		if !errors.As(err, &ce) {
			t.Fatalf("%d workers: err = %v, want a ChecksumError", workers, err)
		}
		if ps.ChecksumFailed != 1 || ps.ColdChunkLoads != int64(mid) {
			t.Fatalf("%d workers: %d checksum failures, %d chunks admitted; want 1, %d", workers, ps.ChecksumFailed, ps.ColdChunkLoads, mid)
		}
		ps.Release()
		if st := mgr.Stats(); st.PinnedBytes != 0 || st.ResidentItems != mid+1 {
			t.Fatalf("%d workers: after release %d bytes pinned, %d entries resident; want 0, %d (and the layout)", workers, st.PinnedBytes, st.ResidentItems, mid)
		}
		lazy.Close()
	}
}

// BenchmarkWarmPin pins and releases every chunk, dictionary frame and
// layout of three columns of a warm store opened lazily with no budget: the price a
// query pays for residency when nothing is cold. ns/pin and allocs/pin
// divide by the entries pinned.
func BenchmarkWarmPin(b *testing.B) {
	cols := []string{"country", "latency", "user"}
	s, err := FromTable(workload.QueryLogs(workload.LogsSpec{Rows: 60000, Seed: 7}), Options{
		PartitionFields:  []string{"country", "table_name"},
		MaxChunkRows:     500,
		OptimizeElements: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if err := Save(s, dir, "zippy"); err != nil {
		b.Fatal(err)
	}
	lazy, _, err := OpenLazy(dir, memmgr.New(0, ""))
	if err != nil {
		b.Fatal(err)
	}
	pinAll := func() int {
		ps := lazy.NewPinSet()
		for _, col := range cols {
			if _, err := ps.Column(col); err != nil {
				b.Fatal(err)
			}
		}
		n := len(ps.keys)
		ps.Release()
		return n
	}
	pins := pinAll() // load everything once
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pinAll()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	total := float64(b.N * pins)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/pin")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/pin")
}
