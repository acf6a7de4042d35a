package exec

import (
	"sync"
	"testing"

	"powerdrill/internal/colstore"
	"powerdrill/internal/compress"
	"powerdrill/internal/memmgr"
	"powerdrill/internal/value"
)

// activeChunkIndices returns the chunk indices of the column that contain
// the value — the ground-truth active set of `column = val`.
func activeChunkIndices(t *testing.T, s *colstore.Store, column, val string) []int {
	t.Helper()
	col, err := s.ColumnErr(column)
	if err != nil {
		t.Fatal(err)
	}
	gid, ok := col.Dict.Lookup(value.String(val))
	if !ok {
		t.Fatalf("value %q not in %q dictionary", val, column)
	}
	var idx []int
	for ci, ch := range col.Chunks {
		if _, found := ch.ChunkID(gid); found {
			idx = append(idx, ci)
		}
	}
	return idx
}

// framesHolding returns how many of the named column's dictionary frames
// hold the values, and their file bytes, from the store's layout at r: the
// frame entries a lazy lookup of those values loads.
func framesHolding(t *testing.T, r *colstore.Reader, s *colstore.Store, column string, vals []value.Value) (n, disk int64) {
	t.Helper()
	_, frames, _, err := r.ColumnRecords(column)
	if err != nil {
		t.Fatal(err)
	}
	d := s.Column(column).Dict
	held := map[int]bool{}
	for _, v := range vals {
		id, ok := d.Lookup(v)
		if !ok {
			t.Fatalf("%s: no value %v", column, v)
		}
		for i, base := 0, 0; i < len(frames); i++ {
			if base += frames[i].Values; int(id) < base {
				if !held[i] {
					held[i] = true
					n++
					disk += frames[i].Len
				}
				break
			}
		}
	}
	return n, disk
}

// columnValues returns column k of the result's rows.
func columnValues(res *Result, k int) []value.Value {
	out := make([]value.Value, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = row[k]
	}
	return out
}

// TestChunkCompressedExactColdReads is the acceptance test of per-chunk
// compression: on a codec-compressed store, a restriction selecting k of n
// chunks must cold-read EXACTLY the k active chunks' compressed byte
// ranges plus the dictionary frames that hold the literal and the groups — DiskBytesRead proportional to k, not
// to the column file size — with contiguous chunks coalesced into fewer
// read runs than chunk loads, and results bit-for-bit identical to the
// fully resident store. The counterpart of PR 3's
// TestChunkGranularExactColdLoads, under compression.
func TestChunkCompressedExactColdReads(t *testing.T) {
	dir := savedReorderedStore(t, 6000, "zippy")
	eagerStore, _, err := colstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	footprint := residentFootprint(t, eagerStore)
	active := activeChunkIndices(t, eagerStore, "country", "de")
	k, n := int64(len(active)), int64(eagerStore.NumChunks())
	if k < 2 || k == n {
		t.Fatalf("degenerate test data: %d of %d chunks contain de", k, n)
	}

	// The exact bytes the query may read: for each touched column, the
	// compressed dictionary record plus the k active chunks' compressed
	// records — straight from the manifest.
	r, _, err := colstore.NewReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wantDisk int64
	for _, col := range []string{"country", "table_name"} {
		for _, ci := range active {
			_, clen, err := r.ChunkFileRange(col, ci)
			if err != nil {
				t.Fatal(err)
			}
			wantDisk += clen
		}
	}

	mgr := memmgr.New(footprint/4, "")
	lazyStore, _, err := colstore.OpenLazy(dir, mgr)
	if err != nil {
		t.Fatal(err)
	}
	eager := New(eagerStore, Options{Parallelism: 2})
	lazy := New(lazyStore, Options{Parallelism: 2})

	q := `SELECT table_name, COUNT(*) AS c FROM data WHERE country = "de" GROUP BY table_name ORDER BY c DESC, table_name ASC;`
	want, err := query(eager, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := query(lazy, q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, q, want, got)

	st := got.Stats
	if st.ActiveChunks != k {
		t.Fatalf("residency marked %d chunks active, %d contain de", st.ActiveChunks, k)
	}
	if st.ColdChunkLoads != 2*k {
		t.Fatalf("cold chunk loads = %d, want exactly 2k = %d", st.ColdChunkLoads, 2*k)
	}
	// And the dictionary frames that hold the literal and the rendered
	// groups: one per frame.
	frames, frameDisk := framesHolding(t, r, eagerStore, "country", []value.Value{value.String("de")})
	groups, groupDisk := framesHolding(t, r, eagerStore, "table_name", columnValues(want, 0))
	wantDisk += frameDisk + groupDisk
	if st.ColdDictLoads != frames+groups {
		t.Fatalf("cold dict loads = %d, want %d frames", st.ColdDictLoads, frames+groups)
	}
	if st.DiskBytesRead != wantDisk {
		t.Fatalf("disk bytes read = %d, want the exact active ranges = %d", st.DiskBytesRead, wantDisk)
	}
	// The reordered store keeps a country's chunks contiguous, so the 2k
	// chunk loads must coalesce into fewer run reads than loads.
	if st.ReadRuns == 0 || st.ReadRuns >= st.ColdChunkLoads {
		t.Fatalf("read runs = %d for %d cold chunk loads; want coalescing", st.ReadRuns, st.ColdChunkLoads)
	}
	if st.CoalescedReads == 0 {
		t.Fatalf("no coalesced reads despite contiguous active chunks: %+v", st)
	}

	// Warm repeat: nothing loads, nothing reads.
	warm, err := query(lazy, q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, q, want, warm)
	if warm.Stats.ColdChunkLoads != 0 || warm.Stats.DiskBytesRead != 0 || warm.Stats.ReadRuns != 0 {
		t.Fatalf("warm repeat touched disk: %+v", warm.Stats)
	}
}

// TestCacheSkippedChunksWarmRepeat is the acceptance test of cache-aware
// residency: with the result cache holding a query's fully-active chunk
// partials, a repeat of the query must answer those chunks WITHOUT pinning
// or loading them — CacheSkippedChunks > 0 with zero cold chunk loads even
// after the budget evicted everything — and stay bit-for-bit identical.
func TestCacheSkippedChunksWarmRepeat(t *testing.T) {
	// Every shape probes under its compiled signature: a plain group column,
	// a GROUP BY alias of a materialized expression, a two-key group-by.
	// dicts are the dictionaries a repeat still reads; cols counts the
	// physical columns the cold pass loads in full.
	for _, c := range []struct {
		q     string
		dicts []string
		cols  int64
	}{
		{`SELECT table_name, COUNT(*) AS c FROM data GROUP BY table_name ORDER BY c DESC, table_name ASC;`,
			[]string{"table_name"}, 1},
		{`SELECT date(timestamp) AS d, COUNT(*) AS c FROM data GROUP BY d ORDER BY c DESC, d ASC;`,
			[]string{"date(timestamp)"}, 1},
		{`SELECT country, table_name, COUNT(*) AS c FROM data GROUP BY country, table_name ORDER BY c DESC, country ASC, table_name ASC;`,
			[]string{"country", "table_name", compositeName([]string{"country", "table_name"})}, 2},
	} {
		t.Run(c.dicts[0], func(t *testing.T) { cacheSkippedWarmRepeat(t, c.q, c.dicts, c.cols) })
	}
}

func cacheSkippedWarmRepeat(t *testing.T, q string, dicts []string, cols int64) {
	dir := savedReorderedStore(t, 6000, "zippy")
	eagerStore, _, err := colstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(eagerStore.NumChunks())
	eager := New(eagerStore, Options{Parallelism: 2})
	want, err := query(eager, q)
	if err != nil {
		t.Fatal(err)
	}

	// A budget below one pass's working set — after the cold query the
	// unpinned chunks cannot all stay, so any chunk reload would have to
	// hit disk — but big enough that the dictionaries a repeat reads fit
	// once nothing else competes.
	var dictBytes int64
	for _, name := range dicts {
		dictBytes += eagerStore.Column(name).Memory().GlobalDict
	}
	mgr := memmgr.New(dictBytes+dictBytes/4, "")
	lazyStore, _, err := colstore.OpenLazy(dir, mgr)
	if err != nil {
		t.Fatal(err)
	}
	lazy := New(lazyStore, Options{Parallelism: 2, ResultCacheBytes: 32 << 20})

	cold, err := query(lazy, q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, q, want, cold)
	if cold.Stats.ColdChunkLoads != cols*n {
		t.Fatalf("cold pass loaded %d chunks, want %d", cold.Stats.ColdChunkLoads, cols*n)
	}
	if cold.Stats.CacheSkippedChunks != 0 {
		t.Fatalf("cold pass reported %d cache-skipped chunks", cold.Stats.CacheSkippedChunks)
	}
	if st := mgr.Stats(); st.Evictions == 0 {
		t.Fatalf("budget never evicted; the warm pass would prove nothing: %+v", st)
	}

	// Repeat: every chunk is fully active (no WHERE) and cached, so none
	// may be pinned or loaded — even though the budget evicted them all.
	// Only the dictionaries may reload (compiling and finalize need them).
	warm, err := query(lazy, q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, q, want, warm)
	if warm.Stats.CacheSkippedChunks != n {
		t.Fatalf("warm repeat cache-skipped %d chunks, want all %d", warm.Stats.CacheSkippedChunks, n)
	}
	if warm.Stats.ColdChunkLoads != 0 {
		t.Fatalf("warm repeat cold-loaded %d chunks despite cached partials", warm.Stats.ColdChunkLoads)
	}
	if warm.Stats.ChunksCached != n {
		t.Fatalf("warm repeat reported %d cached chunks, want %d", warm.Stats.ChunksCached, n)
	}

	// Third pass: the dictionaries are warm again, so the query is entirely
	// I/O-free — zero cold loads of any kind.
	third, err := query(lazy, q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, q, want, third)
	st := third.Stats
	if st.ColdLoads != 0 || st.ColdChunkLoads != 0 || st.ColdDictLoads != 0 || st.DiskBytesRead != 0 {
		t.Fatalf("third pass touched disk: %+v", st)
	}
	if st.CacheSkippedChunks != n {
		t.Fatalf("third pass cache-skipped %d chunks, want %d", st.CacheSkippedChunks, n)
	}
}

// TestCacheSkippedRestricted checks the restricted variant: only the
// span-proven fully active chunks of a selective query are answered from
// the cache; partially active chunks still rescan, and the result stays
// exact.
func TestCacheSkippedRestricted(t *testing.T) {
	dir := savedReorderedStore(t, 6000, "")
	eagerStore, _, err := colstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eager := New(eagerStore, Options{Parallelism: 2})
	lazyStore, _, err := colstore.OpenLazy(dir, memmgr.New(0, ""))
	if err != nil {
		t.Fatal(err)
	}
	lazy := New(lazyStore, Options{Parallelism: 2, ResultCacheBytes: 32 << 20})

	q := `SELECT table_name, COUNT(*) AS c FROM data WHERE country = "de" GROUP BY table_name ORDER BY c DESC, table_name ASC;`
	want, err := query(eager, q)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := query(lazy, q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, q, want, cold)
	warm, err := query(lazy, q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, q, want, warm)
	// The reordered store gives "de" interior chunks a single-value span,
	// which the analysis proves fully active; their cold-pass partials must
	// answer the repeat without loads.
	if warm.Stats.CacheSkippedChunks == 0 {
		t.Fatalf("no cache-skipped chunks on the warm repeat: %+v", warm.Stats)
	}
	if warm.Stats.CacheSkippedChunks < warm.Stats.ActiveChunks && warm.Stats.ChunksScanned == 0 {
		t.Fatalf("partially active chunks should still scan: %+v", warm.Stats)
	}
	if warm.Stats.ActiveChunks != cold.Stats.ActiveChunks {
		t.Fatalf("active-chunk accounting drifted between passes: %d vs %d",
			warm.Stats.ActiveChunks, cold.Stats.ActiveChunks)
	}
}

// TestCompressedCodecsBitIdentical runs a restricted aggregation and a
// multi-column group-by through a budgeted lazy engine for EVERY
// registered codec and demands bit-for-bit equality with the resident
// engine — the end-to-end format round-trip.
func TestCompressedCodecsBitIdentical(t *testing.T) {
	queries := []string{
		`SELECT table_name, COUNT(*) AS c FROM data WHERE country = "de" GROUP BY table_name ORDER BY c DESC, table_name ASC;`,
		`SELECT country, table_name, SUM(latency) AS s FROM data GROUP BY country, table_name ORDER BY s DESC, country ASC, table_name ASC LIMIT 15;`,
		`SELECT country, AVG(latency) AS a FROM data WHERE latency > 200 GROUP BY country ORDER BY a DESC, country ASC;`,
	}
	for _, codec := range compress.Names() {
		t.Run(codec, func(t *testing.T) {
			dir := savedReorderedStore(t, 4000, codec)
			eagerStore, _, err := colstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			budget := residentFootprint(t, eagerStore) / 4
			lazyStore, _, err := colstore.OpenLazy(dir, memmgr.New(budget, ""))
			if err != nil {
				t.Fatal(err)
			}
			eager := New(eagerStore, Options{Parallelism: 2})
			lazy := New(lazyStore, Options{Parallelism: 2})
			for _, q := range queries {
				want, err := query(eager, q)
				if err != nil {
					t.Fatalf("eager %s: %v", q, err)
				}
				got, err := query(lazy, q)
				if err != nil {
					t.Fatalf("lazy %s: %v", q, err)
				}
				assertSameResult(t, q, want, got)
			}
		})
	}
}

// TestColdIOConcurrentCompressed hammers a tightly budgeted per-chunk-
// compressed store with concurrent restricted queries and a shared result
// cache — eviction, coalesced reload, and cache-aware skips racing — and
// checks every answer against the resident engine. Run with -race.
func TestColdIOConcurrentCompressed(t *testing.T) {
	dir := savedReorderedStore(t, 4000, "zippy")
	eagerStore, _, err := colstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	budget := residentFootprint(t, eagerStore) / 5
	mgr := memmgr.New(budget, "")
	lazyStore, _, err := colstore.OpenLazy(dir, mgr)
	if err != nil {
		t.Fatal(err)
	}
	eager := New(eagerStore, Options{Parallelism: 2})
	lazy := New(lazyStore, Options{Parallelism: 2, ResultCacheBytes: 16 << 20})

	queries := []string{
		`SELECT table_name, COUNT(*) AS c FROM data WHERE country = "de" GROUP BY table_name ORDER BY c DESC, table_name ASC;`,
		`SELECT table_name, COUNT(*) AS c FROM data WHERE country = "us" GROUP BY table_name ORDER BY c DESC, table_name ASC;`,
		`SELECT user, SUM(latency) AS s FROM data WHERE country IN ("ch", "jp") GROUP BY user ORDER BY s DESC, user ASC LIMIT 10;`,
		`SELECT country, COUNT(*) AS c FROM data GROUP BY country ORDER BY c DESC, country ASC;`,
		`SELECT country, MIN(latency), MAX(latency) FROM data GROUP BY country ORDER BY country ASC;`,
	}
	want := make(map[string]*Result, len(queries))
	for _, q := range queries {
		r, err := query(eager, q)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = r
	}

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4*len(queries); i++ {
				q := queries[(w+i)%len(queries)]
				got, err := query(lazy, q)
				if err != nil {
					t.Errorf("worker %d: %s: %v", w, q, err)
					return
				}
				assertSameResult(t, q, want[q], got)
			}
		}(w)
	}
	wg.Wait()
	if st := mgr.Stats(); st.PinnedBytes != 0 {
		t.Fatalf("pinned bytes %d after all queries finished", st.PinnedBytes)
	}
	if st := lazy.Stats(); st.CacheSkippedChunks == 0 {
		t.Fatalf("cache-aware skips never engaged under repetition: %+v", st)
	}
	if err := lazyStore.Close(); err != nil {
		t.Fatal(err)
	}
}
