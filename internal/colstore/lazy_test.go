package colstore

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"powerdrill/internal/memmgr"
	"powerdrill/internal/workload"
)

// buildSavedStore imports a synthetic table and persists it.
func buildSavedStore(t *testing.T, rows int, codec string) (*Store, string) {
	t.Helper()
	return buildSavedStoreDict(t, rows, codec, StringDictArray)
}

// buildSavedStoreDict is buildSavedStore with string dictionaries of kind sd.
func buildSavedStoreDict(t *testing.T, rows int, codec string, sd StringDictKind) (*Store, string) {
	t.Helper()
	tbl := workload.QueryLogs(workload.LogsSpec{Rows: rows, Seed: 7})
	s, err := FromTable(tbl, Options{
		PartitionFields:  []string{"country", "table_name"},
		MaxChunkRows:     500,
		OptimizeElements: true,
		StringDict:       sd,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Save(s, dir, codec); err != nil {
		t.Fatal(err)
	}
	return s, dir
}

// assertColumnsEqual compares every value of every column of two stores.
func assertColumnsEqual(t *testing.T, want, got *Store) {
	t.Helper()
	wantCols := want.Columns()
	gotCols := got.Columns()
	if len(wantCols) != len(gotCols) {
		t.Fatalf("column count %d vs %d", len(wantCols), len(gotCols))
	}
	for _, name := range wantCols {
		wc, gc := want.Column(name), got.Column(name)
		if wc == nil || gc == nil {
			t.Fatalf("column %q missing (want %v, got %v)", name, wc != nil, gc != nil)
		}
		if wc.Kind != gc.Kind || len(wc.Chunks) != len(gc.Chunks) {
			t.Fatalf("column %q shape mismatch", name)
		}
		for ci := range wc.Chunks {
			rows := wc.Chunks[ci].Rows()
			if rows != gc.Chunks[ci].Rows() {
				t.Fatalf("column %q chunk %d rows mismatch", name, ci)
			}
			for r := 0; r < rows; r++ {
				if !wc.ValueAt(ci, r).Equal(gc.ValueAt(ci, r)) {
					t.Fatalf("column %q chunk %d row %d: %v != %v",
						name, ci, r, wc.ValueAt(ci, r), gc.ValueAt(ci, r))
				}
			}
		}
	}
}

func TestOpenLazyMatchesOpen(t *testing.T) {
	for _, codec := range []string{"", "zippy"} {
		name := codec
		if name == "" {
			name = "raw"
		}
		t.Run(name, func(t *testing.T) {
			built, dir := buildSavedStore(t, 3000, codec)
			eager, _, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			lazy, stats, err := OpenLazy(dir, memmgr.New(0, ""))
			if err != nil {
				t.Fatal(err)
			}
			if stats.Files != 1 {
				t.Fatalf("lazy open read %d files, want manifest only", stats.Files)
			}
			if lazy.NumRows() != built.NumRows() || lazy.NumChunks() != built.NumChunks() {
				t.Fatalf("lazy shape %d/%d, want %d/%d",
					lazy.NumRows(), lazy.NumChunks(), built.NumRows(), built.NumChunks())
			}
			assertColumnsEqual(t, eager, lazy)
		})
	}
}

func TestReaderSingleChunk(t *testing.T) {
	_, dir := buildSavedStore(t, 2000, "zippy")
	eager, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := NewReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range eager.Columns() {
		want := eager.Column(name)
		for ci := range want.Chunks {
			ch, disk, err := r.LoadColumnChunk(name, ci)
			if err != nil {
				t.Fatalf("column %q chunk %d: %v", name, ci, err)
			}
			if disk <= 0 {
				t.Fatalf("column %q chunk %d: no disk bytes charged", name, ci)
			}
			wch := want.Chunks[ci]
			if ch.Rows() != wch.Rows() || ch.Cardinality() != wch.Cardinality() {
				t.Fatalf("column %q chunk %d shape mismatch", name, ci)
			}
			for i, gid := range wch.GlobalIDs {
				if ch.GlobalIDs[i] != gid {
					t.Fatalf("column %q chunk %d gid %d mismatch", name, ci, i)
				}
			}
			for rIdx := 0; rIdx < wch.Rows(); rIdx++ {
				if ch.Elems.At(rIdx) != wch.Elems.At(rIdx) {
					t.Fatalf("column %q chunk %d elem %d mismatch", name, ci, rIdx)
				}
			}
		}
	}
	if _, _, err := r.LoadColumnChunk("country", 9999); err == nil {
		t.Fatal("out-of-range chunk should error")
	}
	if _, _, err := r.LoadColumnChunk("nope", 0); err == nil {
		t.Fatal("unknown column should error")
	}
}

func TestLazyEvictionReloadDeterministic(t *testing.T) {
	_, dir := buildSavedStore(t, 3000, "zippy")
	eager, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Budget fits roughly one column: every full sweep over all columns
	// evicts and reloads.
	var total int64
	for _, name := range eager.Columns() {
		total += eager.Column(name).Memory().Total()
	}
	budget := total / int64(len(eager.Columns()))
	mgr := memmgr.New(budget, "")
	lazy, _, err := OpenLazy(dir, mgr)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		assertColumnsEqual(t, eager, lazy)
	}
	st := mgr.Stats()
	if st.Evictions == 0 {
		t.Fatalf("expected evictions with budget %d of %d total: %+v", budget, total, st)
	}
	if st.ResidentBytes > budget {
		t.Fatalf("resident %d exceeds budget %d at rest", st.ResidentBytes, budget)
	}
}

func TestPinSetColdWarmCounters(t *testing.T) {
	_, dir := buildSavedStore(t, 2000, "")
	mgr := memmgr.New(0, "")
	lazy, _, err := OpenLazy(dir, mgr)
	if err != nil {
		t.Fatal(err)
	}
	ps := lazy.NewPinSet()
	if _, err := ps.Column("country"); err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Column("latency"); err != nil {
		t.Fatal(err)
	}
	// Re-asking for a held column must not double-count or double-pin.
	if _, err := ps.Column("country"); err != nil {
		t.Fatal(err)
	}
	if ps.ColdLoads != 2 || ps.ColdBytesLoaded <= 0 || ps.DiskBytesRead <= 0 {
		t.Fatalf("cold counters = %d/%d/%d", ps.ColdLoads, ps.ColdBytesLoaded, ps.DiskBytesRead)
	}
	ps.Release()
	if st := mgr.Stats(); st.PinnedBytes != 0 {
		t.Fatalf("pinned bytes %d after release", st.PinnedBytes)
	}
	warm := lazy.NewPinSet()
	if _, err := warm.Column("country"); err != nil {
		t.Fatal(err)
	}
	if warm.ColdLoads != 0 {
		t.Fatalf("warm pin reported %d cold loads", warm.ColdLoads)
	}
	warm.Release()
	if _, err := lazy.NewPinSet().Column("nope"); err == nil {
		t.Fatal("unknown column should error")
	}
}

func TestPinnedColumnsSurviveTinyBudget(t *testing.T) {
	_, dir := buildSavedStore(t, 2000, "")
	mgr := memmgr.New(1, "") // nothing fits unpinned
	lazy, _, err := OpenLazy(dir, mgr)
	if err != nil {
		t.Fatal(err)
	}
	ps := lazy.NewPinSet()
	c1, err := ps.Column("country")
	if err != nil {
		t.Fatal(err)
	}
	// Load other columns while "country" stays pinned.
	for _, other := range []string{"latency", "user", "table_name"} {
		if _, err := ps.Column(other); err != nil {
			t.Fatal(err)
		}
	}
	c2, err := ps.Column("country")
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("pinned column identity changed mid-set")
	}
	ps.Release()
	if st := mgr.Stats(); st.ResidentBytes != 0 {
		t.Fatalf("budget 1: resident %d after release", st.ResidentBytes)
	}
}

func TestLazyConcurrentReaders(t *testing.T) {
	_, dir := buildSavedStore(t, 3000, "zippy")
	eager, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, name := range eager.Columns() {
		total += eager.Column(name).Memory().Total()
	}
	mgr := memmgr.New(total/3, "")
	lazy, _, err := OpenLazy(dir, mgr)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	cols := eager.Columns()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				name := cols[(w+i)%len(cols)]
				ps := lazy.NewPinSet()
				col, err := ps.Column(name)
				if err != nil {
					t.Error(err)
					ps.Release()
					return
				}
				wantCol := eager.Column(name)
				if !col.ValueAt(0, 0).Equal(wantCol.ValueAt(0, 0)) {
					t.Errorf("column %q first value mismatch", name)
				}
				ps.Release()
			}
		}(w)
	}
	wg.Wait()
	if st := mgr.Stats(); st.PinnedBytes != 0 {
		t.Fatalf("pinned %d after concurrent churn", st.PinnedBytes)
	}
}

// TestLoadColumnDict checks the dictionary-only load path against the
// fully decoded column, raw and compressed (one exact head-record read).
func TestLoadColumnDict(t *testing.T) {
	for _, codec := range []string{"", "zippy"} {
		name := codec
		if name == "" {
			name = "raw"
		}
		t.Run(name, func(t *testing.T) {
			_, dir := buildSavedStore(t, 2000, codec)
			eager, _, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			r, _, err := NewReader(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range eager.Columns() {
				want := eager.Column(name).Dict
				d, disk, err := r.LoadColumnDict(name)
				if err != nil {
					t.Fatalf("column %q: %v", name, err)
				}
				if disk <= 0 {
					t.Fatalf("column %q: no disk bytes charged", name)
				}
				if d.Len() != want.Len() {
					t.Fatalf("column %q: dict len %d, want %d", name, d.Len(), want.Len())
				}
				for i := 0; i < d.Len(); i++ {
					if !d.Value(uint32(i)).Equal(want.Value(uint32(i))) {
						t.Fatalf("column %q dict entry %d mismatch", name, i)
					}
				}
			}
			if _, _, err := r.LoadColumnDict("nope"); err == nil {
				t.Fatal("unknown column should error")
			}
		})
	}
}

// TestChunkSpansMatchChunks checks that the spans the layout records are
// exactly the first/last global-ids of each chunk-dictionary.
func TestChunkSpansMatchChunks(t *testing.T) {
	_, dir := buildSavedStore(t, 2000, "")
	eager, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	lazy, _, err := OpenLazy(dir, memmgr.New(0, ""))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range eager.Columns() {
		want, err := eager.NewPinSet().ChunkSpans(name) // computed from resident chunks
		if err != nil {
			t.Fatalf("no spans on resident store for %q: %v", name, err)
		}
		ps := lazy.NewPinSet()
		got, err := ps.ChunkSpans(name) // read from the layout record
		ps.Release()
		if err != nil {
			t.Fatalf("no spans on lazy store for %q: %v", name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("column %q: %d spans, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("column %q chunk %d: span %+v, want %+v", name, i, got[i], want[i])
			}
		}
	}
}

// TestColumnErrSurfacesLoadFailures pins the bugfix: Store.Column swallows
// lazy-load errors into nil, ColumnErr surfaces them.
func TestColumnErrSurfacesLoadFailures(t *testing.T) {
	_, dir := buildSavedStore(t, 1000, "")
	lazy, _, err := OpenLazy(dir, memmgr.New(0, ""))
	if err != nil {
		t.Fatal(err)
	}
	// Destroy a column file behind the store's back.
	matches, err := filepath.Glob(filepath.Join(dir, "col_*.bin"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no column files: %v", err)
	}
	for _, m := range matches {
		if err := os.Remove(m); err != nil {
			t.Fatal(err)
		}
	}
	if c := lazy.Column("country"); c != nil {
		t.Fatal("Column returned a column from deleted files")
	}
	if _, err := lazy.ColumnErr("country"); err == nil {
		t.Fatal("ColumnErr swallowed the load failure")
	}
	if _, err := lazy.ColumnErr("missing"); err == nil {
		t.Fatal("ColumnErr accepted an unknown column")
	}
}
