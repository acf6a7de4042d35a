package ingest

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"powerdrill/internal/colstore"
	"powerdrill/internal/exec"
	"powerdrill/internal/memmgr"
	"powerdrill/internal/sql"
	"powerdrill/internal/table"
)

// query parses src and runs it on the snapshot.
func query(s *Snapshot, src string) (*exec.Result, error) {
	stmt, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	return s.RunContext(context.Background(), stmt)
}

// rowsTable builds rows [start, start+n) of the deterministic test
// stream: v is the global row index, c cycles through five groups. The
// closed forms below follow from that, so any prefix of the stream has
// exactly computable aggregates.
func rowsTable(start, n int) *table.Table {
	vs := make([]int64, n)
	cs := make([]string, n)
	for i := 0; i < n; i++ {
		vs[i] = int64(start + i)
		cs[i] = "c" + strconv.Itoa((start+i)%5)
	}
	return table.New("data").AddInt64Column("v", vs).AddStringColumn("c", cs)
}

var baseOpts = colstore.Options{
	PartitionFields:  []string{"c"},
	Reorder:          true,
	OptimizeElements: true,
	MaxChunkRows:     256,
}

// newBase builds and persists a base store of rows [0, rows), opens it
// lazily and returns its directory, store and engine.
func newBase(t *testing.T, rows int) (string, *colstore.Store, *exec.Engine) {
	t.Helper()
	dir := t.TempDir()
	cs, err := colstore.FromTable(rowsTable(0, rows), baseOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := colstore.Save(cs, dir, "zippy"); err != nil {
		t.Fatal(err)
	}
	lazy, _, err := colstore.OpenLazy(dir, memmgr.New(0, ""))
	if err != nil {
		t.Fatal(err)
	}
	return dir, lazy, exec.New(lazy, exec.Options{})
}

// reattach opens dir fresh — new memory manager, new base store, new
// writer — as a restarted process would.
func reattach(t *testing.T, dir string, opts Opts) *Writer {
	t.Helper()
	lazy, _, err := colstore.OpenLazy(dir, memmgr.New(0, ""))
	if err != nil {
		t.Fatal(err)
	}
	w, err := Attach(dir, lazy, exec.New(lazy, exec.Options{}), opts)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// countSegDirs counts segment directories under segs/, ignoring the WAL
// files that share the subdirectory.
func countSegDirs(t *testing.T, dir string) int {
	t.Helper()
	ents, _ := os.ReadDir(filepath.Join(dir, segsSubdir))
	n := 0
	for _, ent := range ents {
		if ent.IsDir() {
			n++
		}
	}
	return n
}

// checkPrefix asserts a snapshot covers exactly the first n rows of the
// stream: COUNT(*), SUM(v), MIN(v), MAX(v) globally and per group.
func checkPrefix(t *testing.T, snap *Snapshot, n int) {
	t.Helper()
	res, err := query(snap, `SELECT COUNT(*) AS cnt, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi FROM data;`)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	wantSum := int64(n) * int64(n-1) / 2
	if row[0].Int() != int64(n) || row[1].Int() != wantSum || row[2].Int() != 0 || row[3].Int() != int64(n-1) {
		t.Fatalf("prefix %d: got cnt=%d sum=%d lo=%d hi=%d, want cnt=%d sum=%d lo=0 hi=%d",
			n, row[0].Int(), row[1].Int(), row[2].Int(), row[3].Int(), n, wantSum, n-1)
	}
	byGroup, err := query(snap, `SELECT c, COUNT(*) AS cnt FROM data GROUP BY c ORDER BY c;`)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, r := range byGroup.Rows {
		g, _ := strconv.Atoi(r[0].Str()[1:])
		// Group g holds rows g, g+5, g+10, ...: ceil((n-g)/5) of the
		// first n rows.
		want := int64((n - g + 4) / 5)
		if r[1].Int() != want {
			t.Fatalf("prefix %d: group %s count = %d, want %d", n, r[0].Str(), r[1].Int(), want)
		}
		total += r[1].Int()
	}
	if total != int64(n) {
		t.Fatalf("prefix %d: group counts sum to %d", n, total)
	}
}

func TestAppendSealQueryReopen(t *testing.T) {
	dir, base, eng := newBase(t, 1000)
	w, err := Attach(dir, base, eng, Opts{SealRows: 300, CompactMinSegments: 100})
	if err != nil {
		t.Fatal(err)
	}
	for start := 1000; start < 1500; start += 50 {
		if err := w.Append(rowsTable(start, 50)); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	checkPrefix(t, snap, 1500)
	// v is unsorted within the c-partitioned chunks: an equality on it is
	// decided chunk by chunk on the spans and chunk dictionaries, in the
	// base (13) and in the first sealed segment (1052). The merged scan
	// must report every unit's skipped chunks.
	stmt, err := sql.Parse(`SELECT v FROM data WHERE v IN (13, 1052) ORDER BY v;`)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := snap.Run(stmt)
	if err != nil {
		t.Fatal(err)
	}
	var skipped, unitsSkipping int64
	for _, u := range snap.units {
		res, err := u.eng.Run(stmt)
		if err != nil {
			t.Fatal(err)
		}
		skipped += res.Stats.ChunksSkipped
		if res.Stats.ChunksSkipped > 0 {
			unitsSkipping++
		}
	}
	if len(merged.Rows) != 2 || unitsSkipping < 2 || merged.Stats.ChunksSkipped != skipped {
		t.Fatalf("merged row scan: %d rows, ChunksSkipped %d; %d units skip, summing to %d (want 2 rows, equal, from 2 or more units)",
			len(merged.Rows), merged.Stats.ChunksSkipped, unitsSkipping, skipped)
	}
	snap.Release()

	st := w.Stats()
	if st.Seals == 0 || st.Segments == 0 {
		t.Fatalf("expected at least one seal, got %+v", st)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// A restarted process sees every sealed row; Close flushed the rest.
	w2 := reattach(t, dir, Opts{})
	defer w2.Close()
	if got := w2.Rows(); got != 1500 {
		t.Fatalf("reopened rows = %d, want 1500", got)
	}
	snap2, err := w2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap2.Release()
	checkPrefix(t, snap2, 1500)
}

func TestRowScanAcrossGenerations(t *testing.T) {
	dir, base, eng := newBase(t, 40)
	w, err := Attach(dir, base, eng, Opts{SealRows: 25, CompactMinSegments: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(rowsTable(40, 30)); err != nil {
		t.Fatal(err)
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	// Rows live in base, a sealed segment and the write buffer; ORDER BY
	// and LIMIT must apply to the merged scan, not per unit.
	res, err := query(snap, `SELECT v FROM data WHERE c = "c2" ORDER BY v DESC LIMIT 4;`)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{67, 62, 57, 52}
	if len(res.Rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(res.Rows), len(want))
	}
	for i, r := range res.Rows {
		if r[0].Int() != want[i] {
			t.Fatalf("row %d = %d, want %d", i, r[0].Int(), want[i])
		}
	}
}

// TestSnapshotConsistencyUnderConcurrency is the race test: one appender
// streams batches while queriers snapshot and compactions run. Every
// snapshot must be an exact prefix of the append stream (closed-form
// aggregates), and repeated queries on one snapshot must be bit-for-bit
// identical.
func TestSnapshotConsistencyUnderConcurrency(t *testing.T) {
	const baseRows, appendRows, batch = 500, 2000, 37
	dir, base, eng := newBase(t, baseRows)
	w, err := Attach(dir, base, eng, Opts{SealRows: 200, CompactMinSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for start := baseRows; start < baseRows+appendRows; start += batch {
			n := batch
			if start+n > baseRows+appendRows {
				n = baseRows + appendRows - start
			}
			if err := w.Append(rowsTable(start, n)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for q := 0; q < 3; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap, err := w.Snapshot()
				if err != nil {
					t.Error(err)
					return
				}
				n := int(snap.NumRows())
				if n < baseRows || n > baseRows+appendRows {
					t.Errorf("snapshot rows = %d out of range", n)
				}
				checkPrefix(t, snap, n)
				// Bit-for-bit repeatability on one snapshot.
				q1, err1 := query(snap, `SELECT c, COUNT(*) AS cnt, SUM(v) AS s FROM data GROUP BY c ORDER BY c;`)
				q2, err2 := query(snap, `SELECT c, COUNT(*) AS cnt, SUM(v) AS s FROM data GROUP BY c ORDER BY c;`)
				if err1 != nil || err2 != nil {
					t.Error(err1, err2)
				} else if fmt.Sprint(q1.Rows) != fmt.Sprint(q2.Rows) {
					t.Errorf("snapshot not repeatable:\n%v\n%v", q1.Rows, q2.Rows)
				}
				snap.Release()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := w.CompactNow(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	checkPrefix(t, snap, baseRows+appendRows)
}

// TestCrashBetweenSegmentAndCommit simulates the durability protocol's
// crash window: the process dies after the segment directory is written
// but before the generation manifest is claimed. A reopen must see
// exactly the previous generation and garbage-collect the orphan.
func TestCrashBetweenSegmentAndCommit(t *testing.T) {
	dir, base, eng := newBase(t, 100)
	w, err := Attach(dir, base, eng, Opts{SealRows: 10_000, CompactMinSegments: 100})
	if err != nil {
		t.Fatal(err)
	}
	// One committed generation first, so the crash has something to fall
	// back to.
	if err := w.Append(rowsTable(100, 50)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Now crash mid-seal.
	if err := w.Append(rowsTable(150, 30)); err != nil {
		t.Fatal(err)
	}
	w.testBeforeCommit = func() { panic("simulated crash") }
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected simulated crash")
			}
		}()
		_ = w.Flush()
	}()

	// The orphan segment directory exists but no manifest references it.
	m, gen, err := readGenerations(dir)
	if err != nil || m == nil {
		t.Fatalf("readGenerations: %v %v", m, err)
	}
	if gen != 1 || len(m.Segments) != 1 || m.Segments[0].Rows != 50 {
		t.Fatalf("post-crash manifest = %+v (gen %d)", m, gen)
	}
	if n := countSegDirs(t, dir); n != 2 {
		t.Fatalf("expected committed segment + orphan, got %d dirs", n)
	}

	// Reopen: previous generation stays authoritative and the orphan is
	// collected, but the crashed seal's 30 rows were acknowledged appends
	// — WAL replay brings them back into the write buffer.
	w2 := reattach(t, dir, Opts{})
	defer w2.Close()
	if got := w2.Rows(); got != 180 {
		t.Fatalf("reopened rows = %d, want 180 (acked rows must survive the crashed seal)", got)
	}
	snap, err := w2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	checkPrefix(t, snap, 180)
	if n := countSegDirs(t, dir); n != 1 {
		t.Fatalf("orphan segment not collected: %d dirs", n)
	}
}

// TestCompactionRetiresSegments: compaction folds segments into one; a
// snapshot pinned across it keeps its generation bit-for-bit, and the
// superseded segment directories are destroyed only at its release.
func TestCompactionRetiresSegments(t *testing.T) {
	dir, base, eng := newBase(t, 200)
	w, err := Attach(dir, base, eng, Opts{SealRows: 100, CompactMinSegments: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for start := 200; start < 600; start += 100 {
		if err := w.Append(rowsTable(start, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	before := w.Stats()
	if before.Segments < 2 {
		t.Fatalf("need ≥2 segments, got %d", before.Segments)
	}

	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	pinnedRes, err := query(snap, `SELECT c, SUM(v) AS s FROM data GROUP BY c ORDER BY c;`)
	if err != nil {
		t.Fatal(err)
	}

	cst, err := w.CompactNow()
	if err != nil {
		t.Fatal(err)
	}
	if cst.Merged != before.Segments || cst.MergedRows != 400 {
		t.Fatalf("compact stats = %+v", cst)
	}
	after := w.Stats()
	if after.Segments != 1 {
		t.Fatalf("segments after compact = %d", after.Segments)
	}

	// The pinned snapshot still reads its retired segments, identically.
	again, err := query(snap, `SELECT c, SUM(v) AS s FROM data GROUP BY c ORDER BY c;`)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(pinnedRes.Rows) != fmt.Sprint(again.Rows) {
		t.Fatalf("pinned snapshot changed across compaction:\n%v\n%v", pinnedRes.Rows, again.Rows)
	}
	if n := countSegDirs(t, dir); n != before.Segments+1 {
		t.Fatalf("retired dirs destroyed while pinned: %d dirs", n)
	}

	snap.Release()
	if n := countSegDirs(t, dir); n != 1 {
		t.Fatalf("retired dirs not destroyed at release: %d dirs", n)
	}

	// Fresh snapshots see the merged segment with the same answer.
	snap2, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap2.Release()
	checkPrefix(t, snap2, 600)
}

func TestAppendValidation(t *testing.T) {
	dir, base, eng := newBase(t, 10)
	w, err := Attach(dir, base, eng, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(table.New("data").AddInt64Column("v", []int64{1})); err == nil {
		t.Fatal("missing column accepted")
	}
	bad := table.New("data").AddStringColumn("v", []string{"x"}).AddStringColumn("c", []string{"y"})
	if err := w.Append(bad); err == nil {
		t.Fatal("wrong kind accepted")
	}
	if !HasGenerations(dir) {
		// No seal yet — directory must not carry generations.
		t.Log("no generations before first seal, as expected")
	}
}
