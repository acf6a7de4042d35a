package ingest

// The crash-recovery property test: kill the filesystem at a random
// point in the write stream, reopen, and require every acknowledged row
// back exactly once, bit-for-bit. This is the test the WAL exists to
// pass — the other ingest tests check the protocol's happy paths; this
// one checks every interleaving of crash point with append, WAL frame,
// fsync, segment build, generation commit, WAL retirement and
// compaction that the write-unit budget can land on.

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"powerdrill/internal/colstore"
	"powerdrill/internal/exec"
	"powerdrill/internal/faultfs"
	"powerdrill/internal/memmgr"
)

const crashBaseRows = 64

// copyTree copies the template store into a fresh trial directory.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, blob, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// abandonForTest simulates the process dying: background goroutines are
// stopped and file handles released, but nothing is sealed, flushed or
// committed — whatever is on disk is what the "restarted process" finds.
func (w *Writer) abandonForTest() {
	w.mu.Lock()
	already := w.closed
	w.closed = true
	mem := w.mem
	sealing := append([]*writeChunk(nil), w.sealing...)
	w.mu.Unlock()
	if !already {
		close(w.done)
	}
	w.wg.Wait()
	if mem != nil && mem.wal != nil {
		_ = mem.wal.close()
	}
	for _, c := range sealing {
		if c.wal != nil {
			_ = c.wal.close()
		}
	}
	w.closeSegments()
}

// crashScript drives one deterministic append workload against dir until
// it completes or the injected filesystem crashes. It returns the global
// row indices of every acknowledged append, and of the batch in flight
// when the crash hit (nil if none): that batch's WAL frame may or may
// not have completed, so recovery may legally include it — whole, at the
// end, or not at all.
func crashScript(t *testing.T, dir string, rng *rand.Rand) (acked []int64, pending []int64) {
	t.Helper()
	lazy, _, err := colstore.OpenLazy(dir, memmgr.New(0, ""))
	if err != nil {
		// The manifest read itself can hit the crashed filesystem.
		return nil, nil
	}
	w, err := Attach(dir, lazy, exec.New(lazy, exec.Options{}), Opts{
		SealRows:           24,
		CompactMinSegments: 3,
		FsyncPolicy:        FsyncAlways,
	})
	if err != nil {
		_ = lazy.Close()
		return nil, nil
	}
	defer func() {
		w.abandonForTest()
		_ = lazy.Close()
	}()

	cur := int64(crashBaseRows)
	for i := 0; i < 14; i++ {
		n := 3 + rng.Intn(12)
		if err := w.Append(rowsTable(int(cur), n)); err != nil {
			for j := int64(0); j < int64(n); j++ {
				pending = append(pending, cur+j)
			}
			return acked, pending
		}
		for j := int64(0); j < int64(n); j++ {
			acked = append(acked, cur+j)
		}
		cur += int64(n)
		if rng.Intn(4) == 0 {
			if err := w.Flush(); err != nil {
				return acked, nil
			}
		}
	}
	return acked, nil
}

// verifyRecovered reopens the trial directory on the real filesystem and
// checks the recovered stream: the base rows plus every acked row,
// optionally followed by the whole pending batch — each exactly once,
// with every column value intact.
func verifyRecovered(t *testing.T, trial int, dir string, acked, pending []int64) {
	t.Helper()
	w := reattach(t, dir, Opts{SealRows: 24, CompactMinSegments: 3})
	defer func() {
		w.abandonForTest()
		_ = w.base.Close()
	}()
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatalf("trial %d: snapshot: %v", trial, err)
	}
	defer snap.Release()
	res, err := query(snap, `SELECT v, c FROM data ORDER BY v;`)
	if err != nil {
		t.Fatalf("trial %d: query: %v", trial, err)
	}

	want := make([]int64, 0, crashBaseRows+len(acked)+len(pending))
	for i := int64(0); i < crashBaseRows; i++ {
		want = append(want, i)
	}
	want = append(want, acked...)
	switch len(res.Rows) {
	case len(want):
	case len(want) + len(pending):
		if len(pending) == 0 {
			t.Fatalf("trial %d: recovered %d rows, want %d", trial, len(res.Rows), len(want))
		}
		// The in-flight batch's frame completed before the crash: it is
		// recovered whole.
		want = append(want, pending...)
	default:
		t.Fatalf("trial %d: recovered %d rows, want %d (or %d with the in-flight batch)",
			trial, len(res.Rows), len(want), len(want)+len(pending))
	}
	for i, row := range res.Rows {
		v := row[0].Int()
		if v != want[i] {
			t.Fatalf("trial %d: row %d has v=%d, want %d (lost or duplicated row)", trial, i, v, want[i])
		}
		if c := row[1].Str(); c != "c"+strconv.Itoa(int(v%5)) {
			t.Fatalf("trial %d: row v=%d has c=%q (corrupt value)", trial, v, c)
		}
	}
}

// TestCrashRecoveryProperty is the randomized kill-point sweep. Each
// trial copies a pristine base store, measures the workload's total
// write units with a dry run, then re-runs it with the budget cut at a
// uniformly random unit and requires recovery to be exact. Trials reuse
// the process-global filesystem seam, so this test must not run in
// parallel with other disk-touching tests.
func TestCrashRecoveryProperty(t *testing.T) {
	trials := 200
	if testing.Short() {
		trials = 25
	}

	tmpl := t.TempDir()
	cs, err := colstore.FromTable(rowsTable(0, crashBaseRows), baseOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := colstore.Save(cs, tmpl, "zippy"); err != nil {
		t.Fatal(err)
	}

	root := t.TempDir()
	for trial := 0; trial < trials; trial++ {
		seed := int64(1000 + trial)

		// Dry run: same script, unlimited budget, count write units.
		dryDir := filepath.Join(root, fmt.Sprintf("dry-%03d", trial))
		copyTree(t, tmpl, dryDir)
		dry := faultfs.NewInjector(faultfs.OS{}, faultfs.InjectorOptions{WriteBudget: -1})
		restore := faultfs.Swap(dry)
		dryAcked, dryPending := crashScript(t, dryDir, rand.New(rand.NewSource(seed)))
		restore()
		units := dry.Stats().Units
		if len(dryPending) != 0 || units <= 0 {
			t.Fatalf("trial %d: dry run failed (units=%d, pending=%d)", trial, units, len(dryPending))
		}
		_ = os.RemoveAll(dryDir)

		// Crash run: cut the write stream at a random unit.
		kill := 1 + rand.New(rand.NewSource(seed*7919)).Int63n(units)
		dir := filepath.Join(root, fmt.Sprintf("trial-%03d", trial))
		copyTree(t, tmpl, dir)
		inj := faultfs.NewInjector(faultfs.OS{}, faultfs.InjectorOptions{WriteBudget: kill})
		restore = faultfs.Swap(inj)
		acked, pending := crashScript(t, dir, rand.New(rand.NewSource(seed)))
		restore()
		if len(acked) == len(dryAcked) && !inj.Crashed() {
			// Budget outlasted the workload (background compaction makes
			// unit totals vary slightly): a clean run must still verify.
			pending = nil
		}

		verifyRecovered(t, trial, dir, acked, pending)
		_ = os.RemoveAll(dir)
	}
}
