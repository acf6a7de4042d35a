package ingest

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"powerdrill/internal/faultfs"
)

// scrubStore builds a store with base rows, sealed segments and a live
// WAL, then returns its directory with the writer detached.
func scrubStore(t *testing.T) string {
	t.Helper()
	dir, lazy, eng := newBase(t, 100)
	w, err := Attach(dir, lazy, eng, Opts{SealRows: 30})
	if err != nil {
		t.Fatal(err)
	}
	for at := 100; at < 190; at += 10 {
		if err := w.Append(rowsTable(at, 10)); err != nil {
			t.Fatal(err)
		}
	}
	// Flush the bulk, then leave a few rows buffered so the store keeps
	// a live WAL with frames for the scrub to walk.
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(rowsTable(190, 5)); err != nil {
		t.Fatal(err)
	}
	w.abandonForTest()
	if err := lazy.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// findFile returns the verdict whose path ends with suffix.
func findFile(t *testing.T, rep *ScrubReport, suffix string) ScrubFile {
	t.Helper()
	for _, f := range rep.Files {
		if strings.HasSuffix(f.Path, suffix) {
			return f
		}
	}
	t.Fatalf("no verdict for %q in %d files", suffix, len(rep.Files))
	return ScrubFile{}
}

// TestScrubCleanStore: a freshly written store scrubs with zero corrupt
// files, covering base columns, gen manifests, segment columns and the
// live WAL (whose tail is complete, not torn).
func TestScrubCleanStore(t *testing.T) {
	dir := scrubStore(t)
	rep, err := ScrubStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 0 {
		for _, f := range rep.Files {
			if !f.OK() {
				t.Errorf("corrupt: %s (%s): %s", f.Path, f.Kind, f.Err)
			}
		}
		t.Fatalf("clean store scrubs %d corrupt files", rep.Corrupt)
	}
	if rep.Records == 0 {
		t.Fatal("no records verified — checksums not covered by scrub")
	}
	kinds := map[string]int{}
	for _, f := range rep.Files {
		kinds[strings.Fields(f.Kind)[0]]++
	}
	for _, want := range []string{"manifest", "column", "gen-manifest", "wal"} {
		if kinds[want] == 0 {
			t.Errorf("scrub visited no %q files (kinds: %v)", want, kinds)
		}
	}
}

// TestScrubFindsBitFlips: a flipped bit in a base column, a segment
// column, a generation manifest and a retired-position WAL file each
// produce a verdict naming that file.
func TestScrubFindsBitFlips(t *testing.T) {
	dir := scrubStore(t)
	clean, err := ScrubStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Pick one real on-disk file of each kind from the clean report.
	targets := map[string]string{}
	for _, f := range clean.Files {
		kind := strings.Fields(f.Kind)[0]
		if _, seen := targets[kind]; !seen && f.Bytes > 8 {
			targets[kind] = f.Path
		}
	}
	for _, kind := range []string{"column", "gen-manifest"} {
		rel, ok := targets[kind]
		if !ok {
			t.Fatalf("no %s file in clean report", kind)
		}
		path := filepath.Join(dir, rel)
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		corrupt := append([]byte(nil), blob...)
		corrupt[len(corrupt)/2] ^= 0x20
		if err := os.WriteFile(path, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := ScrubStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Corrupt == 0 {
			t.Fatalf("%s: flip in %s not detected", kind, rel)
		}
		if f := findFile(t, rep, filepath.Base(rel)); f.OK() {
			t.Fatalf("%s: verdict for %s is clean despite flip", kind, rel)
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScrubWALTornTail: a torn tail in the newest WAL file is reported
// as clean (replay truncates there), but the same tear in an older WAL
// file is corruption.
func TestScrubWALTornTail(t *testing.T) {
	dir := scrubStore(t)
	seqs, err := listWALFiles(dir)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("no WAL files (err=%v)", err)
	}
	last := seqs[len(seqs)-1]
	path := filepath.Join(dir, walRel(last))
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) < 4 {
		t.Fatalf("WAL too small to tear (%d bytes)", len(blob))
	}
	if err := os.WriteFile(path, blob[:len(blob)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := ScrubStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := findFile(t, rep, filepath.Base(path))
	if !f.OK() {
		t.Fatalf("torn tail in newest WAL reported corrupt: %s", f.Err)
	}
	if !strings.Contains(f.Kind, "torn") {
		t.Fatalf("torn tail not flagged in kind: %q", f.Kind)
	}

	// The same file at a non-final sequence is corruption: fabricate a
	// higher-numbered empty WAL so the torn one is no longer newest.
	if err := os.WriteFile(filepath.Join(dir, walRel(last+1)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = ScrubStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	f = findFile(t, rep, filepath.Base(path))
	if f.OK() {
		t.Fatal("torn non-final WAL file scrubs clean")
	}
}

// TestScrubPreChecksumStore: a directory that is not a store errors;
// scrub never invents verdicts for foreign directories.
func TestScrubNotAStore(t *testing.T) {
	if _, err := ScrubStore(t.TempDir()); err == nil {
		t.Fatal("scrub of empty directory succeeded")
	}
}

// TestSnapshotChecksumCounters: cold reads through a multi-unit snapshot
// (base + segments) surface checksum verification counts in the query
// stats — the path /statz aggregates from.
func TestSnapshotChecksumCounters(t *testing.T) {
	dir := scrubStore(t)
	w := reattach(t, dir, Opts{SealRows: 1 << 20})
	defer func() {
		w.Close()
		w.base.Close()
	}()
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	res, err := query(snap, `SELECT c, SUM(v) AS s FROM data GROUP BY c ORDER BY s DESC;`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ChecksumVerified == 0 {
		t.Fatalf("cold snapshot query verified 0 records (stats %+v)", res.Stats)
	}
	if res.Stats.ChecksumFailed != 0 {
		t.Fatalf("clean store failed %d checksums", res.Stats.ChecksumFailed)
	}
}

// supersedingFS is the filesystem as a reader sees it while a writer
// commits: the first read of file runs commit, which publishes the next
// generation and removes this one.
type supersedingFS struct {
	faultfs.OS
	file   string
	commit func()
	done   bool
}

func (f *supersedingFS) ReadFile(name string) ([]byte, error) {
	if name == f.file && !f.done {
		f.done = true
		f.commit()
	}
	return f.OS.ReadFile(name)
}

// TestGenChainSupersededWhileRead: when the generation manifest a reader
// listed is superseded and removed before it reads it, readGenerations
// returns the superseding generation and ScrubStore verdicts it alone, as
// clean.
func TestGenChainSupersededWhileRead(t *testing.T) {
	dir, _, _ := newBase(t, 100)
	if err := commitGeneration(dir, &genManifest{Gen: 1, NextSeg: 1}); err != nil {
		t.Fatal(err)
	}
	// supersede makes the first read of generation gen find gen+1
	// committed and gen removed.
	supersede := func(gen int) (restore func()) {
		path := filepath.Join(dir, genName(gen))
		return faultfs.Swap(&supersedingFS{file: path, commit: func() {
			if err := commitGeneration(dir, &genManifest{Gen: gen + 1, NextSeg: 1}); err != nil {
				t.Error(err)
			}
			if err := os.Remove(path); err != nil {
				t.Error(err)
			}
		}})
	}

	restore := supersede(1)
	m, seq, err := readGenerations(dir)
	restore()
	if err != nil || m == nil || seq != 2 {
		t.Fatalf("readGenerations = %v, %d, %v; want generation 2", m, seq, err)
	}

	restore = supersede(2)
	rep, err := ScrubStore(dir)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	var gens []ScrubFile
	for _, f := range rep.Files {
		if f.Kind == "gen-manifest" {
			gens = append(gens, f)
		}
	}
	if rep.Corrupt != 0 || len(gens) != 1 || gens[0].Path != genName(3) {
		t.Fatalf("scrub: %d corrupt, manifest verdicts %+v; want %s alone, clean", rep.Corrupt, gens, genName(3))
	}
}
