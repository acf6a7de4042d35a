package ingest

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"powerdrill/internal/colstore"
	"powerdrill/internal/exec"
	"powerdrill/internal/memmgr"
)

// parentStore copies colstore's testdata/parent5 into a temp dir (attaching
// replays and retires its WAL). The directory was written by the last
// commit that still carried five format generations and four
// generation-chain walkers: a zippy base store, two sealed segments behind
// MANIFEST.gen-000002, a virtual sidecar holding date(timestamp), and 20
// acknowledged rows still in the WAL, as after a crash.
func parentStore(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	copyTree(t, filepath.Join("..", "colstore", "testdata", "parent5"), dir)
	return dir
}

// TestParentWrittenStore: what is written did not change, only who walks
// the directory — so that directory must scrub clean, attach, and answer
// what the commit that wrote it answered (expected.json).
func TestParentWrittenStore(t *testing.T) {
	dir := parentStore(t)
	rep, err := ScrubStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, f := range rep.Files {
		if !f.OK() {
			t.Errorf("scrub: %s (%s): %s", f.Path, f.Kind, f.Err)
		}
		kinds[strings.Fields(f.Kind)[0]]++
	}
	for _, want := range []string{"manifest", "column", "gen-manifest", "sidecar-manifest", "sidecar-column", "wal"} {
		if kinds[want] == 0 {
			t.Errorf("scrub visited no %q file (kinds: %v)", want, kinds)
		}
	}
	w := reattach(t, dir, Opts{CompactMinSegments: 100})
	defer w.Close()
	if w.Rows() != 420 || !w.base.HasColumn("date(timestamp)") {
		t.Fatalf("rows = %d (want 300 base + 100 sealed + 20 from the WAL), sidecar column registered: %v",
			w.Rows(), w.base.HasColumn("date(timestamp)"))
	}
	var answers []struct {
		SQL  string     `json:"sql"`
		Rows [][]string `json:"rows"`
	}
	blob, err := os.ReadFile(filepath.Join(dir, "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &answers); err != nil {
		t.Fatal(err)
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	for _, a := range answers {
		res, err := snap.Query(a.SQL)
		if err != nil || len(res.Rows) != len(a.Rows) {
			t.Fatalf("%s: %d rows, err %v; want %d rows", a.SQL, len(res.Rows), err, len(a.Rows))
		}
		for i, row := range res.Rows {
			for j, v := range row {
				if v.String() != a.Rows[i][j] {
					t.Fatalf("%s: row %d col %d = %s, want %s", a.SQL, i, j, v, a.Rows[i][j])
				}
			}
		}
	}
}

// TestUpgradeRefusesIngestState: `pdrill upgrade` rewrites base stores
// only, so a directory with appended rows is refused rather than silently
// losing them — with the typed old-format error when a segment is itself
// old, which is also what attaching such a directory reports.
func TestUpgradeRefusesIngestState(t *testing.T) {
	dir := parentStore(t)
	if err := CheckUpgrade(dir); err == nil || errors.Is(err, colstore.ErrOldFormat) {
		t.Fatalf("CheckUpgrade of a current store with segments = %v, want a plain refusal", err)
	}
	// Swap one live segment for a generation-3 store.
	seg := filepath.Join(dir, segRel(0))
	if err := os.RemoveAll(seg); err != nil {
		t.Fatal(err)
	}
	copyTree(t, filepath.Join("..", "colstore", "testdata", "gen3"), seg)
	if err := CheckUpgrade(dir); !errors.Is(err, colstore.ErrOldFormat) {
		t.Fatalf("CheckUpgrade over an old segment = %v, want ErrOldFormat", err)
	}
	base, _, err := colstore.OpenLazy(dir, memmgr.New(0, ""))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(dir, base, exec.New(base, exec.Options{}), Opts{}); !errors.Is(err, colstore.ErrOldFormat) {
		t.Fatalf("Attach over an old segment = %v, want ErrOldFormat", err)
	}
}
