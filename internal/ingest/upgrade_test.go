package ingest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"powerdrill/internal/colstore"
	"powerdrill/internal/exec"
	"powerdrill/internal/faultfs"
	"powerdrill/internal/memmgr"
)

// parentStore copies colstore's testdata/parent5 into a temp dir (attaching
// replays and retires its WAL). The directory was written by the last
// commit that still carried five format generations and four
// generation-chain walkers: a generation-5 zippy base store, two sealed
// generation-5 segments behind MANIFEST.gen-000002, a virtual sidecar
// holding date(timestamp), and 20 acknowledged rows still in the WAL, as
// after a crash. testdata/parent6 is the same in generation 6, written by
// the last commit that wrote a dictionary as one record, and
// testdata/parent7 in generation 7, written by the last commit that kept
// each column's chunk and frame index in the manifest, and
// testdata/parent8 in generation 8, written by the last commit whose layout
// records held no first value of a numeric dictionary frame.
func parentStore(t *testing.T) string {
	return parentFixture(t, "parent5")
}

// parentFixture copies colstore's testdata/<name> into a temp dir.
func parentFixture(t *testing.T, name string) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	copyTree(t, filepath.Join("..", "colstore", "testdata", name), dir)
	return dir
}

// parentAnswers is the fixture's expected.json: what the commit that wrote
// it answered, as strings.
type parentAnswers []struct {
	SQL  string     `json:"sql"`
	Rows [][]string `json:"rows"`
}

func readParentAnswers(t *testing.T) parentAnswers {
	return readFixtureAnswers(t, "parent5")
}

// readFixtureAnswers is readParentAnswers for the fixture name.
func readFixtureAnswers(t *testing.T, name string) parentAnswers {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "colstore", "testdata", name, "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	var answers parentAnswers
	if err := json.Unmarshal(blob, &answers); err != nil {
		t.Fatal(err)
	}
	return answers
}

// mismatch reports the first answer the store of w gives that differs
// from the fixture's, or "" when every one matches bit for bit.
func (answers parentAnswers) mismatch(w *Writer) string {
	snap, err := w.Snapshot()
	if err != nil {
		return err.Error()
	}
	defer snap.Release()
	for _, a := range answers {
		res, err := query(snap, a.SQL)
		if err != nil || len(res.Rows) != len(a.Rows) {
			return fmt.Sprintf("%s: err %v; want %d rows", a.SQL, err, len(a.Rows))
		}
		for i, row := range res.Rows {
			for j, v := range row {
				if v.String() != a.Rows[i][j] {
					return fmt.Sprintf("%s: row %d col %d = %s, want %s", a.SQL, i, j, v, a.Rows[i][j])
				}
			}
		}
	}
	return ""
}

// openUpgraded opens dir as the public Open does (the base lazily, then
// its append path), returning the first error on the way.
func openUpgraded(dir string) (*Writer, error) {
	base, _, err := colstore.OpenLazy(dir, memmgr.New(0, ""))
	if err != nil {
		return nil, err
	}
	w, err := Attach(dir, base, exec.New(base, exec.Options{}), Opts{CompactMinSegments: 100})
	if err != nil {
		base.Close()
	}
	return w, err
}

// checkUpgradedParent: the upgrade of parent5 at dir scrubs clean — base,
// generation manifest, segments and WAL, and no sidecar, which stays
// behind — attaches with every row, and answers what the commit that
// wrote parent5 answered, date(timestamp) re-materialized.
func checkUpgradedParent(t *testing.T, dir string) {
	checkUpgradedFixture(t, dir, "parent5")
}

// checkUpgradedFixture is checkUpgradedParent for the fixture name.
func checkUpgradedFixture(t *testing.T, dir, name string) {
	t.Helper()
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
	for _, want := range []string{"manifest", "column", "gen-manifest", "wal"} {
		if kinds[want] == 0 {
			t.Errorf("scrub visited no %q file (kinds: %v)", want, kinds)
		}
	}
	if kinds["sidecar-manifest"]+kinds["sidecar-column"] != 0 {
		t.Errorf("the upgrade carried the virtual sidecar (kinds: %v)", kinds)
	}
	for _, sub := range []string{"", segRel(0), segRel(1)} {
		if gen, err := colstore.FormatGeneration(filepath.Join(dir, sub)); err != nil || gen != 9 {
			t.Errorf("%q is generation %d (%v), want 9", sub, gen, err)
		}
	}
	w, err := openUpgraded(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Rows() != 420 || w.base.HasColumn("date(timestamp)") {
		t.Fatalf("rows = %d (want 300 base + 100 sealed + 20 from the WAL), sidecar column registered: %v",
			w.Rows(), w.base.HasColumn("date(timestamp)"))
	}
	if diff := readFixtureAnswers(t, name).mismatch(w); diff != "" {
		t.Fatal(diff)
	}
}

// TestParentWrittenStore: a directory written by the parent of the
// one-generation change — base, segments, sidecar and WAL — upgrades into
// one this build serves: it scrubs clean, attaches, and answers what the
// commit that wrote it answered (expected.json). So do the generation-6
// directory written by the parent of the framed dictionaries, the
// generation-7 one written by the parent of the index records and the
// generation-8 one written by the parent of the numeric frames' first
// values, which no reader but Upgrade opens either: OpenLazy refuses each
// base and Attach its segments.
func TestParentWrittenStore(t *testing.T) {
	for _, fx := range []struct {
		name string
		gen  int
	}{{"parent5", 5}, {"parent6", 6}, {"parent7", 7}, {"parent8", 8}} {
		t.Run(fx.name, func(t *testing.T) {
			dir := parentFixture(t, fx.name)
			var old *colstore.OldFormatError
			if _, _, err := colstore.OpenLazy(dir, memmgr.New(0, "")); !errors.As(err, &old) || old.Generation != fx.gen {
				t.Fatalf("OpenLazy = %v, want a generation-%d refusal", err, fx.gen)
			}
			up := filepath.Join(t.TempDir(), "up")
			if err := Upgrade(dir, up); err != nil {
				t.Fatal(err)
			}
			checkUpgradedFixture(t, up, fx.name)
			base, _, err := colstore.OpenLazy(up, memmgr.New(0, ""))
			if err != nil {
				t.Fatal(err)
			}
			defer base.Close()
			if w, err := Attach(dir, base, exec.New(base, exec.Options{}), Opts{}); !errors.As(err, &old) || old.Generation != fx.gen {
				if err == nil {
					w.Close()
				}
				t.Fatalf("Attach over generation-%d segments = %v, want a generation-%d refusal", fx.gen, err, fx.gen)
			}
		})
	}
}

// snapshotTree reads every file under dir, keyed by its relative path.
func snapshotTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		files[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestUpgradeCarriesIngestState: a generation-5 directory with appended
// rows is refused by every reader with the typed error naming `pdrill
// upgrade`, and Upgrade carries its segments, generation manifest and WAL
// into a store that holds every row — without touching a byte of the old
// directory. A live segment of an even older generation upgrades with the
// rest, while attaching the un-upgraded directory still refuses it.
func TestUpgradeCarriesIngestState(t *testing.T) {
	dir := parentStore(t)
	_, _, err := colstore.OpenLazy(dir, memmgr.New(0, ""))
	var old *colstore.OldFormatError
	if !errors.As(err, &old) || old.Generation != 5 || !strings.Contains(err.Error(), "pdrill upgrade") {
		t.Fatalf("OpenLazy of a generation-5 store = %v, want a generation-5 refusal naming pdrill upgrade", err)
	}
	rep, err := ScrubStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if f := rep.Files[0]; f.Kind != "manifest" || f.Path != "manifest.json" || !strings.Contains(f.Err, "format generation 5") {
		t.Fatalf("scrub's base manifest verdict = %+v, want the old-generation refusal", f)
	}

	before := snapshotTree(t, dir)
	up := filepath.Join(t.TempDir(), "up")
	if err := Upgrade(dir, up); err != nil {
		t.Fatal(err)
	}
	after := snapshotTree(t, dir)
	if len(after) != len(before) {
		t.Fatalf("upgrade changed the old directory's file count: %d -> %d", len(before), len(after))
	}
	for rel, blob := range before {
		if !bytes.Equal(after[rel], blob) {
			t.Fatalf("upgrade changed %s in the old directory", rel)
		}
	}
	checkUpgradedParent(t, up)
	if err := Upgrade(dir, up); err == nil {
		t.Fatal("Upgrade wrote over an existing store")
	}
	base, _, err := colstore.OpenLazy(up, memmgr.New(0, ""))
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	attach := func() error {
		w, err := Attach(dir, base, exec.New(base, exec.Options{}), Opts{})
		if err == nil {
			w.Close()
		}
		return err
	}
	if err := attach(); !errors.As(err, &old) || old.Generation != 5 {
		t.Fatalf("Attach over generation-5 segments = %v, want a generation-5 refusal", err)
	}

	// Swap one live segment for a generation-3 store.
	seg := filepath.Join(dir, segRel(0))
	if err := os.RemoveAll(seg); err != nil {
		t.Fatal(err)
	}
	copyTree(t, filepath.Join("..", "colstore", "testdata", "gen3"), seg)
	up3 := filepath.Join(t.TempDir(), "up3")
	if err := Upgrade(dir, up3); err != nil {
		t.Fatalf("Upgrade over a generation-3 segment = %v", err)
	}
	if gen, err := colstore.FormatGeneration(filepath.Join(up3, segRel(0))); err != nil || gen != 9 {
		t.Fatalf("the generation-3 segment upgraded to generation %d (%v), want 9", gen, err)
	}
	if err := attach(); !errors.Is(err, colstore.ErrOldFormat) {
		t.Fatalf("Attach over old segments = %v, want ErrOldFormat", err)
	}
}

// TestUpgradeCrash: Upgrade killed at any point of its write stream leaves
// a directory that either fails to open or is the complete store — every
// row and every expected answer — never one missing rows. A dry run
// measures the write units the upgrade of parent5 takes; the kill points
// spread over that range, plus the one that tears only the last byte. Not
// parallel: it swaps the process filesystem.
func TestUpgradeCrash(t *testing.T) {
	src := parentStore(t)
	dry := faultfs.NewInjector(faultfs.OS{}, faultfs.InjectorOptions{WriteBudget: -1})
	restore := faultfs.Swap(dry)
	err := Upgrade(src, filepath.Join(t.TempDir(), "dry"))
	restore()
	units := dry.Stats().Units
	if err != nil || units <= 0 {
		t.Fatalf("dry run: %v (%d units)", err, units)
	}
	answers := readParentAnswers(t)
	kills := []int64{units - 1}
	for k := int64(0); k <= 24; k++ {
		kills = append(kills, 1+k*(units-1)/24) // from the first unit to the last
	}
	opened := 0
	for _, kill := range kills {
		up := filepath.Join(t.TempDir(), "up")
		inj := faultfs.NewInjector(faultfs.OS{}, faultfs.InjectorOptions{WriteBudget: kill})
		restore := faultfs.Swap(inj)
		uerr := Upgrade(src, up)
		restore()
		w, err := openUpgraded(up)
		if err != nil {
			continue // refused: the upgrade did not finish, and says so
		}
		opened++
		diff := answers.mismatch(w)
		rows := w.Rows()
		w.Close()
		if rows != 420 || diff != "" {
			t.Fatalf("kill at unit %d of %d (upgrade: %v): a store of %d rows opened (%s)", kill, units, uerr, rows, diff)
		}
	}
	if opened == 0 {
		t.Fatal("no kill point left a store that opens, not even the last one")
	}
}
