package powerdrill

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// TestUpgradeParentStore: the public path for a directory an older build
// wrote and appended to (internal/colstore/testdata/parent5, generation 5,
// parent6, generation 6, parent7, generation 7, and parent8, generation 8).
// Open refuses it with
// ErrOldFormat; Upgrade
// carries its base, sealed segments and write-ahead log into a directory
// that opens with every row and gives the answers the writing build gave
// (expected.json).
func TestUpgradeParentStore(t *testing.T) {
	for _, name := range []string{"parent5", "parent6", "parent7", "parent8"} {
		t.Run(name, func(t *testing.T) { upgradeParentStore(t, name) })
	}
}

func upgradeParentStore(t *testing.T, name string) {
	src := filepath.Join("internal", "colstore", "testdata", name)
	old := filepath.Join(t.TempDir(), "old")
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(old, rel), 0o755)
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(old, rel), blob, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if s, _, err := Open(old, Options{}); !errors.Is(err, ErrOldFormat) {
		if err == nil {
			s.Close()
		}
		t.Fatalf("Open of %s = %v, want ErrOldFormat", name, err)
	}
	up := filepath.Join(t.TempDir(), "up")
	if err := Upgrade(old, up); err != nil {
		t.Fatal(err)
	}
	if gen, err := FormatGeneration(up); err != nil || gen != 9 {
		t.Fatalf("upgraded store is generation %d (%v), want 9", gen, err)
	}
	s, _, err := Open(up, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n := s.NumRows(); n != 420 {
		t.Fatalf("upgraded store holds %d rows, want 300 base + 100 sealed + 20 from the WAL", n)
	}
	var answers []struct {
		SQL  string     `json:"sql"`
		Rows [][]string `json:"rows"`
	}
	blob, err := os.ReadFile(filepath.Join(src, "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &answers); err != nil {
		t.Fatal(err)
	}
	for _, a := range answers {
		res, err := s.Query(a.SQL)
		if err != nil || len(res.Rows) != len(a.Rows) {
			t.Fatalf("%s: err %v; want %d rows", a.SQL, err, len(a.Rows))
		}
		for i, row := range res.Rows {
			for j, v := range row {
				if v.String() != a.Rows[i][j] {
					t.Fatalf("%s: row %d col %d = %s, want %s", a.SQL, i, j, v, a.Rows[i][j])
				}
			}
		}
	}
	if rep, err := Scrub(up); err != nil || rep.Corrupt != 0 || rep.Records == 0 {
		t.Fatalf("scrub of the upgraded store: %+v, %v", rep, err)
	}
}
