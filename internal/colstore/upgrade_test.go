package colstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"powerdrill/internal/memmgr"
)

// TestOldGenerationsRefusedThenUpgraded runs the committed corpus of
// generation 1–6 stores (testdata/gen*, 300 rows × 3 columns, and the
// bases of testdata/parent5 and parent6, each written by the last build
// that still had its writer) through the one path left for them: every reader but the eager
// Open refuses them with the typed error naming their generation, and
// Upgrade rewrites them into a store that opens lazily, holds the same
// values, and scrubs clean.
func TestOldGenerationsRefusedThenUpgraded(t *testing.T) {
	for _, fx := range []struct {
		name string
		gen  int
	}{
		{"gen1", 1},      // no chunk layout, whole-file zippy
		{"gen2raw", 2},   // chunk layout, no codec
		{"gen2zippy", 2}, // chunk layout, whole-file zippy
		{"gen3", 3},      // per-record zippy
		{"gen4", 4},      // chunk blooms and dictionary shard frames, no codec
		{"parent5", 5},   // checksums, every record zippy, 8-byte numeric words; its segs/ is ingest state, not read here
		{"parent6", 6},   // one head record, stored raw where zippy does not shrink it; numeric key deltas
	} {
		t.Run(fx.name, func(t *testing.T) {
			dir := filepath.Join("testdata", fx.name)
			var old *OldFormatError
			if _, _, err := NewReader(dir); !errors.As(err, &old) || old.Generation != fx.gen {
				t.Fatalf("NewReader = %v, want ErrOldFormat for generation %d", err, fx.gen)
			}
			_, _, err := OpenLazy(dir, memmgr.New(0, ""))
			if !errors.Is(err, ErrOldFormat) || !errors.As(err, &old) || old.Generation != fx.gen {
				t.Fatalf("OpenLazy = %v, want ErrOldFormat for generation %d", err, fx.gen)
			}
			if !strings.Contains(err.Error(), "pdrill upgrade") {
				t.Fatalf("refusal does not name the way out: %v", err)
			}
			verdicts := ScrubDir(dir, dir)
			if len(verdicts) != 1 || verdicts[0].Kind != "manifest" || !strings.Contains(verdicts[0].Err, "format generation") {
				t.Fatalf("scrub of an old store = %+v, want one old-generation manifest verdict", verdicts)
			}

			eager, _, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			out := filepath.Join(t.TempDir(), "up")
			if err := Upgrade(dir, out); err != nil {
				t.Fatal(err)
			}
			lazy, _, err := OpenLazy(out, memmgr.New(0, ""))
			if err != nil {
				t.Fatalf("upgraded store does not open lazily: %v", err)
			}
			defer lazy.Close()
			if m, _, err := readManifest(dir); err != nil || lazy.Codec() != m.Codec {
				t.Fatalf("upgrade changed the codec to %q (fixture manifest: %v)", lazy.Codec(), err)
			}
			assertColumnsEqual(t, eager, lazy)
			records := 0
			for _, f := range ScrubDir(out, out) {
				if !f.OK() {
					t.Fatalf("upgraded store scrubs dirty: %s: %s", f.Path, f.Err)
				}
				records += f.Records
			}
			if records == 0 {
				t.Fatal("upgraded store carries no checksums")
			}
			if err := Upgrade(dir, out); err == nil {
				t.Fatal("Upgrade overwrote an existing store")
			}
		})
	}
}

// TestNewerFormatRefused: a manifest from a build newer than this one is
// refused loudly by both opens, not read as if its unknown fields were
// absent.
func TestNewerFormatRefused(t *testing.T) {
	_, dir := buildSavedStore(t, 500, "zippy")
	path := filepath.Join(dir, "manifest.json")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cur, newer := fmt.Sprintf(`"format": %d`, formatVersion), fmt.Sprintf(`"format": %d`, formatVersion+1)
	next := strings.Replace(string(blob), cur, newer, 1)
	if next == string(blob) {
		t.Fatalf("manifest does not record %s", cur)
	}
	if err := os.WriteFile(path, []byte(next), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir); err == nil || errors.Is(err, ErrOldFormat) {
		t.Fatalf("Open of a %s store = %v, want a newer-build refusal", newer, err)
	}
	if _, _, err := OpenLazy(dir, memmgr.New(0, "")); err == nil || errors.Is(err, ErrOldFormat) {
		t.Fatalf("OpenLazy of a %s store = %v, want a newer-build refusal", newer, err)
	}
}
