package colstore

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"powerdrill/internal/memmgr"
)

// flipBit flips one bit in the middle of a record's byte range on disk.
func flipBit(t *testing.T, path string, off int64) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[off] ^= 0x10
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestV5BitFlipDetectedOnEagerOpen: a flipped bit anywhere inside a
// column file's verified ranges fails the eager Open with a
// ChecksumError naming the file — never a silently wrong store.
func TestV5BitFlipDetectedOnEagerOpen(t *testing.T) {
	for _, codec := range []string{"", "zippy"} {
		t.Run(codecLabel(codec), func(t *testing.T) {
			_, dir := buildSavedStore(t, 2000, codec)
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			corrupted := false
			for _, ent := range ents {
				if !strings.HasSuffix(ent.Name(), ".bin") {
					continue
				}
				path := filepath.Join(dir, ent.Name())
				fi, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				orig, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				for _, off := range []int64{4, fi.Size() / 3, fi.Size() / 2, fi.Size() - 2} {
					flipBit(t, path, off)
					_, _, err := Open(dir)
					if err == nil {
						t.Fatalf("%s: flip at %d not detected on open", ent.Name(), off)
					}
					var ce *ChecksumError
					if errors.As(err, &ce) {
						if ce.Path == "" || ce.Len <= 0 {
							t.Fatalf("%s: checksum error without location: %+v", ent.Name(), ce)
						}
						corrupted = true
					}
					if err := os.WriteFile(path, orig, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			if !corrupted {
				t.Fatal("no flip produced a ChecksumError — verification not active?")
			}
			// Restored files open clean again.
			if _, _, err := Open(dir); err != nil {
				t.Fatalf("restored store fails to open: %v", err)
			}
		})
	}
}

// TestV5BitFlipDetectedOnColdRead: the lazy path verifies each record as
// it is cold-loaded; a flipped bit surfaces as a read error on the
// touched column and is counted in the pin set's failure counter.
func TestV5BitFlipDetectedOnColdRead(t *testing.T) {
	for _, codec := range []string{"", "zippy"} {
		t.Run(codecLabel(codec), func(t *testing.T) {
			built, dir := buildSavedStore(t, 2000, codec)
			name := built.Columns()[0]
			path := filepath.Join(dir, "col_0000.bin")
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			flipBit(t, path, fi.Size()/2)

			lazy, _, err := OpenLazy(dir, memmgr.New(0, ""))
			if err != nil {
				t.Fatal(err)
			}
			defer lazy.Close()
			ps := lazy.NewPinSet()
			defer ps.Release()
			_, err = ps.Column(name)
			if err == nil {
				t.Fatal("corrupt column read succeeded")
			}
			var ce *ChecksumError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want ChecksumError", err)
			}
			if ps.ChecksumFailed == 0 {
				t.Fatal("ChecksumFailed counter not incremented")
			}
		})
	}
}

// TestV5ChecksumCountersCountColdLoads: clean cold reads tally
// ChecksumVerified on the pin set and the reader's IO stats.
func TestV5ChecksumCountersCountColdLoads(t *testing.T) {
	built, dir := buildSavedStore(t, 2000, "zippy")
	lazy, _, err := OpenLazy(dir, memmgr.New(0, ""))
	if err != nil {
		t.Fatal(err)
	}
	defer lazy.Close()
	ps := lazy.NewPinSet()
	for _, name := range built.Columns() {
		if _, err := ps.Column(name); err != nil {
			t.Fatal(err)
		}
	}
	if ps.ChecksumVerified == 0 || ps.ChecksumFailed != 0 {
		t.Fatalf("pin-set counters = %d verified / %d failed", ps.ChecksumVerified, ps.ChecksumFailed)
	}
	ps.Release()
	if st, ok := lazy.IOStats(); !ok || st.ChecksumVerified == 0 || st.ChecksumFailed != 0 {
		t.Fatalf("io counters = %+v (ok=%v)", st, ok)
	}
}

// TestV5ManifestWithoutCRCsStillReads: a v5 manifest whose CRC fields
// were stripped (the 2^-32 want==0 escape hatch, and the shape of a
// hand-edited manifest) opens and reads identically — verification is
// skipped per record, not failed.
func TestV5ManifestWithoutCRCsStillReads(t *testing.T) {
	built, dir := buildSavedStore(t, 1200, "")
	mpath := filepath.Join(dir, "manifest.json")
	blob, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	var strip func(v any)
	strip = func(v any) {
		switch x := v.(type) {
		case map[string]any:
			delete(x, "crc")
			delete(x, "dict_crc")
			for _, sub := range x {
				strip(sub)
			}
		case []any:
			for _, sub := range x {
				strip(sub)
			}
		}
	}
	strip(m)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mpath, out, 0o644); err != nil {
		t.Fatal(err)
	}
	back, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	assertColumnsEqual(t, built, back)
}
