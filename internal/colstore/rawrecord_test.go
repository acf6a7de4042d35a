package colstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"powerdrill/internal/compress"
	"powerdrill/internal/dict"
	"powerdrill/internal/memmgr"
	"powerdrill/internal/value"
)

// savedManifest reads the manifest Save wrote into dir.
func savedManifest(t *testing.T, dir string) *manifest {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	return &m
}

// TestStoredRawRecords: a zippy store keeps the records zippy
// does not shrink below 7/8 raw, and compresses the rest. Every reader
// agrees on what it holds — the lazy loads, the eager Open and Upgrade,
// which rewrites the same bytes — and the scrub verifies both kinds. A raw
// record is still checksummed: a flipped byte in one is a ChecksumError at
// load and a dirty scrub verdict.
func TestStoredRawRecords(t *testing.T) {
	built, dir := buildSavedStore(t, 20000, "zippy")
	m := savedManifest(t, dir)
	if m.Format != formatVersion {
		t.Fatalf("Save wrote generation %d, want %d", m.Format, formatVersion)
	}
	type record struct {
		col     manifestCol
		chunk   int // -1: a dictionary frame
		off, n  int64
		rawLen  int64
		storedR bool
	}
	var records []record
	for _, mc := range m.Columns {
		frames, chunks := entries(savedLayout(t, dir, mc.Name))
		for _, fr := range frames {
			records = append(records, record{mc, -1, fr.off, fr.len, fr.raw, fr.len == fr.raw})
		}
		for ci, ch := range chunks {
			records = append(records, record{mc, ci, ch.coff, ch.clen, ch.len, ch.clen == ch.len})
		}
	}
	var raw, compressed *record
	for i := range records {
		rec := &records[i]
		if rec.storedR {
			raw = rec
		} else {
			compressed = rec
			if !keepCompressed(int(rec.n), int(rec.rawLen)) {
				t.Errorf("column %q record %d kept compressed at %d of %d bytes", rec.col.Name, rec.chunk, rec.n, rec.rawLen)
			}
		}
	}
	if raw == nil || compressed == nil {
		t.Fatalf("want raw and compressed records in one store (raw %v, compressed %v)", raw != nil, compressed != nil)
	}

	eager, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	assertColumnsEqual(t, built, eager)
	lazy, _, err := OpenLazy(dir, memmgr.New(0, ""))
	if err != nil {
		t.Fatal(err)
	}
	defer lazy.Close()
	assertColumnsEqual(t, built, lazy)
	up := filepath.Join(t.TempDir(), "up")
	if err := Upgrade(dir, up); err != nil {
		t.Fatal(err)
	}
	for _, mc := range m.Columns {
		want, _ := os.ReadFile(filepath.Join(dir, mc.File))
		got, _ := os.ReadFile(filepath.Join(up, mc.File))
		if !bytes.Equal(want, got) {
			t.Errorf("Upgrade rewrote column %q differently (%d bytes, was %d)", mc.Name, len(got), len(want))
		}
	}
	verified := 0
	for _, f := range ScrubDir(dir, dir) {
		if !f.OK() {
			t.Fatalf("scrub: %s: %s", f.Path, f.Err)
		}
		verified += f.Records
	}
	index := len(m.Columns) // one layout record each
	if verified != len(records)+index {
		t.Fatalf("scrub verified %d records, the store holds %d and %d index records", verified, len(records), index)
	}

	// A flipped byte in the first raw chunk record and in the first raw
	// dictionary frame of each dictionary kind, numeric and string.
	var flips []record
	for _, head := range []bool{false, true} {
		kinds := map[string]bool{}
		for _, rec := range records {
			if rec.storedR && (rec.chunk < 0) == head && !kinds[rec.col.Kind] {
				kinds[rec.col.Kind] = true
				flips = append(flips, rec)
				if !head {
					break
				}
			}
		}
	}
	if len(flips) != 3 {
		t.Fatalf("want a raw chunk record and a raw numeric and string dictionary frame, have %d of them", len(flips))
	}
	for _, rec := range flips {
		t.Run(fmt.Sprintf("%s/%d", rec.col.Name, rec.chunk), func(t *testing.T) {
			path := filepath.Join(dir, rec.col.File)
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer os.WriteFile(path, orig, 0o644)
			flipBit(t, path, rec.off+rec.n/2)
			r, _, err := NewReader(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if rec.chunk < 0 {
				_, _, err = r.LoadColumnDict(rec.col.Name)
			} else {
				_, _, err = r.LoadColumnChunk(rec.col.Name, rec.chunk)
			}
			var ce *ChecksumError
			if !errors.As(err, &ce) || ce.Off != rec.off || ce.Len != rec.n {
				t.Fatalf("load of record %d after a flip = %v, want a ChecksumError at [%d,%d)", rec.chunk, err, rec.off, rec.off+rec.n)
			}
			if _, _, err := Open(dir); !errors.As(err, &ce) {
				t.Fatalf("eager Open after a flip = %v, want a ChecksumError", err)
			}
			dirty := 0
			for _, f := range ScrubDir(dir, dir) {
				if !f.OK() {
					dirty++
					if f.Path != rec.col.File || !strings.Contains(f.Err, "checksum mismatch") {
						t.Errorf("scrub verdict %s: %s", f.Path, f.Err)
					}
				}
			}
			if dirty != 1 {
				t.Fatalf("scrub found %d dirty files, want 1", dirty)
			}
		})
	}
}

// TestKeepCompressedNeverRawLength: whatever the codec makes of a record,
// a compressed record kept is never as long as its raw form — the length
// a reader takes for "stored raw" — for raw lengths 0–64, and a record of
// each, here a one-value dictionary's frame, reads back to its raw bytes.
func TestKeepCompressedNeverRawLength(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, name := range []string{"zippy", "lzoish"} {
		codec, err := compress.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		r := &Reader{m: &manifest{Codec: name}}
		for n := 0; n <= 64; n++ {
			for c := 0; c <= n+16; c++ {
				if keepCompressed(c, n) && c >= n {
					t.Fatalf("keepCompressed(%d, %d) keeps a record no shorter than raw", c, n)
				}
			}
			for _, val := range [][]byte{make([]byte, n), bytes.Repeat([]byte("ab"), n)[:n], randBytes(rng, n)} {
				col := &Column{Name: "c", Kind: value.KindString, Dict: dict.NewStringArray([]string{string(val)})}
				file, mc := encodeColumn(col, codec)
				fr := fileLayout(t, file, mc).frame(0)
				raw := append(appendUvarint(nil, uint64(n)), val...)
				rec := file[fr.off : fr.off+fr.len]
				if (fr.len == fr.raw) != bytes.Equal(rec, raw) {
					t.Fatalf("%s, %d bytes: stored raw = %v, but the file holds %x for %x", name, n, fr.len == fr.raw, rec, raw)
				}
				back, err := r.rawRecord(rec, fr.raw, nil)
				if err != nil || !bytes.Equal(back, raw) {
					t.Fatalf("%s, %d bytes: the frame reads back as %x, %v", name, n, back, err)
				}
			}
		}
	}
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}
