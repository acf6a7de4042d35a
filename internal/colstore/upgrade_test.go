package colstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"powerdrill/internal/memmgr"
)

// TestOldGenerationsRefusedThenUpgraded runs the committed corpus of
// generation 1–8 stores (testdata/gen*, 300 rows × 3 columns, and the
// bases of testdata/parent5 to parent8, each written by the last build
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
		{"parent7", 7},   // dictionary frames; the chunk and frame index in the manifest
		{"parent8", 8},   // layout records, with no first value for a numeric frame
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

// TestShardedManifestsReadAsArray: older builds wrote a "sharded" string
// dictionary kind, with the routing of its sub-dictionaries in each
// column's dict_shards. testdata/sharded7 is testdata/gen4 as upgraded by
// the last such build, in generation 7. This build reads any kind but
// "trie" as an array and ignores dict_shards: the eager open holds gen4's
// values, the lazy one refuses the generation, and the upgraded store
// holds them lazily, scrubs clean, charges a lazily loaded dictionary what
// it holds after every id has been looked up, and names "array".
func TestShardedManifestsReadAsArray(t *testing.T) {
	const dir = "testdata/sharded7"
	blob, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"string_dict": "sharded"`) || !strings.Contains(string(blob), `"dict_shards"`) {
		t.Fatal("fixture is not a sharded store with routing")
	}
	want, _, err := Open("testdata/gen4")
	if err != nil {
		t.Fatal(err)
	}
	eager, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	assertColumnsEqual(t, want, eager)
	var old *OldFormatError
	if _, _, err := OpenLazy(dir, memmgr.New(0, "")); !errors.As(err, &old) || old.Generation != 7 {
		t.Fatalf("OpenLazy of a generation-7 store = %v, want its refusal", err)
	}
	out := filepath.Join(t.TempDir(), "up")
	if err := Upgrade(dir, out); err != nil {
		t.Fatal(err)
	}
	lazy, _, err := OpenLazy(out, memmgr.New(0, ""))
	if err != nil {
		t.Fatal(err)
	}
	defer lazy.Close()
	assertColumnsEqual(t, want, lazy)
	for _, f := range ScrubDir(out, out) {
		if !f.OK() {
			t.Fatalf("%s: %s", f.Path, f.Err)
		}
	}

	mgr := memmgr.New(0, "")
	charged, _, err := OpenLazy(out, mgr)
	if err != nil {
		t.Fatal(err)
	}
	defer charged.Close()
	for _, name := range charged.Columns() {
		ps := charged.NewPinSet()
		if _, err := ps.ChunkSpans(name); err != nil { // the layout, charged apart
			t.Fatal(err)
		}
		before := mgr.Stats().ResidentBytes
		view, err := ps.ColumnDict(name)
		if err != nil {
			t.Fatal(err)
		}
		d := view.Dict
		for id := 0; id < d.Len(); id++ {
			d.Value(uint32(id))
		}
		if got := mgr.Stats().ResidentBytes - before; got != d.MemoryBytes() {
			t.Errorf("%s: dictionary charged %d bytes, holds %d", name, got, d.MemoryBytes())
		}
		ps.Release()
	}

	if eager.Opts.StringDict != StringDictArray || lazy.Opts.StringDict != StringDictArray {
		t.Errorf("sharded store opens as %q eagerly, %q upgraded; want array", eager.Opts.StringDict, lazy.Opts.StringDict)
	}
	if m, _, err := readManifest(out); err != nil || m.Opts.StringDict != string(StringDictArray) {
		t.Errorf("re-saved store names string_dict %q (%v), want array", m.Opts.StringDict, err)
	}
}

// TestShardFramesPastFrameBytes: an older sharded store cut a string
// dictionary's frames at its sub-dictionaries, many times frameBytes. A
// store whose every string dictionary is one such frame, routed by
// dict_shards, opens both ways with the values it was saved from, scrubs
// clean, and answers a lookup of the frame under a budget of one byte,
// which holds nothing once released.
func TestShardFramesPastFrameBytes(t *testing.T) {
	built, dir := buildSavedStore(t, 3000, "")
	path := filepath.Join(dir, "manifest.json")
	m, _, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	var big string
	for i, mc := range m.Columns {
		lay := savedLayout(t, dir, mc.Name)
		frames, chunks := entries(lay)
		if mc.Kind != "string" || len(frames) < 2 {
			continue
		}
		// Uncompressed frames lie end to end from the file's start: the
		// same bytes read as one frame. The layout saying so is appended
		// to the file, and the manifest pointed at it.
		one := frameEntry{first: frames[0].first}
		for _, fr := range frames {
			one.len += fr.len
			one.count += fr.count
		}
		one.raw = one.len
		path := filepath.Join(dir, mc.File)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		one.crc = CRC32C(data[:one.len])
		rec := appendLayout(nil, []frameEntry{one}, lay.spans, chunks)
		m.Columns[i].Index = recordRef{Off: int64(len(data)), Len: int64(len(rec)), CRC: CRC32C(rec)}
		if err := os.WriteFile(path, append(data, rec...), 0o644); err != nil {
			t.Fatal(err)
		}
		if one.raw > frameBytes {
			big = mc.Name
		}
	}
	if big == "" {
		t.Fatal("no string dictionary is larger than one frame: the case is not tested")
	}
	m.Opts.StringDict = "sharded"
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(blob, &raw); err != nil {
		t.Fatal(err)
	}
	for _, c := range raw["columns"].([]any) {
		c.(map[string]any)["dict_shards"] = []any{map[string]any{"count": 1, "first": "", "last": "", "bloom": ""}}
	}
	if blob, err = json.Marshal(raw); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
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
	for _, f := range ScrubDir(dir, dir) {
		if !f.OK() {
			t.Fatalf("%s: %s", f.Path, f.Err)
		}
	}
	mgr := memmgr.New(1, "")
	tight, _, err := OpenLazy(dir, mgr)
	if err != nil {
		t.Fatal(err)
	}
	defer tight.Close()
	d := built.Column(big).Dict
	gids := []uint32{uint32(d.Len() - 1), 0}
	ps := tight.NewPinSet()
	vals, err := ps.Values(big, gids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range gids {
		if vals[i] != d.Value(id) {
			t.Errorf("%s: id %d is %v, want %v", big, id, vals[i], d.Value(id))
		}
	}
	// The frame is admitted pinned, past the budget, and dropped at
	// Release with the layout, as every entry larger than the budget is.
	ps.Release()
	if st := mgr.Stats(); st.ResidentBytes != 0 {
		t.Errorf("a lookup under a budget of one byte left %d bytes resident after Release", st.ResidentBytes)
	}
}
