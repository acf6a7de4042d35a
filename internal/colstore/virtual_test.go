package colstore

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"powerdrill/internal/memmgr"
	"powerdrill/internal/value"
)

// materializeSuffix builds the per-row values of a toy expression over the
// country column — a stand-in for what the engine's expression evaluator
// produces — and persists them through AddVirtualColumnPinned.
func materializeSuffix(t *testing.T, s *Store, name, suffix string) *Column {
	t.Helper()
	src, err := s.ColumnErr("country")
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]value.Value, 0, s.NumRows())
	for ci := 0; ci < s.NumChunks(); ci++ {
		for r := 0; r < s.ChunkRows(ci); r++ {
			vals = append(vals, value.String(src.ValueAt(ci, r).Str()+suffix))
		}
	}
	ps := s.NewPinSet()
	defer ps.Release()
	col, err := s.AddVirtualColumnPinned(ps, valueColumn(name, value.KindString, vals))
	if err != nil {
		t.Fatal(err)
	}
	return col
}

func materializeUpper(t *testing.T, s *Store, name string) *Column {
	t.Helper()
	return materializeSuffix(t, s, name, "!")
}

// sidecarManifest reads the virtual sidecar's newest manifest of dir.
func sidecarManifest(t *testing.T, dir string) *virtualSidecar {
	t.Helper()
	walk, err := walkSidecar(dir)
	if err != nil {
		t.Fatal(err)
	}
	vm := walk.Newest
	if vm == nil {
		t.Fatalf("no virtual sidecar manifest in %s", dir)
	}
	return vm
}

// TestVirtualSidecarPersistReopen pins the tentpole round trip: a virtual
// column materialized on a lazy store is persisted into the virtual/
// sidecar, survives a fresh OpenLazy, and serves bit-for-bit identical
// values from disk — including its per-chunk spans for restriction
// pruning.
func TestVirtualSidecarPersistReopen(t *testing.T) {
	for _, codec := range []string{"", "zippy"} {
		name := codec
		if name == "" {
			name = "raw"
		}
		t.Run(name, func(t *testing.T) {
			_, dir := buildSavedStore(t, 3000, codec)
			lazy, _, err := OpenLazy(dir, memmgr.New(0, ""))
			if err != nil {
				t.Fatal(err)
			}
			built := materializeUpper(t, lazy, "upper(country)")
			if lazy.residentColumn("upper(country)") != nil {
				t.Fatal("persisted virtual column must not live in the registry")
			}
			meta, ok := lazy.ColumnMeta("upper(country)")
			if !ok || !meta.Virtual {
				t.Fatalf("virtual column metadata missing or not virtual: %+v ok=%v", meta, ok)
			}
			vm := sidecarManifest(t, dir)
			if len(vm.Columns) != 1 || vm.Columns[0].Name != "upper(country)" {
				t.Fatalf("sidecar manifest = %+v", vm.Columns)
			}

			// A fresh open must see the column without re-materializing.
			reopened, _, err := OpenLazy(dir, memmgr.New(0, ""))
			if err != nil {
				t.Fatal(err)
			}
			if !reopened.HasColumn("upper(country)") {
				t.Fatal("reopened store lost the persisted virtual column")
			}
			ps := reopened.NewPinSet()
			_, err = ps.ChunkSpans("upper(country)")
			ps.Release()
			if err != nil {
				t.Fatalf("reopened store has no spans for the virtual column: %v", err)
			}
			got, err := reopened.ColumnErr("upper(country)")
			if err != nil {
				t.Fatal(err)
			}
			if got.Kind != built.Kind || !got.Virtual {
				t.Fatalf("reloaded column kind/virtual mismatch: %v %v", got.Kind, got.Virtual)
			}
			for ci := range built.Chunks {
				for r := 0; r < built.Chunks[ci].Rows(); r++ {
					if !built.ValueAt(ci, r).Equal(got.ValueAt(ci, r)) {
						t.Fatalf("chunk %d row %d: %v != %v", ci, r, built.ValueAt(ci, r), got.ValueAt(ci, r))
					}
				}
			}
		})
	}
}

// TestVirtualSidecarExactColdReads checks that a persisted virtual column
// on a per-record-compressed store serves single-chunk cold loads by exact
// byte range, like any physical column: one pinned chunk is charged
// exactly its compressed record plus the dictionary's frames, each one
// cold dictionary entry.
func TestVirtualSidecarExactColdReads(t *testing.T) {
	_, dir := buildSavedStore(t, 3000, "zippy")
	warm, _, err := OpenLazy(dir, memmgr.New(0, ""))
	if err != nil {
		t.Fatal(err)
	}
	materializeUpper(t, warm, "upper(country)")

	cold, _, err := OpenLazy(dir, memmgr.New(0, ""))
	if err != nil {
		t.Fatal(err)
	}
	_, lay, _ := columnOf(t, cold.lazy.reader, "upper(country)")
	if lay.numFrames() == 0 || lay.chunk(0).clen == 0 {
		t.Fatalf("sidecar not per-record compressed: %+v", lay)
	}
	ps := cold.NewPinSet()
	defer ps.Release()
	active := make([]bool, cold.NumChunks())
	active[0] = true
	if _, err := ps.ColumnDict("upper(country)"); err != nil {
		t.Fatal(err)
	}
	if _, err := ps.ColumnChunks("upper(country)", active); err != nil {
		t.Fatal(err)
	}
	if err := ps.PinChunkFrames(context.Background(), "upper(country)", active); err != nil {
		t.Fatal(err)
	}
	want := lay.chunk(0).clen + lay.dictFileLen()
	if ps.DiskBytesRead != want {
		t.Fatalf("one virtual chunk + dict charged %d bytes, want exact records %d", ps.DiskBytesRead, want)
	}
	if ps.ColdChunkLoads != 1 || ps.ColdDictLoads != int64(lay.numFrames()) {
		t.Fatalf("cold loads = %d chunks / %d dictionary frames, want 1/%d", ps.ColdChunkLoads, ps.ColdDictLoads, lay.numFrames())
	}
}

// TestVirtualPersistFallback: when the sidecar cannot be created (here a
// plain file squats on the virtual/ path), materialization falls back to
// in-registry residency — unevictable, but correct and visible in
// UnevictableVirtualBytes.
func TestVirtualPersistFallback(t *testing.T) {
	_, dir := buildSavedStore(t, 2000, "zippy")
	if err := os.WriteFile(filepath.Join(dir, virtualSubdir), []byte("squat"), 0o644); err != nil {
		t.Fatal(err)
	}
	lazy, _, err := OpenLazy(dir, memmgr.New(0, ""))
	if err != nil {
		t.Fatal(err)
	}
	col := materializeUpper(t, lazy, "upper(country)")
	if lazy.residentColumn("upper(country)") == nil {
		t.Fatal("fallback materialization should live in the registry")
	}
	if got := lazy.UnevictableVirtualBytes(); got != col.Memory().Total() {
		t.Fatalf("UnevictableVirtualBytes = %d, want %d", got, col.Memory().Total())
	}
	if ms := lazy.MemManager().Stats(); ms.VirtualBytes != 0 {
		t.Fatalf("manager should hold no virtual bytes on fallback, got %d", ms.VirtualBytes)
	}
}

// TestVirtualPersistDisabled: DisableVirtualPersist forces the registry
// path even on a writable chunk-granular store.
func TestVirtualPersistDisabled(t *testing.T) {
	_, dir := buildSavedStore(t, 2000, "zippy")
	lazy, _, err := OpenLazy(dir, memmgr.New(0, ""))
	if err != nil {
		t.Fatal(err)
	}
	lazy.DisableVirtualPersist()
	materializeUpper(t, lazy, "upper(country)")
	if lazy.residentColumn("upper(country)") == nil {
		t.Fatal("disabled persistence should fall back to the registry")
	}
	if _, err := os.Stat(filepath.Join(dir, virtualSubdir)); !os.IsNotExist(err) {
		t.Fatalf("no sidecar should be written, stat err = %v", err)
	}
	if lazy.UnevictableVirtualBytes() == 0 {
		t.Fatal("registry virtual bytes should be visible")
	}
}

// TestVirtualEvictReload forces the persisted virtual column out of a tiny
// budget and checks the reloaded bytes decode to the same values — the
// "evictable and reloadable" half of the acceptance criterion at the
// colstore level.
func TestVirtualEvictReload(t *testing.T) {
	_, dir := buildSavedStore(t, 3000, "zippy")
	mgr := memmgr.New(1, "") // 1 byte: everything evicts the moment it unpins
	lazy, _, err := OpenLazy(dir, mgr)
	if err != nil {
		t.Fatal(err)
	}
	built := materializeUpper(t, lazy, "upper(country)")
	st := mgr.Stats()
	if st.ResidentBytes > 1 {
		t.Fatalf("resident %d bytes after release under a 1-byte budget", st.ResidentBytes)
	}
	if st.VirtualBytes != 0 {
		t.Fatalf("virtual gauge %d after everything evicted", st.VirtualBytes)
	}
	got, err := lazy.ColumnErr("upper(country)")
	if err != nil {
		t.Fatal(err)
	}
	for ci := range built.Chunks {
		for r := 0; r < built.Chunks[ci].Rows(); r++ {
			if !built.ValueAt(ci, r).Equal(got.ValueAt(ci, r)) {
				t.Fatalf("chunk %d row %d differs after evict+reload", ci, r)
			}
		}
	}
}

// TestVirtualGaugeOnReload: a virtual column reloaded from the sidecar by
// a fresh store (not the one that materialized it) is still tagged in the
// manager's VirtualBytes gauge — virtual-ness comes from the sidecar
// metadata, not from the materializing session.
func TestVirtualGaugeOnReload(t *testing.T) {
	_, dir := buildSavedStore(t, 3000, "zippy")
	lazy, _, err := OpenLazy(dir, memmgr.New(0, ""))
	if err != nil {
		t.Fatal(err)
	}
	materializeUpper(t, lazy, "upper(country)")
	reopened, _, err := OpenLazy(dir, memmgr.New(0, ""))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reopened.ColumnErr("upper(country)"); err != nil {
		t.Fatal(err)
	}
	if st := reopened.MemManager().Stats(); st.VirtualBytes == 0 {
		t.Fatal("reloaded virtual column not tagged in VirtualBytes")
	}
}

// TestVirtualSidecarCrossStoreNoOverwrite: two Stores on one directory
// (replicas) materialize different expressions. Column files are claimed
// O_EXCL, so the second persist must not overwrite bytes the first
// store's Reader already recorded ranges for — after eviction, the first
// store reloads its own column intact even though the sidecar manifest is
// last-writer-wins.
func TestVirtualSidecarCrossStoreNoOverwrite(t *testing.T) {
	_, dir := buildSavedStore(t, 3000, "zippy")
	// Separate managers: 1-byte budgets so everything evicts on release
	// and reloads go back to the files.
	a, _, err := OpenLazy(dir, memmgr.New(1, ""))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := OpenLazy(dir, memmgr.New(1, ""))
	if err != nil {
		t.Fatal(err)
	}
	builtA := materializeSuffix(t, a, "upper(country)", "A")
	materializeSuffix(t, b, "lower(country)", "B") // b never saw a's column
	// Both persists claimed distinct files despite both starting at seq 0.
	if _, err := os.Stat(filepath.Join(dir, virtualSubdir, "vcol_0000.bin")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, virtualSubdir, "vcol_0001.bin")); err != nil {
		t.Fatalf("second store should have claimed a fresh file: %v", err)
	}
	// a's column reloads bit-for-bit from its unclobbered file.
	got, err := a.ColumnErr("upper(country)")
	if err != nil {
		t.Fatal(err)
	}
	for ci := range builtA.Chunks {
		for r := 0; r < builtA.Chunks[ci].Rows(); r++ {
			if !builtA.ValueAt(ci, r).Equal(got.ValueAt(ci, r)) {
				t.Fatalf("chunk %d row %d clobbered by the racing persist", ci, r)
			}
		}
	}
	// A reopen sees the last-written manifest (b's) — lose, never corrupt.
	reopened, _, err := OpenLazy(dir, memmgr.New(0, ""))
	if err != nil {
		t.Fatal(err)
	}
	if !reopened.HasColumn("lower(country)") {
		t.Fatal("reopen lost the last writer's column too")
	}
}

// TestVirtualSidecarSurvivesInPlaceSave: Save-ing a store with persisted
// virtual columns back into its own directory promotes them into the main
// manifest but leaves the (now stale) sidecar behind; the next OpenLazy
// must skip the duplicate sidecar entries instead of failing the open.
func TestVirtualSidecarSurvivesInPlaceSave(t *testing.T) {
	_, dir := buildSavedStore(t, 2000, "zippy")
	lazy, _, err := OpenLazy(dir, memmgr.New(0, ""))
	if err != nil {
		t.Fatal(err)
	}
	built := materializeUpper(t, lazy, "upper(country)")
	if err := Save(lazy, dir, "zippy"); err != nil {
		t.Fatal(err)
	}
	reopened, _, err := OpenLazy(dir, memmgr.New(0, ""))
	if err != nil {
		t.Fatalf("reopen after in-place save: %v", err)
	}
	meta, ok := reopened.ColumnMeta("upper(country)")
	if !ok || !meta.Virtual {
		t.Fatalf("promoted virtual column missing: %+v ok=%v", meta, ok)
	}
	got, err := reopened.ColumnErr("upper(country)")
	if err != nil {
		t.Fatal(err)
	}
	if !built.ValueAt(0, 0).Equal(got.ValueAt(0, 0)) {
		t.Fatal("promoted column serves different values")
	}
}

// TestVirtualMaterializeRaceAdopts: a second AddVirtualColumnPinned of the
// same name (two engines racing on one store) adopts the existing column
// instead of failing the losing query.
func TestVirtualMaterializeRaceAdopts(t *testing.T) {
	_, dir := buildSavedStore(t, 2000, "zippy")
	lazy, _, err := OpenLazy(dir, memmgr.New(0, ""))
	if err != nil {
		t.Fatal(err)
	}
	built := materializeUpper(t, lazy, "upper(country)")
	vals := make([]value.Value, 0, lazy.NumRows())
	for ci := 0; ci < lazy.NumChunks(); ci++ {
		for r := 0; r < lazy.ChunkRows(ci); r++ {
			vals = append(vals, built.ValueAt(ci, r))
		}
	}
	ps := lazy.NewPinSet()
	defer ps.Release()
	got, err := lazy.AddVirtualColumnPinned(ps, valueColumn("upper(country)", value.KindString, vals))
	if err != nil {
		t.Fatalf("losing materializer should adopt, got %v", err)
	}
	if !got.ValueAt(0, 0).Equal(built.ValueAt(0, 0)) {
		t.Fatal("adopted column serves different values")
	}
}

// TestVirtualReuseAfterClose: Store.Close drops file handles and memos;
// the persisted virtual column must still load afterwards.
func TestVirtualReuseAfterClose(t *testing.T) {
	_, dir := buildSavedStore(t, 2000, "zippy")
	mgr := memmgr.New(1, "")
	lazy, _, err := OpenLazy(dir, mgr)
	if err != nil {
		t.Fatal(err)
	}
	built := materializeUpper(t, lazy, "upper(country)")
	if err := lazy.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := lazy.ColumnErr("upper(country)")
	if err != nil {
		t.Fatal(err)
	}
	if !built.ValueAt(0, 0).Equal(got.ValueAt(0, 0)) {
		t.Fatal("value mismatch after Close")
	}
}

// TestVirtualSidecarLoseNothingAcrossHandles is the cross-writer story:
// two store handles on the same directory (two processes in real life)
// each materialize a different virtual column. Under the old
// single-manifest sidecar the second persist overwrote the first
// (last-writer-wins); the generation chain makes each persist read the
// newest generation, merge, and claim the next — both columns survive.
func TestVirtualSidecarLoseNothingAcrossHandles(t *testing.T) {
	_, dir := buildSavedStore(t, 3000, "zippy")
	s1, _, err := OpenLazy(dir, memmgr.New(0, ""))
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := OpenLazy(dir, memmgr.New(0, ""))
	if err != nil {
		t.Fatal(err)
	}
	// Neither handle knows about the other's materialization.
	materializeSuffix(t, s1, "va", "_a")
	materializeSuffix(t, s2, "vb", "_b")

	vm := sidecarManifest(t, dir)
	if len(vm.Columns) != 2 {
		t.Fatalf("newest sidecar generation lists %d columns, want both: %+v", len(vm.Columns), vm.Columns)
	}
	if vm.Gen < 2 {
		t.Fatalf("generation chain did not advance: gen %d", vm.Gen)
	}

	// A third handle sees both, bit-for-bit.
	s3, _, err := OpenLazy(dir, memmgr.New(0, ""))
	if err != nil {
		t.Fatal(err)
	}
	for name, suffix := range map[string]string{"va": "_a", "vb": "_b"} {
		col, err := s3.ColumnErr(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		src, err := s3.ColumnErr("country")
		if err != nil {
			t.Fatal(err)
		}
		for ci := 0; ci < s3.NumChunks(); ci++ {
			for r := 0; r < s3.ChunkRows(ci); r++ {
				want := src.ValueAt(ci, r).Str() + suffix
				if got := col.ValueAt(ci, r).Str(); got != want {
					t.Fatalf("%s chunk %d row %d = %q, want %q", name, ci, r, got, want)
				}
			}
		}
	}
}

// TestGCVirtualSidecar: superseded generation manifests and unreferenced
// column files are collected; the live generation's files survive.
func TestGCVirtualSidecar(t *testing.T) {
	_, dir := buildSavedStore(t, 3000, "")
	s, _, err := OpenLazy(dir, memmgr.New(0, ""))
	if err != nil {
		t.Fatal(err)
	}
	materializeSuffix(t, s, "va", "_a")
	materializeSuffix(t, s, "vb", "_b") // advances the chain: gen 1 is now dead
	// Plant an orphan column file, as a crashed materialization would.
	if err := os.WriteFile(filepath.Join(dir, virtualSubdir, "vcol_9999.bin"), []byte("orphan"), 0o644); err != nil {
		t.Fatal(err)
	}
	files, bytes := s.GCVirtualSidecar()
	if files < 2 || bytes <= 0 {
		t.Fatalf("GC removed %d files / %d bytes, want ≥2 files (dead gen + orphan)", files, bytes)
	}
	// Live state intact.
	vm := sidecarManifest(t, dir)
	if len(vm.Columns) != 2 {
		t.Fatalf("GC damaged the live generation: %+v", vm.Columns)
	}
	reopened, _, err := OpenLazy(dir, memmgr.New(0, ""))
	if err != nil {
		t.Fatal(err)
	}
	if !reopened.HasColumn("va") || !reopened.HasColumn("vb") {
		t.Fatal("GC lost a live virtual column")
	}
	// Idempotent: nothing left to collect.
	if files, _ := s.GCVirtualSidecar(); files != 0 {
		t.Fatalf("second GC removed %d files, want 0", files)
	}
}

// TestVirtualSidecarTornGeneration: a crashed sidecar commit's garbage —
// unparseable bytes, or a parseable manifest whose integrity check fails
// — at a higher generation number must not mask the good generation: the
// store opens and the virtual column still loads bit-for-bit.
func TestVirtualSidecarTornGeneration(t *testing.T) {
	for _, torn := range []struct {
		name string
		blob func(good []byte) []byte
	}{
		{"garbage", func([]byte) []byte { return []byte("{not a manifest") }},
		{"bad-check", func(good []byte) []byte {
			// Parseable JSON, wrong Check: flip a byte inside the column
			// file name.
			b := append([]byte(nil), good...)
			at := strings.Index(string(b), "vcol_")
			if at < 0 {
				t.Fatal("no virtual column file in sidecar manifest")
			}
			b[at+5] ^= 0x01
			return b
		}},
	} {
		t.Run(torn.name, func(t *testing.T) {
			_, dir := buildSavedStore(t, 1500, "zippy")
			lazy, _, err := OpenLazy(dir, memmgr.New(0, ""))
			if err != nil {
				t.Fatal(err)
			}
			built := materializeUpper(t, lazy, "upper(country)")
			vm := sidecarManifest(t, dir)
			vdir := filepath.Join(dir, virtualSubdir)
			goodBlob, err := os.ReadFile(filepath.Join(vdir, sidecarChain(dir).Name(vm.Gen)))
			if err != nil {
				t.Fatal(err)
			}
			tornPath := filepath.Join(vdir, sidecarChain(dir).Name(vm.Gen+1))
			if err := os.WriteFile(tornPath, torn.blob(goodBlob), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := lazy.Close(); err != nil {
				t.Fatal(err)
			}

			reopened, _, err := OpenLazy(dir, memmgr.New(0, ""))
			if err != nil {
				t.Fatalf("torn sidecar generation breaks open: %v", err)
			}
			defer reopened.Close()
			got, err := reopened.ColumnErr("upper(country)")
			if err != nil {
				t.Fatal(err)
			}
			for ci := range built.Chunks {
				for r := 0; r < built.Chunks[ci].Rows(); r++ {
					if !built.ValueAt(ci, r).Equal(got.ValueAt(ci, r)) {
						t.Fatalf("chunk %d row %d: %v != %v", ci, r, built.ValueAt(ci, r), got.ValueAt(ci, r))
					}
				}
			}
			// The scrub names the torn file.
			var verdicts []ScrubFile
			for _, f := range ScrubDir(dir, dir) {
				if f.Kind == "sidecar-manifest" && !f.OK() {
					verdicts = append(verdicts, f)
				}
			}
			if len(verdicts) != 1 || !strings.HasSuffix(verdicts[0].Path, sidecarChain(dir).Name(vm.Gen+1)) {
				t.Fatalf("scrub verdicts for torn sidecar = %+v", verdicts)
			}
		})
	}
}
