package colstore

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"powerdrill/internal/compress"
	"powerdrill/internal/memmgr"
	"powerdrill/internal/value"
)

// TestPerChunkCompressedRoundTrip pins per-record framing: for every
// registered codec, a per-record-compressed save must open bit-for-bit identically —
// eagerly and lazily — and single-chunk/single-dictionary loads must read
// exactly the compressed record's byte range, nothing more.
func TestPerChunkCompressedRoundTrip(t *testing.T) {
	for _, codec := range compress.Names() {
		t.Run(codec, func(t *testing.T) {
			built, dir := buildSavedStore(t, 3000, codec)
			eager, _, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			assertColumnsEqual(t, built, eager)
			lazy, _, err := OpenLazy(dir, memmgr.New(0, ""))
			if err != nil {
				t.Fatal(err)
			}
			assertColumnsEqual(t, built, lazy)

			r, _, err := NewReader(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range built.Columns() {
				want := built.Column(name)
				dlen, err := r.DictFileLen(name)
				if err != nil || dlen <= 0 {
					t.Fatalf("column %q: no exact dictionary range (err=%v len=%d)", name, err, dlen)
				}
				if _, disk, err := r.LoadColumnDict(name); err != nil || disk != dlen {
					t.Fatalf("column %q: dict load disk=%d want %d (err=%v)", name, disk, dlen, err)
				}
				for ci := range want.Chunks {
					off, n, err := r.ChunkFileRange(name, ci)
					if err != nil || n <= 0 || off < dlen {
						t.Fatalf("column %q chunk %d: bad range err=%v off=%d n=%d", name, ci, err, off, n)
					}
					ch, disk, err := r.LoadColumnChunk(name, ci)
					if err != nil {
						t.Fatalf("column %q chunk %d: %v", name, ci, err)
					}
					if disk != n {
						t.Fatalf("column %q chunk %d: charged %d disk bytes, exact range is %d", name, ci, disk, n)
					}
					wch := want.Chunks[ci]
					if ch.Rows() != wch.Rows() || ch.Cardinality() != wch.Cardinality() {
						t.Fatalf("column %q chunk %d shape mismatch", name, ci)
					}
					for rIdx := 0; rIdx < wch.Rows(); rIdx++ {
						if ch.Elems.At(rIdx) != wch.Elems.At(rIdx) {
							t.Fatalf("column %q chunk %d elem %d mismatch", name, ci, rIdx)
						}
					}
				}
			}
		})
	}
}

// TestPerChunkCompressedSmallerThanFile checks the point of exact reads:
// one chunk's charged bytes must be a strict subset of the column file.
func TestPerChunkCompressedSmallerThanFile(t *testing.T) {
	_, dir := buildSavedStore(t, 4000, "zippy")
	r, _, err := NewReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, "col_0000.bin"))
	if err != nil {
		t.Fatal(err)
	}
	name := r.Columns()[0].Name
	_, disk, err := r.LoadColumnChunk(name, 0)
	if err != nil {
		t.Fatal(err)
	}
	if disk <= 0 || disk >= fi.Size() {
		t.Fatalf("chunk 0 charged %d bytes of a %d byte file; want a strict subrange", disk, fi.Size())
	}
}

// TestReadChunkRuns checks run coalescing: contiguous chunks collapse into
// one read, a gap splits the runs, and the records decode identically to
// individual loads.
func TestReadChunkRuns(t *testing.T) {
	for _, codec := range []string{"", "zippy"} {
		name := codec
		if name == "" {
			name = "raw"
		}
		t.Run(name, func(t *testing.T) {
			built, dir := buildSavedStore(t, 4000, codec)
			r, _, err := NewReader(dir)
			if err != nil {
				t.Fatal(err)
			}
			col := built.Columns()[0]
			want := built.Column(col)
			n := built.NumChunks()
			if n < 4 {
				t.Fatalf("need at least 4 chunks, have %d", n)
			}
			all := make([]int, n)
			for i := range all {
				all[i] = i
			}
			recs, runs, coalesced, err := r.ReadChunkRuns(col, all)
			if err != nil {
				t.Fatalf("ReadChunkRuns: %v", err)
			}
			if runs != 1 {
				t.Fatalf("contiguous chunks read in %d runs, want 1", runs)
			}
			if coalesced != n-1 {
				t.Fatalf("coalesced = %d, want %d reads saved", coalesced, n-1)
			}
			for ci, rec := range recs {
				ch, err := r.DecodeChunkRecord(col, ci, rec)
				if err != nil {
					t.Fatalf("chunk %d: %v", ci, err)
				}
				wch := want.Chunks[ci]
				for rIdx := 0; rIdx < wch.Rows(); rIdx++ {
					if ch.Elems.At(rIdx) != wch.Elems.At(rIdx) {
						t.Fatalf("chunk %d elem %d mismatch", ci, rIdx)
					}
				}
			}
			// A hole splits the run.
			_, runs, coalesced, err = r.ReadChunkRuns(col, []int{0, 1, 3})
			if err != nil {
				t.Fatalf("ReadChunkRuns with gap: %v", err)
			}
			if runs != 2 {
				t.Fatalf("gapped set read in %d runs, want 2", runs)
			}
			if coalesced != 1 {
				t.Fatalf("gapped set saved %d reads, want 1 (the 0-1 pair)", coalesced)
			}
			// Ranges are total on a valid store: a chunk past the end is an
			// error, not a fall-back.
			if _, _, _, err := r.ReadChunkRuns(col, []int{0, n}); err == nil {
				t.Fatal("ReadChunkRuns accepted an out-of-range chunk")
			}
		})
	}
}

// TestUnknownCodecFailsOpen pins the failure mode of a manifest naming a
// codec this binary does not register (a store from a newer build): the
// open must error, not the first cold load.
func TestUnknownCodecFailsOpen(t *testing.T) {
	_, dir := buildSavedStore(t, 1000, "zippy")
	path := filepath.Join(dir, "manifest.json")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	m["codec"] = "from-the-future"
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewReader(dir); err == nil {
		t.Fatal("NewReader accepted an unknown codec")
	}
	if _, _, err := OpenLazy(dir, memmgr.New(0, "")); err == nil {
		t.Fatal("OpenLazy accepted an unknown codec")
	}
}

// TestReaderCloseReopens checks that Close only releases resources: loads
// after Close re-open files and still succeed.
func TestReaderCloseReopens(t *testing.T) {
	built, dir := buildSavedStore(t, 2000, "zippy")
	r, _, err := NewReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	name := built.Columns()[0]
	if _, _, err := r.LoadColumnChunk(name, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.LoadColumnChunk(name, 1); err != nil {
		t.Fatalf("load after Close: %v", err)
	}
	if io := r.IOStats(); io.FileOpens < 2 {
		t.Fatalf("expected a re-open after Close, got %d opens", io.FileOpens)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestColdLoadsDoNotAliasScratch: a pin set reads and decompresses every
// cold load into two buffers it reuses, so nothing it pins may point into
// them. Every column of a saved store is cold-loaded through one set under a
// 25 % budget — dictionary first, then the odd chunks, then the rest, so the
// buffers serve several loads and batches — the buffers are overwritten with
// junk, and every pinned dictionary and chunk must still equal, bit for bit,
// the resident store built from the same table. The uncompressed store's
// decoders read the read buffer itself.
func TestColdLoadsDoNotAliasScratch(t *testing.T) {
	for _, codec := range []string{"zippy", ""} {
		t.Run(codecLabel(codec), func(t *testing.T) {
			built, dir := buildSavedStore(t, 3000, codec)
			var total int64
			for _, name := range built.Columns() {
				total += built.Column(name).Memory().Total()
			}
			lazy, _, err := OpenLazy(dir, memmgr.New(total/4, ""))
			if err != nil {
				t.Fatal(err)
			}
			ps := lazy.NewPinSet()
			defer ps.Release()
			odd := make([]bool, lazy.NumChunks())
			for ci := range odd {
				odd[ci] = ci%2 == 1
			}
			pinned := map[string]*Column{}
			for _, name := range lazy.Columns() {
				if _, err := ps.ColumnDict(name); err != nil {
					t.Fatal(err)
				}
				if _, err := ps.ColumnChunks(name, odd); err != nil {
					t.Fatal(err)
				}
				if pinned[name], err = ps.Column(name); err != nil {
					t.Fatal(err)
				}
			}
			if want := int64(len(pinned) * lazy.NumChunks()); ps.ColdChunkLoads != want {
				t.Fatalf("%d cold chunk loads, want %d", ps.ColdChunkLoads, want)
			}
			if cap(ps.bufs.read) == 0 || (codec != "") != (cap(ps.bufs.raw) > 0) {
				t.Fatalf("buffers unused: %d read bytes, %d decompressed", cap(ps.bufs.read), cap(ps.bufs.raw))
			}
			for _, buf := range [][]byte{ps.bufs.read, ps.bufs.raw} {
				for i := range buf[:cap(buf)] {
					buf[:cap(buf)][i] = byte(i*7 + 0xa5)
				}
			}
			for name, got := range pinned {
				want := built.Column(name)
				if got.Dict.Len() != want.Dict.Len() {
					t.Fatalf("column %q: %d dictionary values, want %d", name, got.Dict.Len(), want.Dict.Len())
				}
				for id := 0; id < want.Dict.Len(); id++ {
					if g, w := got.Dict.Value(uint32(id)), want.Dict.Value(uint32(id)); !sameBits(g, w) {
						t.Fatalf("column %q: dictionary value %d is %v, want %v", name, id, g, w)
					}
				}
				for ci, wch := range want.Chunks {
					gch := got.Chunks[ci]
					if !slices.Equal(gch.GlobalIDs, wch.GlobalIDs) || gch.Elems.Width() != wch.Elems.Width() || gch.Rows() != wch.Rows() {
						t.Fatalf("column %q chunk %d: global-ids, width or rows differ", name, ci)
					}
					for r := 0; r < wch.Rows(); r++ {
						if gch.Elems.At(r) != wch.Elems.At(r) {
							t.Fatalf("column %q chunk %d row %d: element %d, want %d", name, ci, r, gch.Elems.At(r), wch.Elems.At(r))
						}
					}
				}
			}
		})
	}
}

// sameBits reports whether two values are the same kind and the same bits.
func sameBits(a, b value.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case value.KindFloat64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case value.KindInt64:
		return a.Int() == b.Int()
	}
	return a.Str() == b.Str()
}
