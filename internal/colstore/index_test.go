package colstore

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"powerdrill/internal/memmgr"
	"powerdrill/internal/table"
	"powerdrill/internal/value"
	"powerdrill/internal/workload"
)

// savedLayout reads the named column's layout record from the store saved
// in dir.
func savedLayout(t testing.TB, dir, name string) *columnLayout {
	t.Helper()
	r, _, err := NewReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, lay, err := r.layoutOf(name)
	if err != nil {
		t.Fatal(err)
	}
	return lay
}

// columnOf resolves a column of r: its manifest entry, layout and kind.
func columnOf(t testing.TB, r *Reader, name string) (manifestCol, *columnLayout, value.Kind) {
	t.Helper()
	mc, lay, err := r.layoutOf(name)
	if err != nil {
		t.Fatal(err)
	}
	kind, err := value.ParseKind(mc.Kind)
	if err != nil {
		t.Fatal(err)
	}
	return mc, lay, kind
}

// entries decodes every frame and chunk entry of a layout.
func entries(lay *columnLayout) (frames []frameEntry, chunks []chunkEntry) {
	for i := range lay.numFrames() {
		frames = append(frames, lay.frame(i))
	}
	for i := range lay.numChunks() {
		chunks = append(chunks, lay.chunk(i))
	}
	return frames, chunks
}

// fileLayout decodes the layout record of a column file encodeColumn
// rendered.
func fileLayout(t testing.TB, file []byte, mc manifestCol) *columnLayout {
	t.Helper()
	lay, err := decodeLayout(file[mc.Index.Off : mc.Index.Off+mc.Index.Len])
	if err != nil {
		t.Fatal(err)
	}
	return lay
}

// FuzzColumnIndex feeds arbitrary bytes to the layout record decoder.
// Each input must be refused, or decode to a layout that re-encodes to the
// very same bytes — a decode is exact, so nothing a record does not say
// can reach a reader. A decode never panics, and never holds more than a
// small multiple of the input's length: every count is bounded by the
// bytes left before anything is allocated. A layout the checks of a
// numeric column accept holds an 8-byte key as every frame's first value,
// which a paged dictionary finds a number's frame by. The seeds are layout
// records of string columns, an older build's Bloom record
// (testdata/bloom8), a few short inputs, and layout records of an int64
// and a float64 column.
func FuzzColumnIndex(f *testing.F) {
	_, dir := buildSparseStore(f, 3000, "zippy")
	r, _, err := NewReader(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range []string{"tag", "p"} {
		mc, _ := r.colMeta(name)
		rec, err := r.readIndexRecord(mc, mc.Index)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec)
	}
	old, _, err := readManifest("testdata/bloom8")
	if err != nil {
		f.Fatal(err)
	}
	for _, mc := range old.Columns {
		if mc.Name == "table_name" {
			data, err := os.ReadFile(filepath.Join("testdata/bloom8", mc.File))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data[mc.Bloom.Off : mc.Bloom.Off+mc.Bloom.Len])
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{1, 0x80, 0})
	ints, floats := make([]int64, 3000), make([]float64, 3000)
	for i := range ints {
		ints[i], floats[i] = int64(i*i)-1<<40, float64(i%7)-2.5
	}
	built, err := FromTable(table.New("d").AddInt64Column("n", ints).AddFloat64Column("x", floats), Options{MaxChunkRows: 500})
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range []string{"n", "x"} {
		file, mc := encodeColumn(built.Column(name), nil)
		f.Add(file[mc.Index.Off:])
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		const slack = 128
		lay, err := decodeLayout(rec)
		if err != nil {
			return
		}
		frames, chunks := entries(lay)
		if got := appendLayout(nil, frames, lay.spans, chunks); !bytes.Equal(got, rec) {
			t.Fatalf("layout %x re-encodes to %x", rec, got)
		}
		if held := lay.memoryBytes(); held > 8*int64(len(rec))+slack {
			t.Fatalf("a %d-byte layout record holds %d bytes", len(rec), held)
		}
		m := &manifest{Format: formatVersion, Bounds: make([]int, lay.numChunks()+1), Codec: "zippy"}
		if m.checkLayout(manifestCol{Name: "n", Kind: "int64"}, lay) == nil {
			for i, fr := range frames {
				if len(fr.first) != 8 {
					t.Fatalf("a numeric layout accepted with a %d-byte first value in frame %d", len(fr.first), i)
				}
			}
		}
	})
}

// TestManifestSizeIndependentOfChunks: the manifest holds only what is per
// store or per column. One table saved at about 100 and about 1 000 chunks
// gives manifests that differ in the bounds array alone, once the setting
// that makes the difference (max_chunk_rows) and the byte range and CRC of
// each layout record — three numbers a record, whatever its chunk count —
// are set aside.
func TestManifestSizeIndependentOfChunks(t *testing.T) {
	const rows = 20_000
	logs := workload.QueryLogs(workload.LogsSpec{Rows: rows, Seed: 1})
	tbl := table.New("logs").
		AddInt64Column("timestamp", logs.Column("timestamp").Ints).
		AddStringColumn("table_name", logs.Column("table_name").Strs).
		AddInt64Column("latency", logs.Column("latency").Ints).
		AddStringColumn("country", logs.Column("country").Strs).
		AddStringColumn("user", logs.Column("user").Strs)
	var masked [2][]byte
	for i, maxRows := range []int{rows / 100, rows / 1200} {
		s, err := FromTable(tbl, Options{PartitionFields: []string{"country", "table_name"}, MaxChunkRows: maxRows, OptimizeElements: true})
		if err != nil {
			t.Fatal(err)
		}
		if lo := []int{100, 1000}[i]; s.NumChunks() < lo*3/4 || s.NumChunks() > lo*3/2 {
			t.Fatalf("MaxChunkRows %d gives %d chunks, want about %d", maxRows, s.NumChunks(), lo)
		}
		dir := t.TempDir()
		if err := Save(s, dir, "zippy"); err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(blob, &m); err != nil {
			t.Fatal(err)
		}
		delete(m, "bounds")
		delete(m["options"].(map[string]any), "max_chunk_rows")
		for _, c := range m["columns"].([]any) {
			ref := c.(map[string]any)["index"].(map[string]any)
			for k := range ref {
				ref[k] = 0
			}
		}
		if masked[i], err = json.Marshal(m); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(masked[0], masked[1]) {
		t.Fatalf("the manifests differ past their bounds:\n%s\n%s", masked[0], masked[1])
	}
}

// TestIndexEntriesChargedTheirDecodedSize: a column's layout entry is
// charged what its decoded value holds on the heap, walked by reflection,
// in one load.
func TestIndexEntriesChargedTheirDecodedSize(t *testing.T) {
	_, dir := buildSparseStore(t, 4000, "zippy")
	mgr := memmgr.New(1<<30, "")
	s, _, err := OpenLazy(dir, mgr)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r := s.lazy.reader
	for _, name := range s.Columns() {
		mc, _ := r.colMeta(name)
		ps := s.NewPinSet()
		before := mgr.Stats()
		if _, err := ps.ChunkSpans(name); err != nil {
			t.Fatal(err)
		}
		lay, _, err := r.layout(mc)
		if err != nil {
			t.Fatal(err)
		}
		after := mgr.Stats()
		if got, want := after.ResidentBytes-before.ResidentBytes, heapBytes(reflect.ValueOf(lay)); got != want || after.ColdLoads != before.ColdLoads+1 {
			t.Errorf("%s: layout charged %d bytes in %d loads, holds %d", name, got, after.ColdLoads-before.ColdLoads, want)
		}
		ps.Release()
	}
}

// heapBytes is what v holds on the heap, walked by reflection: a pointer's
// target, a slice's backing array and a string's bytes, and what those hold
// in turn.
func heapBytes(v reflect.Value) int64 {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return 0
		}
		return int64(v.Type().Elem().Size()) + heapBytes(v.Elem())
	case reflect.Slice:
		n := int64(v.Cap()) * int64(v.Type().Elem().Size())
		for i := 0; i < v.Len(); i++ {
			n += heapBytes(v.Index(i))
		}
		return n
	case reflect.String:
		return int64(v.Len())
	case reflect.Struct:
		var n int64
		for i := 0; i < v.NumField(); i++ {
			n += heapBytes(v.Field(i))
		}
		return n
	}
	return 0
}
