package colstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"powerdrill/internal/compress"
	"powerdrill/internal/dict"
	"powerdrill/internal/enc"
	"powerdrill/internal/value"
)

// compressByName returns the zippy codec for tests.
func compressByName(t testing.TB) (compress.Codec, error) {
	t.Helper()
	return compress.ByName("zippy")
}

func TestSaveOpenRoundTrip(t *testing.T) {
	src := logs(3000)
	for _, codec := range []string{"", "zippy", "lzoish"} {
		for name, opts := range variants() {
			t.Run(name+"/"+codecLabel(codec), func(t *testing.T) {
				s, err := FromTable(src, opts)
				if err != nil {
					t.Fatal(err)
				}
				dir := t.TempDir()
				if err := Save(s, dir, codec); err != nil {
					t.Fatal(err)
				}
				back, stats, err := Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				if stats.BytesRead <= 0 || stats.Files != len(s.Columns())+1 {
					t.Errorf("stats = %+v", stats)
				}
				if back.NumRows() != s.NumRows() || back.NumChunks() != s.NumChunks() {
					t.Fatalf("shape changed: %d/%d vs %d/%d",
						back.NumRows(), back.NumChunks(), s.NumRows(), s.NumChunks())
				}
				reconstruct(t, back, src)
			})
		}
	}
}

func codecLabel(c string) string {
	if c == "" {
		return "raw"
	}
	return c
}

func TestOpenPreservesVirtualColumns(t *testing.T) {
	s, err := FromTable(logs(500), Options{OptimizeElements: true})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]value.Value, s.NumRows())
	for i := range vals {
		vals[i] = value.Int64(int64(i % 7))
	}
	if _, err := s.AddVirtualColumn("vf", value.KindInt64, vals); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Save(s, dir, "zippy"); err != nil {
		t.Fatal(err)
	}
	back, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	col := back.Column("vf")
	if col == nil || !col.Virtual {
		t.Fatal("virtual column lost")
	}
}

func TestCompressedFilesSmaller(t *testing.T) {
	s, err := FromTable(logs(20_000), Options{
		PartitionFields: []string{"country", "table_name"}, MaxChunkRows: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	rawDir, zipDir := t.TempDir(), t.TempDir()
	if err := Save(s, rawDir, ""); err != nil {
		t.Fatal(err)
	}
	if err := Save(s, zipDir, "zippy"); err != nil {
		t.Fatal(err)
	}
	if rs, zs := dirSize(t, rawDir), dirSize(t, zipDir); zs >= rs {
		t.Errorf("compressed store %d >= raw %d", zs, rs)
	}
}

func dirSize(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return total
}

func TestOpenErrors(t *testing.T) {
	if _, _, err := Open(t.TempDir()); err == nil {
		t.Error("Open(empty dir) succeeded")
	}
	// Corrupt manifest.
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{not json"), 0o644)
	if _, _, err := Open(dir); err == nil {
		t.Error("Open(corrupt manifest) succeeded")
	}
	// Valid manifest, missing column file.
	dir2 := t.TempDir()
	s, _ := FromTable(logs(100), Options{})
	if err := Save(s, dir2, ""); err != nil {
		t.Fatal(err)
	}
	os.Remove(filepath.Join(dir2, "col_0000.bin"))
	if _, _, err := Open(dir2); err == nil {
		t.Error("Open(missing column) succeeded")
	}
	// Truncated column file.
	dir3 := t.TempDir()
	if err := Save(s, dir3, ""); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir3, "col_0001.bin")
	raw, _ := os.ReadFile(path)
	os.WriteFile(path, raw[:len(raw)/2], 0o644)
	if _, _, err := Open(dir3); err == nil {
		t.Error("Open(truncated column) succeeded")
	}
}

func TestSaveUnknownCodec(t *testing.T) {
	s, _ := FromTable(logs(10), Options{})
	if err := Save(s, t.TempDir(), "bogus"); err == nil {
		t.Error("unknown codec accepted")
	}
}

func BenchmarkSave(b *testing.B) {
	s, err := FromTable(logs(50_000), Options{
		PartitionFields: []string{"country", "table_name"}, MaxChunkRows: 5000,
		OptimizeElements: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Save(s, dir, "zippy"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpen(b *testing.B) {
	s, err := FromTable(logs(50_000), Options{
		PartitionFields: []string{"country", "table_name"}, MaxChunkRows: 5000,
		OptimizeElements: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if err := Save(s, dir, "zippy"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Open(dir); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeChunkRejectsHostile: a chunk record is not trusted, since a
// generation 1–4 store has no checksum to catch a damaged one. A cardinality
// the record's bytes cannot hold fails before anything is allocated for it;
// global-ids that do not ascend strictly within uint32, and an element
// outside the chunk dictionary — which a scan kernel would index its tables
// with — are refused. The same record with a good element decodes.
func TestDecodeChunkRejectsHostile(t *testing.T) {
	uv := func(vs ...uint64) []byte {
		var out []byte
		for _, v := range vs {
			out = appendUvarint(out, v)
		}
		return out
	}
	// record: the global-id deltas, then three 1-byte elements.
	record := func(deltas []uint64, elems ...byte) []byte {
		out := uv(uint64(len(deltas)))
		out = append(out, uv(deltas...)...)
		out = append(out, byte(enc.Width8))
		out = append(out, uv(uint64(len(elems)), uint64(len(elems)))...)
		return append(out, elems...)
	}
	for _, c := range []struct {
		name string
		rec  []byte
		ok   bool
	}{
		{"cardinality 1<<28 in 5 bytes", uv(1 << 28), false},
		{"element 200 of 2", record([]uint64{3, 4}, 0, 200, 1), false},
		{"element 2 of 2", record([]uint64{3, 4}, 0, 2, 1), false},
		{"repeated global-id", record([]uint64{3, 0}, 0, 1, 1), false},
		{"global-id past uint32", record([]uint64{3, math.MaxUint32}, 0, 1, 1), false},
		{"first global-id past uint32", record([]uint64{math.MaxUint32 + 1, 1}, 0, 1, 1), false},
		{"good", record([]uint64{3, 4}, 0, 1, 1), true},
		{"good, last global-id MaxUint32", record([]uint64{math.MaxUint32 - 1, 1}, 0, 1, 1), true},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ch, err := decodeChunk(&byteReader{buf: c.rec})
		runtime.ReadMemStats(&after)
		if (err == nil) != c.ok {
			t.Errorf("%s: error %v, want ok=%v", c.name, err, c.ok)
			continue
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decoding %d bytes allocated %d", c.name, len(c.rec), grew)
		}
		if err != nil {
			continue
		}
		counts := make([]int64, ch.Cardinality())
		ch.Elems.CountInto(counts)
		if ch.Rows() != 3 || counts[0] != 1 || counts[1] != 2 {
			t.Errorf("%s: %d rows, counts %v", c.name, ch.Rows(), counts)
		}
	}
}

// TestDecodeDictRejectsHostile: a dictionary record is not trusted either. A
// count the record's bytes cannot hold — eight a number, at least one a
// string — fails before anything is allocated for it (an int64 count of
// 2⁶³−1 used to panic in make, a string count of 2³² to run the process out
// of memory), and values that do not ascend strictly fail with an error
// instead of the constructors' panic, for every string dictionary kind. The
// good records decode to their values; the chunk-count varint after them is
// left unread.
func TestDecodeDictRejectsHostile(t *testing.T) {
	rec := func(n uint64, vals ...any) []byte {
		out := appendUvarint(nil, n)
		for _, v := range vals {
			switch v := v.(type) {
			case int64:
				out = binary.LittleEndian.AppendUint64(out, uint64(v))
			case float64:
				out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
			case string:
				out = append(appendUvarint(out, uint64(len(v))), v...)
			}
		}
		return appendUvarint(out, 7) // the head record's chunk count
	}
	for _, c := range []struct {
		name string
		kind value.Kind
		rec  []byte
		want []value.Value // nil: an error
	}{
		{"int64 count 2^63-1", value.KindInt64, rec(math.MaxInt64, int64(1)), nil},
		{"float64 count 2^40", value.KindFloat64, rec(1<<40, 1.5), nil},
		{"string count 2^32", value.KindString, rec(1<<32, "a", "b"), nil},
		{"int64 count past the bytes", value.KindInt64, rec(3, int64(1), int64(2)), nil},
		{"string count past the bytes", value.KindString, rec(4, "a", "b"), nil},
		{"int64 repeated", value.KindInt64, rec(2, int64(5), int64(5)), nil},
		{"int64 descending", value.KindInt64, rec(3, int64(-1), int64(7), int64(5)), nil},
		{"float64 repeated", value.KindFloat64, rec(2, 1.5, 1.5), nil},
		{"string descending", value.KindString, rec(2, "b", "a"), nil},
		{"string repeated", value.KindString, rec(3, "", "a", "a"), nil},
		{"int64", value.KindInt64, rec(3, int64(-4), int64(0), int64(9)),
			[]value.Value{value.Int64(-4), value.Int64(0), value.Int64(9)}},
		{"float64", value.KindFloat64, rec(2, -0.5, 2.25), []value.Value{value.Float64(-0.5), value.Float64(2.25)}},
		{"string", value.KindString, rec(3, "", "a", "ab"), []value.Value{value.String(""), value.String("a"), value.String("ab")}},
		{"empty", value.KindString, rec(0), []value.Value{}},
	} {
		for _, sd := range []StringDictKind{StringDictArray, StringDictTrie, StringDictSharded} {
			if c.kind != value.KindString && sd != StringDictArray {
				continue
			}
			name := c.name + "/" + string(sd)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			d, err := func() (d dict.Dict, err error) {
				defer func() {
					if p := recover(); p != nil {
						err = fmt.Errorf("panic: %v", p)
						t.Errorf("%s: %v", name, err)
					}
				}()
				return decodeDict(&byteReader{buf: c.rec}, c.kind, sd)
			}()
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Errorf("%s: decoding %d bytes allocated %d", name, len(c.rec), grew)
			}
			if (err == nil) != (c.want != nil) {
				t.Errorf("%s: error %v, want ok=%v", name, err, c.want != nil)
				continue
			}
			if err != nil {
				continue
			}
			if d.Len() != len(c.want) {
				t.Errorf("%s: %d values, want %d", name, d.Len(), len(c.want))
				continue
			}
			for i, w := range c.want {
				if got := d.Value(uint32(i)); got != w {
					t.Errorf("%s: value %d is %v, want %v", name, i, got, w)
				}
			}
		}
	}
}
