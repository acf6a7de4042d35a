package colstore

import (
	"bytes"
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
	if _, err := s.AddVirtualColumn(valueColumn("vf", value.KindInt64, vals)); err != nil {
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

// TestUvarintRefusals: the cursor's uvarint gives binary.Uvarint's verdict
// wherever the varint sits — a one-byte varint, one with ten or more bytes
// left (binary.Uvarint itself), one near the end of the buffer — and
// refuses a varint that runs off the buffer, past ten bytes, or past 64
// bits in its tenth byte.
func TestUvarintRefusals(t *testing.T) {
	maxU64 := append(bytes.Repeat([]byte{0xff}, 9), 0x01)
	for _, c := range []struct {
		name string
		enc  []byte
		want uint64
		ok   bool
	}{
		{"one byte", []byte{0x7f}, 0x7f, true},
		{"two bytes", []byte{0x80, 0x01}, 0x80, true},
		{"max uint64", maxU64, math.MaxUint64, true},
		{"truncated", []byte{0x80, 0x80}, 0, false},
		{"empty", nil, 0, false},
		{"eleven bytes", append(bytes.Repeat([]byte{0x80}, 10), 0x01), 0, false},
		{"tenth byte overflows", append(bytes.Repeat([]byte{0xff}, 9), 0x02), 0, false},
	} {
		// Alone, ending the buffer, and followed by sixteen more bytes.
		for _, pad := range []int{0, 16} {
			buf := append(append([]byte(nil), c.enc...), make([]byte, pad)...)
			if pad > 0 && !c.ok && len(c.enc) < 10 {
				continue // padding would complete a truncated varint
			}
			r := &byteReader{buf: buf}
			got, err := r.uvarint()
			if (err == nil) != c.ok || got != c.want || (c.ok && r.off != len(c.enc)) {
				t.Errorf("%s, %d bytes after: %d, %v, read %d bytes", c.name, pad, got, err, r.off)
			}
		}
	}
}

// TestDecodeDictRejectsHostile: a dictionary record is not trusted either. A
// count the record's bytes cannot hold — a delta's width, at least one byte
// a string, and eight a number in the 8-byte words of generation 5 that
// only Upgrade's word decoder still reads — fails before anything is
// allocated for it (an int64 count of 2⁶³−1 used to panic in make, a
// string count of 2³² to run the process out of memory), and values that
// do not ascend strictly fail with an error instead of the constructors'
// panic, for every string dictionary kind. The delta framing refuses a
// width byte other than 1, 2, 4 or 8 or wider than its deltas need, a zero
// delta and a delta that wraps the key; the extremes of both kinds decode
// bit for bit. The good records decode to their values; the chunk-count
// varint after them is left unread.
func TestDecodeDictRejectsHostile(t *testing.T) {
	// rec is a record in the string layout, or in generation 5's numeric
	// one: the count, then each value.
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
	// deltas is a numeric record spelled out: the count, the
	// first key, then the width byte and the deltas, each delta w bytes.
	deltas := func(n, first uint64, w byte, ds ...uint64) []byte {
		out := binary.LittleEndian.AppendUint64(appendUvarint(nil, n), first)
		out = append(out, w)
		for _, d := range ds {
			for b := 0; b < int(w) && b < 8; b++ {
				out = append(out, byte(d>>(8*b)))
			}
		}
		return appendUvarint(out, 7)
	}
	// keys is a numeric record as Save writes it.
	keys := func(vals ...value.Value) []byte {
		ks := make([]uint64, len(vals))
		for i, v := range vals {
			ks[i] = numericKey(v)
		}
		return appendUvarint(appendKeyDeltas(appendUvarint(nil, uint64(len(vals))), ks), 7)
	}
	i64, f64 := value.Int64, value.Float64
	k0 := uint64(1) << 63 // the key of int64 0
	type hostile struct {
		name string
		gen  int // 5: Upgrade's word decoder reads it
		kind value.Kind
		rec  []byte
		want []value.Value // nil: an error
	}
	cases := []hostile{
		{"int64 count 2^63-1", 5, value.KindInt64, rec(math.MaxInt64, int64(1)), nil},
		{"float64 count 2^40", 5, value.KindFloat64, rec(1<<40, 1.5), nil},
		{"int64 count past the bytes", 5, value.KindInt64, rec(3, int64(1), int64(2)), nil},
		{"int64 repeated", 5, value.KindInt64, rec(2, int64(5), int64(5)), nil},
		{"int64 descending", 5, value.KindInt64, rec(3, int64(-1), int64(7), int64(5)), nil},
		{"float64 repeated", 5, value.KindFloat64, rec(2, 1.5, 1.5), nil},
		{"int64", 5, value.KindInt64, rec(3, int64(-4), int64(0), int64(9)), []value.Value{i64(-4), i64(0), i64(9)}},
		{"float64", 5, value.KindFloat64, rec(2, -0.5, 2.25), []value.Value{f64(-0.5), f64(2.25)}},
		{"float64 NaN", 5, value.KindFloat64, rec(1, math.NaN()), nil},
		{"float64 NaN last", 5, value.KindFloat64, rec(2, 1.5, math.NaN()), nil},

		{"width 0", 6, value.KindInt64, deltas(2, k0, 0), nil},
		{"width 3", 6, value.KindInt64, deltas(2, k0, 3, 1), nil},
		{"width 9", 6, value.KindInt64, deltas(2, k0, 9, 1, 0), nil},
		{"width 2 for 1-byte deltas", 6, value.KindInt64, deltas(3, k0, 2, 1, 255), nil},
		{"width byte missing", 6, value.KindInt64, binary.LittleEndian.AppendUint64(appendUvarint(nil, 2), k0), nil},
		{"first key missing", 6, value.KindFloat64, append(appendUvarint(nil, 1), 1, 2, 3), nil},
		{"count 2^62", 6, value.KindInt64, deltas(1<<62, k0, 1, 1, 2), nil},
		{"zero delta", 6, value.KindInt64, deltas(3, k0, 1, 1, 0), nil},
		{"zero delta, float64", 6, value.KindFloat64, deltas(2, numericKey(f64(1.5)), 1, 0), nil},
		{"wrapping delta", 6, value.KindInt64, deltas(2, math.MaxUint64-1, 1, 5), nil},
		{"wrapping 8-byte delta", 6, value.KindInt64, deltas(3, k0, 8, 1, math.MaxUint64), nil},
		{"-0 then +0", 6, value.KindFloat64, keys(f64(math.Copysign(0, -1)), f64(0)), nil},
		{"int64 extremes", 6, value.KindInt64, keys(i64(math.MinInt64), i64(-1), i64(0), i64(math.MaxInt64)),
			[]value.Value{i64(math.MinInt64), i64(-1), i64(0), i64(math.MaxInt64)}},
		{"int64 1-byte deltas", 6, value.KindInt64, deltas(3, k0-4, 1, 4, 9), []value.Value{i64(-4), i64(0), i64(9)}},
		{"int64 one value", 6, value.KindInt64, keys(i64(math.MinInt64)), []value.Value{i64(math.MinInt64)}},
		{"float64 extremes and -0", 6, value.KindFloat64,
			keys(f64(math.Inf(-1)), f64(-math.MaxFloat64), f64(-5e-324), f64(math.Copysign(0, -1)), f64(5e-324),
				f64(math.SmallestNonzeroFloat64*3), f64(2.2250738585072014e-308), f64(math.Inf(1))),
			[]value.Value{f64(math.Inf(-1)), f64(-math.MaxFloat64), f64(-5e-324), f64(math.Copysign(0, -1)), f64(5e-324),
				f64(math.SmallestNonzeroFloat64 * 3), f64(2.2250738585072014e-308), f64(math.Inf(1))}},
		{"float64 +0", 6, value.KindFloat64, keys(f64(-1), f64(0), f64(1)), []value.Value{f64(-1), f64(0), f64(1)}},
		{"int64 empty", 6, value.KindInt64, keys(), []value.Value{}},
	}
	// Every width: a record whose deltas need it decodes; one whose count
	// runs two past the deltas present (the chunk count after them could
	// pass for one) does not.
	for _, w := range []struct {
		w   byte
		big uint64
	}{{1, 200}, {2, 300}, {4, 70000}, {8, 1 << 40}} {
		want := []value.Value{i64(-1), i64(0), i64(int64(w.big))}
		cases = append(cases,
			hostile{fmt.Sprintf("width %d", w.w), 6, value.KindInt64, deltas(3, k0-1, w.w, 1, w.big), want},
			hostile{fmt.Sprintf("width %d count past the bytes", w.w), 6, value.KindInt64, deltas(5, k0-1, w.w, 1, w.big), nil},
		)
	}
	cases = append(cases,
		hostile{"string count 2^32", 6, value.KindString, rec(1<<32, "a", "b"), nil},
		hostile{"string count past the bytes", 6, value.KindString, rec(4, "a", "b"), nil},
		hostile{"string descending", 6, value.KindString, rec(2, "b", "a"), nil},
		hostile{"string repeated", 6, value.KindString, rec(3, "", "a", "a"), nil},
		hostile{"string", 6, value.KindString, rec(3, "", "a", "ab"), []value.Value{value.String(""), value.String("a"), value.String("ab")}},
		hostile{"empty", 6, value.KindString, rec(0), []value.Value{}},
	)
	for _, c := range cases {
		for _, sd := range []StringDictKind{StringDictArray, StringDictTrie} {
			if c.kind != value.KindString && sd != StringDictArray {
				continue
			}
			name := fmt.Sprintf("gen%d/%s/%s", c.gen, c.name, sd)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r := &byteReader{buf: c.rec}
			d, err := func() (d dict.Dict, err error) {
				defer func() {
					if p := recover(); p != nil {
						err = fmt.Errorf("panic: %v", p)
						t.Errorf("%s: %v", name, err)
					}
				}()
				if c.gen == 5 {
					return decodeWordDict(r, c.kind)
				}
				return decodeDict(r, c.kind, sd)
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
				got := d.Value(uint32(i))
				if got != w || (w.Kind() == value.KindFloat64 && math.Float64bits(got.Float()) != math.Float64bits(w.Float())) {
					t.Errorf("%s: value %d is %v, want %v", name, i, got, w)
				}
			}
			if n, err := r.uvarint(); err != nil || n != 7 || r.off != len(c.rec) {
				t.Errorf("%s: the decoder did not stop at the chunk count (%d, %v)", name, n, err)
			}
		}
	}
}
