package colstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"powerdrill/internal/dict"
	"powerdrill/internal/memmgr"
	"powerdrill/internal/table"
	"powerdrill/internal/value"
)

// walkStringsReference is the string dictionary decode before dictionaries
// became one block, kept as the reference: a string of its own per value,
// and the same refusals — a count past the bytes left, a value past the
// record, values that do not ascend strictly.
func walkStringsReference(r *byteReader) ([]string, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.buf)-r.off) {
		return nil, errTruncated
	}
	out := make([]string, n)
	var prev []byte
	for i := 0; i < int(n); i++ {
		l, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		b, err := r.take(int(l))
		if err != nil {
			return nil, err
		}
		if i > 0 && string(prev) >= string(b) {
			return nil, fmt.Errorf("colstore: string dictionary does not ascend strictly at %d", i)
		}
		prev = b
		out[i] = string(b)
	}
	return out, nil
}

// stringSetOf splits data at zero bytes into the sorted set of its pieces.
func stringSetOf(data []byte) []string {
	var vals []string
	for _, b := range bytes.Split(data, []byte{0}) {
		vals = append(vals, string(b))
	}
	slices.Sort(vals)
	return slices.Compact(vals)
}

// randomStrings is a sorted set of up to 1 500 strings drawn from rng,
// mostly short, some of a few hundred bytes, a few longer than a frame.
func randomStrings(rng *rand.Rand) dict.Dict {
	vals := make([]string, rng.Intn(1500))
	for i := range vals {
		n := rng.Intn(12)
		switch rng.Intn(50) {
		case 0:
			n = rng.Intn(400)
		case 1:
			n = frameBytes + rng.Intn(100)
		}
		b := make([]byte, n)
		for j := range b {
			b[j] = byte('a' + rng.Intn(6))
		}
		vals[i] = string(b)
	}
	slices.Sort(vals)
	return dict.NewStringArray(slices.Compact(vals))
}

// FuzzStringDict: arbitrary bytes read as a string dictionary record (a
// generation 1–6 head record: the count, then one frame) decode through
// the one-block path to exactly what the per-value reference walk gives —
// the same values in the same order, read to the same byte, or a refusal
// from both — never a panic, and never an allocation the input's length
// cannot back. A sorted set built from the input round-trips through
// serializeDict and the block decode, and a larger set drawn from the
// input's checksum goes through checkFrameReads: read whole, by the frames
// a few ids need, and with a byte flipped in one frame.
func FuzzStringDict(f *testing.F) {
	for _, vals := range [][]string{
		nil,
		{""},
		{"", "a", "ab", "b"},
		{"de", "fr", "us"},
		{strings.Repeat("x", 127), strings.Repeat("x", 128), strings.Repeat("y", 300)},
	} {
		rec := appendDict(nil, dict.NewStringArray(vals), value.KindString)
		f.Add(rec)
		f.Add(append(rec, 7))   // a chunk count after the dictionary
		f.Add(rec[:len(rec)/2]) // truncated
	}
	f.Add([]byte{})
	f.Add([]byte{2, 1, 'b', 1, 'a'})  // descending
	f.Add([]byte{2, 1, 'a', 1, 'a'})  // a repeat
	f.Add([]byte{200, 1, 1, 'a'})     // a count past the bytes left
	f.Add([]byte{1, 0x80, 0x01, 'a'}) // a length past the record
	f.Add([]byte{1, 0x81, 0x00, 'a'}) // an overlong length
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := &byteReader{buf: data}
		d, err := decodeDict(r, value.KindString, StringDictArray)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8*uint64(len(data))+1<<16 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		ref := &byteReader{buf: data}
		want, werr := walkStringsReference(ref)
		if (err != nil) != (werr != nil) {
			t.Fatalf("record %x: block decode error %v, reference %v", data, err, werr)
		}
		if err == nil {
			arr := d.(*dict.StringArray)
			if arr.Len() != len(want) || r.off != ref.off {
				t.Fatalf("record %x: %d values to byte %d, reference %d to byte %d", data, arr.Len(), r.off, len(want), ref.off)
			}
			for i, s := range want {
				if got := arr.StringAt(uint32(i)); got != s {
					t.Fatalf("record %x: value %d is %q, reference %q", data, i, got, s)
				}
			}
		}

		set := stringSetOf(data)
		rec := appendUvarint(nil, uint64(len(set)))
		rec = append(rec, serializeDict(dict.NewStringArray(set))...)
		r = &byteReader{buf: rec}
		got, err := decodeDict(r, value.KindString, StringDictArray)
		if err != nil || r.off != len(rec) || got.Len() != len(set) {
			t.Fatalf("%d values decode to %v (%d of %d bytes read)", len(set), err, r.off, len(rec))
		}
		for i, s := range set {
			if got.Value(uint32(i)).Str() != s {
				t.Fatalf("value %d is %v, want %q", i, got.Value(uint32(i)), s)
			}
		}
		if again := serializeDict(got); !bytes.Equal(again, rec[uvarintLen(uint64(len(set))):]) {
			t.Fatalf("%d values re-serialize to %x, want %x", len(set), again, rec)
		}
		rng := rand.New(rand.NewSource(int64(CRC32C(data))))
		checkFrameReads(t, randomStrings(rng), value.KindString, rng)
	})
}

// TestFrameChargeIsMemoryBytes: each frame entry of a paged dictionary is
// charged exactly what its decoded frame holds (MemoryBytes), so the view's
// MemoryBytes, the set's cold bytes and the manager's resident bytes agree
// once every frame is pinned — for every value kind, strings of 128 bytes
// and more among them, with and without a codec, with string arrays and
// with tries, and for the columns of a saved store.
func TestFrameChargeIsMemoryBytes(t *testing.T) {
	short := []string{"", "de", "fr", "logs.queries_20110302", "us"}
	long := append(slices.Clone(short), strings.Repeat("z", 200))
	many := make([]string, 3000)
	for i := range many {
		many[i] = fmt.Sprintf("value %05d", i)
	}
	for _, tbl := range []*table.Table{
		table.New("d").AddStringColumn("s", short),
		table.New("d").AddStringColumn("s", long),
		table.New("d").AddStringColumn("s", many),
		table.New("d").AddInt64Column("s", []int64{-7, 0, 3, 1 << 40}),
		table.New("d").AddFloat64Column("s", []float64{-1.5, 0, 2.25}),
	} {
		for _, sd := range []StringDictKind{StringDictArray, StringDictTrie} {
			built, err := FromTable(tbl, Options{StringDict: sd})
			if err != nil {
				t.Fatal(err)
			}
			for _, codec := range []string{"", "zippy"} {
				dir := t.TempDir()
				if err := Save(built, dir, codec); err != nil {
					t.Fatal(err)
				}
				checkFrameCharges(t, dir, "s")
			}
		}
	}
	_, dir := buildSavedStore(t, 3000, "zippy")
	for _, name := range []string{"timestamp", "table_name", "latency", "country", "user"} {
		checkFrameCharges(t, dir, name)
	}
}

// checkFrameCharges pins every frame of the named column's dictionary in
// a lazy store of dir and checks the charges (TestFrameChargeIsMemoryBytes).
func checkFrameCharges(t *testing.T, dir, name string) {
	t.Helper()
	mgr := memmgr.New(0, "")
	lazy, _, err := OpenLazy(dir, mgr)
	if err != nil {
		t.Fatal(err)
	}
	defer lazy.Close()
	pinLayout(t, lazy, name)
	before := mgr.Stats().ResidentBytes
	ps := lazy.NewPinSet()
	defer ps.Release()
	view, err := ps.ColumnDict(name)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint32, view.Dict.Len())
	for i := range ids {
		ids[i] = uint32(i)
	}
	if _, err := ps.Values(name, ids); err != nil {
		t.Fatal(err)
	}
	var held int64
	for _, f := range view.Dict.(*pagedDict).frames {
		held += f.MemoryBytes()
	}
	if got := mgr.Stats().ResidentBytes - before; view.Dict.MemoryBytes() != held || ps.ColdBytesLoaded != held || got != held {
		t.Errorf("%s in %s: frames hold %d, view says %d, cold loads %d, manager %d",
			name, dir, held, view.Dict.MemoryBytes(), ps.ColdBytesLoaded, got)
	}
}
