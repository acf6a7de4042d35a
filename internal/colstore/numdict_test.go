package colstore

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"sort"
	"testing"

	"powerdrill/internal/dict"
	"powerdrill/internal/value"
)

// numericDictOf builds the dictionary of the distinct values that data's
// 8-byte words spell (NaN dropped), as the importer would.
func numericDictOf(data []byte, float bool) dict.Dict {
	if float {
		var vals []float64
		for ; len(data) >= 8; data = data[8:] {
			if v := math.Float64frombits(binary.LittleEndian.Uint64(data)); !math.IsNaN(v) {
				vals = append(vals, v)
			}
		}
		sort.Float64s(vals)
		out := vals[:0]
		for _, v := range vals {
			if len(out) == 0 || out[len(out)-1] != v {
				out = append(out, v)
			}
		}
		return dict.NewFloat64s(out)
	}
	var vals []int64
	for ; len(data) >= 8; data = data[8:] {
		vals = append(vals, int64(binary.LittleEndian.Uint64(data)))
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	out := vals[:0]
	for _, v := range vals {
		if len(out) == 0 || out[len(out)-1] != v {
			out = append(out, v)
		}
	}
	return dict.NewInt64s(out)
}

// FuzzNumericDict: the numeric dictionary record of both generations. A
// sorted set built from the input round-trips bit for bit through
// generation 5's words and generation 6's key deltas, and the input read as
// a generation-6 record decodes to an error or to a dictionary whose values
// re-encode to exactly the bytes they were read from — never a panic, and
// never an allocation the input's length cannot back.
func FuzzNumericDict(f *testing.F) {
	words := func(vs ...uint64) []byte {
		var out []byte
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint64(out, v)
		}
		return out
	}
	for _, float := range []bool{false, true} {
		for _, vs := range [][]uint64{
			nil,
			{1},
			{5, 3, 1 << 40, 1 << 63},
			{math.Float64bits(math.Inf(-1)), math.Float64bits(math.Copysign(0, -1)), 1, math.Float64bits(math.Inf(1))},
		} {
			set := words(vs...)
			f.Add(set, float)
			kind := value.KindInt64
			if float {
				kind = value.KindFloat64
			}
			f.Add(appendDict(nil, numericDictOf(set, float), kind, formatVersion), float)
		}
	}
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 0x80, 3, 1, 0, 0}, false)
	f.Fuzz(func(t *testing.T, data []byte, float bool) {
		kind := value.KindInt64
		if float {
			kind = value.KindFloat64
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := &byteReader{buf: data}
		d, err := decodeDict(r, kind, StringDictArray, formatVersion)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8*uint64(len(data))+1<<16 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err == nil {
			// The count is a plain uvarint, which may be spelled overlong;
			// everything after it must be the one spelling of its values.
			head := &byteReader{buf: data}
			head.uvarint()
			got := appendDict(nil, d, kind, formatVersion)
			if !bytes.Equal(got[uvarintLen(uint64(d.Len())):], data[head.off:r.off]) {
				t.Fatalf("record %x decodes to %d values that re-encode to %x", data[:r.off], d.Len(), got)
			}
		}

		want := numericDictOf(data, float)
		for _, gen := range []int{formatChecksums, formatVersion} {
			rec := appendDict(nil, want, kind, gen)
			r := &byteReader{buf: rec}
			got, err := decodeDict(r, kind, StringDictArray, gen)
			if err != nil || r.off != len(rec) || got.Len() != want.Len() {
				t.Fatalf("generation %d: %d values decode to %v (%d of %d bytes read)", gen, want.Len(), err, r.off, len(rec))
			}
			for i := 0; i < want.Len(); i++ {
				if w, g := numericWord(want.Value(uint32(i))), numericWord(got.Value(uint32(i))); w != g {
					t.Fatalf("generation %d: value %d is %x, want %x", gen, i, g, w)
				}
			}
		}
	})
}
