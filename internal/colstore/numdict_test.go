package colstore

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
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

// numericWord is a numeric dictionary value's 8-byte word in generations
// 1–5: the int64's two's complement, the float64's IEEE bits.
func numericWord(v value.Value) uint64 {
	if v.Kind() == value.KindFloat64 {
		return math.Float64bits(v.Float())
	}
	return uint64(v.Int())
}

// appendWordDict appends a numeric dictionary as generations 1–5 wrote it,
// for decodeWordDict: the count, then each value's word.
func appendWordDict(out []byte, d dict.Dict) []byte {
	out = appendUvarint(out, uint64(d.Len()))
	for i := 0; i < d.Len(); i++ {
		out = appendLE64(out, numericWord(d.Value(uint32(i))))
	}
	return out
}

// appendDict appends a dictionary as a head record of generations 1–6
// holds it, for decodeDict: the count, then every value in one frame.
func appendDict(out []byte, d dict.Dict, kind value.Kind) []byte {
	out = appendUvarint(out, uint64(d.Len()))
	if kind == value.KindString {
		sd := d.(dict.StringDict)
		for i := 0; i < d.Len(); i++ {
			s := sd.StringAt(uint32(i))
			out = append(appendUvarint(out, uint64(len(s))), s...)
		}
		return out
	}
	keys := make([]uint64, d.Len())
	for i := range keys {
		keys[i] = numericKey(d.Value(uint32(i)))
	}
	return appendKeyDeltas(out, keys)
}

// randomNumbers is a sorted set of up to 4 000 numbers drawn from rng,
// whose gaps change size every few hundred values, so that the frames of
// one dictionary need different delta widths.
func randomNumbers(rng *rand.Rand, float bool) dict.Dict {
	n := rng.Intn(4000)
	keys := make([]uint64, 0, n)
	k, bits := rng.Uint64()>>2, 1
	for i := 0; i < n; i++ {
		if i%300 == 0 {
			bits = 1 + rng.Intn(40)
		}
		gap := 1 + rng.Uint64()>>(64-bits)
		if k+gap <= k {
			break
		}
		k += gap
		keys = append(keys, k)
	}
	if !float {
		ints := make([]int64, len(keys))
		for i, k := range keys {
			ints[i] = keyInt64(k)
		}
		return dict.NewInt64s(ints)
	}
	var floats []float64
	for _, k := range keys {
		if k < minFloatKey || k > maxFloatKey {
			continue
		}
		if v := keyFloat64(k); len(floats) == 0 || floats[len(floats)-1] < v {
			floats = append(floats, v)
		}
	}
	return dict.NewFloat64s(floats)
}

// FuzzNumericDict: the numeric dictionary, as Save writes it in frames,
// and as head records of generation 6 (key deltas) and of generation 5
// (8-byte words, Upgrade's word decoder) held it. A sorted set built from
// the input round-trips bit for bit through the key deltas and through the
// 8-byte words, and the input read as either record decodes to an error or
// to a dictionary whose values re-encode to exactly the bytes they were
// read from — never a panic, and never an allocation the input's length
// cannot back. A larger set drawn from the input's checksum goes through
// checkFrameReads: read whole, by the frames a few ids need, and with a
// byte flipped in one frame.
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
			f.Add(appendDict(nil, numericDictOf(set, float), kind), float)
			f.Add(appendWordDict(nil, numericDictOf(set, float)), float)
		}
	}
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 0x80, 3, 1, 0, 0}, false)
	f.Fuzz(func(t *testing.T, data []byte, float bool) {
		kind := value.KindInt64
		if float {
			kind = value.KindFloat64
		}
		type codec struct {
			name   string
			decode func(*byteReader) (dict.Dict, error)
			encode func(dict.Dict) []byte
		}
		for _, c := range []codec{
			{"key deltas",
				func(r *byteReader) (dict.Dict, error) { return decodeDict(r, kind, StringDictArray) },
				func(d dict.Dict) []byte { return appendDict(nil, d, kind) }},
			{"words",
				func(r *byteReader) (dict.Dict, error) { return decodeWordDict(r, kind) },
				func(d dict.Dict) []byte { return appendWordDict(nil, d) }},
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r := &byteReader{buf: data}
			d, err := c.decode(r)
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 8*uint64(len(data))+1<<16 {
				t.Fatalf("%s: decoding %d bytes allocated %d", c.name, len(data), grew)
			}
			if err == nil {
				// The count is a plain uvarint, which may be spelled
				// overlong; everything after it must be the one spelling
				// of its values.
				head := &byteReader{buf: data}
				head.uvarint()
				got := c.encode(d)
				if !bytes.Equal(got[uvarintLen(uint64(d.Len())):], data[head.off:r.off]) {
					t.Fatalf("%s: record %x decodes to %d values that re-encode to %x", c.name, data[:r.off], d.Len(), got)
				}
			}

			want := numericDictOf(data, float)
			rec := c.encode(want)
			r = &byteReader{buf: rec}
			got, err := c.decode(r)
			if err != nil || r.off != len(rec) || got.Len() != want.Len() {
				t.Fatalf("%s: %d values decode to %v (%d of %d bytes read)", c.name, want.Len(), err, r.off, len(rec))
			}
			for i := 0; i < want.Len(); i++ {
				if w, g := numericWord(want.Value(uint32(i))), numericWord(got.Value(uint32(i))); w != g {
					t.Fatalf("%s: value %d is %x, want %x", c.name, i, g, w)
				}
			}
		}
		rng := rand.New(rand.NewSource(int64(CRC32C(data))))
		checkFrameReads(t, randomNumbers(rng, float), kind, rng)
	})
}
