package enc

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

// atAll reads every element of s through At.
func atAll(s Sequence) []uint32 {
	out := make([]uint32, s.Len())
	for i := range out {
		out[i] = s.At(i)
	}
	return out
}

// genValues produces n values drawn from [0, cardinality).
func genValues(r *rand.Rand, n, cardinality int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(r.Intn(cardinality))
	}
	return out
}

func TestWidthSelection(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		cardinality int
		want        Width
	}{
		{1, Width0},
		{2, Width1},
		{3, Width8},
		{256, Width8},
		{257, Width16},
		{65536, Width16},
		{65537, Width32},
	} {
		vals := genValues(r, 200, tc.cardinality)
		s := Encode(vals, tc.cardinality)
		if s.Width() != tc.want {
			t.Errorf("cardinality %d: width %v, want %v", tc.cardinality, s.Width(), tc.want)
		}
	}
}

func TestEncodePreservesValues(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, cardinality := range []int{1, 2, 5, 200, 300, 70000, 66000} {
		vals := genValues(r, 500, cardinality)
		s := Encode(vals, cardinality)
		if s.Len() != len(vals) {
			t.Fatalf("cardinality %d: Len %d, want %d", cardinality, s.Len(), len(vals))
		}
		for i, want := range vals {
			if got := s.At(i); got != want {
				t.Fatalf("cardinality %d: At(%d) = %d, want %d", cardinality, i, got, want)
			}
		}
		if got := rawAll(s); !reflect.DeepEqual(got, vals) {
			t.Fatalf("cardinality %d: Raw mismatch", cardinality)
		}
	}
}

func TestEncodeFixed32(t *testing.T) {
	vals := []uint32{5, 0, 1 << 20, 7}
	s := EncodeFixed32(vals)
	if s.Width() != Width32 {
		t.Errorf("Width = %v", s.Width())
	}
	if s.MemoryBytes() != int64(len(vals)*4) {
		t.Errorf("MemoryBytes = %d", s.MemoryBytes())
	}
	for i, want := range vals {
		if s.At(i) != want {
			t.Errorf("At(%d) = %d, want %d", i, s.At(i), want)
		}
	}
}

func TestMemoryFootprints(t *testing.T) {
	const n = 50_000 // rows per chunk, the paper's threshold scale
	r := rand.New(rand.NewSource(3))
	// Constant: O(1) regardless of n (the paper's "constant O(1) overhead").
	if got := Encode(genValues(r, n, 1), 1).MemoryBytes(); got > 16 {
		t.Errorf("const footprint %d bytes, want O(1)", got)
	}
	// Two values: ⌈n/8⌉ bytes.
	if got := Encode(genValues(r, n, 2), 2).MemoryBytes(); got != int64((n+63)/64*8) {
		t.Errorf("bitset footprint %d, want %d", got, (n+63)/64*8)
	}
	// 1, 2, 4 bytes per element.
	if got := Encode(genValues(r, n, 100), 100).MemoryBytes(); got != n {
		t.Errorf("byte footprint %d, want %d", got, n)
	}
	if got := Encode(genValues(r, n, 1000), 1000).MemoryBytes(); got != 2*n {
		t.Errorf("word footprint %d, want %d", got, 2*n)
	}
	if got := Encode(genValues(r, n, 1<<17), 1<<17).MemoryBytes(); got != 4*n {
		t.Errorf("dword footprint %d, want %d", got, 4*n)
	}
}

func TestCountInto(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, cardinality := range []int{1, 2, 10, 300, 70000} {
		vals := genValues(r, 1000, cardinality)
		s := Encode(vals, cardinality)
		counts := make([]int64, cardinality)
		s.CountInto(counts)
		want := make([]int64, cardinality)
		for _, v := range vals {
			want[v]++
		}
		if !reflect.DeepEqual(counts, want) {
			t.Errorf("cardinality %d: CountInto mismatch", cardinality)
		}
	}
}

func TestCountIntoMasked(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, cardinality := range []int{1, 2, 10, 300, 70000} {
		vals := genValues(r, 1000, cardinality)
		s := Encode(vals, cardinality)
		mask := NewBitmap(len(vals))
		for i := range vals {
			if r.Intn(3) == 0 {
				mask.Set(i)
			}
		}
		counts := make([]int64, cardinality)
		s.CountIntoMasked(counts, mask)
		want := make([]int64, cardinality)
		for i, v := range vals {
			if mask.Get(i) {
				want[v]++
			}
		}
		if !reflect.DeepEqual(counts, want) {
			t.Errorf("cardinality %d: CountIntoMasked mismatch", cardinality)
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for _, cardinality := range []int{1, 2, 10, 300, 70000} {
		vals := genValues(r, 777, cardinality) // odd length exercises bitset tail
		s := Encode(vals, cardinality)
		raw := s.AppendBytes(nil)
		back, err := Decode(s.Width(), s.Len(), raw, cardinality)
		if err != nil {
			t.Fatalf("Decode width %v: %v", s.Width(), err)
		}
		if !reflect.DeepEqual(atAll(back), vals) {
			t.Errorf("cardinality %d: round trip mismatch", cardinality)
		}
	}
}

func TestDecodeRejectsBadPayloads(t *testing.T) {
	if _, err := Decode(Width0, 5, []byte{1, 2}, 1); err == nil {
		t.Error("short const payload accepted")
	}
	if _, err := Decode(Width1, 100, make([]byte, 3), 2); err == nil {
		t.Error("short bitset payload accepted")
	}
	if _, err := Decode(Width8, 10, make([]byte, 9), 256); err == nil {
		t.Error("short byte payload accepted")
	}
	if _, err := Decode(Width16, 10, make([]byte, 19), 1<<16); err == nil {
		t.Error("short word payload accepted")
	}
	if _, err := Decode(Width32, 10, make([]byte, 39), 1<<20); err == nil {
		t.Error("short dword payload accepted")
	}
	if _, err := Decode(Width(9), 10, nil, 1); err == nil {
		t.Error("unknown width accepted")
	}
}

// TestDecodeRejectsStrayBits: a payload holding an element the sequence
// cannot hold is refused — bits set past the last row of a bit-set (which
// CountInto would count as phantom rows, giving a negative count for value
// 0), a constant other than 0, and an element of the chunk dictionary's
// cardinality or more at every width. The same payloads inside their
// bounds decode.
func TestDecodeRejectsStrayBits(t *testing.T) {
	word := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	for _, c := range []struct {
		name string
		w    Width
		n    int
		data []byte
		card int
		ok   bool
	}{
		{"bitset, bits past row 3", Width1, 3, word(0xff), 2, false},
		{"bitset, bit 63 of a 63-row word", Width1, 63, word(1 << 63), 2, false},
		{"bitset, three rows of 1", Width1, 3, word(0x7), 2, true},
		{"bitset, a full word", Width1, 64, word(^uint64(0)), 2, true},
		{"bitset, a 1 under cardinality 1", Width1, 3, word(0x2), 1, false},
		{"bitset, all 0 under cardinality 1", Width1, 3, word(0), 1, false},
		{"const 1", Width0, 4, []byte{1, 0, 0, 0}, 2, false},
		{"const 0", Width0, 4, []byte{0, 0, 0, 0}, 1, true},
		{"const 0, no cardinality", Width0, 4, []byte{0, 0, 0, 0}, 0, false},
		{"byte 200 of 2", Width8, 3, []byte{0, 200, 1}, 2, false},
		{"byte 255 of 256", Width8, 3, []byte{0, 255, 1}, 256, true},
		{"word 300 of 300", Width16, 2, []byte{1, 0, 44, 1}, 300, false},
		{"word 299 of 300", Width16, 2, []byte{1, 0, 43, 1}, 300, true},
		{"dword 1<<20 of 1<<20", Width32, 1, []byte{0, 0, 16, 0}, 1 << 20, false},
		{"more rows than bytes", Width32, 1 << 62, nil, 1, false},
	} {
		s, err := Decode(c.w, c.n, c.data, c.card)
		if (err == nil) != c.ok {
			t.Errorf("%s: error %v, want ok=%v", c.name, err, c.ok)
			continue
		}
		if err == nil {
			counts := make([]int64, c.card)
			s.CountInto(counts)
			for v, k := range counts {
				if k < 0 {
					t.Errorf("%s: count of %d is %d", c.name, v, k)
				}
			}
		}
	}
}

func TestEncodePanicsOnOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		vals        []uint32
		cardinality int
	}{
		{[]uint32{1}, 1},
		{[]uint32{2}, 2},
		{[]uint32{300}, 256},
		{[]uint32{70000}, 65536},
		{[]uint32{0}, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Encode(%v, %d) did not panic", tc.vals, tc.cardinality)
				}
			}()
			Encode(tc.vals, tc.cardinality)
		}()
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	s := Encode([]uint32{0, 0}, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("const At(5) did not panic")
			}
		}()
		s.At(5)
	}()
	b := Encode([]uint32{0, 1}, 2)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bitset At(-1) did not panic")
			}
		}()
		b.At(-1)
	}()
}

func TestQuickRoundTripAnyCardinality(t *testing.T) {
	f := func(raw []uint16, card uint8) bool {
		cardinality := int(card)%300 + 1
		vals := make([]uint32, len(raw))
		for i, v := range raw {
			vals[i] = uint32(int(v) % cardinality)
		}
		s := Encode(vals, cardinality)
		buf := s.AppendBytes(nil)
		back, err := Decode(s.Width(), s.Len(), buf, cardinality)
		if err != nil {
			return false
		}
		got := atAll(back)
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEmptySequences(t *testing.T) {
	for _, cardinality := range []int{0, 1, 2, 10, 300, 70000} {
		s := Encode(nil, cardinality)
		if s.Len() != 0 {
			t.Errorf("cardinality %d: empty Len = %d", cardinality, s.Len())
		}
		counts := make([]int64, cardinality+1)
		s.CountInto(counts)
		for _, c := range counts {
			if c != 0 {
				t.Errorf("cardinality %d: empty CountInto nonzero", cardinality)
			}
		}
	}
}

// FuzzSeqVsAt pins a sequence's bulk reads to At, at every width (each
// cardinality's narrowest, and 4 bytes): its raw elements — in place, or
// widened into a scratch that starts too small or dirty — CountInto, and
// CountIntoMasked under a mask of random density. The sequence under test is
// the one Decode makes of its own payload.
func FuzzSeqVsAt(f *testing.F) {
	for _, n := range []uint16{0, 1, 63, 64, 65, 1000, 4097} {
		f.Add(int64(n)+3, n, uint8(n%7))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, shape uint8) {
		diffSeqVsAt(t, seed, int(n)%8192, shape)
	})
}

// TestSeqVsAtLengths runs the same check at the lengths around the 64-row
// word boundary.
func TestSeqVsAtLengths(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129, 2000} {
		for shape := uint8(0); shape < 4; shape++ {
			diffSeqVsAt(t, int64(n)*17+int64(shape), n, shape)
		}
	}
}

func diffSeqVsAt(t *testing.T, seed int64, n int, shape uint8) {
	r := rand.New(rand.NewSource(seed))
	for _, card := range spreadCardinalities {
		vals := genValues(r, n, card)
		for _, orig := range []Sequence{Encode(vals, card), EncodeFixed32(vals)} {
			s, err := Decode(orig.Width(), orig.Len(), orig.AppendBytes(nil), card)
			if err != nil {
				t.Fatalf("width %v, %d rows: %v", orig.Width(), n, err)
			}
			at := atAll(s)
			if !slices.Equal(at, vals) {
				t.Fatalf("width %v, %d rows: At differs from the encoded values", s.Width(), n)
			}

			scratch := make([]uint8, r.Intn(n+1))
			for i := range scratch {
				scratch[i] = 0xa5
			}
			before := scratch
			raw := s.Raw(&scratch)
			if got := rawElems(raw); !slices.Equal(got, at) {
				t.Fatalf("width %v, %d rows: raw elements differ from At", s.Width(), n)
			}
			switch wide := s.Width() == Width0 || s.Width() == Width1; {
			case wide && cap(scratch) < n:
				t.Fatalf("width %v, %d rows: widened into %d bytes", s.Width(), n, cap(scratch))
			case !wide && (len(scratch) != len(before) || len(raw.U8) > 0 && &raw.U8[0] == unsafe.SliceData(scratch)):
				t.Fatalf("width %v: raw elements went through the scratch", s.Width())
			}

			want, got := make([]int64, card), make([]int64, card)
			for _, v := range at {
				want[v]++
			}
			s.CountInto(got)
			if !slices.Equal(got, want) {
				t.Fatalf("width %v, %d rows: CountInto %v, want %v", s.Width(), n, got, want)
			}

			mask := NewBitmap(n)
			density := []float64{0, 1, 0.05, r.Float64()}[shape%4]
			clear(want)
			for i, v := range at {
				if r.Float64() < density {
					mask.Set(i)
					want[v]++
				}
			}
			clear(got)
			s.CountIntoMasked(got, mask)
			if !slices.Equal(got, want) {
				t.Fatalf("width %v, %d rows, density %.2f: CountIntoMasked %v, want %v", s.Width(), n, density, got, want)
			}
		}
	}
}

// rawAll is s's raw elements, widened to uint32.
func rawAll(s Sequence) []uint32 {
	var scratch []uint8
	return rawElems(s.Raw(&scratch))
}

func rawElems(raw Raw) []uint32 {
	var out []uint32
	switch {
	case raw.U16 != nil:
		for _, v := range raw.U16 {
			out = append(out, uint32(v))
		}
	case raw.U32 != nil:
		out = append(out, raw.U32...)
	default:
		for _, v := range raw.U8 {
			out = append(out, uint32(v))
		}
	}
	return out
}

func BenchmarkCountInto(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	const n = 50_000
	for _, cardinality := range []int{2, 25, 1000, 100000} {
		vals := genValues(r, n, cardinality)
		s := Encode(vals, cardinality)
		counts := make([]int64, cardinality)
		b.Run(s.Width().String(), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				s.CountInto(counts)
			}
		})
	}
}

func BenchmarkAt(b *testing.B) {
	r := rand.New(rand.NewSource(8))
	vals := genValues(r, 50_000, 1000)
	s := Encode(vals, 1000)
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += s.At(i % 50_000)
	}
	_ = sink
}
