package compress

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func allCodecs(t testing.TB) []Codec {
	t.Helper()
	var out []Codec
	for _, name := range Names() {
		c, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		out = append(out, c)
	}
	if len(out) < 5 {
		t.Fatalf("expected ≥5 registered codecs, got %v", Names())
	}
	return out
}

// corpus builds inputs spanning the shapes the column store produces:
// highly repetitive element arrays, sorted dictionary strings with shared
// prefixes, and incompressible noise.
func corpus() map[string][]byte {
	r := rand.New(rand.NewSource(11))
	random := make([]byte, 100_000)
	r.Read(random)

	repetitive := bytes.Repeat([]byte{0, 0, 1, 2, 0, 0, 0, 3}, 10_000)

	var dict bytes.Buffer
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&dict, "logs.powerdrill.query_events_2011%02d%02d\x00", i%12+1, i%28+1)
	}

	runs := make([]byte, 0, 80_000)
	for v := 0; v < 40; v++ {
		runs = append(runs, bytes.Repeat([]byte{byte(v)}, 2000)...)
	}

	return map[string][]byte{
		"empty":      {},
		"single":     {42},
		"short":      []byte("cat"),
		"random":     random,
		"repetitive": repetitive,
		"dict":       dict.Bytes(),
		"runs":       runs,
		"allzero":    make([]byte, 70_000), // crosses the 64K zippy block boundary
	}
}

func TestRoundTripAllCodecs(t *testing.T) {
	for _, c := range allCodecs(t) {
		for name, data := range corpus() {
			t.Run(c.Name()+"/"+name, func(t *testing.T) {
				comp := c.Compress(nil, data)
				got, err := c.Decompress(nil, comp)
				if err != nil {
					t.Fatalf("Decompress: %v", err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("round trip mismatch: %d bytes in, %d out", len(data), len(got))
				}
			})
		}
	}
}

func TestRoundTripAppendsToDst(t *testing.T) {
	for _, c := range allCodecs(t) {
		prefix := []byte("prefix-")
		data := []byte("the quick brown fox jumps over the quick brown fox")
		comp := c.Compress([]byte("header"), data)
		if !bytes.HasPrefix(comp, []byte("header")) {
			t.Fatalf("%s: Compress did not append to dst", c.Name())
		}
		got, err := c.Decompress(prefix, comp[len("header"):])
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if !bytes.Equal(got, append([]byte("prefix-"), data...)) {
			t.Fatalf("%s: Decompress did not append to dst", c.Name())
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	for _, c := range allCodecs(t) {
		c := c
		f := func(data []byte) bool {
			comp := c.Compress(nil, data)
			got, err := c.Decompress(nil, comp)
			return err == nil && bytes.Equal(got, data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

func TestQuickRoundTripStructured(t *testing.T) {
	// Random byte slices rarely contain matches; synthesize match-heavy
	// inputs from small alphabets and repeats to exercise the copy paths.
	for _, c := range allCodecs(t) {
		c := c
		f := func(seed int64, n uint16) bool {
			r := rand.New(rand.NewSource(seed))
			data := make([]byte, 0, int(n)*4)
			for len(data) < int(n)*4 {
				switch r.Intn(3) {
				case 0:
					data = append(data, byte(r.Intn(4)))
				case 1: // run
					data = append(data, bytes.Repeat([]byte{byte(r.Intn(8))}, r.Intn(100)+1)...)
				case 2: // repeat earlier content
					if len(data) > 0 {
						start := r.Intn(len(data))
						end := start + r.Intn(len(data)-start) + 1
						data = append(data, data[start:end]...)
					}
				}
			}
			comp := c.Compress(nil, data)
			got, err := c.Decompress(nil, comp)
			return err == nil && bytes.Equal(got, data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

func TestCorruptInputsDoNotPanic(t *testing.T) {
	data := []byte(strings.Repeat("powerdrill column store ", 100))
	r := rand.New(rand.NewSource(3))
	for _, c := range allCodecs(t) {
		comp := c.Compress(nil, data)
		// Truncations.
		for cut := 0; cut < len(comp); cut += 7 {
			c.Decompress(nil, comp[:cut]) // must not panic; error is fine
		}
		// Random flips.
		for trial := 0; trial < 200; trial++ {
			mut := append([]byte(nil), comp...)
			for flips := 0; flips < 3; flips++ {
				mut[r.Intn(len(mut))] ^= byte(1 << r.Intn(8))
			}
			out, err := c.Decompress(nil, mut)
			// Either an error, or (for undetectable flips) some output;
			// both acceptable, panics are not.
			_ = out
			_ = err
		}
		if _, err := c.Decompress(nil, nil); err == nil && c.Name() != "zlib" && c.Name() != "huffman-only" {
			t.Errorf("%s: empty input decoded without error", c.Name())
		}
	}
}

// TestDecompressHostilePreamble: a preamble promising a terabyte in front of
// a few bytes — no element, a short literal, one codec's whole compressed
// form — is refused with an error, having allocated about nothing. Such a
// preamble used to be reserved as it stood: a fatal out-of-memory, not a
// recoverable panic. The column files of old store generations carry no
// checksums, so these bytes reach the codecs unverified.
func TestDecompressHostilePreamble(t *testing.T) {
	const promise = 1 << 40
	for _, c := range allCodecs(t) {
		body := c.Compress(nil, []byte("powerdrill powerdrill powerdrill"))
		if _, n := uvarint(body); n > 0 && c.Name() != "zlib" && c.Name() != "huffman-only" {
			body = body[n:]
		}
		for _, in := range [][]byte{
			putUvarint(nil, promise),
			append(putUvarint(nil, promise), 0x00, 'p'),
			append(putUvarint(nil, promise), body...),
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			out, err := c.Decompress(nil, in)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%s: %x decoded to %d bytes without error", c.Name(), in, len(out))
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Errorf("%s: %x allocated %d bytes", c.Name(), in, got)
			}
			if allocs := testing.AllocsPerRun(5, func() { c.Decompress(nil, in) }); allocs > 32 {
				t.Errorf("%s: %x took %.0f allocations", c.Name(), in, allocs)
			}
		}
	}
}

// FuzzCodecs: every codec round-trips arbitrary bytes, and arbitrary bytes
// given to Decompress neither panic nor allocate more than the output they
// produce (a few times over, for growth) and what they can expand to — no
// reservation is taken on a length the input cannot back. An input whose
// preamble declares more than a MiB is left to TestDecompressHostilePreamble:
// a few bytes of LZ match can honestly keep such a promise, so decoding it
// would measure the host's memory, not the codec.
func FuzzCodecs(f *testing.F) {
	codecs := allCodecs(f)
	for _, data := range corpus() {
		data = data[:min(len(data), 512)]
		f.Add(data)
		for _, c := range codecs {
			f.Add(c.Compress(nil, data))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range codecs {
			got, err := c.Decompress(nil, c.Compress(nil, data))
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("%s: round trip of %d bytes gave %d bytes, %v", c.Name(), len(data), len(got), err)
			}
		}
		if declared, n := uvarint(data); n > 0 && declared > 1<<20 {
			return
		}
		for _, c := range codecs {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			out, _ := c.Decompress(nil, data)
			runtime.ReadMemStats(&after)
			bound := 8*uint64(len(out)) + 22*uint64(len(data)) + 256<<10
			if got := after.TotalAlloc - before.TotalAlloc; got > bound {
				t.Fatalf("%s: %d bytes of input, %d of output, allocated %d (bound %d)", c.Name(), len(data), len(out), got, bound)
			}
		}
	})
}

// zippyReferenceDecompress is the byte-at-a-time zippy decoder Zippy's own
// replaced: every element appended, every copy one byte at a time. It is the
// oracle FuzzZippyVsReference holds the index-writing decoder to.
func zippyReferenceDecompress(dst, src []byte) ([]byte, error) {
	want, n := uvarint(src)
	if n <= 0 {
		return dst, errZippyTruncated
	}
	src = src[n:]
	if want > zippyMaxOut(len(src)) {
		return dst, errZippyCorrupt
	}
	base := len(dst)
	end := base + int(want)
	if cap(dst) < end {
		grown := make([]byte, len(dst), end)
		copy(grown, dst)
		dst = grown
	}
	for len(src) > 0 {
		tag := src[0]
		var length, offset int
		switch tag & 0x03 {
		case zippyTagLiteral:
			n := int(tag >> 2)
			var extra int
			switch {
			case n < 60:
				n++
			case n == 60:
				extra = 1
			case n == 61:
				extra = 2
			case n == 62:
				extra = 3
			default:
				extra = 4
			}
			if extra > 0 {
				if len(src) < 1+extra {
					return dst, errZippyTruncated
				}
				n = 0
				for i := extra - 1; i >= 0; i-- {
					n = n<<8 | int(src[1+i])
				}
				n++
			}
			if len(src) < 1+extra+n {
				return dst, errZippyTruncated
			}
			if len(dst)+n > end {
				return dst, errZippyCorrupt
			}
			dst = append(dst, src[1+extra:1+extra+n]...)
			src = src[1+extra+n:]
			continue
		case zippyTagCopy1:
			if len(src) < 2 {
				return dst, errZippyTruncated
			}
			length = 4 + int(tag>>2)&0x07
			offset = int(tag&0xe0)<<3 | int(src[1])
			src = src[2:]
		case zippyTagCopy2:
			if len(src) < 3 {
				return dst, errZippyTruncated
			}
			length = 1 + int(tag>>2)
			offset = int(src[1]) | int(src[2])<<8
			src = src[3:]
		default: // zippyTagCopy4
			if len(src) < 5 {
				return dst, errZippyTruncated
			}
			length = 1 + int(tag>>2)
			offset = int(src[1]) | int(src[2])<<8 | int(src[3])<<16 | int(src[4])<<24
			src = src[5:]
		}
		if offset <= 0 || offset > len(dst)-base || len(dst)+length > end {
			return dst, errZippyCorrupt
		}
		for i := 0; i < length; i++ {
			dst = append(dst, dst[len(dst)-offset])
		}
	}
	if len(dst)-base != int(want) {
		return dst, errZippyCorrupt
	}
	return dst, nil
}

// TestZippyMatchesReference: the index-writing decoder and the reference
// agree, bytes and verdict, on the corpus, on every truncation of its
// compressed forms, and on single-byte corruptions of them.
func TestZippyMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for name, data := range corpus() {
		comp := Zippy{}.Compress(nil, data)
		inputs := [][]byte{comp}
		for cut := 0; cut < len(comp); cut += 1 + len(comp)/64 {
			inputs = append(inputs, comp[:cut])
		}
		for trial := 0; trial < 64 && len(comp) > 0; trial++ {
			mut := append([]byte(nil), comp...)
			mut[r.Intn(len(mut))] = byte(r.Intn(256))
			inputs = append(inputs, mut)
		}
		for _, in := range inputs {
			requireZippyMatchesReference(t, name, in, []byte("prefix"), 7)
		}
	}
}

// requireZippyMatchesReference decodes src with both decoders into a dst
// holding prefix and spare bytes of capacity past it: the output bytes and
// whether there is an error must agree, the prefix must be untouched, and a
// successful decode must leave the capacity past its output as it found it.
func requireZippyMatchesReference(t *testing.T, name string, src, prefix []byte, spare int) {
	t.Helper()
	const sentinel = 0xa5
	fresh := func() []byte {
		dst := make([]byte, len(prefix), len(prefix)+spare)
		copy(dst, prefix)
		for i := len(dst); i < cap(dst); i++ {
			dst[:cap(dst)][i] = sentinel
		}
		return dst
	}
	want, wantErr := zippyReferenceDecompress(fresh(), src)
	got, gotErr := Zippy{}.Decompress(fresh(), src)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: %d bytes: error %v, reference error %v", name, len(src), gotErr, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %d bytes: %d bytes out, reference %d (or bytes differ)", name, len(src), len(got), len(want))
	}
	if !bytes.Equal(got[:len(prefix)], prefix) {
		t.Fatalf("%s: prefix overwritten: %q", name, got[:len(prefix)])
	}
	if gotErr == nil {
		for i, b := range got[len(got):cap(got)] {
			if b != sentinel {
				t.Fatalf("%s: byte %d past the output written", name, len(got)+i)
			}
		}
	}
}

func TestCompressionRatiosOnColumnData(t *testing.T) {
	data := corpus()
	for _, name := range []string{"zippy", "lzoish", "zlib"} {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if r := Ratio(c, data["runs"]); r < 20 {
			t.Errorf("%s: ratio on runs = %.1f, want ≥20", name, r)
		}
		if r := Ratio(c, data["dict"]); r < 2 {
			t.Errorf("%s: ratio on dict strings = %.1f, want ≥2", name, r)
		}
		if r := Ratio(c, data["random"]); r > 1.2 {
			t.Errorf("%s: ratio on random = %.2f, should be ≈1", name, r)
		}
	}
}

// TestSection5Shape checks the qualitative relationships of the paper's
// Section 5 comparison: entropy-coded zlib compresses at least as well as
// the byte-oriented codecs, and the LZO-like variant is at least as good as
// Zippy on dictionary-style data.
func TestSection5Shape(t *testing.T) {
	data := corpus()["dict"]
	zippy, _ := ByName("zippy")
	lzo, _ := ByName("lzoish")
	zlib, _ := ByName("zlib")
	rz, rl, rzl := Ratio(zippy, data), Ratio(lzo, data), Ratio(zlib, data)
	t.Logf("ratios on dict data: zippy=%.2f lzoish=%.2f zlib=%.2f", rz, rl, rzl)
	if rzl < rz {
		t.Errorf("zlib ratio %.2f below zippy %.2f; entropy coding should win", rzl, rz)
	}
	if rl < rz*0.95 {
		t.Errorf("lzoish ratio %.2f clearly below zippy %.2f", rl, rz)
	}
}

func TestRegistry(t *testing.T) {
	if _, err := ByName("no-such-codec"); err == nil {
		t.Error("ByName(nonexistent) succeeded")
	}
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names not sorted: %v", names)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register(Zippy{})
}

func TestRatioEdgeCases(t *testing.T) {
	z, _ := ByName("zippy")
	if r := Ratio(z, nil); r != 1 {
		t.Errorf("Ratio(empty) = %f", r)
	}
}

func TestRuns(t *testing.T) {
	for _, tc := range []struct {
		in   []byte
		want int
	}{
		{nil, 0},
		{[]byte{1}, 1},
		{[]byte{1, 1, 1}, 1},
		{[]byte{0, 0, 0, 1, 1, 1}, 2},
		{[]byte{1, 2, 3}, 3},
	} {
		if got := Runs(tc.in); got != tc.want {
			t.Errorf("Runs(%v) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestUvarintRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		buf := putUvarint(nil, v)
		got, n := uvarint(buf)
		return n == len(buf) && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, n := uvarint(nil); n != 0 {
		t.Error("uvarint(nil) should report truncation")
	}
	if _, n := uvarint(bytes.Repeat([]byte{0xff}, 11)); n >= 0 {
		t.Error("uvarint overflow not detected")
	}
}

func BenchmarkCompress(b *testing.B) {
	data := corpus()
	for _, c := range allCodecs(b) {
		for _, input := range []string{"dict", "repetitive", "random"} {
			src := data[input]
			b.Run(c.Name()+"/"+input, func(b *testing.B) {
				b.SetBytes(int64(len(src)))
				var buf []byte
				for i := 0; i < b.N; i++ {
					buf = c.Compress(buf[:0], src)
				}
			})
		}
	}
}

func BenchmarkDecompress(b *testing.B) {
	data := corpus()
	for _, c := range allCodecs(b) {
		for _, input := range []string{"dict", "repetitive"} {
			src := data[input]
			comp := c.Compress(nil, src)
			b.Run(c.Name()+"/"+input, func(b *testing.B) {
				b.SetBytes(int64(len(src)))
				var buf []byte
				var err error
				for i := 0; i < b.N; i++ {
					buf, err = c.Decompress(buf[:0], comp)
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
