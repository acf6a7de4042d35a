// Package enc implements the element encodings of the paper's Section 3
// ("Optimize Encoding of Elements in Columns"). The elements of a chunk —
// the sequence of chunk-ids that describes a column's values — are stored
// in the narrowest width the chunk-dictionary cardinality allows:
//
//	1 distinct value          → 0 bits per element (constant)
//	2 distinct values         → 1 bit  per element (bit-set)
//	≤ 2^8 distinct values     → 1 byte per element
//	≤ 2^16 distinct values    → 2 bytes per element
//	otherwise                 → 4 bytes per element
//
// The Basic variant of Section 2.3 always uses 4 bytes; EncodeFixed32
// produces it so the experiments can measure the difference.
//
// Sequences expose bulk operations (CountInto, CountIntoMasked, SpreadMask)
// so the group-by inner loop of Section 2.4 — counts[elements[row]]++ — runs
// as a tight, width-specialized loop rather than through an interface call
// per row; each is one generic loop over Elem. Kernels elsewhere read the
// elements where they lie, at the width they are stored at (Raw): only a
// bit-set or constant sequence, which stores no element per row, is widened
// — to one byte per row.
package enc

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Elem is an element type a sequence stores its chunk-ids as.
type Elem interface{ uint8 | uint16 | uint32 }

// Raw is a sequence's elements as they lie in memory, one per row: in U16 if
// it is non-nil, else in U32 if that is, else in U8.
type Raw struct {
	U8  []uint8
	U16 []uint16
	U32 []uint32
}

// Width enumerates the storage widths.
type Width uint8

// The supported element widths.
const (
	Width0 Width = iota // constant chunk: no per-element storage
	Width1              // bit-set
	Width8
	Width16
	Width32
)

// String returns a short name used in experiment tables.
func (w Width) String() string {
	switch w {
	case Width0:
		return "const"
	case Width1:
		return "bit"
	case Width8:
		return "1B"
	case Width16:
		return "2B"
	case Width32:
		return "4B"
	}
	return fmt.Sprintf("Width(%d)", uint8(w))
}

// Sequence is a read-only sequence of chunk-ids.
type Sequence interface {
	// Len returns the number of elements (rows in the chunk).
	Len() int
	// At returns the i-th chunk-id. It panics on out-of-range i, as slice
	// indexing would.
	At(i int) uint32
	// Width reports the storage width.
	Width() Width
	// MemoryBytes returns the in-memory footprint of the element storage.
	MemoryBytes() int64
	// CountInto increments counts[v] for every element v; counts must be
	// sized to the chunk-dictionary cardinality. This is the group-by
	// inner loop of Section 2.4.
	CountInto(counts []int64)
	// CountIntoMasked is CountInto restricted to rows with mask bit set.
	CountIntoMasked(counts []int64, mask *Bitmap)
	// Raw returns the elements where they lie: a byte, word or dword
	// sequence's own storage, which the caller must not write. A bit-set or
	// constant sequence stores none per row and is widened into *scratch, a
	// byte per row, which grows to Len bytes if it must.
	Raw(scratch *[]uint8) Raw
	// SpreadMask sets m's bit for every row whose chunk-id v has verdict[v]
	// == 1; verdict holds only 0s and 1s, one per chunk-dictionary entry,
	// and m covers Len rows. Rows whose chunk-id has verdict 0 are left
	// untouched. This spreads a per-distinct predicate verdict to per-row
	// selection without a data-dependent branch — the vectorized
	// restriction step.
	SpreadMask(verdict []uint8, m *Bitmap)
	// AppendBytes appends the serialized element payload to dst; the
	// inverse is Decode with the same width and length.
	AppendBytes(dst []byte) []byte
}

// Encode stores values (chunk-ids in [0, cardinality)) at the narrowest
// width. It panics if any value is out of range, which would indicate a
// chunk-dictionary construction bug.
func Encode(values []uint32, cardinality int) Sequence {
	switch {
	case cardinality <= 0:
		if len(values) != 0 {
			panic("enc: nonzero elements with zero cardinality")
		}
		return constSeq{}
	case cardinality == 1:
		for _, v := range values {
			if v != 0 {
				panic(fmt.Sprintf("enc: value %d out of range for cardinality 1", v))
			}
		}
		return constSeq{n: len(values)}
	case cardinality == 2:
		return newBitSeq(values)
	case cardinality <= 1<<8:
		s := make(byteSeq, len(values))
		for i, v := range values {
			checkRange(v, cardinality)
			s[i] = uint8(v)
		}
		return s
	case cardinality <= 1<<16:
		s := make(wordSeq, len(values))
		for i, v := range values {
			checkRange(v, cardinality)
			s[i] = uint16(v)
		}
		return s
	default:
		return EncodeFixed32(values)
	}
}

// EncodeFixed32 stores values as plain 4-byte integers — the "Basic"
// data-structures of Section 2.3, before the Section 3 optimizations.
func EncodeFixed32(values []uint32) Sequence {
	s := make(dwordSeq, len(values))
	copy(s, values)
	return s
}

func checkRange(v uint32, cardinality int) {
	if int(v) >= cardinality {
		panic(fmt.Sprintf("enc: value %d out of range for cardinality %d", v, cardinality))
	}
}

// Decode reconstructs a sequence serialized by AppendBytes and refuses one
// that holds an element of cardinality or more: kernels index dense tables by
// element, so an element is checked here, once, not on every scan. (Encode
// never writes such a payload; a damaged or hostile record can.) A bit-set
// payload's bits past row n and a constant's value are elements too: the
// first must be zero and the second must be 0; and a bit-set has two
// entries, so it needs a cardinality of two.
func Decode(w Width, n int, data []byte, cardinality int) (Sequence, error) {
	var (
		s   Sequence
		top uint32 // the largest element, if n > 0
	)
	if n < 0 || w != Width0 && n > 8*len(data) {
		return nil, fmt.Errorf("enc: %d elements in a %d-byte payload", n, len(data))
	}
	switch w {
	case Width0:
		if len(data) != 4 {
			return nil, fmt.Errorf("enc: const payload is %d bytes, want 4", len(data))
		}
		if v := binary.LittleEndian.Uint32(data); v != 0 {
			return nil, fmt.Errorf("enc: const payload holds %d, want 0", v)
		}
		s = constSeq{n: n}
	case Width1:
		words := (n + 63) / 64
		if cardinality < 2 {
			// CountInto counts into both entries, zero or not.
			return nil, fmt.Errorf("enc: bitset payload under cardinality %d", cardinality)
		}
		if len(data) != words*8 {
			return nil, fmt.Errorf("enc: bitset payload is %d bytes, want %d", len(data), words*8)
		}
		b := bitSeq{n: n, bits: make([]uint64, words)}
		for i := range b.bits {
			b.bits[i] = binary.LittleEndian.Uint64(data[i*8:])
		}
		if rem := n % 64; rem != 0 && b.bits[words-1]>>rem != 0 {
			return nil, fmt.Errorf("enc: bitset payload sets bits past row %d", n)
		}
		s = b
	case Width8:
		if len(data) != n {
			return nil, fmt.Errorf("enc: byte payload is %d bytes, want %d", len(data), n)
		}
		b := byteSeq(append([]uint8(nil), data...))
		for _, v := range b {
			top = max(top, uint32(v))
		}
		s = b
	case Width16:
		if len(data) != n*2 {
			return nil, fmt.Errorf("enc: word payload is %d bytes, want %d", len(data), n*2)
		}
		b := make(wordSeq, n)
		for i := range b {
			b[i] = binary.LittleEndian.Uint16(data[i*2:])
			top = max(top, uint32(b[i]))
		}
		s = b
	case Width32:
		if len(data) != n*4 {
			return nil, fmt.Errorf("enc: dword payload is %d bytes, want %d", len(data), n*4)
		}
		b := make(dwordSeq, n)
		for i := range b {
			b[i] = binary.LittleEndian.Uint32(data[i*4:])
			top = max(top, uint32(b[i]))
		}
		s = b
	default:
		return nil, fmt.Errorf("enc: unknown width %d", w)
	}
	if n > 0 && int64(top) >= int64(cardinality) {
		return nil, fmt.Errorf("enc: element %d out of range for cardinality %d", top, cardinality)
	}
	return s, nil
}

// constSeq: every element is 0, the one chunk-id of cardinality 1.
type constSeq struct{ n int }

func (s constSeq) Len() int           { return s.n }
func (s constSeq) Width() Width       { return Width0 }
func (s constSeq) MemoryBytes() int64 { return 8 } // n; O(1) per the paper
func (s constSeq) At(i int) uint32 {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("enc: index %d out of range [0,%d)", i, s.n))
	}
	return 0
}
func (s constSeq) CountInto(counts []int64) { counts[0] += int64(s.n) }
func (s constSeq) CountIntoMasked(counts []int64, mask *Bitmap) {
	counts[0] += int64(mask.Count())
}
func (s constSeq) Raw(scratch *[]uint8) Raw {
	out := widened(scratch, s.n)
	clear(out)
	return Raw{U8: out}
}
func (s constSeq) SpreadMask(verdict []uint8, m *Bitmap) {
	if s.n > 0 && verdict[0] != 0 {
		m.SetAll()
	}
}
func (s constSeq) AppendBytes(dst []byte) []byte { return append(dst, 0, 0, 0, 0) }

// bitSeq: two distinct values, one bit per element (⌈n/8⌉ bytes).
type bitSeq struct {
	n    int
	bits []uint64
}

func newBitSeq(values []uint32) Sequence {
	s := bitSeq{n: len(values), bits: make([]uint64, (len(values)+63)/64)}
	for i, v := range values {
		switch v {
		case 0:
		case 1:
			s.bits[i/64] |= 1 << (i % 64)
		default:
			panic(fmt.Sprintf("enc: value %d out of range for cardinality 2", v))
		}
	}
	return s
}

func (s bitSeq) Len() int           { return s.n }
func (s bitSeq) Width() Width       { return Width1 }
func (s bitSeq) MemoryBytes() int64 { return int64(len(s.bits) * 8) }
func (s bitSeq) At(i int) uint32 {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("enc: index %d out of range [0,%d)", i, s.n))
	}
	return uint32(s.bits[i/64] >> (i % 64) & 1)
}
func (s bitSeq) CountInto(counts []int64) {
	ones := 0
	for _, w := range s.bits {
		ones += popcount(w)
	}
	counts[1] += int64(ones)
	counts[0] += int64(s.n - ones)
}
func (s bitSeq) CountIntoMasked(counts []int64, mask *Bitmap) {
	selected := 0
	ones := 0
	for i, w := range mask.words {
		selected += popcount(w)
		ones += popcount(w & s.bits[i])
	}
	counts[1] += int64(ones)
	counts[0] += int64(selected - ones)
}
func (s bitSeq) SpreadMask(verdict []uint8, m *Bitmap) {
	switch {
	case verdict[0] != 0 && verdict[1] != 0:
		m.SetAll()
	case verdict[1] != 0:
		for i, w := range s.bits {
			m.words[i] |= w
		}
		m.trim()
	case verdict[0] != 0:
		for i, w := range s.bits {
			m.words[i] |= ^w
		}
		m.trim()
	}
}
func (s bitSeq) Raw(scratch *[]uint8) Raw {
	out := widened(scratch, s.n)
	for i := range out {
		out[i] = uint8(s.bits[i/64] >> (i % 64) & 1)
	}
	return Raw{U8: out}
}
func (s bitSeq) AppendBytes(dst []byte) []byte {
	var b [8]byte
	for _, w := range s.bits {
		binary.LittleEndian.PutUint64(b[:], w)
		dst = append(dst, b[:]...)
	}
	return dst
}

// byteSeq: up to 256 distinct values, one byte per element.
type byteSeq []uint8

func (s byteSeq) Len() int                                     { return len(s) }
func (s byteSeq) Width() Width                                 { return Width8 }
func (s byteSeq) MemoryBytes() int64                           { return int64(len(s)) }
func (s byteSeq) At(i int) uint32                              { return uint32(s[i]) }
func (s byteSeq) CountInto(counts []int64)                     { countInto(s, counts) }
func (s byteSeq) CountIntoMasked(counts []int64, mask *Bitmap) { countMasked(s, counts, mask.words) }
func (s byteSeq) Raw(*[]uint8) Raw                             { return Raw{U8: s} }
func (s byteSeq) AppendBytes(dst []byte) []byte                { return append(dst, s...) }
func (s byteSeq) SpreadMask(verdict []uint8, m *Bitmap)        { spreadMask(s, verdict, m.words) }

// wordSeq: up to 65536 distinct values, two bytes per element.
type wordSeq []uint16

func (s wordSeq) Len() int                                     { return len(s) }
func (s wordSeq) Width() Width                                 { return Width16 }
func (s wordSeq) MemoryBytes() int64                           { return int64(len(s) * 2) }
func (s wordSeq) At(i int) uint32                              { return uint32(s[i]) }
func (s wordSeq) CountInto(counts []int64)                     { countInto(s, counts) }
func (s wordSeq) CountIntoMasked(counts []int64, mask *Bitmap) { countMasked(s, counts, mask.words) }
func (s wordSeq) Raw(*[]uint8) Raw                             { return Raw{U16: s} }
func (s wordSeq) SpreadMask(verdict []uint8, m *Bitmap)        { spreadMask(s, verdict, m.words) }
func (s wordSeq) AppendBytes(dst []byte) []byte {
	var b [2]byte
	for _, v := range s {
		binary.LittleEndian.PutUint16(b[:], v)
		dst = append(dst, b[:]...)
	}
	return dst
}

// dwordSeq: plain 4-byte elements (the Basic layout).
type dwordSeq []uint32

func (s dwordSeq) Len() int                                     { return len(s) }
func (s dwordSeq) Width() Width                                 { return Width32 }
func (s dwordSeq) MemoryBytes() int64                           { return int64(len(s) * 4) }
func (s dwordSeq) At(i int) uint32                              { return s[i] }
func (s dwordSeq) CountInto(counts []int64)                     { countInto(s, counts) }
func (s dwordSeq) CountIntoMasked(counts []int64, mask *Bitmap) { countMasked(s, counts, mask.words) }
func (s dwordSeq) Raw(*[]uint8) Raw                             { return Raw{U32: s} }
func (s dwordSeq) SpreadMask(verdict []uint8, m *Bitmap)        { spreadMask(s, verdict, m.words) }
func (s dwordSeq) AppendBytes(dst []byte) []byte {
	var b [4]byte
	for _, v := range s {
		binary.LittleEndian.PutUint32(b[:], v)
		dst = append(dst, b[:]...)
	}
	return dst
}

// spreadMask is the one SpreadMask loop behind the three element widths: bit
// r%64 of words[r/64] is ORed with verdict[s[r]]. A 64-row word is built
// from eight groups of eight loads, each load shifted into place and ORed —
// the verdict is data, never a branch, so the cost per row does not depend
// on how many rows are selected or in what pattern. The rows beyond the
// last full word are handled once, after the loop.
func spreadMask[T Elem](s []T, verdict []uint8, words []uint64) {
	full := len(s) / 64
	for wi := 0; wi < full; wi++ {
		rows := s[wi*64 : wi*64+64]
		var w uint64
		for g := 0; g < 64; g += 8 {
			b := rows[g : g+8]
			w |= uint64(verdict[b[0]]|verdict[b[1]]<<1|verdict[b[2]]<<2|verdict[b[3]]<<3|
				verdict[b[4]]<<4|verdict[b[5]]<<5|verdict[b[6]]<<6|verdict[b[7]]<<7) << g
		}
		words[wi] |= w
	}
	if tail := s[full*64:]; len(tail) > 0 {
		var w uint64
		for i, v := range tail {
			w |= uint64(verdict[v]) << i
		}
		words[full] |= w
	}
}

// countInto is the one CountInto loop behind the three element widths.
func countInto[T Elem](s []T, counts []int64) {
	for _, v := range s {
		counts[v]++
	}
}

// countMasked is the one CountIntoMasked loop behind the three element
// widths: the selected rows are read off the mask's words, lowest bit first,
// with no call per row.
func countMasked[T Elem](s []T, counts []int64, words []uint64) {
	for wi, w := range words {
		base := wi * 64
		for ; w != 0; w &= w - 1 {
			counts[s[base+bits.TrailingZeros64(w)]]++
		}
	}
}

// widened returns *scratch grown to n bytes, for a sequence that stores no
// element per row to be widened into.
func widened(scratch *[]uint8, n int) []uint8 {
	if cap(*scratch) < n {
		*scratch = make([]uint8, n)
	}
	return (*scratch)[:n]
}

func popcount(x uint64) int { return bits.OnesCount64(x) }
