package compress

import (
	"encoding/binary"
	"errors"
)

// LZOish is the stand-in for the "variant of LZO" the paper selected for
// production (Section 5): compared to Zippy it uses a minimum match of
// three bytes, a larger hash table, and no skip acceleration, trading a
// little compression speed for ~10% better ratios on dictionary-encoded
// column data, with a branch-light decode loop.
//
// Format: uvarint uncompressed length, then a sequence of ops.
// Op byte: 0x00..0x7f → literal run of (op+1) bytes follows;
// 0x80|lenBits → match: length = 3 + lenBits (lenBits 0..126,
// 127 = extended length as uvarint follows), then offset as uvarint.
type LZOish struct{}

// Name implements Codec.
func (LZOish) Name() string { return "lzoish" }

const (
	lzoMinMatch  = 3
	lzoTableBits = 16
	lzoMaxLit    = 128
)

func lzoHash(u uint32) uint32 {
	return (u * 0x9e3779b1) >> (32 - lzoTableBits)
}

// Compress implements Codec.
func (LZOish) Compress(dst, src []byte) []byte {
	dst = putUvarint(dst, uint64(len(src)))
	if len(src) == 0 {
		return dst
	}
	var table [1 << lzoTableBits]int32
	for i := range table {
		table[i] = -1
	}
	emitLits := func(lit []byte) {
		for len(lit) > 0 {
			n := len(lit)
			if n > lzoMaxLit {
				n = lzoMaxLit
			}
			dst = append(dst, byte(n-1))
			dst = append(dst, lit[:n]...)
			lit = lit[n:]
		}
	}
	s, lit := 0, 0
	limit := len(src) - lzoMinMatch
	for s <= limit {
		var h uint32
		if s+4 <= len(src) {
			h = lzoHash(load32(src, s))
		} else {
			h = lzoHash(uint32(src[s]) | uint32(src[s+1])<<8 | uint32(src[s+2])<<16)
		}
		cand := table[h]
		table[h] = int32(s)
		if cand >= 0 && int(cand) < s &&
			src[cand] == src[s] && src[cand+1] == src[s+1] && src[cand+2] == src[s+2] {
			// Extend match.
			base := s
			m := int(cand) + lzoMinMatch
			s += lzoMinMatch
			for s < len(src) && src[s] == src[m] {
				s++
				m++
			}
			if base > lit {
				emitLits(src[lit:base])
			}
			length := s - base
			offset := base - int(cand)
			if length-lzoMinMatch < 127 {
				dst = append(dst, 0x80|byte(length-lzoMinMatch))
			} else {
				dst = append(dst, 0x80|127)
				dst = putUvarint(dst, uint64(length-lzoMinMatch))
			}
			dst = putUvarint(dst, uint64(offset))
			lit = s
			continue
		}
		s++
	}
	if lit < len(src) {
		emitLits(src[lit:])
	}
	return dst
}

var errLZOCorrupt = errors.New("compress: corrupt lzoish data")

// lzoMaxOutPlain is the most output n bytes of ops can stand for without an
// extended match length: a two-byte match emits at most 129 bytes. An
// extended length has no bound, so Decompress reserves no more than this
// and grows its output as the ops produce it.
func lzoMaxOutPlain(n int) uint64 { return uint64(n) * (lzoMinMatch + 126) / 2 }

// Decompress implements Codec. No op may write past the preamble.
func (LZOish) Decompress(dst, src []byte) ([]byte, error) {
	want, n := uvarint(src)
	if n <= 0 {
		return dst, errLZOCorrupt
	}
	src = src[n:]
	base := len(dst)
	if reserve := int(min(want, lzoMaxOutPlain(len(src)))); cap(dst)-len(dst) < reserve {
		grown := make([]byte, len(dst), len(dst)+reserve)
		copy(grown, dst)
		dst = grown
	}
	// left is what the preamble still allows.
	left := func() uint64 { return want - uint64(len(dst)-base) }
	for len(src) > 0 {
		op := src[0]
		src = src[1:]
		if op < 0x80 {
			n := int(op) + 1
			if len(src) < n || uint64(n) > left() {
				return dst, errLZOCorrupt
			}
			dst = append(dst, src[:n]...)
			src = src[n:]
			continue
		}
		length := uint64(op&0x7f) + lzoMinMatch
		if op&0x7f == 127 {
			ext, n := uvarint(src)
			if n <= 0 {
				return dst, errLZOCorrupt
			}
			src = src[n:]
			length = ext + lzoMinMatch
		}
		off, n := uvarint(src)
		if n <= 0 {
			return dst, errLZOCorrupt
		}
		src = src[n:]
		if off == 0 || off > uint64(len(dst)-base) || length > left() {
			return dst, errLZOCorrupt
		}
		for i, offset := uint64(0), int(off); i < length; i++ {
			dst = append(dst, dst[len(dst)-offset])
		}
	}
	if got := len(dst) - base; uint64(got) != want {
		return dst, errLZOCorrupt
	}
	return dst, nil
}

// sanity check that binary is linked (load32 uses it); keeps imports tidy.
var _ = binary.LittleEndian

func init() { Register(LZOish{}) }
