package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Zippy implements the Snappy block format from scratch: a preamble with
// the uncompressed length as a uvarint, followed by a sequence of literal
// and copy elements. Tags use the low two bits for the element type
// (00 literal, 01 one-byte-offset copy, 10 two-byte-offset copy) — the
// four-byte-offset copy (11) is emitted never but decoded for completeness.
//
// The compressor is the classic greedy matcher over a 16-bit hash table of
// 4-byte sequences with the "skip acceleration" heuristic: the longer the
// compressor goes without finding a match, the faster it skips ahead, so
// incompressible inputs stay close to memcpy speed.
type Zippy struct{}

// Name implements Codec.
func (Zippy) Name() string { return "zippy" }

const (
	zippyTagLiteral = 0x00
	zippyTagCopy1   = 0x01
	zippyTagCopy2   = 0x02
	zippyTagCopy4   = 0x03

	zippyMaxBlock = 65536 // compress input in 64K windows like snappy
)

func zippyHash(u uint32, shift uint) uint32 {
	return (u * 0x1e35a7bd) >> shift
}

func load32(b []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(b[i:])
}

// emitLiteral appends a literal element for lit.
func zippyEmitLiteral(dst, lit []byte) []byte {
	n := len(lit) - 1
	switch {
	case n < 60:
		dst = append(dst, byte(n)<<2|zippyTagLiteral)
	case n < 1<<8:
		dst = append(dst, 60<<2|zippyTagLiteral, byte(n))
	case n < 1<<16:
		dst = append(dst, 61<<2|zippyTagLiteral, byte(n), byte(n>>8))
	case n < 1<<24:
		dst = append(dst, 62<<2|zippyTagLiteral, byte(n), byte(n>>8), byte(n>>16))
	default:
		dst = append(dst, 63<<2|zippyTagLiteral, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	}
	return append(dst, lit...)
}

// emitCopy appends copy elements covering length bytes at the given offset.
func zippyEmitCopy(dst []byte, offset, length int) []byte {
	for length > 0 {
		switch {
		case length >= 12 || offset >= 2048:
			n := length
			if n > 64 {
				n = 64
			}
			dst = append(dst, byte(n-1)<<2|zippyTagCopy2, byte(offset), byte(offset>>8))
			length -= n
		default:
			// 1-byte-offset copy: length 4..11, offset < 2048.
			n := length
			if n > 11 {
				n = 11
			}
			if n < 4 {
				// Lengths below 4 cannot be encoded as copy1; fall back
				// to copy2 which supports length 1..64.
				dst = append(dst, byte(length-1)<<2|zippyTagCopy2, byte(offset), byte(offset>>8))
				return dst
			}
			dst = append(dst, byte(offset>>8)<<5|byte(n-4)<<2|zippyTagCopy1, byte(offset))
			length -= n
		}
	}
	return dst
}

// Compress implements Codec.
func (Zippy) Compress(dst, src []byte) []byte {
	dst = putUvarint(dst, uint64(len(src)))
	for len(src) > 0 {
		block := src
		if len(block) > zippyMaxBlock {
			block = block[:zippyMaxBlock]
		}
		src = src[len(block):]
		dst = zippyCompressBlock(dst, block)
	}
	return dst
}

// zippyCompressBlock compresses one ≤64K block.
func zippyCompressBlock(dst, src []byte) []byte {
	if len(src) < 4 {
		if len(src) > 0 {
			dst = zippyEmitLiteral(dst, src)
		}
		return dst
	}
	const maxTableBits = 14
	shift := uint(32 - maxTableBits)
	var table [1 << maxTableBits]uint16

	s := 0
	lit := 0 // start of pending literal run
	limit := len(src) - 4

	for s <= limit {
		// Skip acceleration: after 32 misses, step 2, then 3, ...
		nextS := s
		skip := 32
		var cand int
		for {
			s = nextS
			nextS = s + skip>>5
			skip++
			if s > limit {
				// Flush the tail as a literal.
				if lit < len(src) {
					dst = zippyEmitLiteral(dst, src[lit:])
				}
				return dst
			}
			h := zippyHash(load32(src, s), shift)
			cand = int(table[h])
			table[h] = uint16(s)
			if cand < s && load32(src, cand) == load32(src, s) {
				break
			}
		}
		if s > lit {
			dst = zippyEmitLiteral(dst, src[lit:s])
		}
		// Extend the match forward.
		base := s
		s += 4
		m := cand + 4
		for s < len(src) && src[s] == src[m] {
			s++
			m++
		}
		dst = zippyEmitCopy(dst, base-cand, s-base)
		lit = s
		if s <= limit {
			h := zippyHash(load32(src, s-1), shift)
			table[h] = uint16(s - 1)
		}
	}
	if lit < len(src) {
		dst = zippyEmitLiteral(dst, src[lit:])
	}
	return dst
}

var (
	errZippyCorrupt   = errors.New("compress: corrupt zippy data")
	errZippyTruncated = errors.New("compress: truncated zippy data")
)

// zippyMaxOut is the most output n bytes of elements can stand for: a
// three-byte copy element emits at most 64 bytes, and no element more per
// byte of its own.
func zippyMaxOut(n int) uint64 { return uint64(n) * 64 / 3 }

// Decompress implements Codec. The preamble is checked against what the
// elements that follow it can expand to before anything is reserved, and no
// element may write past it.
//
// The output is sized once from the preamble and written by index: d is
// where the next element's bytes go in out[base:end]. A literal or copy of at
// most 16 bytes moves two 8-byte words when 16 bytes are left to read and to
// write, and a copy's offset is at least 8, so that each word reads only
// bytes already written. What lands past the element is overwritten by the
// elements after it, and the closing d == end check proves every byte of the
// output was written by the element it belongs to.
func (Zippy) Decompress(dst, src []byte) ([]byte, error) {
	want, n := uvarint(src)
	if n <= 0 {
		return dst, errZippyTruncated
	}
	src = src[n:]
	if want > zippyMaxOut(len(src)) {
		return dst, fmt.Errorf("%w: preamble says %d bytes, %d bytes of elements make at most %d",
			errZippyCorrupt, want, len(src), zippyMaxOut(len(src)))
	}
	base := len(dst)
	end := base + int(want)
	if cap(dst) < end {
		grown := make([]byte, base, end)
		copy(grown, dst)
		dst = grown
	}
	out := dst[:end]
	d, s := base, 0
	for s < len(src) {
		tag := src[s]
		var length, offset int
		switch tag & 0x03 {
		case zippyTagLiteral:
			switch x := int(tag >> 2); {
			case x < 60:
				length = x
				s++
			case x == 60:
				if len(src)-s < 2 {
					return out[:d], errZippyTruncated
				}
				length = int(src[s+1])
				s += 2
			case x == 61:
				if len(src)-s < 3 {
					return out[:d], errZippyTruncated
				}
				length = int(binary.LittleEndian.Uint16(src[s+1:]))
				s += 3
			case x == 62:
				if len(src)-s < 4 {
					return out[:d], errZippyTruncated
				}
				length = int(src[s+1]) | int(src[s+2])<<8 | int(src[s+3])<<16
				s += 4
			default:
				if len(src)-s < 5 {
					return out[:d], errZippyTruncated
				}
				length = int(binary.LittleEndian.Uint32(src[s+1:]))
				s += 5
			}
			length++
			if length > len(src)-s {
				return out[:d], errZippyTruncated
			}
			if length > end-d {
				return out[:d], fmt.Errorf("%w: output past the preamble's %d bytes", errZippyCorrupt, want)
			}
			if length <= 16 && end-d >= 16 && len(src)-s >= 16 {
				binary.LittleEndian.PutUint64(out[d:], binary.LittleEndian.Uint64(src[s:]))
				binary.LittleEndian.PutUint64(out[d+8:], binary.LittleEndian.Uint64(src[s+8:]))
			} else {
				copy(out[d:d+length], src[s:s+length])
			}
			d += length
			s += length
			continue
		case zippyTagCopy1:
			if len(src)-s < 2 {
				return out[:d], errZippyTruncated
			}
			length = 4 + int(tag>>2)&0x07
			offset = int(tag&0xe0)<<3 | int(src[s+1])
			s += 2
		case zippyTagCopy2:
			if len(src)-s < 3 {
				return out[:d], errZippyTruncated
			}
			length = 1 + int(tag>>2)
			offset = int(binary.LittleEndian.Uint16(src[s+1:]))
			s += 3
		default: // zippyTagCopy4
			if len(src)-s < 5 {
				return out[:d], errZippyTruncated
			}
			length = 1 + int(tag>>2)
			offset = int(binary.LittleEndian.Uint32(src[s+1:]))
			s += 5
		}
		if offset <= 0 || offset > d-base || length > end-d {
			return out[:d], errZippyCorrupt
		}
		switch from := d - offset; {
		case length <= 16 && offset >= 8 && end-d >= 16:
			binary.LittleEndian.PutUint64(out[d:], binary.LittleEndian.Uint64(out[from:]))
			binary.LittleEndian.PutUint64(out[d+8:], binary.LittleEndian.Uint64(out[from+8:]))
		case offset >= length:
			copy(out[d:d+length], out[from:from+length])
		default:
			// Overlapping (the RLE-like case): each byte may be one this
			// copy has just written.
			for i := 0; i < length; i++ {
				out[d+i] = out[from+i]
			}
		}
		d += length
	}
	if d != end {
		return out[:d], fmt.Errorf("%w: got %d bytes, preamble says %d", errZippyCorrupt, d-base, want)
	}
	return out, nil
}

func init() { Register(Zippy{}) }
