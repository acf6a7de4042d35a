package colstore

import (
	"encoding/binary"
	"fmt"
	"math"

	"powerdrill/internal/value"
)

// Generation 6 writes a numeric dictionary as fixed-width deltas of
// order-preserving uint64 keys (docs/format.md): after the count n, the
// first key in 8 little-endian bytes, then — when n ≥ 2 — one width byte
// (1, 2, 4 or 8, the narrowest that holds every delta) and the n−1 deltas
// in that many little-endian bytes each. Sorted distinct values have
// strictly ascending keys, so every delta is at least one; a dictionary of
// timestamps or small integers packs into a byte or two a value where
// generation 5 spent eight.

const signBit = 1 << 63

// numericWord is a numeric dictionary value's 8-byte word in generation 5:
// the int64's two's complement, the float64's IEEE bits.
func numericWord(v value.Value) uint64 {
	if v.Kind() == value.KindFloat64 {
		return math.Float64bits(v.Float())
	}
	return uint64(v.Int())
}

// numericKey maps a numeric dictionary value to a key that sorts as the
// values do: an int64 with its sign bit flipped; a float64's bits with the
// sign bit set when it is clear, all bits flipped when it is set. Both
// maps are bijections, so keyInt64 and keyFloat64 return the value bit for
// bit (−0 included).
func numericKey(v value.Value) uint64 {
	if v.Kind() == value.KindFloat64 {
		b := math.Float64bits(v.Float())
		if b&signBit != 0 {
			return ^b
		}
		return b | signBit
	}
	return uint64(v.Int()) ^ signBit
}

// keyInt64 inverts numericKey for an int64.
func keyInt64(k uint64) int64 { return int64(k ^ signBit) }

// keyFloat64 inverts numericKey for a float64.
func keyFloat64(k uint64) float64 {
	if k&signBit != 0 {
		return math.Float64frombits(k &^ signBit)
	}
	return math.Float64frombits(^k)
}

// deltaWidth is the narrowest delta width, in bytes, that holds span (the
// OR of every delta, which has the largest delta's bit length).
func deltaWidth(span uint64) int {
	switch {
	case span < 1<<8:
		return 1
	case span < 1<<16:
		return 2
	case span < 1<<32:
		return 4
	}
	return 8
}

// appendKeyDeltas appends the payload of a numeric dictionary whose keys
// ascend strictly (the count is the caller's).
func appendKeyDeltas(out []byte, keys []uint64) []byte {
	if len(keys) == 0 {
		return out
	}
	out = appendLE64(out, keys[0])
	if len(keys) == 1 {
		return out
	}
	var span uint64
	for i := 1; i < len(keys); i++ {
		span |= keys[i] - keys[i-1]
	}
	w := deltaWidth(span)
	out = append(out, byte(w))
	for i := 1; i < len(keys); i++ {
		d := keys[i] - keys[i-1]
		for b := 0; b < w; b++ {
			out = append(out, byte(d>>(8*b)))
		}
	}
	return out
}

// decodeKeyDeltas reads the payload appendKeyDeltas writes for n values,
// storing of(key) for each key (keyInt64, keyFloat64), with no slice of
// keys between. The payload is not trusted: n is bounded by the bytes left
// before anything is allocated, and a width byte other than 1, 2, 4 or 8
// or wider than the deltas need is an error. Order is left to the
// dictionary constructor's check, the one order check of the decode: a
// zero delta repeats a value, and a delta that wraps the key past 2⁶⁴
// makes it descend (to a smaller value, or to a NaN, which no float
// dictionary holds).
func decodeKeyDeltas[T int64 | float64](r *byteReader, n uint64, of func(uint64) T) ([]T, error) {
	if n == 0 {
		return []T{}, nil
	}
	first, err := r.words(1)
	if err != nil {
		return nil, err
	}
	var body []byte
	w := 1
	if n > 1 {
		wb, err := r.take(1)
		if err != nil {
			return nil, err
		}
		if w = int(wb[0]); w != 1 && w != 2 && w != 4 && w != 8 {
			return nil, fmt.Errorf("colstore: numeric dictionary delta width %d", w)
		}
		if n-1 > uint64(len(r.buf)-r.off)/uint64(w) {
			return nil, errTruncated
		}
		body, _ = r.take(int(n-1) * w) // cannot fail: bounded just above
	}
	vals := make([]T, n)
	key := binary.LittleEndian.Uint64(first)
	vals[0] = of(key)
	var span uint64
	switch w {
	case 1:
		for i, b := range body {
			d := uint64(b)
			key += d
			span |= d
			vals[i+1] = of(key)
		}
	case 2:
		for i := 1; i < len(vals); i++ {
			d := uint64(binary.LittleEndian.Uint16(body[2*i-2:]))
			key += d
			span |= d
			vals[i] = of(key)
		}
	case 4:
		for i := 1; i < len(vals); i++ {
			d := uint64(binary.LittleEndian.Uint32(body[4*i-4:]))
			key += d
			span |= d
			vals[i] = of(key)
		}
	default:
		for i := 1; i < len(vals); i++ {
			d := binary.LittleEndian.Uint64(body[8*i-8:])
			key += d
			span |= d
			vals[i] = of(key)
		}
	}
	if deltaWidth(span) != w {
		return nil, fmt.Errorf("colstore: numeric dictionary delta width %d, the deltas need %d", w, deltaWidth(span))
	}
	return vals, nil
}
