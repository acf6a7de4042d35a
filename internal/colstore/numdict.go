package colstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"powerdrill/internal/value"
)

// A numeric dictionary frame is written as fixed-width deltas of
// order-preserving uint64 keys (docs/format.md): for its n values, the
// first key in 8 little-endian bytes, then — when n ≥ 2 — one width byte
// (1, 2, 4 or 8, the narrowest that holds every delta) and the n−1 deltas
// in that many little-endian bytes each. Every frame restarts the key, so
// each is read alone. Sorted distinct values have
// strictly ascending keys, so every delta is at least one; a dictionary of
// timestamps or small integers packs into a byte or two a value.

const signBit = 1 << 63

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

// orderKey is v as a layout's frame entries hold their first values: a
// string's bytes, and a number's key (numericKey) in 8 big-endian bytes,
// so that the first values of frames of any kind order as strings do.
func orderKey(v value.Value) string {
	if v.Kind() == value.KindString {
		return v.Str()
	}
	return string(binary.BigEndian.AppendUint64(nil, numericKey(v)))
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

// fromKey inverts numericKey for a T, a float64 exactly when float is set.
func fromKey[T int64 | float64](k uint64, float bool) T {
	if float {
		return T(keyFloat64(k))
	}
	return T(keyInt64(k))
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

// appendKeyDeltas appends a numeric frame of keys that ascend strictly (the
// count is the caller's).
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

// The keys of the float64s that are not NaN: from −Inf's to +Inf's.
const (
	minFloatKey = ^uint64(0xFFF0000000000000)
	maxFloatKey = 0xFFF0000000000000
)

// walkNumbers reads a numeric frame of n values, the count given by the
// frame index: the key deltas appendKeyDeltas writes, converted to T and
// appended to out. The frame is not trusted: n is bounded by the bytes
// left before anything is allocated; a width byte other than 1, 2, 4 or 8,
// or wider than the deltas need, is an error; and the values must ascend strictly — a zero
// delta repeats a value, and a delta that wraps the key past 2⁶⁴ descends.
// Keys order as their values do, so the keys are what is checked, but for
// what float64 order adds: no NaN, and not both −0 and +0, which are
// adjacent keys of equal values.
func walkNumbers[T int64 | float64](r *byteReader, n uint64, out []T) ([]T, error) {
	if n == 0 {
		return out, nil
	}
	first, err := r.take(8)
	if err != nil {
		return nil, err
	}
	var body []byte
	w := 1 // a delta's width
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
	descends := func(i int) error {
		return fmt.Errorf("colstore: numeric dictionary does not ascend strictly at %d", i)
	}
	var zero T
	_, float := any(zero).(float64)
	k := binary.LittleEndian.Uint64(first)
	if float && k < minFloatKey {
		return nil, descends(0)
	}
	out = append(slices.Grow(out, int(n)), fromKey[T](k, float))
	// The keys go through a block at a time: one tight loop per delta
	// width reads, sums and checks them, and then they are converted.
	var (
		block [256]uint64
		span  uint64
		bad   = -1 // the id of a key that does not ascend
	)
	for base := 1; base < int(n); base += len(block) {
		keys := block[:min(len(block), int(n)-base)]
		src := body[(base-1)*w : (base-1+len(keys))*w]
		switch w {
		case 1:
			for j, b := range src {
				d := uint64(b)
				span |= d
				if k+d <= k || float && k+d == signBit && k == signBit-1 {
					bad = base + j
					break
				}
				k += d
				keys[j] = k
			}
		case 2:
			for j := range keys {
				d := uint64(binary.LittleEndian.Uint16(src[2*j:]))
				span |= d
				if k+d <= k || float && k+d == signBit && k == signBit-1 {
					bad = base + j
					break
				}
				k += d
				keys[j] = k
			}
		case 4:
			for j := range keys {
				d := uint64(binary.LittleEndian.Uint32(src[4*j:]))
				span |= d
				if k+d <= k || float && k+d == signBit && k == signBit-1 {
					bad = base + j
					break
				}
				k += d
				keys[j] = k
			}
		default:
			for j := range keys {
				d := binary.LittleEndian.Uint64(src[8*j:])
				span |= d
				if k+d <= k || float && k+d == signBit && k == signBit-1 {
					bad = base + j
					break
				}
				k += d
				keys[j] = k
			}
		}
		if bad >= 0 {
			return nil, descends(bad)
		}
		at := len(out)
		out = out[:at+len(keys)] // grown to n above
		for j, kj := range keys {
			out[at+j] = fromKey[T](kj, float)
		}
	}
	if float && k > maxFloatKey {
		return nil, descends(int(n) - 1)
	}
	if deltaWidth(span) != w {
		return nil, fmt.Errorf("colstore: numeric dictionary delta width %d, the deltas need %d", w, deltaWidth(span))
	}
	return out, nil
}
