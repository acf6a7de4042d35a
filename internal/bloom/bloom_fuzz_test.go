package bloom

import (
	"encoding/binary"
	"testing"
)

// FuzzBloomNoFalseNegatives is the fuzz form of the filter's one hard
// guarantee: any key that was added must test positive — across filter
// geometries, and across a marshal/unmarshal round trip. (False positives
// are allowed; false negatives would silently drop chunks from query
// results.)
func FuzzBloomNoFalseNegatives(f *testing.F) {
	f.Add([]byte("hello world"), uint16(64), uint8(3))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint16(8), uint8(1))
	f.Add([]byte(""), uint16(1), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, mRaw uint16, kRaw uint8) {
		m := uint64(mRaw)%4096 + 1
		k := int(kRaw)%8 + 1
		fl := New(m, k)

		// Chop the input into keys: every 3-byte window, zero-extended, is
		// one key.
		var keys []uint64
		for i := 0; i+3 <= len(data); i += 3 {
			keys = append(keys, binary.LittleEndian.Uint64(append(data[i:i+3:i+3], 0, 0, 0, 0, 0)))
		}
		for _, key := range keys {
			fl.AddUint64(key)
		}
		check := func(fl *Filter, ctx string) {
			for i, key := range keys {
				if !fl.TestUint64(key) {
					t.Fatalf("%s: false negative for key %d (%#x) with m=%d k=%d", ctx, i, key, m, k)
				}
			}
		}
		check(fl, "fresh filter")

		rt, err := Unmarshal(fl.Marshal())
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		check(rt, "after marshal round trip")
	})
}
