package colstore

// Fuzzing the record-checksum verifier: for any file bytes and any
// record layout, a clean file must verify, and flipping any bit inside a
// checksummed record must fail with a ChecksumError naming the range —
// the "detected, never silently wrong" half of the durability contract.

import (
	"errors"
	"testing"
)

func FuzzChunkChecksum(f *testing.F) {
	f.Add([]byte("a small column file with a head and one chunk"), uint16(10), uint16(3))
	f.Add([]byte{0, 0, 0, 0}, uint16(0), uint16(31))
	f.Fuzz(func(t *testing.T, data []byte, split, flip uint16) {
		if len(data) == 0 {
			return
		}
		// Lay the file out as a dictionary frame and two chunk records;
		// the split point and therefore every record boundary is fuzzed.
		h := int(split) % len(data)
		mid := h + (len(data)-h)/2
		mc := manifestCol{File: "col_0000.bin", Frames: []manifestFrame{{Len: int64(h), Raw: int64(h), CRC: CRC32C(data[:h])}}}
		mc.Chunks = []manifestChunk{
			{Off: int64(h), Len: int64(mid - h), CRC: CRC32C(data[h:mid])},
			{Off: int64(mid), Len: int64(len(data) - mid), CRC: CRC32C(data[mid:])},
		}
		if _, err := verifyColumnFile(mc, false, data, mc.File); err != nil {
			t.Fatalf("clean file fails verification: %v", err)
		}

		// Flip one bit anywhere in the file.
		idx := int(flip) % len(data)
		bit := byte(1) << (flip % 8)
		mut := append([]byte(nil), data...)
		mut[idx] ^= bit

		// The flipped byte lies in exactly one record; the verifier must
		// catch it unless that record's true CRC happens to be zero (the
		// documented 2^-32 skip).
		var want uint32
		switch {
		case idx < h:
			want = mc.Frames[0].CRC
		case idx < mid:
			want = mc.Chunks[0].CRC
		default:
			want = mc.Chunks[1].CRC
		}
		_, err := verifyColumnFile(mc, false, mut, mc.File)
		if want == 0 {
			if err != nil {
				t.Fatalf("zero-CRC record must be skipped, got %v", err)
			}
			return
		}
		var ce *ChecksumError
		if !errors.As(err, &ce) {
			t.Fatalf("bit flip at %d (record crc %08x) not detected: err = %v", idx, want, err)
		}
		if ce.Path != mc.File || ce.Want != want {
			t.Fatalf("checksum error misattributed: %+v", ce)
		}
		if int64(idx) < ce.Off || int64(idx) >= ce.Off+ce.Len {
			t.Fatalf("flipped byte %d outside reported range [%d,%d)", idx, ce.Off, ce.Off+ce.Len)
		}

		// A pre-checksum manifest (generations 1–4) records every CRC as
		// zero, so it has nothing to verify: the same flip passes silently.
		v4 := manifestCol{File: mc.File, Chunks: []manifestChunk{mc.Chunks[0], mc.Chunks[1]}}
		v4.Chunks[0].CRC, v4.Chunks[1].CRC = 0, 0
		if n, err := verifyColumnFile(v4, false, mut, mc.File); err != nil || n != 0 {
			t.Fatalf("v4 manifest verified %d checksums: %v", n, err)
		}
	})
}
