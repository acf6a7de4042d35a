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
	f.Add([]byte("a flip past the chunks lands in an index record"), uint16(7), uint16(60))
	f.Fuzz(func(t *testing.T, data []byte, split, flip uint16) {
		if len(data) == 0 {
			return
		}
		// Lay the file out as a dictionary frame and two chunk records;
		// the split point and therefore every record boundary is fuzzed.
		// The layout record indexing them follows, then the Bloom record
		// an older generation-8 build wrote after it: opaque bytes here,
		// since nothing decodes one, but still checksummed.
		h := int(split) % len(data)
		mid := h + (len(data)-h)/2
		frames := []frameEntry{{len: int64(h), raw: int64(h), count: 1, crc: CRC32C(data[:h])}}
		spans := []ChunkSpan{{MinGID: 0, MaxGID: uint32(split)}, {MinGID: 1, MaxGID: 0}}
		chunks := []chunkEntry{
			{off: int64(h), len: int64(mid - h), crc: CRC32C(data[h:mid])},
			{off: int64(mid), len: int64(len(data) - mid), crc: CRC32C(data[mid:])},
		}
		file := append([]byte(nil), data...)
		mc := manifestCol{File: "col_0000.bin"}
		index := func(rec []byte) recordRef {
			ref := recordRef{Off: int64(len(file)), Len: int64(len(rec)), CRC: CRC32C(rec)}
			file = append(file, rec...)
			return ref
		}
		mc.Index = index(appendLayout(nil, frames, spans, chunks))
		bref := index([]byte{2, 9, byte(split), byte(flip), 0})
		mc.Bloom = &bref
		if _, err := verifyColumnFile(mc, false, file, mc.File); err != nil {
			t.Fatalf("clean file fails verification: %v", err)
		}

		// Flip one bit anywhere in the file.
		idx := int(flip) % len(file)
		bit := byte(1) << (flip % 8)
		mut := append([]byte(nil), file...)
		mut[idx] ^= bit

		// The flipped byte lies in exactly one record; the verifier must
		// catch it unless that record's true CRC happens to be zero (the
		// documented 2^-32 skip).
		var want uint32
		switch {
		case idx < h:
			want = frames[0].crc
		case idx < mid:
			want = chunks[0].crc
		case idx < len(data):
			want = chunks[1].crc
		case int64(idx) < mc.Index.Off+mc.Index.Len:
			want = mc.Index.CRC
		default:
			want = mc.Bloom.CRC
		}
		_, err := verifyColumnFile(mc, false, mut, mc.File)
		if want == 0 {
			if err != nil && idx < len(data) {
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
		v4 := oldIndex{Chunks: []oldChunk{{Off: int64(h), Len: int64(mid - h)}, {Off: int64(mid), Len: int64(len(data) - mid)}}}
		v4lay, err := v4.layout()
		if err != nil {
			t.Fatal(err)
		}
		if n, err := verifyRecords(v4lay.records(false), mut, mc.File); err != nil || n != 0 {
			t.Fatalf("v4 manifest verified %d checksums: %v", n, err)
		}
	})
}
