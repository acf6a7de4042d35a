package colstore

// Integrity checksums. Save records a CRC32C (Castagnoli) per on-disk
// record — every dictionary frame, every chunk record and each column's
// layout record — computed over the exact file bytes a cold load reads (a
// codec record's bytes with a codec, whether compressed or stored raw; raw
// bytes otherwise). Readers verify on every cold read; a mismatch degrades like a missing shard: an error
// carrying file and byte range, never a silently wrong answer.

import (
	"fmt"
	"hash/crc32"

	"powerdrill/internal/faultfs"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CRC32C returns the Castagnoli CRC of b — the checksum every record (and
// the ingest WAL's frames and every generation manifest) carries.
func CRC32C(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// vfs returns the filesystem all colstore disk I/O routes through —
// the OS in production, a faultfs.Injector under fault tests.
func vfs() faultfs.FS { return faultfs.Current() }

// ChecksumError reports a record whose stored CRC32C does not match its
// file bytes: the exact file and byte range, so operators can map the
// corruption to a disk block. Detected on cold reads (queries fail
// rather than answer wrong) and by the offline scrub.
type ChecksumError struct {
	Path string
	Off  int64
	Len  int64
	Want uint32
	Got  uint32
}

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("colstore: checksum mismatch in %s at [%d,%d): stored %08x, computed %08x",
		e.Path, e.Off, e.Off+e.Len, e.Want, e.Got)
}

// record is a byte range of a column file, and the CRC32C its bytes carry.
type record struct {
	off, n int64
	crc    uint32
}

// verifyColumnFile checks every record checksum of one column against its
// full file bytes: its layout record, then every record the layout indexes,
// then the Bloom record an older generation-8 build wrote, if it has one
// (nothing else reads that record, so this and the eager Open's loadColumn
// are what still check it). Returns how many records carried a checksum
// and were verified; the first mismatch aborts with a ChecksumError, and a
// layout that verifies but does not parse with its error.
func verifyColumnFile(mc manifestCol, compressed bool, data []byte, path string) (int, error) {
	ref := mc.Index
	n, err := verifyRecords([]record{ref.record()}, data, path)
	if err != nil {
		return n, err
	}
	if ref.Off < 0 || ref.Len <= 0 || ref.Off+ref.Len > int64(len(data)) {
		return n, fmt.Errorf("colstore: %s: layout record [%d,%d) outside the file", path, ref.Off, ref.Off+ref.Len)
	}
	lay, err := decodeLayout(data[ref.Off : ref.Off+ref.Len])
	if err != nil {
		return n, fmt.Errorf("colstore: %s: %w", path, err)
	}
	recs := lay.records(compressed)
	if mc.Bloom != nil {
		recs = append(recs, mc.Bloom.record())
	}
	m, err := verifyRecords(recs, data, path)
	return n + m, err
}

// verifyRecords checks each record's file bytes in data against its CRC.
// A record whose stored CRC is zero is skipped (zero doubles as "absent"
// in the manifest encoding, which is all a manifest of generations 1–4
// records; a data CRC of exactly zero forgoes its check — a 2^-32 gap,
// documented in docs/format.md).
func verifyRecords(recs []record, data []byte, path string) (int, error) {
	verified := 0
	for _, rec := range recs {
		if rec.crc == 0 {
			continue
		}
		if rec.off < 0 || rec.n < 0 || rec.off+rec.n > int64(len(data)) {
			return verified, &ChecksumError{Path: path, Off: rec.off, Len: rec.n, Want: rec.crc, Got: 0}
		}
		if got := CRC32C(data[rec.off : rec.off+rec.n]); got != rec.crc {
			return verified, &ChecksumError{Path: path, Off: rec.off, Len: rec.n, Want: rec.crc, Got: got}
		}
		verified++
	}
	return verified, nil
}
