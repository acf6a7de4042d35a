package colstore

// Integrity checksums. Save records a CRC32C (Castagnoli) per on-disk
// record — the head record (dictionary plus chunk-count varint), every
// chunk record, and every dictionary shard frame — computed over the exact
// file bytes a cold load reads (a codec record's bytes with a codec,
// whether compressed or stored raw; raw bytes otherwise). Readers verify
// on every cold read; a mismatch degrades like a missing shard: an error
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

// headFileLen is the byte length of a column's head record (dictionary
// plus chunk-count varint) inside the column file: its codec record
// (compressed or stored raw) with a codec, the bytes
// before the first chunk otherwise (all of a chunkless file, which only
// the verifier's fuzzer builds).
func headFileLen(mc manifestCol, compressed bool, fileLen int64) int64 {
	if compressed {
		return mc.DictCLen
	}
	if len(mc.Chunks) > 0 {
		return mc.Chunks[0].Off
	}
	return fileLen
}

// headRawLen is the raw byte length of a column's head record: the
// dictionary and the chunk-count varint after it.
func headRawLen(mc manifestCol) int64 {
	return mc.DictLen + int64(uvarintLen(uint64(len(mc.Chunks))))
}

// headStoredRaw and chunkStoredRaw report whether a record of a codec
// store sits in the file raw: exactly when its file length equals its raw
// length, which compressRecords never lets a compressed record reach.
func headStoredRaw(mc manifestCol) bool { return mc.DictCLen == headRawLen(mc) }

func chunkStoredRaw(ch manifestChunk) bool { return ch.CLen == ch.Len }

// chunkFileRange is the byte range of one chunk record in the column file:
// the codec record with a codec, the raw record otherwise.
func chunkFileRange(ch manifestChunk, compressed bool) (off, n int64) {
	if compressed {
		return ch.COff, ch.CLen
	}
	return ch.Off, ch.Len
}

// addColChecksums computes the record checksums of one column from its
// final file bytes; compressed says which byte ranges delimit the records.
// Dictionary shard frames are only checksummed on uncompressed stores,
// where their offsets index the file directly.
func addColChecksums(mc *manifestCol, data []byte, compressed bool) {
	mc.DictCRC = CRC32C(data[:headFileLen(*mc, compressed, int64(len(data)))])
	for i := range mc.Chunks {
		off, n := chunkFileRange(mc.Chunks[i], compressed)
		mc.Chunks[i].CRC = CRC32C(data[off : off+n])
	}
	if !compressed {
		for i := range mc.DictShards {
			ds := &mc.DictShards[i]
			ds.CRC = CRC32C(data[ds.Off : ds.Off+ds.Len])
		}
	}
}

// verifyColumnFile checks every record checksum of one column against
// its full file bytes; compressed says which byte ranges delimit the
// records. Returns how many records carried a checksum and were verified;
// the first mismatch aborts with a ChecksumError. A record whose stored
// CRC is zero is skipped (zero doubles as "absent" in the manifest
// encoding, which is all a manifest of generations 1–4 records; a data CRC
// of exactly zero forgoes its check — a 2^-32 gap, documented in
// docs/format.md).
func verifyColumnFile(mc manifestCol, compressed bool, data []byte, path string) (int, error) {
	verified := 0
	check := func(off, n int64, want uint32) error {
		if want == 0 {
			return nil
		}
		if off < 0 || n < 0 || off+n > int64(len(data)) {
			return &ChecksumError{Path: path, Off: off, Len: n, Want: want, Got: 0}
		}
		if got := CRC32C(data[off : off+n]); got != want {
			return &ChecksumError{Path: path, Off: off, Len: n, Want: want, Got: got}
		}
		verified++
		return nil
	}
	if err := check(0, headFileLen(mc, compressed, int64(len(data))), mc.DictCRC); err != nil {
		return verified, err
	}
	for _, ch := range mc.Chunks {
		off, n := chunkFileRange(ch, compressed)
		if err := check(off, n, ch.CRC); err != nil {
			return verified, err
		}
	}
	return verified, nil
}
