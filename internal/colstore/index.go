package colstore

import (
	"encoding/binary"
	"errors"
	"math"
	"unsafe"
)

// A column's per-chunk and per-frame metadata lives in a binary layout
// record at the end of its column file (since generation 8), not in the
// manifest, whose size no longer grows with rows. The layout record holds
// the dictionary's frame index — every frame's byte range, raw length,
// value count, CRC32C and first value (orderKey: a string frame's first
// string, a numeric one's first key; generation 8 left a numeric one's
// empty) — then the
// chunk index — every chunk's global-id span, raw and file byte ranges and
// CRC32C.
//
// It is stored raw, checksummed by a CRC32C the manifest keeps with its
// byte range. On a lazy store it is a memory-manager entry of its own,
// charged what it holds in memory (lazy.go) and pinned by a query's first
// touch of the column. Older generation-8 builds also wrote a Bloom record
// of per-chunk filters after it; the eager Open verifies that record's CRC
// with the rest of the column file, and nothing decodes or loads it.

// frameEntry is one dictionary frame: its byte range [off, off+len) in the
// column file, its raw length (len when it is stored raw), the number of
// values it holds, the CRC32C of its file bytes, and its first value as
// orderKey gives it.
type frameEntry struct {
	off, len, raw int64
	count         int
	crc           uint32
	first         []byte
}

// chunkEntry is one chunk record: its byte range [off, off+len) in the
// uncompressed column stream — every frame's raw bytes, then every chunk
// record's — and with a codec [coff, coff+clen), its range in the column
// file, where it is stored raw exactly when clen == len; and the CRC32C of
// its file bytes.
type chunkEntry struct {
	off, len, coff, clen int64
	crc                  uint32
}

// fileRange is the byte range of the chunk's record in the column file: the
// codec record with a codec, the raw record otherwise.
func (c chunkEntry) fileRange(compressed bool) (off, n int64) {
	if compressed {
		return c.coff, c.clen
	}
	return c.off, c.len
}

// appendLayout appends the layout record of frames and chunks, spans[i]
// being chunk i's: the frame count, then per frame its off, len, raw and
// count as uvarints, its CRC32C in 4 little-endian bytes, and its first
// value's length and bytes; the chunk count, then per chunk its min and max
// global-id, off, len, coff and clen as uvarints and its CRC32C.
func appendLayout(out []byte, frames []frameEntry, spans []ChunkSpan, chunks []chunkEntry) []byte {
	out = appendUvarint(out, uint64(len(frames)))
	for _, fr := range frames {
		out = appendUvarint(out, uint64(fr.off))
		out = appendUvarint(out, uint64(fr.len))
		out = appendUvarint(out, uint64(fr.raw))
		out = appendUvarint(out, uint64(fr.count))
		out = binary.LittleEndian.AppendUint32(out, fr.crc)
		out = appendUvarint(out, uint64(len(fr.first)))
		out = append(out, fr.first...)
	}
	out = appendUvarint(out, uint64(len(chunks)))
	for i, ch := range chunks {
		out = appendUvarint(out, uint64(spans[i].MinGID))
		out = appendUvarint(out, uint64(spans[i].MaxGID))
		out = appendUvarint(out, uint64(ch.off))
		out = appendUvarint(out, uint64(ch.len))
		out = appendUvarint(out, uint64(ch.coff))
		out = appendUvarint(out, uint64(ch.clen))
		out = binary.LittleEndian.AppendUint32(out, ch.crc)
	}
	return out
}

// columnLayout is a column's layout record, checked to decode whole, with
// where each frame and chunk entry starts in it. An entry is decoded from
// the record on access (frame, chunk): held this way a layout takes about
// half the memory of its decoded entries, and the memory manager charges
// what a layout holds out of the budget its chunks and dictionaries share.
// The spans, which every restriction leaf on the column reads as a slice,
// are decoded once. Generation 7, which kept the index in the manifest, is
// encoded into a record and decoded the same way (oldIndex.layout).
type columnLayout struct {
	rec              []byte
	frameAt, chunkAt []uint32
	spans            []ChunkSpan
	// base[i] is the first global-id of frame i, base[numFrames] the
	// dictionary's length: what a paged dictionary finds an id's frame by.
	base []uint32
}

// numFrames and numChunks count the layout's entries.
func (l *columnLayout) numFrames() int { return len(l.frameAt) }
func (l *columnLayout) numChunks() int { return len(l.chunkAt) }

// frame decodes frame entry i; first lies in the record.
func (l *columnLayout) frame(i int) frameEntry {
	r := l.at(l.frameAt[i])
	var fr frameEntry
	fr.off, fr.len, fr.raw = r.int64(), r.int64(), r.int64()
	fr.count = int(r.uvarint())
	fr.crc = r.crc()
	fr.first = r.bytes()
	return fr
}

// chunk decodes chunk entry i, past its span.
func (l *columnLayout) chunk(i int) chunkEntry {
	r := l.at(l.chunkAt[i])
	var ch chunkEntry
	ch.off, ch.len, ch.coff, ch.clen = r.int64(), r.int64(), r.int64(), r.int64()
	ch.crc = r.crc()
	return ch
}

// at is a reader of the record from off, an entry decodeLayout checked.
func (l *columnLayout) at(off uint32) indexReader {
	return indexReader{byteReader: byteReader{buf: l.rec, off: int(off)}}
}

// memoryBytes is what the layout holds, the charge of its entry: the
// record and the slices beside it.
func (l *columnLayout) memoryBytes() int64 {
	return int64(unsafe.Sizeof(*l)) + int64(cap(l.rec)) +
		int64(cap(l.frameAt)+cap(l.chunkAt)+cap(l.base))*int64(unsafe.Sizeof(uint32(0))) +
		int64(cap(l.spans))*int64(unsafe.Sizeof(ChunkSpan{}))
}

// records lists the checksummed records the layout indexes: the
// dictionary's frames, then its chunks; compressed says which byte ranges
// delimit the chunks.
func (l *columnLayout) records(compressed bool) []record {
	out := make([]record, 0, l.numFrames()+l.numChunks())
	for i := range l.frameAt {
		fr := l.frame(i)
		out = append(out, record{fr.off, fr.len, fr.crc})
	}
	for i := range l.chunkAt {
		ch := l.chunk(i)
		off, n := ch.fileRange(compressed)
		out = append(out, record{off, n, ch.crc})
	}
	return out
}

// dictFileLen is the file length of the dictionary's frames: what a load
// of the whole dictionary reads.
func (l *columnLayout) dictFileLen() int64 {
	var n int64
	for i := range l.frameAt {
		n += l.frame(i).len
	}
	return n
}

// Least encoded sizes of a frame and of a chunk entry: one byte per
// uvarint, four per CRC. A count is bounded by the bytes left divided by
// them before anything is allocated.
const (
	minFrameEntry = 4 + 4 + 1
	minChunkEntry = 6 + 4
)

// errIndex refuses a layout record that does not parse.
var errIndex = errors.New("colstore: malformed index record")

// decodeLayout checks that a layout record (appendLayout) decodes, and
// keeps it: the caller hands the record over. The record is not trusted,
// and a decode is exact: every uvarint must be minimal and in range, and
// no byte may follow the last chunk, so a record that decodes re-encodes
// to the same bytes. What the layout must satisfy against its store is
// checkLayout's.
func decodeLayout(rec []byte) (*columnLayout, error) {
	if len(rec) > math.MaxUint32 {
		return nil, errIndex
	}
	r := &indexReader{byteReader: byteReader{buf: rec}}
	l := &columnLayout{rec: rec[:len(rec):len(rec)]}
	n := r.count(minFrameEntry)
	if l.base = make([]uint32, n+1); n > 0 {
		l.frameAt = make([]uint32, n)
	}
	for i := range l.frameAt {
		l.frameAt[i] = uint32(r.off)
		r.int64()
		r.int64()
		r.int64()
		if l.base[i+1] = l.base[i] + uint32(r.bounded(math.MaxInt32)); l.base[i+1] < l.base[i] {
			r.err = errIndex // more global-ids than a uint32 numbers
		}
		r.crc()
		r.bytes()
	}
	if n := r.count(minChunkEntry); n > 0 {
		l.spans, l.chunkAt = make([]ChunkSpan, n), make([]uint32, n)
	}
	for i := range l.chunkAt {
		l.spans[i] = ChunkSpan{MinGID: uint32(r.bounded(math.MaxUint32)), MaxGID: uint32(r.bounded(math.MaxUint32))}
		l.chunkAt[i] = uint32(r.off)
		r.int64()
		r.int64()
		r.int64()
		r.int64()
		r.crc()
	}
	if err := r.end(); err != nil {
		return nil, err
	}
	return l, nil
}

// indexReader is a byteReader that keeps the first error: a read past it
// returns zeros, and end reports it. Its uvarints must be minimal.
type indexReader struct {
	byteReader
	err error
}

// uvarint reads one minimal uvarint.
func (r *indexReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	start := r.off
	v, err := r.byteReader.uvarint()
	if err != nil || r.off-start > 1 && r.buf[r.off-1] == 0 {
		r.err = errIndex
		return 0
	}
	return v
}

// bounded reads a uvarint no greater than limit.
func (r *indexReader) bounded(limit uint64) uint64 {
	v := r.uvarint()
	if v > limit {
		r.err = errIndex
		return 0
	}
	return v
}

// int64 reads a byte offset or length.
func (r *indexReader) int64() int64 { return int64(r.bounded(math.MaxInt64)) }

// count reads an entry count, each entry taking at least least bytes.
func (r *indexReader) count(least int) int {
	return int(r.bounded(uint64(len(r.buf)-r.off) / uint64(least)))
}

// crc reads a 4-byte little-endian CRC32C.
func (r *indexReader) crc() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// bytes reads a length-prefixed byte string, which lies in the record.
func (r *indexReader) bytes() []byte {
	return r.take(int(r.bounded(uint64(len(r.buf) - r.off))))
}

// take reads n bytes.
func (r *indexReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	b, err := r.byteReader.take(n)
	if err != nil {
		r.err = errIndex
	}
	return b
}

// end reports the first error, or bytes left after the last entry.
func (r *indexReader) end() error {
	if r.err == nil && r.off != len(r.buf) {
		r.err = errIndex
	}
	return r.err
}
