package colstore

// This file holds the in-memory column and chunk types of the doubly
// dictionary-encoded layout; see doc.go for the package overview.

import (
	"fmt"
	"sort"

	"powerdrill/internal/compress"
	"powerdrill/internal/dict"
	"powerdrill/internal/enc"
	"powerdrill/internal/value"
)

// Chunk is one column's data for one horizontal partition of the table.
type Chunk struct {
	// GlobalIDs is the chunk-dictionary: the sorted global-ids occurring
	// in this chunk. Chunk-id c corresponds to GlobalIDs[c].
	GlobalIDs []uint32
	// Elems holds one chunk-id per row of the chunk.
	Elems enc.Sequence
	// derived holds the tables queries derive from the chunk (derived.go).
	derived derived
}

// Rows returns the number of rows in the chunk.
func (c *Chunk) Rows() int { return c.Elems.Len() }

// Cardinality returns the number of distinct values in the chunk.
func (c *Chunk) Cardinality() int { return len(c.GlobalIDs) }

// ChunkID returns the chunk-id of a global-id, if the value occurs here.
func (c *Chunk) ChunkID(gid uint32) (uint32, bool) {
	i := sort.Search(len(c.GlobalIDs), func(i int) bool { return c.GlobalIDs[i] >= gid })
	if i < len(c.GlobalIDs) && c.GlobalIDs[i] == gid {
		return uint32(i), true
	}
	return 0, false
}

// ContainsAny reports whether any of the sorted global-ids occurs in the
// chunk — the skipping probe of Section 2.4. Both slices are sorted, so
// this is a linear merge over the smaller of the two.
func (c *Chunk) ContainsAny(sortedGIDs []uint32) bool {
	i, j := 0, 0
	for i < len(c.GlobalIDs) && j < len(sortedGIDs) {
		switch {
		case c.GlobalIDs[i] == sortedGIDs[j]:
			return true
		case c.GlobalIDs[i] < sortedGIDs[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// AllWithin reports whether every distinct value of the chunk lies in the
// sorted global-id set — the "fully active" test that makes a chunk's
// result cacheable (Section 6: results are cached "for chunks which are
// fully active, i.e., for which the where clause evaluates to true for all
// rows").
func (c *Chunk) AllWithin(sortedGIDs []uint32) bool {
	j := 0
	for _, gid := range c.GlobalIDs {
		for j < len(sortedGIDs) && sortedGIDs[j] < gid {
			j++
		}
		if j == len(sortedGIDs) || sortedGIDs[j] != gid {
			return false
		}
	}
	return true
}

// MemoryElements returns the footprint of the element storage.
func (c *Chunk) MemoryElements() int64 { return c.Elems.MemoryBytes() }

// MemoryChunkDict returns the footprint of the chunk-dictionary
// (4 bytes per occurring global-id, as in the canonical implementation).
func (c *Chunk) MemoryChunkDict() int64 { return int64(len(c.GlobalIDs)) * 4 }

// Column is one dictionary-encoded column.
type Column struct {
	Name string
	Kind value.Kind
	// Dict is the global dictionary.
	Dict dict.Dict
	// Chunks holds the per-chunk data, aligned with the store's bounds.
	Chunks []*Chunk
	// Virtual marks materialized expression columns (Section 5).
	Virtual bool
}

// NumRows returns the total row count across chunks.
func (c *Column) NumRows() int {
	n := 0
	for _, ch := range c.Chunks {
		n += ch.Rows()
	}
	return n
}

// ValueAt returns the value of the column at a (chunk, row) position.
func (c *Column) ValueAt(chunk, row int) value.Value {
	ch := c.Chunks[chunk]
	return c.Dict.Value(ch.GlobalIDs[ch.Elems.At(row)])
}

// GlobalIDAt returns the global-id at a (chunk, row) position.
func (c *Column) GlobalIDAt(chunk, row int) uint32 {
	ch := c.Chunks[chunk]
	return ch.GlobalIDs[ch.Elems.At(row)]
}

// MemoryBreakdown itemizes a column's footprint the way the paper's
// experiment tables do.
type MemoryBreakdown struct {
	Elements   int64
	ChunkDicts int64
	GlobalDict int64
	// Derived is what the chunks' derived tables (derived.go) hold: 0 until
	// a query builds one.
	Derived int64
}

// Total sums the layers.
func (m MemoryBreakdown) Total() int64 { return m.Elements + m.ChunkDicts + m.GlobalDict + m.Derived }

// Add accumulates another breakdown.
func (m *MemoryBreakdown) Add(o MemoryBreakdown) {
	m.Elements += o.Elements
	m.ChunkDicts += o.ChunkDicts
	m.GlobalDict += o.GlobalDict
	m.Derived += o.Derived
}

// Memory returns the column's exact byte footprint per layer.
func (c *Column) Memory() MemoryBreakdown {
	var m MemoryBreakdown
	for _, ch := range c.Chunks {
		m.Elements += ch.MemoryElements()
		m.ChunkDicts += ch.MemoryChunkDict()
		m.Derived += ch.derived.bytes.Load()
	}
	m.GlobalDict = c.Dict.MemoryBytes()
	return m
}

// CompressedBreakdown reports the sizes of the column's serialized layers
// after applying a generic compressor — the Section 3 "Zippy" measurements.
type CompressedBreakdown struct {
	Elements   int64
	ChunkDicts int64
	GlobalDict int64
}

// Total sums the layers.
func (m CompressedBreakdown) Total() int64 { return m.Elements + m.ChunkDicts + m.GlobalDict }

// Add accumulates another breakdown.
func (m *CompressedBreakdown) Add(o CompressedBreakdown) {
	m.Elements += o.Elements
	m.ChunkDicts += o.ChunkDicts
	m.GlobalDict += o.GlobalDict
}

// Compressed measures the column's layers after compression with codec.
// Each chunk is compressed separately (chunks are the unit of skipping and
// caching, so they must remain independently decompressable).
func (c *Column) Compressed(codec compress.Codec) CompressedBreakdown {
	var m CompressedBreakdown
	var buf []byte
	for _, ch := range c.Chunks {
		buf = ch.Elems.AppendBytes(buf[:0])
		m.Elements += int64(len(codec.Compress(nil, buf)))
		buf = appendUint32s(buf[:0], ch.GlobalIDs)
		m.ChunkDicts += int64(len(codec.Compress(nil, buf)))
	}
	m.GlobalDict = int64(len(codec.Compress(nil, serializeDict(c.Dict))))
	return m
}

// appendUint32s serializes ids as little-endian 4-byte values.
func appendUint32s(dst []byte, ids []uint32) []byte {
	for _, id := range ids {
		dst = append(dst, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return dst
}

// serializeDict renders a dictionary's payload for compression sizing and
// persistence: strings are length-prefixed in sorted order; numerics are
// fixed 8-byte little-endian.
func serializeDict(d dict.Dict) []byte {
	var out []byte
	switch dd := d.(type) {
	case *dict.Trie:
		// The trie is already a compact byte array; compress that.
		out = append(out, dd.Buf()...)
	case dict.StringDict:
		for i := 0; i < d.Len(); i++ {
			s := dd.StringAt(uint32(i))
			out = appendUvarint(out, uint64(len(s)))
			out = append(out, s...)
		}
	default:
		for i := 0; i < d.Len(); i++ {
			v := d.Value(uint32(i))
			switch v.Kind() {
			case value.KindInt64:
				out = appendLE64(out, uint64(v.Int()))
			case value.KindFloat64:
				out = appendLE64(out, floatBitsOf(v.Float()))
			}
		}
	}
	return out
}

func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

func appendLE64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// checkAligned verifies a column matches the store's chunk layout.
func (c *Column) checkAligned(bounds []int) error {
	if len(c.Chunks) != len(bounds)-1 {
		return fmt.Errorf("colstore: column %q has %d chunks, store has %d", c.Name, len(c.Chunks), len(bounds)-1)
	}
	for i, ch := range c.Chunks {
		if ch.Rows() != bounds[i+1]-bounds[i] {
			return fmt.Errorf("colstore: column %q chunk %d has %d rows, want %d",
				c.Name, i, ch.Rows(), bounds[i+1]-bounds[i])
		}
	}
	return nil
}
