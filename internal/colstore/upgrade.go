package colstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"

	"powerdrill/internal/compress"
	"powerdrill/internal/dict"
	"powerdrill/internal/value"
)

// Upgrade rewrites the base store at oldDir — of any format generation
// this build can read eagerly — as a current-generation store at newDir,
// with the same codec and import options. Only the manifest's own columns
// are carried: a virtual sidecar is a rebuildable cache and is left behind.
func Upgrade(oldDir, newDir string) error {
	if _, err := vfs().Stat(filepath.Join(newDir, "manifest.json")); err == nil {
		return fmt.Errorf("colstore: upgrade: %s already holds a store", newDir)
	}
	m, _, err := readManifest(oldDir)
	if err != nil {
		return err
	}
	s, _, err := Open(oldDir)
	if err != nil {
		return err
	}
	return Save(s, newDir, m.Codec)
}

// generation names the format generation that wrote m. Generations 1 and 2
// predate the format field; 2 added the chunk layout.
func (m *manifest) generation() int {
	if m.Format > 0 {
		return m.Format
	}
	for _, mc := range m.Columns {
		if len(mc.Chunks) == 0 {
			return 1
		}
	}
	return 2
}

// oldColumnStream is the read half of Upgrade, behind the eager Open and
// nowhere else: it rewrites the verified column file data of a store of
// generation gen < formatVersion as generation 6's uncompressed column
// stream. Strings and chunk records are framed alike in every generation.
// Generations 1–2 compressed a column file as one codec stream, and 3–5
// compressed every record, even one the codec made longer; 1–5 wrote a
// numeric dictionary as 8-byte words, which decodeWordDict reads and
// checks before appendDict writes it again as key deltas.
func oldColumnStream(gen int, codec compress.Codec, mc manifestCol, kind value.Kind, data []byte) (raw []byte, err error) {
	switch {
	case codec == nil:
		raw = data
	case gen < 3:
		raw, err = codec.Decompress(nil, data)
	default:
		off, n := int64(0), mc.DictCLen // the head record, then each chunk's
		for i := 0; err == nil && i <= len(mc.Chunks); i++ {
			if i > 0 {
				off, n = mc.Chunks[i-1].COff, mc.Chunks[i-1].CLen
			}
			if off < 0 || n < 0 || off+n > int64(len(data)) {
				return nil, errTruncated
			}
			raw, err = codec.Decompress(raw, data[off:off+n])
		}
	}
	if err != nil || kind == value.KindString {
		return raw, err
	}
	r := &byteReader{buf: raw}
	d, err := decodeWordDict(r, kind)
	if err != nil {
		return nil, err
	}
	return append(appendDict(nil, d, kind), raw[r.off:]...), nil
}

// decodeWordDict parses a numeric dictionary of generations 1–5, int64 or
// float64 by kind: the count, then one little-endian 8-byte word per value. The record is not
// trusted: the count is bounded by the bytes left before anything is
// allocated, and the dictionary constructors refuse values that do not
// ascend strictly, NaN included.
func decodeWordDict(r *byteReader, kind value.Kind) (dict.Dict, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.buf)-r.off)/8 {
		return nil, errTruncated
	}
	body, _ := r.take(int(n) * 8) // cannot fail: bounded just above
	word := func(i int) uint64 { return binary.LittleEndian.Uint64(body[8*i:]) }
	if kind == value.KindInt64 {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(word(i))
		}
		return dict.Int64sOf(vals)
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Float64frombits(word(i))
	}
	return dict.Float64sOf(vals)
}
