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
// No per-chunk Bloom filter is carried either, whether an old manifest
// held it (generations 4–7) or a generation-8 column file's Bloom record
// did: chunks are skipped on their spans, then on their chunk-dictionaries,
// so the store written has a layout record per column and nothing after
// it. A generation-8 store with Bloom records needs no upgrade; this only
// drops them.
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

// oldIndex is how generations 2–7 indexed a column in the manifest: the
// chunk index (2–7) and the dictionary's frame index (7), both read by
// Upgrade only. Generations 4–7 also kept each chunk's Bloom filter in its
// entry, as "bloom", which nothing reads.
type oldIndex struct {
	Frames []oldFrame `json:"frames,omitempty"`
	Chunks []oldChunk `json:"chunks,omitempty"`
}

// oldFrame is a frame entry of generation 7 (frameEntry, without a first
// value).
type oldFrame struct {
	Off   int64  `json:"off"`
	Len   int64  `json:"len"`
	Raw   int64  `json:"raw"`
	Count int    `json:"count"`
	CRC   uint32 `json:"crc,omitempty"`
}

// oldChunk is a chunk entry of generations 2–7 (a ChunkSpan and a
// chunkEntry); CRC is absent before generation 5, COff and CLen without a
// codec.
type oldChunk struct {
	Min  uint32 `json:"min"`
	Max  uint32 `json:"max"`
	Off  int64  `json:"off"`
	Len  int64  `json:"len"`
	COff int64  `json:"coff,omitempty"`
	CLen int64  `json:"clen,omitempty"`
	CRC  uint32 `json:"crc,omitempty"`
}

// layout encodes the manifest's index as a layout record and decodes it,
// so one reader serves generation 7 and 8 alike. An index no record can
// hold — a count past what its type allows — is an error.
func (x oldIndex) layout() (*columnLayout, error) {
	frames := make([]frameEntry, len(x.Frames))
	for i, fr := range x.Frames {
		frames[i] = frameEntry{off: fr.Off, len: fr.Len, raw: fr.Raw, count: fr.Count, crc: fr.CRC}
	}
	spans, chunks := make([]ChunkSpan, len(x.Chunks)), make([]chunkEntry, len(x.Chunks))
	for i, ch := range x.Chunks {
		spans[i] = ChunkSpan{MinGID: ch.Min, MaxGID: ch.Max}
		chunks[i] = chunkEntry{off: ch.Off, len: ch.Len, coff: ch.COff, clen: ch.CLen, crc: ch.CRC}
	}
	return decodeLayout(appendLayout(nil, frames, spans, chunks))
}

// oldHead is how generations 2–6 recorded a column's head record — its
// dictionary, then the chunk-count varint, at the start of the column
// stream: DictLen is the dictionary's raw length, DictCLen the record's
// file length with a codec, and DictCRC (generations 5–6) the CRC32C of
// its file bytes.
type oldHead struct {
	DictLen  int64  `json:"dict_len,omitempty"`
	DictCLen int64  `json:"dict_clen,omitempty"`
	DictCRC  uint32 `json:"dict_crc,omitempty"`
}

// openOld is the eager Open of a store of generation 1–6, and the one
// reader of those generations: it reads whole column files, verifies the
// checksums generations 5–6 record, and decodes each column from its
// stream (oldColumn).
func openOld(dir string, m *manifest, manifestBytes int64) (*Store, *DiskStats, error) {
	stats := &DiskStats{BytesRead: manifestBytes, Files: 1}
	var codec compress.Codec
	if m.Codec != "" {
		var err error
		if codec, err = compress.ByName(m.Codec); err != nil {
			return nil, nil, err
		}
	}
	s := storeShell(m)
	for _, mc := range m.Columns {
		path := filepath.Join(dir, mc.File)
		data, err := vfs().ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("colstore: open column %q: %w", mc.Name, err)
		}
		stats.BytesRead += int64(len(data))
		stats.Files++
		head := record{n: int64(len(data)), crc: mc.DictCRC} // a chunkless file is all head
		switch {
		case codec != nil:
			head.n = mc.DictCLen
		case len(mc.Chunks) > 0:
			head.n = mc.Chunks[0].Off
		}
		lay, err := mc.oldIndex.layout()
		if err != nil {
			return nil, nil, fmt.Errorf("colstore: open column %q: %w", mc.Name, err)
		}
		recs := append([]record{head}, lay.records(codec != nil)...)
		if _, err := verifyRecords(recs, data, path); err != nil {
			return nil, nil, fmt.Errorf("colstore: open column %q: %w", mc.Name, err)
		}
		col, err := oldColumn(m.generation(), codec, mc, data, s.Opts.StringDict)
		if err != nil {
			return nil, nil, fmt.Errorf("colstore: column %q: %w", mc.Name, err)
		}
		if err := s.AddColumn(col); err != nil {
			return nil, nil, err
		}
	}
	return s, stats, nil
}

// oldColumn decodes one column of generation gen from its verified file
// data. Its stream is the head record — the dictionary as one frame after
// its count, then the chunk count — and the chunk records, as in
// generation 7. Generations 1–2 compressed a column file as one codec
// stream, 3–5 compressed every record, even one the codec made longer, and
// 6 kept a record raw where the codec did not shrink it. Generations 1–5
// wrote a numeric dictionary as 8-byte words (decodeWordDict); 6 wrote the
// key deltas of a generation-7 frame.
func oldColumn(gen int, codec compress.Codec, mc manifestCol, data []byte, sd StringDictKind) (*Column, error) {
	kind, err := value.ParseKind(mc.Kind)
	if err != nil {
		return nil, err
	}
	var raw []byte
	switch {
	case codec == nil:
		raw = data
	case gen < 3:
		raw, err = codec.Decompress(nil, data)
	default:
		// The head record, then each chunk's.
		off, n, rawLen := int64(0), mc.DictCLen, mc.DictLen+int64(uvarintLen(uint64(len(mc.Chunks))))
		for i := 0; err == nil && i <= len(mc.Chunks); i++ {
			if i > 0 {
				off, n, rawLen = mc.Chunks[i-1].COff, mc.Chunks[i-1].CLen, mc.Chunks[i-1].Len
			}
			if off < 0 || n < 0 || off+n > int64(len(data)) {
				return nil, errTruncated
			}
			if gen == 6 && n == rawLen {
				raw = append(raw, data[off:off+n]...)
			} else {
				raw, err = codec.Decompress(raw, data[off:off+n])
			}
		}
	}
	if err != nil {
		return nil, err
	}
	r := &byteReader{buf: raw}
	var d dict.Dict
	if gen < 6 && kind != value.KindString {
		d, err = decodeWordDict(r, kind)
	} else {
		d, err = decodeDict(r, kind, sd)
	}
	if err != nil {
		return nil, err
	}
	nChunks, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	col := &Column{Name: mc.Name, Kind: kind, Dict: d, Virtual: mc.Virtual}
	for c := uint64(0); c < nChunks; c++ {
		ch, err := decodeChunk(r)
		if err != nil {
			return nil, err
		}
		col.Chunks = append(col.Chunks, ch)
	}
	return col, nil
}

// decodeDict parses the dictionary of a generation 1–6 head record: the
// count, then its values as one frame — lengths and bytes, or (generation
// 6) key deltas. The record is not trusted: the count is bounded by the
// bytes left before anything is allocated, every refusal of a frame's
// decode applies, and the decoder stops at the dictionary's end.
func decodeDict(r *byteReader, kind value.Kind, sd StringDictKind) (dict.Dict, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	b, err := newDictBuilder(kind, n, len(r.buf)-r.off)
	if err != nil {
		return nil, err
	}
	if err := b.frame(r, n); err != nil {
		return nil, err
	}
	return b.dict(sd)
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
