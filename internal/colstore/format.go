package colstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"path/filepath"

	"powerdrill/internal/compress"
	"powerdrill/internal/dict"
	"powerdrill/internal/enc"
	"powerdrill/internal/value"
)

// The on-disk format: a manifest.json plus one binary file per column
// (docs/format.md). The format exists for two reasons: cold-start
// experiments (Figure 5 charges disk loads by these exact byte counts) and
// the pdrill CLI.
//
// Save writes generation 9, and every reader but one reads generation 9
// only. A column file is its global dictionary cut into frames of about
// frameBytes raw bytes each, then one record per chunk, then its layout
// record (index.go). The layout record indexes every frame's byte range,
// raw length, value count, CRC32C and first value, and every chunk's byte
// range, global-id span and CRC32C — so a cold load reads exactly the
// records it needs, and verifies and, with a codec, decompresses each
// alone: one chunk, the frames of a whole dictionary, or only the frames
// that hold the ids or the values a lookup wants. A record the codec does not shrink below 7/8 of its
// raw length is stored raw (its file length then equals its raw length,
// which is how readers tell), and a numeric frame is written as
// fixed-width deltas of order-preserving keys (numdict.go). The manifest
// keeps what is per store or per column — so its size does not grow with
// rows — and the layout record's byte range and CRC32C. Stores written by earlier builds
// (generations 1–8) are read by exactly one function, the eager Open,
// which is all Upgrade needs to rewrite them (upgrade.go); everything else
// refuses them with ErrOldFormat.

// formatVersion is the manifest generation Save writes, and the one
// generation every reader but the eager Open accepts.
const formatVersion = 9

// frameBytes is the raw length a dictionary is cut into frames at: a frame
// holds as many values as fit in it, and at least one. A cold lookup of a
// few ids reads, verifies and decompresses only the frames that hold them.
const frameBytes = 4096

// ErrOldFormat is what errors.Is matches when a store directory was
// written in format generation 1–8; the error itself is an
// *OldFormatError naming the generation found.
var ErrOldFormat = errors.New("colstore: old format generation")

// OldFormatError refuses a store written by an earlier build. Such a store
// is still readable in full by the eager Open, which is how Upgrade
// converts it.
type OldFormatError struct {
	Dir        string
	Generation int
}

func (e *OldFormatError) Error() string {
	return fmt.Sprintf("colstore: %s is format generation %d and this build reads generation %d only: "+
		"convert it with `pdrill upgrade -store %s -out NEWDIR`", e.Dir, e.Generation, formatVersion, e.Dir)
}

func (e *OldFormatError) Unwrap() error { return ErrOldFormat }

// manifest is the JSON header of a persisted store.
type manifest struct {
	Name   string `json:"name"`
	Bounds []int  `json:"bounds"`
	Codec  string `json:"codec,omitempty"`
	// Format is the manifest generation; absent (0) on generations 1–2.
	Format  int           `json:"format,omitempty"`
	Columns []manifestCol `json:"columns"`
	Opts    manifestOpts  `json:"options"`
}

// manifestCol is one column's entry: what is per column, and where its
// index records are. Older builds also wrote a sharded string dictionary's
// routing in it, as "dict_shards": that field is ignored, and those frames
// are read as any other frames.
type manifestCol struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Virtual bool   `json:"virtual,omitempty"`
	File    string `json:"file"`
	// Index is the column's layout record (index.go). Bloom is the Bloom
	// record of per-chunk filters an older generation-8 build wrote after
	// it: its CRC is verified with the rest of the file (verifyColumnFile),
	// and nothing decodes or loads it.
	Index recordRef  `json:"index"`
	Bloom *recordRef `json:"bloom,omitempty"`
	// oldIndex and oldHead are how generations 2–7 indexed a column, read
	// by Upgrade only.
	oldIndex
	oldHead
}

// recordRef locates an index record: its byte range [Off, Off+Len) in the
// column file, stored raw, and the CRC32C of its bytes.
type recordRef struct {
	Off int64  `json:"off"`
	Len int64  `json:"len"`
	CRC uint32 `json:"crc"`
}

func (ref recordRef) record() record { return record{ref.Off, ref.Len, ref.CRC} }

type manifestOpts struct {
	PartitionFields  []string `json:"partition_fields,omitempty"`
	MaxChunkRows     int      `json:"max_chunk_rows,omitempty"`
	OptimizeElements bool     `json:"optimize_elements,omitempty"`
	StringDict       string   `json:"string_dict,omitempty"`
	Reorder          bool     `json:"reorder,omitempty"`
}

// stringDict is the string-dictionary kind the options name: a trie, or
// else an array, which is also what the "sharded" kind of older builds
// reads as.
func (o manifestOpts) stringDict() StringDictKind {
	if StringDictKind(o.StringDict) == StringDictTrie {
		return StringDictTrie
	}
	return StringDictArray
}

// Save persists the store into dir (created if needed). codecName may be
// empty for uncompressed files or any registered codec; a codec compresses
// every dictionary frame and every chunk individually (keeping a record raw
// where it does not pay), so cold loads read exact byte ranges either way.
func Save(s *Store, dir, codecName string) error {
	var codec compress.Codec
	if codecName != "" {
		var err error
		codec, err = compress.ByName(codecName)
		if err != nil {
			return err
		}
	}
	if err := vfs().MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("colstore: save: %w", err)
	}
	m := manifest{
		Name:   s.Name,
		Bounds: s.Bounds,
		Codec:  codecName,
		Format: formatVersion,
		Opts: manifestOpts{
			PartitionFields:  s.Opts.PartitionFields,
			MaxChunkRows:     s.Opts.MaxChunkRows,
			OptimizeElements: s.Opts.OptimizeElements,
			StringDict:       string(s.Opts.StringDict),
			Reorder:          s.Opts.Reorder,
		},
	}
	for i, name := range s.Columns() {
		// Pin one column at a time so saving a lazily opened store surfaces
		// load errors (Column would swallow them into nil) and stays within
		// about one column of the memory budget.
		ps := s.NewPinSet()
		col, err := ps.Column(name)
		if err != nil {
			ps.Release()
			return fmt.Errorf("colstore: save column %q: %w", name, err)
		}
		raw, mc := encodeColumn(col, codec)
		mc.File = fmt.Sprintf("col_%04d.bin", i)
		ps.Release()
		if err := vfs().WriteFile(filepath.Join(dir, mc.File), raw, 0o644); err != nil {
			return fmt.Errorf("colstore: save column %q: %w", name, err)
		}
		m.Columns = append(m.Columns, mc)
	}
	blob, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return fmt.Errorf("colstore: save manifest: %w", err)
	}
	if err := vfs().WriteFile(filepath.Join(dir, "manifest.json"), blob, 0o644); err != nil {
		return fmt.Errorf("colstore: save manifest: %w", err)
	}
	return nil
}

// uvarintLen returns the encoded byte length of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// keepCompressed is the codec rule: a compressed record is kept only when
// it is strictly smaller than 7/8 of its raw length, since decompressing
// it costs more than reading the bytes it saves.
func keepCompressed(compressed, raw int) bool { return 8*compressed < 7*raw }

// encodeColumn renders a column file — the dictionary's frames, one record
// per chunk, then the layout record — and the manifest entry that locates
// the layout record. With a codec every frame and chunk record is
// compressed alone and kept compressed only if that makes it strictly
// smaller than 7/8 of its raw length (keepCompressed), so a compressed
// record is never as long as its raw form and a reader tells the two apart
// by length; the layout record is stored raw. Every record's CRC32C is
// taken over its file bytes.
func encodeColumn(col *Column, codec compress.Codec) (file []byte, mc manifestCol) {
	mc = manifestCol{Name: col.Name, Kind: col.Kind.String(), Virtual: col.Virtual}
	var frames []frameEntry
	spans, chunks := make([]ChunkSpan, len(col.Chunks)), make([]chunkEntry, len(col.Chunks))
	record := func(src []byte) (off, n int64, crc uint32) {
		start := len(file)
		if codec == nil {
			file = append(file, src...)
		} else if file = codec.Compress(file, src); !keepCompressed(len(file)-start, len(src)) {
			file = append(file[:start], src...)
		}
		return int64(start), int64(len(file) - start), CRC32C(file[start:])
	}
	var rawOff int64
	dictFrames(col.Dict, col.Kind, func(raw []byte, count int) {
		fr := frameEntry{raw: int64(len(raw)), count: count}
		if col.Kind == value.KindString {
			l, n := binary.Uvarint(raw)
			fr.first = append([]byte(nil), raw[n:n+int(l)]...)
		} else { // the frame's first key, big-endian (orderKey)
			fr.first = binary.BigEndian.AppendUint64(nil, binary.LittleEndian.Uint64(raw))
		}
		fr.off, fr.len, fr.crc = record(raw)
		frames = append(frames, fr)
		rawOff += fr.raw
	})
	var buf []byte
	for i, ch := range col.Chunks {
		buf = appendChunk(buf[:0], ch)
		meta := chunkEntry{off: rawOff, len: int64(len(buf))}
		off, n, crc := record(buf)
		if codec != nil {
			meta.coff, meta.clen = off, n
		}
		meta.crc = crc
		rawOff += meta.len
		spans[i], chunks[i] = spanOf(ch), meta
	}
	rec := appendLayout(nil, frames, spans, chunks)
	mc.Index = recordRef{Off: int64(len(file)), Len: int64(len(rec)), CRC: CRC32C(rec)}
	return append(file, rec...), mc
}

// appendChunk appends one chunk record: its chunk dictionary as
// global-id deltas, then its element width, row count and elements.
func appendChunk(out []byte, ch *Chunk) []byte {
	out = appendUvarint(out, uint64(len(ch.GlobalIDs)))
	prev := uint32(0)
	for i, g := range ch.GlobalIDs {
		delta := g
		if i > 0 {
			delta = g - prev // sorted ascending, so this never wraps
		}
		out = appendUvarint(out, uint64(delta))
		prev = g
	}
	out = append(out, byte(ch.Elems.Width()))
	out = appendUvarint(out, uint64(ch.Elems.Len()))
	payload := ch.Elems.AppendBytes(nil)
	out = appendUvarint(out, uint64(len(payload)))
	return append(out, payload...)
}

// dictFrames cuts a global dictionary into frames, in id order, and hands
// each frame's raw bytes (valid until the next call) and value count to
// emit. A string frame holds its values' lengths and bytes; a numeric one
// restarts the key: its first key, then its own width byte and deltas
// (appendKeyDeltas). A frame takes values while they fit in frameBytes,
// and at least one.
func dictFrames(d dict.Dict, kind value.Kind, emit func(raw []byte, count int)) {
	n := d.Len()
	var buf []byte
	if kind == value.KindString {
		sd := d.(dict.StringDict)
		for lo := 0; lo < n; {
			buf = buf[:0]
			hi := lo
			for ; hi < n; hi++ {
				s := sd.StringAt(uint32(hi))
				if hi > lo && len(buf)+uvarintLen(uint64(len(s)))+len(s) > frameBytes {
					break
				}
				buf = append(appendUvarint(buf, uint64(len(s))), s...)
			}
			emit(buf, hi-lo)
			lo = hi
		}
		return
	}
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = numericKey(d.Value(uint32(i)))
	}
	for lo := 0; lo < n; {
		hi, span := lo+1, uint64(0)
		for ; hi < n; hi++ {
			next := span | (keys[hi] - keys[hi-1])
			if 9+(hi-lo)*deltaWidth(next) > frameBytes {
				break
			}
			span = next
		}
		buf = appendKeyDeltas(buf[:0], keys[lo:hi])
		emit(buf, hi-lo)
		lo = hi
	}
}

// DiskStats reports how many bytes Open read.
type DiskStats struct {
	BytesRead int64
	Files     int
}

// readManifest loads a persisted store's manifest of any generation up to
// this build's. A newer one is refused loudly: its fields would be
// silently ignored and its records possibly misread.
func readManifest(dir string) (*manifest, int64, error) {
	blob, err := vfs().ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, 0, fmt.Errorf("colstore: open: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, 0, fmt.Errorf("colstore: open manifest: %w", err)
	}
	if len(m.Bounds) < 2 {
		return nil, 0, errors.New("colstore: manifest has no chunk bounds")
	}
	if m.Format > formatVersion {
		return nil, 0, fmt.Errorf("colstore: %s is format generation %d, written by a newer build (this one reads up to %d)",
			dir, m.Format, formatVersion)
	}
	return &m, int64(len(blob)), nil
}

// checkCurrent is the gate of every reader but the eager Open: an
// *OldFormatError for generations 1–8, and for generation 9 a check that
// every column locates its layout record. The records themselves are read,
// and checked (checkLayout), on the first touch of their column.
func (m *manifest) checkCurrent(dir string) error {
	if m.Format != formatVersion {
		return &OldFormatError{Dir: dir, Generation: m.generation()}
	}
	for _, mc := range m.Columns {
		if mc.Index.Len <= 0 {
			return fmt.Errorf("colstore: column %q has no layout record", mc.Name)
		}
	}
	return nil
}

// checkLayout verifies one column's layout (of the store or of its
// virtual sidecar) records one chunk per store chunk, and a frame index
// that maps every global-id to its bytes: frames that follow one another
// from the start of the file, each holding at least one value in no fewer
// raw bytes, and stored raw — at its raw length — unless the store has a
// codec, which never keeps a record longer. In generation 9 a numeric
// frame's first value is its 8-byte key.
func (m *manifest) checkLayout(mc manifestCol, lay *columnLayout) error {
	name := mc.Name
	if lay.numChunks() != len(m.Bounds)-1 {
		return fmt.Errorf("colstore: column %q has %d chunks in its layout, the store %d", name, lay.numChunks(), len(m.Bounds)-1)
	}
	numeric := m.Format == formatVersion && mc.Kind != value.KindString.String()
	var end int64
	for i := range lay.numFrames() {
		fr := lay.frame(i)
		if fr.off != end || fr.count <= 0 || fr.raw < int64(fr.count) || fr.len <= 0 || fr.len > fr.raw ||
			m.Codec == "" && fr.len != fr.raw || numeric && len(fr.first) != 8 {
			return fmt.Errorf("colstore: column %q dictionary frame %d is malformed", name, i)
		}
		end += fr.len
	}
	return nil
}

// storeShell builds an empty Store carrying the manifest's layout and
// options but no column data.
func storeShell(m *manifest) *Store {
	return &Store{
		Name:   m.Name,
		Bounds: m.Bounds,
		Opts: Options{
			PartitionFields:  m.Opts.PartitionFields,
			MaxChunkRows:     m.Opts.MaxChunkRows,
			OptimizeElements: m.Opts.OptimizeElements,
			StringDict:       m.Opts.stringDict(),
			Reorder:          m.Opts.Reorder,
		}.withDefaults(),
		columns: make(map[string]*Column),
	}
}

// Open loads a persisted store fully into memory. The string-dictionary
// implementation is taken from the manifest options. For a lazily loaded,
// budget-managed store see OpenLazy.
//
// Open is also the one reader of format generations 1–8 (Upgrade is Open
// plus Save): generations 1–6 through openOld (upgrade.go), and
// generations 7 and 8 through the current reader — generation 7, whose
// manifest held each column's index, with that index lifted into the
// current layout (oldIndex.layout), and generation 8, whose layout records
// hold no first value of a numeric frame, which only a paged dictionary
// reads. A store of generation 7 to 9 it reads as the lazy reader does, record by record —
// the layout record, every frame of a dictionary and every chunk, each
// verified — and decodes in full.
func Open(dir string) (*Store, *DiskStats, error) {
	m, manifestBytes, err := readManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	if m.Format < 7 {
		return openOld(dir, m, manifestBytes)
	}
	if m.Format == formatVersion {
		if err := m.checkCurrent(dir); err != nil {
			return nil, nil, err
		}
	}
	r, err := newReader(dir, m)
	if err != nil {
		return nil, nil, err
	}
	defer r.Close()
	s := storeShell(m)
	var bufs loadBufs
	for _, mc := range m.Columns {
		col, err := r.loadColumn(mc, &bufs)
		if err != nil {
			return nil, nil, fmt.Errorf("colstore: open column %q: %w", mc.Name, err)
		}
		if err := s.AddColumn(col); err != nil {
			return nil, nil, err
		}
	}
	return s, &DiskStats{BytesRead: manifestBytes + r.IOStats().BytesRead, Files: 1 + len(m.Columns)}, nil
}

// FormatGeneration reports which format generation wrote the store at dir,
// from its manifest alone.
func FormatGeneration(dir string) (int, error) {
	m, _, err := readManifest(dir)
	if err != nil {
		return 0, err
	}
	return m.generation(), nil
}

// decodeChunk parses one chunk record (appendChunk). The record is
// not trusted: a cardinality is bounded by the bytes left (every global-id
// takes at least one), the global-ids must ascend strictly within uint32, and
// enc.Decode refuses an element outside the chunk dictionary — the scan
// kernels index tables by element and do not check again.
func decodeChunk(r *byteReader) (*Chunk, error) {
	card, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if card > uint64(len(r.buf)-r.off) {
		return nil, errTruncated
	}
	gids := make([]uint32, card)
	prev := uint64(0)
	for i := range gids {
		delta, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if i > 0 && delta == 0 || delta > math.MaxUint32-prev {
			return nil, fmt.Errorf("colstore: chunk global-ids do not ascend within uint32 at entry %d", i)
		}
		prev += delta
		gids[i] = uint32(prev)
	}
	widthByte, err := r.take(1)
	if err != nil {
		return nil, err
	}
	rows, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	plen, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	payload, err := r.take(int(plen))
	if err != nil {
		return nil, err
	}
	seq, err := enc.Decode(enc.Width(widthByte[0]), int(rows), payload, len(gids))
	if err != nil {
		return nil, err
	}
	return &Chunk{GlobalIDs: gids, Elems: seq}, nil
}

// byteReader is a bounds-checked cursor over a byte slice.
type byteReader struct {
	buf []byte
	off int
}

var errTruncated = errors.New("colstore: truncated column file")

// uvarint reads one uvarint. A varint running past the buffer, or past
// ten bytes, or overflowing 64 bits in its tenth is errTruncated.
func (r *byteReader) uvarint() (uint64, error) {
	if r.off < len(r.buf) && r.buf[r.off] < 0x80 {
		r.off++
		return uint64(r.buf[r.off-1]), nil
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, errTruncated
	}
	r.off += n
	return v, nil
}

func (r *byteReader) take(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.buf) {
		return nil, errTruncated
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}
