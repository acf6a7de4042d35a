package colstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"unicode/utf8"

	"powerdrill/internal/bloom"
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
// Save writes generation 6, and every reader but one reads generation 6
// only. The manifest records, per column, the byte range, global-id span,
// Bloom filter and CRC32C of every record — the head record (global
// dictionary plus chunk-count varint) and one record per chunk — so a cold
// load is one exact ReadAt of one record, verified and, with a codec,
// decompressed alone. A record the codec does not shrink below 7/8 of its
// raw length is stored raw (its file length then equals its raw length,
// which is how readers tell), and a numeric dictionary is written as
// fixed-width deltas of order-preserving keys (numdict.go). Stores written
// by earlier builds (generations 1–5) are read by exactly one function,
// the eager Open, which is all Upgrade needs to rewrite them (upgrade.go);
// everything else refuses them with ErrOldFormat.

// formatVersion is the manifest generation Save writes, and the one
// generation every reader but the eager Open accepts.
const formatVersion = 6

// ErrOldFormat is what errors.Is matches when a store directory was
// written in format generation 1–5; the error itself is an
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

type manifestCol struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Virtual bool   `json:"virtual,omitempty"`
	File    string `json:"file"`
	// DictLen is the byte length of the dictionary header at the start of
	// the (uncompressed) column stream.
	DictLen int64 `json:"dict_len,omitempty"`
	// DictCLen is the file length of the head record (dictionary plus
	// chunk-count varint) at the start of the column file; set exactly when
	// the store has a codec. The record is stored raw exactly when DictCLen
	// equals its raw length (headRawLen).
	DictCLen int64 `json:"dict_clen,omitempty"`
	// DictCRC is the CRC32C of the head record's file bytes: its codec
	// record with a codec, otherwise every byte before the first chunk.
	DictCRC uint32 `json:"dict_crc,omitempty"`
	// Chunks is the per-chunk layout: value span for restriction pruning
	// and the byte range of each chunk record, so a single chunk can be
	// loaded without touching the rest of the column.
	Chunks []manifestChunk `json:"chunks,omitempty"`
	// DictShards sub-frames a sharded string dictionary: one entry per
	// dict.Sharded shard, in id order. Byte offsets index the uncompressed
	// column stream, so lazy readers of uncompressed stores can load single
	// shards with exact reads; compressed stores fall back to the full
	// dictionary record.
	DictShards []manifestDictShard `json:"dict_shards,omitempty"`
}

// manifestDictShard is one sub-dictionary frame: the byte range
// [Off, Off+Len) of its values inside the uncompressed column stream, the
// value count, the first/last values for routing, and the shard's marshaled
// Bloom filter (so absent-value probes answer without any load).
type manifestDictShard struct {
	Off   int64  `json:"off"`
	Len   int64  `json:"len"`
	Count int    `json:"count"`
	First string `json:"first"`
	Last  string `json:"last"`
	Bloom []byte `json:"bloom,omitempty"`
	// CRC is the CRC32C of the shard's file bytes (uncompressed stores
	// only — shard offsets index the file directly there).
	CRC uint32 `json:"crc,omitempty"`
}

// manifestChunk records one chunk's residency metadata: the global-id span
// of its chunk-dictionary (Min > Max marks an empty chunk) and the byte
// range [Off, Off+Len) of its record in the uncompressed column stream.
// With a codec, [COff, COff+CLen) is additionally the record's byte range
// in the column file — the exact range a cold load reads. The record is
// stored raw there exactly when CLen == Len.
type manifestChunk struct {
	Min  uint32 `json:"min"`
	Max  uint32 `json:"max"`
	Off  int64  `json:"off"`
	Len  int64  `json:"len"`
	COff int64  `json:"coff,omitempty"`
	CLen int64  `json:"clen,omitempty"`
	// Bloom is a marshaled filter over the chunk's distinct global-ids
	// (sparse chunks only): a negative probe proves an equality restriction
	// matches nothing in the chunk, pruning it before any load — the check
	// the [Min, Max] span cannot make on unsorted columns.
	Bloom []byte `json:"bloom,omitempty"`
	// CRC is the CRC32C of the chunk record's file bytes: the codec
	// record [COff, COff+CLen) with a codec, [Off, Off+Len) otherwise.
	CRC uint32 `json:"crc,omitempty"`
}

type manifestOpts struct {
	PartitionFields  []string `json:"partition_fields,omitempty"`
	MaxChunkRows     int      `json:"max_chunk_rows,omitempty"`
	OptimizeElements bool     `json:"optimize_elements,omitempty"`
	StringDict       string   `json:"string_dict,omitempty"`
	Reorder          bool     `json:"reorder,omitempty"`
}

// Save persists the store into dir (created if needed). codecName may be
// empty for uncompressed files or any registered codec; a codec compresses
// the dictionary and every chunk individually (keeping a record raw where
// it does not pay), so cold loads read exact byte ranges either way.
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
		file := fmt.Sprintf("col_%04d.bin", i)
		raw, dictLen, chunkMetas := encodeColumn(col)
		buildChunkBlooms(col, chunkMetas)
		mc := manifestCol{
			Name: name, Kind: col.Kind.String(), Virtual: col.Virtual, File: file,
			DictLen: dictLen, Chunks: chunkMetas, DictShards: dictShardFrames(col),
		}
		ps.Release()
		if codec != nil {
			raw, mc = compressRecords(codec, raw, mc)
		}
		addColChecksums(&mc, raw, codec != nil)
		if err := vfs().WriteFile(filepath.Join(dir, file), raw, 0o644); err != nil {
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

// chunkBloomMaxCard bounds the cardinality a chunk bloom filter covers:
// beyond it the filter's manifest footprint (~1.2 bytes/distinct value)
// outweighs the expected pruning win.
const chunkBloomMaxCard = 1 << 16

// buildChunkBlooms attaches a global-id Bloom filter to every chunk whose
// chunk-dictionary is sparse within its [min, max] span. Dense chunks gain
// nothing — the span test is already exact there — so the filter is built
// only when at most half the span's ids are present (unsorted columns,
// where restriction spans prune worst).
func buildChunkBlooms(col *Column, metas []manifestChunk) {
	for i, ch := range col.Chunks {
		gids := ch.GlobalIDs
		if len(gids) == 0 || len(gids) > chunkBloomMaxCard {
			continue
		}
		span := int64(gids[len(gids)-1]) - int64(gids[0]) + 1
		if int64(len(gids))*2 > span {
			continue
		}
		f := bloom.NewWithEstimates(len(gids), 0.01)
		for _, g := range gids {
			f.AddUint64(uint64(g))
		}
		metas[i].Bloom = f.Marshal()
	}
}

// dictShardFrames exports a sharded string dictionary's sub-frames: one
// manifest row per dict.Sharded shard with its byte range inside the
// uncompressed dictionary payload (recomputed from the deterministic
// length-prefixed layout encodeColumn writes). Returns nil — no frames,
// full-dictionary loads — for non-sharded dictionaries and for values that
// would not survive a JSON round-trip (routing bounds are stored as JSON
// strings, which replace invalid UTF-8).
func dictShardFrames(col *Column) []manifestDictShard {
	sd, ok := col.Dict.(*dict.Sharded)
	if !ok || col.Kind != value.KindString {
		return nil
	}
	frames := sd.Frames()
	if len(frames) == 0 {
		return nil
	}
	off := int64(uvarintLen(uint64(col.Dict.Len())))
	out := make([]manifestDictShard, 0, len(frames))
	idx := uint32(0)
	for _, fr := range frames {
		if !utf8.ValidString(fr.First) || !utf8.ValidString(fr.Last) {
			return nil
		}
		start := off
		for k := 0; k < fr.Count; k++ {
			s := sd.StringAt(idx)
			off += int64(uvarintLen(uint64(len(s)))) + int64(len(s))
			idx++
		}
		out = append(out, manifestDictShard{
			Off: start, Len: off - start,
			Count: fr.Count, First: fr.First, Last: fr.Last,
			Bloom: fr.Filter.Marshal(),
		})
	}
	return out
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

// compressRecords rewrites one column's raw stream with per-record codec
// framing: a head record (dictionary plus chunk-count varint, the bytes
// before the first chunk) followed by one record per chunk, each
// compressed independently. A record stays compressed only if that makes
// it strictly smaller than 7/8 of its raw length, and is stored raw
// otherwise — so a compressed record is never as long as its raw form,
// and a reader tells the two apart by length. The returned manifest entry
// carries the file byte range of every record.
func compressRecords(codec compress.Codec, raw []byte, mc manifestCol) ([]byte, manifestCol) {
	var out []byte
	record := func(src []byte) (off, n int64) {
		start := len(out)
		out = codec.Compress(out, src)
		if !keepCompressed(len(out)-start, len(src)) {
			out = append(out[:start], src...)
		}
		return int64(start), int64(len(out) - start)
	}
	_, mc.DictCLen = record(raw[:headRawLen(mc)])
	for i := range mc.Chunks {
		ch := &mc.Chunks[i]
		ch.COff, ch.CLen = record(raw[ch.Off : ch.Off+ch.Len])
	}
	return out, mc
}

// keepCompressed is the codec rule: a compressed record is kept only when
// it is strictly smaller than 7/8 of its raw length, since decompressing
// it costs more than reading the bytes it saves.
func keepCompressed(compressed, raw int) bool { return 8*compressed < 7*raw }

// decompressColumnFile rebuilds a column's uncompressed stream from its
// per-record file contents — the head record, then each chunk's —
// decompressing the records stored compressed and copying the ones stored
// raw.
func decompressColumnFile(codec compress.Codec, mc manifestCol, data []byte) (raw []byte, err error) {
	off, n, rawOff, rawLen, stored := int64(0), mc.DictCLen, int64(0), headRawLen(mc), headStoredRaw(mc)
	for i := 0; i <= len(mc.Chunks); i++ {
		if i > 0 {
			ch := mc.Chunks[i-1]
			off, n, rawOff, rawLen, stored = ch.COff, ch.CLen, ch.Off, ch.Len, chunkStoredRaw(ch)
		}
		if off < 0 || n < 0 || off+n > int64(len(data)) || int64(len(raw)) != rawOff {
			return nil, errTruncated
		}
		if stored {
			raw = append(raw, data[off:off+n]...)
		} else if raw, err = codec.Decompress(raw, data[off:off+n]); err != nil {
			return nil, err
		}
		if int64(len(raw)) != rawOff+rawLen {
			return nil, errTruncated
		}
	}
	return raw, nil
}

// encodeColumn renders a column's dictionary and chunks. Alongside the raw
// stream it reports the layout the manifest records for chunk-granular
// loads: the dictionary's byte length and each chunk's value span and byte
// range within the stream.
func encodeColumn(col *Column) (raw []byte, dictLen int64, chunkMetas []manifestChunk) {
	out := appendDict(nil, col.Dict, col.Kind)
	dictLen = int64(len(out))
	// Chunks.
	out = appendUvarint(out, uint64(len(col.Chunks)))
	for _, ch := range col.Chunks {
		meta := manifestChunk{Off: int64(len(out))}
		if len(ch.GlobalIDs) > 0 {
			meta.Min = ch.GlobalIDs[0]
			meta.Max = ch.GlobalIDs[len(ch.GlobalIDs)-1]
		} else {
			meta.Min, meta.Max = 1, 0 // Min > Max: empty chunk
		}
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
		out = append(out, payload...)
		meta.Len = int64(len(out)) - meta.Off
		chunkMetas = append(chunkMetas, meta)
	}
	return out, dictLen, chunkMetas
}

// appendDict appends a global dictionary: the count, then a string's
// length and bytes per value, or a numeric dictionary's key deltas
// (numdict.go).
func appendDict(out []byte, d dict.Dict, kind value.Kind) []byte {
	n := d.Len()
	out = appendUvarint(out, uint64(n))
	if kind == value.KindString {
		sd := d.(dict.StringDict)
		for i := 0; i < n; i++ {
			s := sd.StringAt(uint32(i))
			out = appendUvarint(out, uint64(len(s)))
			out = append(out, s...)
		}
		return out
	}
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = numericKey(d.Value(uint32(i)))
	}
	return appendKeyDeltas(out, keys)
}

// DiskStats reports how many bytes Open read, the quantity Figure 5's
// latency model charges.
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
// *OldFormatError for generations 1–5, and for generation 6 a check that
// every column carries the layout cold reads rely on.
func (m *manifest) checkCurrent(dir string) error {
	if m.Format != formatVersion {
		return &OldFormatError{Dir: dir, Generation: m.generation()}
	}
	for _, mc := range m.Columns {
		if err := m.checkLayout(mc); err != nil {
			return err
		}
	}
	return nil
}

// checkLayout verifies one column entry (of the manifest or of its virtual
// sidecar) records a dictionary length and one chunk per store chunk, with
// codec record ranges when the store has a codec.
func (m *manifest) checkLayout(mc manifestCol) error {
	if mc.DictLen <= 0 || len(mc.Chunks) != len(m.Bounds)-1 || (m.Codec != "" && mc.DictCLen <= 0) {
		return fmt.Errorf("colstore: column %q has no chunk layout", mc.Name)
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
			StringDict:       StringDictKind(m.Opts.StringDict),
			Reorder:          m.Opts.Reorder,
		}.withDefaults(),
		columns: make(map[string]*Column),
	}
}

// Open loads a persisted store fully into memory. The string-dictionary
// implementation is taken from the manifest options. For a lazily loaded,
// budget-managed store see OpenLazy.
//
// Open is also the one reader of format generations 1–5 (Upgrade is Open
// plus Save), and the one function that decodes by generation: it reads
// whole files and decodes full columns, an older generation's once
// oldColumnStream (upgrade.go) has rewritten them in generation 6's
// framing.
func Open(dir string) (*Store, *DiskStats, error) {
	stats := &DiskStats{}
	m, manifestBytes, err := readManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	old := m.Format != formatVersion
	if err := m.checkCurrent(dir); err != nil && !old {
		return nil, nil, err
	}
	stats.BytesRead += manifestBytes
	stats.Files++
	var codec compress.Codec
	if m.Codec != "" {
		if codec, err = compress.ByName(m.Codec); err != nil {
			return nil, nil, err
		}
	}
	s := storeShell(m)
	for _, mc := range m.Columns {
		raw, err := vfs().ReadFile(filepath.Join(dir, mc.File))
		if err != nil {
			return nil, nil, fmt.Errorf("colstore: open column %q: %w", mc.Name, err)
		}
		stats.BytesRead += int64(len(raw))
		stats.Files++
		if _, err := verifyColumnFile(mc, codec != nil, raw, filepath.Join(dir, mc.File)); err != nil {
			return nil, nil, fmt.Errorf("colstore: open column %q: %w", mc.Name, err)
		}
		kind, err := value.ParseKind(mc.Kind)
		if err != nil {
			return nil, nil, fmt.Errorf("colstore: column %q: %w", mc.Name, err)
		}
		switch {
		case old:
			raw, err = oldColumnStream(m.generation(), codec, mc, kind, raw)
		case codec != nil:
			raw, err = decompressColumnFile(codec, mc, raw)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("colstore: column %q: %w", mc.Name, err)
		}
		col, err := decodeColumn(mc.Name, kind, mc.Virtual, raw, s.Opts.StringDict)
		if err != nil {
			return nil, nil, fmt.Errorf("colstore: column %q: %w", mc.Name, err)
		}
		if err := s.AddColumn(col); err != nil {
			return nil, nil, err
		}
	}
	return s, stats, nil
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

// decodeColumn parses the output of encodeColumn.
func decodeColumn(name string, kind value.Kind, virtual bool, raw []byte, sd StringDictKind) (*Column, error) {
	r := &byteReader{buf: raw}
	d, err := decodeDict(r, kind, sd)
	if err != nil {
		return nil, err
	}
	nChunks, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	col := &Column{Name: name, Kind: kind, Dict: d, Virtual: virtual}
	for c := uint64(0); c < nChunks; c++ {
		ch, err := decodeChunk(r)
		if err != nil {
			return nil, err
		}
		col.Chunks = append(col.Chunks, ch)
	}
	return col, nil
}

// decodeDict parses the dictionary header encodeColumn writes. A string
// dictionary is decoded into one block (decodeStringArray), which a trie
// or a sharded dictionary is then built from; for numbers walkDict reads
// and checks every value, and the dictionary is built on what it returns.
func decodeDict(r *byteReader, kind value.Kind, sd StringDictKind) (dict.Dict, error) {
	if kind == value.KindString {
		arr, err := decodeStringArray(r)
		if err != nil {
			return nil, err
		}
		if sd != StringDictTrie && sd != StringDictSharded {
			return arr, nil
		}
		strs := make([]string, arr.Len())
		for i := range strs {
			strs[i] = arr.StringAt(uint32(i))
		}
		if sd == StringDictTrie {
			return dict.TrieOf(strs)
		}
		return dict.ShardedOf(strs, dict.ShardedOptions{Retain: true})
	}
	_, ints, floats, err := walkDict(r, kind, nil)
	if err != nil {
		return nil, err
	}
	if kind == value.KindInt64 {
		return dict.Int64sOf(ints)
	}
	return dict.Float64sOf(floats)
}

// decodeChunk parses one chunk record written by encodeColumn. The record is
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
