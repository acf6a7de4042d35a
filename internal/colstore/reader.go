package colstore

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"powerdrill/internal/bloom"
	"powerdrill/internal/compress"
	"powerdrill/internal/dict"
	"powerdrill/internal/value"
)

// This file is the Reader: it decodes a single dictionary or a single
// chunk from the persisted format, each read at its exact byte range,
// CRC-verified, and decompressed if its codec compressed it. The file
// handle cache, the coalesced run reads and the I/O counters it keeps are
// in readerio.go.

// Reader decodes individual dictionaries and chunks from a store persisted
// with Save, each read at its exact byte range. It keeps no column data
// itself — every Load call goes back to the files — so it is the natural
// provider behind a budget-managed store. What it does keep is cold-I/O
// plumbing (see readerio.go): a bounded cache of open file handles and
// physical I/O counters. All methods are safe for concurrent use.
type Reader struct {
	dir string
	m   *manifest
	sd  StringDictKind

	// colsMu guards cols: immutable for physical columns, but persisted
	// virtual columns register new entries at query time (registerVirtual)
	// while other queries load concurrently.
	colsMu sync.RWMutex
	cols   map[string]manifestCol

	mu      sync.Mutex
	files   map[string]*openFile
	fileLRU []string
	stats   IOStats
}

// NewReader opens the manifest in dir, which must be of the current format
// generation (an older one is refused with an *OldFormatError).
// manifestBytes reports the bytes read, the quantity Figure 5's latency
// model charges.
func NewReader(dir string) (r *Reader, manifestBytes int64, err error) {
	m, n, err := readManifest(dir)
	if err != nil {
		return nil, 0, err
	}
	if err := m.checkCurrent(dir); err != nil {
		return nil, 0, err
	}
	if m.Codec != "" {
		// Validate up front so every later load can resolve the codec
		// infallibly (mustCodec): an unknown codec — a store written by a
		// newer build, say — must fail the open, not the first cold query.
		if _, err := compress.ByName(m.Codec); err != nil {
			return nil, 0, fmt.Errorf("colstore: open %s: %w", dir, err)
		}
	}
	r = &Reader{
		dir:  dir,
		m:    m,
		sd:   StringDictKind(m.Opts.StringDict),
		cols: make(map[string]manifestCol, len(m.Columns)),
	}
	if r.sd == "" {
		r.sd = StringDictArray
	}
	for _, mc := range m.Columns {
		r.cols[mc.Name] = mc
	}
	return r, n, nil
}

// colMeta looks up a column's manifest entry. Reads take the lock because
// persisted virtual columns register entries while loads are in flight.
func (r *Reader) colMeta(name string) (manifestCol, bool) {
	r.colsMu.RLock()
	mc, ok := r.cols[name]
	r.colsMu.RUnlock()
	return mc, ok
}

// registerVirtual publishes a sidecar column's manifest entry so the
// Reader serves its loads exactly like a physical column's.
func (r *Reader) registerVirtual(mc manifestCol) {
	r.colsMu.Lock()
	r.cols[mc.Name] = mc
	r.colsMu.Unlock()
}

// Columns lists the persisted columns in manifest order.
func (r *Reader) Columns() []ColumnMeta {
	out := make([]ColumnMeta, 0, len(r.m.Columns))
	for _, mc := range r.m.Columns {
		kind, err := value.ParseKind(mc.Kind)
		if err != nil {
			kind = value.KindInvalid
		}
		out = append(out, ColumnMeta{Name: mc.Name, Kind: kind, Virtual: mc.Virtual})
	}
	return out
}

// Bounds returns the store's chunk row boundaries.
func (r *Reader) Bounds() []int { return r.m.Bounds }

// LoadColumnDict decodes only the named column's global dictionary: the
// head record's byte range is read from disk, verified, and, if the codec
// compressed it, decompressed alone. The reported disk bytes are exactly
// that record's.
func (r *Reader) LoadColumnDict(name string) (dict.Dict, int64, error) {
	return r.loadColumnDict(name, nil)
}

// loadColumnDict is LoadColumnDict reading and decompressing into bufs.
func (r *Reader) loadColumnDict(name string, bufs *loadBufs) (dict.Dict, int64, error) {
	mc, kind, err := r.dictMeta(name)
	if err != nil {
		return nil, 0, err
	}
	if d, ok := r.shardedDictFromFrames(mc, kind); ok {
		// Sub-framed load (uncompressed sharded string dictionaries):
		// routing bounds and Bloom filters come straight from the manifest,
		// so no dictionary bytes are read until a query probes a shard —
		// and each probe reads exactly that shard's byte range.
		return d, 0, nil
	}
	raw, n, err := r.dictRecord(mc, bufs)
	if err != nil {
		return nil, 0, err
	}
	d, err := r.decodeDictRecord(mc, kind, raw)
	return d, n, err
}

// dictMeta resolves a column's manifest entry and kind.
func (r *Reader) dictMeta(name string) (manifestCol, value.Kind, error) {
	mc, ok := r.colMeta(name)
	if !ok {
		return mc, value.KindInvalid, fmt.Errorf("colstore: unknown column %q", name)
	}
	kind, err := value.ParseKind(mc.Kind)
	if err != nil {
		return mc, value.KindInvalid, fmt.Errorf("colstore: column %q: %w", name, err)
	}
	return mc, kind, nil
}

// dictRecord reads a column's head record — its dictionary, then the
// chunk-count varint — verifies it and, if the codec compressed it,
// decompresses it into bufs: the bytes decodeDict and dictValues walk. n
// is the record's file length, the disk bytes the read cost.
func (r *Reader) dictRecord(mc manifestCol, bufs *loadBufs) (raw []byte, n int64, err error) {
	n = headFileLen(mc, r.m.Codec != "", 0)
	raw, err = r.readRange(mc.File, 0, n, bufs)
	if err != nil {
		return nil, 0, fmt.Errorf("colstore: load dictionary of %q: %w", mc.Name, err)
	}
	if err := r.verifyRecord(mc.File, 0, raw, mc.DictCRC); err != nil {
		return nil, 0, err
	}
	if r.m.Codec != "" && !headStoredRaw(mc) {
		if raw, err = r.decompress(mustCodec(r.m.Codec), raw, bufs); err != nil {
			return nil, 0, fmt.Errorf("colstore: load dictionary of %q: %w", mc.Name, err)
		}
	}
	return raw, n, nil
}

// decodeDictRecord builds the dictionary of a head record dictRecord
// returned. The record ends in the chunk-count varint; the decoder stops
// at the dictionary's end and ignores it.
func (r *Reader) decodeDictRecord(mc manifestCol, kind value.Kind, raw []byte) (dict.Dict, error) {
	d, err := decodeDict(&byteReader{buf: raw}, kind, r.sd)
	if err != nil {
		return nil, fmt.Errorf("colstore: column %q: %w", mc.Name, err)
	}
	return d, nil
}

// dictValues looks the global-ids up in a head record dictRecord returned,
// in one walk and without building the dictionary: the record goes through
// walkDict, and every refusal of a full decode, like one.
func (r *Reader) dictValues(mc manifestCol, kind value.Kind, raw []byte, gids []uint32) ([]value.Value, error) {
	want := slices.Clone(gids)
	slices.Sort(want)
	want = slices.Compact(want)
	strs, ints, floats, err := walkDict(&byteReader{buf: raw}, kind, want)
	if err != nil {
		return nil, fmt.Errorf("colstore: column %q: %w", mc.Name, err)
	}
	out := make([]value.Value, len(gids))
	for i, id := range gids {
		k, _ := slices.BinarySearch(want, id)
		switch kind {
		case value.KindString:
			out[i] = value.String(strs[k])
		case value.KindInt64:
			out[i] = value.Int64(ints[k])
		default:
			out[i] = value.Float64(floats[k])
		}
	}
	return out, nil
}

// dictSizeOf estimates the resident bytes of the dictionary a head record
// decodes to, from its count and its length alone: exact for numbers, and
// for strings the footprint of a string array whose block holds every byte
// the record has left after one length byte per value — exact when every
// value is shorter than 128 bytes and nothing follows the dictionary, more
// otherwise. It does not model a trie or a sharded dictionary.
func dictSizeOf(kind value.Kind, raw []byte) int64 {
	br := &byteReader{buf: raw}
	n, err := br.uvarint()
	if err != nil || n > uint64(len(raw)-br.off) {
		return int64(len(raw))
	}
	if kind == value.KindString {
		return dict.StringArrayBytes(len(raw)-br.off-int(n), int(n))
	}
	return int64(n) * 8
}

// shardedDictFromFrames reconstructs a sharded string dictionary from the
// manifest's sub-frames, loading no values. Applies only to uncompressed
// stores saved with StringDictSharded: the shard byte ranges index the raw
// column file, so each shard the query probes is served by one exact
// ReadAt. Any malformed frame (bad Bloom bytes, non-positive count) makes
// the whole path report !ok and the caller falls back to decoding the full
// dictionary record — slower, never wrong.
func (r *Reader) shardedDictFromFrames(mc manifestCol, kind value.Kind) (dict.Dict, bool) {
	if !r.framedDict(mc, kind) {
		return nil, false
	}
	frames := make([]dict.ShardFrame, len(mc.DictShards))
	for i, ds := range mc.DictShards {
		f, err := bloom.Unmarshal(ds.Bloom)
		if err != nil || ds.Count <= 0 || ds.Len <= 0 {
			return nil, false
		}
		frames[i] = dict.ShardFrame{Count: ds.Count, First: ds.First, Last: ds.Last, Filter: f}
	}
	shards := mc.DictShards
	file := mc.File
	loader := func(i int) ([]string, error) {
		if i < 0 || i >= len(shards) {
			return nil, fmt.Errorf("colstore: dict shard %d of %q out of range", i, mc.Name)
		}
		ds := shards[i]
		raw, err := r.readRange(file, ds.Off, ds.Len, nil)
		if err != nil {
			return nil, fmt.Errorf("colstore: load dict shard %d of %q: %w", i, mc.Name, err)
		}
		if err := r.verifyRecord(file, ds.Off, raw, ds.CRC); err != nil {
			return nil, err
		}
		br := &byteReader{buf: raw}
		vals := make([]string, ds.Count)
		for j := range vals {
			l, err := br.uvarint()
			if err != nil {
				return nil, fmt.Errorf("colstore: dict shard %d of %q: %w", i, mc.Name, err)
			}
			b, err := br.take(int(l))
			if err != nil {
				return nil, fmt.Errorf("colstore: dict shard %d of %q: %w", i, mc.Name, err)
			}
			vals[j] = string(b)
		}
		return vals, nil
	}
	d, err := dict.NewShardedFromFrames(frames, loader)
	if err != nil {
		return nil, false
	}
	return d, true
}

// readRange reads exactly [off, off+n) of a column file through the handle
// cache, into bufs.
func (r *Reader) readRange(file string, off, n int64, bufs *loadBufs) ([]byte, error) {
	buf := bufs.readBuf(n)
	if err := r.readInto(file, off, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// readInto fills buf from offset off of a column file through the handle
// cache.
func (r *Reader) readInto(file string, off int64, buf []byte) error {
	f, release, err := r.acquireFile(file)
	if err != nil {
		return err
	}
	defer release()
	if _, err := f.ReadAt(buf, off); err != nil {
		return err
	}
	r.mu.Lock()
	r.stats.ReadCalls++
	r.stats.BytesRead += int64(len(buf))
	r.mu.Unlock()
	return nil
}

// decompress wraps codec.Decompress with the IOStats timing counters. The
// output goes into bufs, which keeps it (grown, if it had to be) for the
// next load.
func (r *Reader) decompress(codec compress.Codec, src []byte, bufs *loadBufs) ([]byte, error) {
	var dst []byte
	if bufs != nil {
		dst = bufs.raw[:0]
	}
	start := time.Now()
	out, err := codec.Decompress(dst, src)
	elapsed := time.Since(start)
	r.mu.Lock()
	r.stats.DecompressCalls++
	r.stats.DecompressNanos += int64(elapsed)
	r.mu.Unlock()
	if bufs != nil && cap(out) > cap(bufs.raw) {
		bufs.raw = out[:0]
	}
	return out, err
}

// verifyRecord checks one record's file bytes against its stored CRC,
// updating the reader's counters. want == 0 skips (absent checksum).
func (r *Reader) verifyRecord(file string, off int64, rec []byte, want uint32) error {
	if want == 0 {
		return nil
	}
	got := CRC32C(rec)
	r.mu.Lock()
	if got == want {
		r.stats.ChecksumVerified++
	} else {
		r.stats.ChecksumFailed++
	}
	r.mu.Unlock()
	if got != want {
		return &ChecksumError{Path: r.dir + "/" + file, Off: off, Len: int64(len(rec)), Want: want, Got: got}
	}
	return nil
}

// framedDict reports whether a column's dictionary loads from the
// manifest's sub-frames (shardedDictFromFrames) rather than from its
// record.
func (r *Reader) framedDict(mc manifestCol, kind value.Kind) bool {
	return kind == value.KindString && len(mc.DictShards) > 0 && r.m.Codec == "" && r.sd == StringDictSharded
}

// LoadColumnChunk decodes a single chunk of the named column: only the
// chunk record's byte range is read, and only that record is decompressed
// (if the codec compressed it). The reported disk bytes are exactly the
// record's.
func (r *Reader) LoadColumnChunk(name string, chunk int) (*Chunk, int64, error) {
	mc, off, n, err := r.chunkRecord(name, chunk)
	if err != nil {
		return nil, 0, err
	}
	rec, err := r.readRange(mc.File, off, n, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("colstore: load column %q chunk %d: %w", name, chunk, err)
	}
	ch, err := r.decodeChunkRecord(name, chunk, rec, nil)
	if err != nil {
		return nil, 0, err
	}
	return ch, n, nil
}

// chunkRecord resolves chunk ci of the named column: its manifest entry and
// the byte range of the chunk's record in the column file — the codec
// record with a codec, raw bytes otherwise. An unknown column or a chunk
// index out of range is an error.
func (r *Reader) chunkRecord(name string, ci int) (mc manifestCol, off, n int64, err error) {
	mc, ok := r.colMeta(name)
	if !ok {
		return mc, 0, 0, fmt.Errorf("colstore: unknown column %q", name)
	}
	if ci < 0 || ci >= len(mc.Chunks) {
		return mc, 0, 0, fmt.Errorf("colstore: column %q has %d chunks, want %d", name, len(mc.Chunks), ci)
	}
	off, n = chunkFileRange(mc.Chunks[ci], r.m.Codec != "")
	return mc, off, n, nil
}

// ChunkFileRange returns the byte range of chunk ci's record in the column
// file (see chunkRecord).
func (r *Reader) ChunkFileRange(name string, ci int) (off, n int64, err error) {
	_, off, n, err = r.chunkRecord(name, ci)
	return off, n, err
}

// DictFileLen returns the byte length of the head record (dictionary plus
// chunk-count varint) a dictionary load reads.
func (r *Reader) DictFileLen(name string) (int64, error) {
	mc, ok := r.colMeta(name)
	if !ok {
		return 0, fmt.Errorf("colstore: unknown column %q", name)
	}
	return headFileLen(mc, r.m.Codec != "", 0), nil
}

// DecodeChunkRecord decodes one chunk from its file-level record bytes (as
// delimited by ChunkFileRange): the codec record with a codec — compressed
// or stored raw — the raw record otherwise.
func (r *Reader) DecodeChunkRecord(name string, ci int, rec []byte) (*Chunk, error) {
	return r.decodeChunkRecord(name, ci, rec, nil)
}

// decodeChunkRecord is DecodeChunkRecord decompressing into bufs.
func (r *Reader) decodeChunkRecord(name string, ci int, rec []byte, bufs *loadBufs) (*Chunk, error) {
	mc, off, _, err := r.chunkRecord(name, ci)
	if err != nil {
		return nil, err
	}
	if err := r.verifyRecord(mc.File, off, rec, mc.Chunks[ci].CRC); err != nil {
		return nil, err
	}
	raw := rec
	if r.m.Codec != "" && !chunkStoredRaw(mc.Chunks[ci]) {
		raw, err = r.decompress(mustCodec(r.m.Codec), rec, bufs)
		if err != nil {
			return nil, fmt.Errorf("colstore: column %q chunk %d: %w", name, ci, err)
		}
		if int64(len(raw)) != mc.Chunks[ci].Len {
			return nil, fmt.Errorf("colstore: column %q chunk %d: %w", name, ci, errTruncated)
		}
	}
	ch, err := decodeChunk(&byteReader{buf: raw})
	if err != nil {
		return nil, fmt.Errorf("colstore: column %q chunk %d: %w", name, ci, err)
	}
	return ch, nil
}

// mustCodec resolves a codec name that the manifest already validated; an
// unknown name at this point is an initialization bug.
func mustCodec(name string) compress.Codec {
	c, err := compress.ByName(name)
	if err != nil {
		panic("colstore: " + err.Error())
	}
	return c
}

// walkDict is the one reader of a dictionary record, behind decodeDict and
// Reader.dictValues alike: it reads the count, then every value in id order,
// and keeps the values at the ids in want, a sorted set (every value when
// want is nil), as strings, int64s or float64s by kind. The record is not
// trusted, and every refusal is here, so a walk that keeps ten values
// refuses exactly the records a full decode does: the count is bounded by
// the bytes left (a string takes at least its length byte, a delta its
// width) before anything is allocated, the values must ascend strictly,
// and an id of want past the last value is an error.
func walkDict(r *byteReader, kind value.Kind, want []uint32) (strs []string, ints []int64, floats []float64, err error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, nil, nil, err
	}
	switch kind {
	case value.KindString:
		strs, err = walkStrings(r, n, want)
	case value.KindInt64:
		ints, err = walkNumbers(r, n, keyInt64, want)
	case value.KindFloat64:
		floats, err = walkNumbers(r, n, keyFloat64, want)
	default:
		err = fmt.Errorf("invalid kind %v", kind)
	}
	return strs, ints, floats, err
}

// walkStrings reads a string dictionary payload of n length-prefixed
// values for walkDict, keeping the values at the ids in want (every value
// when want is nil) as strings of their own. It refuses what
// decodeStringArray refuses: values must ascend strictly.
func walkStrings(r *byteReader, n uint64, want []uint32) ([]string, error) {
	if n > uint64(len(r.buf)-r.off) {
		return nil, errTruncated
	}
	var out []string
	if want == nil {
		out = make([]string, 0, n)
	} else {
		out = make([]string, 0, len(want))
	}
	next := 0
	var prev []byte
	err := eachString(r, n, func(i int, b []byte) error {
		if i > 0 && string(prev) >= string(b) {
			return fmt.Errorf("colstore: string dictionary does not ascend strictly at %d", i)
		}
		prev = b
		if want == nil {
			out = append(out, string(b))
		} else if next < len(want) && want[next] == uint32(i) {
			out = append(out, string(b))
			next++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, checkWant(want, next)
}

// eachString reads the n length-prefixed values of a string dictionary
// payload, refusing a value that runs past the record, and hands each to
// keep in id order until keep refuses one. b lies in the record.
func eachString(r *byteReader, n uint64, keep func(i int, b []byte) error) error {
	for i := 0; i < int(n); i++ {
		l, err := r.uvarint()
		if err != nil {
			return err
		}
		b, err := r.take(int(l))
		if err != nil {
			return err
		}
		if err := keep(i, b); err != nil {
			return err
		}
	}
	return nil
}

// decodeStringArray reads a string dictionary record — the count, then
// the values — into one dictionary block in one pass: two allocations,
// the block and its offsets, however many values the record holds. The
// count is bounded by the bytes left, a value must not run past the
// record, and dict.StringArrayOf refuses values that do not ascend
// strictly. The block is sized by the bytes the record has left after one
// length byte per value, the most its values can take; a record followed
// by more than a few bytes of other data (a whole column file) has the
// block trimmed to what it holds.
func decodeStringArray(r *byteReader) (*dict.StringArray, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	left := uint64(len(r.buf) - r.off)
	if n > left {
		return nil, errTruncated
	}
	var data strings.Builder
	data.Grow(int(left - n))
	off := make([]uint32, 1, n+1)
	err = eachString(r, n, func(_ int, b []byte) error {
		data.Write(b)
		off = append(off, uint32(data.Len()))
		return nil
	})
	if err != nil {
		return nil, err
	}
	block := data.String()
	if data.Cap()-data.Len() > data.Len()/8+64 {
		block = strings.Clone(block)
	}
	return dict.StringArrayOf(block, off)
}

// checkWant refuses a walk that kept fewer values than want names: an id
// past the dictionary's last value.
func checkWant(want []uint32, kept int) error {
	if kept < len(want) {
		return fmt.Errorf("colstore: dictionary has no global-id %d", want[kept])
	}
	return nil
}
