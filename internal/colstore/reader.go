package colstore

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"powerdrill/internal/compress"
	"powerdrill/internal/dict"
	"powerdrill/internal/value"
)

// This file is the Reader: it decodes a single dictionary, one frame of
// one, or a single chunk from the persisted format, each record read at
// its exact byte range, CRC-verified, and decompressed if its codec
// compressed it. The file
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
// manifestBytes reports the bytes read.
func NewReader(dir string) (r *Reader, manifestBytes int64, err error) {
	m, n, err := readManifest(dir)
	if err != nil {
		return nil, 0, err
	}
	if err := m.checkCurrent(dir); err != nil {
		return nil, 0, err
	}
	r, err = newReader(dir, m)
	return r, n, err
}

// newReader serves the manifest m of the store in dir: of the current
// generation, or of generation 7 or 8 for the eager Open.
func newReader(dir string, m *manifest) (*Reader, error) {
	if m.Codec != "" {
		// Validate up front so every later load can resolve the codec
		// infallibly (mustCodec): an unknown codec — a store written by a
		// newer build, say — must fail the open, not the first cold query.
		if _, err := compress.ByName(m.Codec); err != nil {
			return nil, fmt.Errorf("colstore: open %s: %w", dir, err)
		}
	}
	r := &Reader{
		dir:  dir,
		m:    m,
		sd:   m.Opts.stringDict(),
		cols: make(map[string]manifestCol, len(m.Columns)),
	}
	for _, mc := range m.Columns {
		r.cols[mc.Name] = mc
	}
	return r, nil
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

// layout reads, verifies, decodes and checks a column's layout record,
// and reports the disk bytes it read. Of generation 7, which only the
// eager Open reads, it lifts the manifest's index instead (oldIndex).
func (r *Reader) layout(mc manifestCol) (*columnLayout, int64, error) {
	var (
		lay *columnLayout
		n   int64
		err error
	)
	if r.m.Format >= 8 {
		rec, err := r.readIndexRecord(mc, mc.Index)
		if err != nil {
			return nil, 0, err
		}
		if lay, err = decodeLayout(rec); err != nil {
			return nil, 0, fmt.Errorf("colstore: column %q layout: %w", mc.Name, err)
		}
		n = mc.Index.Len
	} else if lay, err = mc.oldIndex.layout(); err != nil {
		return nil, 0, fmt.Errorf("colstore: column %q layout: %w", mc.Name, err)
	}
	if err := r.m.checkLayout(mc, lay); err != nil {
		return nil, 0, err
	}
	return lay, n, nil
}

// readIndexRecord reads one index record of a column file and verifies it
// against its CRC. The bytes are the caller's: a decode keeps what it
// needs of them.
func (r *Reader) readIndexRecord(mc manifestCol, ref recordRef) ([]byte, error) {
	rec, err := r.readRange(mc.File, ref.Off, ref.Len, nil)
	if err != nil {
		return nil, fmt.Errorf("colstore: load column %q index: %w", mc.Name, err)
	}
	if err := r.verifyRecord(mc.File, ref.Off, rec, ref.CRC); err != nil {
		return nil, err
	}
	return rec, nil
}

// layoutOf resolves the named column's manifest entry and reads its
// layout: the exported loaders' way in, each call reading the record. A
// PinSet reads it once per query, through the memory manager.
func (r *Reader) layoutOf(name string) (manifestCol, *columnLayout, error) {
	mc, ok := r.colMeta(name)
	if !ok {
		return mc, nil, fmt.Errorf("colstore: unknown column %q", name)
	}
	lay, _, err := r.layout(mc)
	return mc, lay, err
}

// LoadColumnDict decodes only the named column's global dictionary: its
// frames are read in one run from disk, each verified and, if the codec
// compressed it, decompressed alone. The reported disk bytes are exactly
// the frames'.
func (r *Reader) LoadColumnDict(name string) (dict.Dict, int64, error) {
	mc, lay, err := r.layoutOf(name)
	if err != nil {
		return nil, 0, err
	}
	kind, err := value.ParseKind(mc.Kind)
	if err != nil {
		return nil, 0, fmt.Errorf("colstore: column %q: %w", name, err)
	}
	return r.readDict(mc, lay, kind, nil)
}

// readDict decodes a column's whole dictionary: all its frames in one
// read into bufs, each verified, then decompressed one at a time into one
// frame-sized buffer and decoded into one dictBuilder. n is the frames'
// file length, the disk bytes the read cost.
func (r *Reader) readDict(mc manifestCol, lay *columnLayout, kind value.Kind, bufs *loadBufs) (d dict.Dict, n int64, err error) {
	all := make([]int, lay.numFrames())
	var count, rawLen int64
	for i := range all {
		fr := lay.frame(i)
		all[i] = i
		count += int64(fr.count)
		rawLen += fr.raw
	}
	recs, n, err := r.readFrames(mc, lay, all, bufs)
	if err != nil {
		return nil, 0, err
	}
	b, err := newDictBuilder(kind, uint64(count), int(rawLen))
	for i := 0; err == nil && i < len(recs); i++ {
		var raw []byte
		fr := lay.frame(i)
		if raw, err = r.rawRecord(recs[i], fr.raw, bufs); err == nil {
			err = b.readFrame(raw, uint64(fr.count))
		}
	}
	if err == nil {
		d, err = b.dict(r.sd)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("colstore: column %q: %w", mc.Name, err)
	}
	return d, n, nil
}

// frameDict decodes frame i of a column's dictionary alone from its file
// bytes, decompressing into bufs — a paged dictionary's frame. Beside what
// a decode of the whole dictionary refuses of the frame, it refuses one
// that does not start at the layout's first value for it, or reaches the
// next frame's: what keeps frames read apart in one strict order.
func (r *Reader) frameDict(mc manifestCol, lay *columnLayout, kind value.Kind, i int, rec []byte, bufs *loadBufs) (dict.Dict, error) {
	fr := lay.frame(i)
	raw, err := r.rawRecord(rec, fr.raw, bufs)
	var f dict.Dict
	if err == nil {
		f, err = decodeFrame(raw, kind, uint64(fr.count), r.sd)
	}
	if err == nil && (orderKey(f.Value(0)) != string(fr.first) ||
		i+1 < lay.numFrames() && orderKey(f.Value(uint32(f.Len()-1))) >= string(lay.frame(i+1).first)) {
		err = errors.New("values do not lie between the layout's first values")
	}
	if err != nil {
		return nil, fmt.Errorf("colstore: column %q dictionary frame %d: %w", mc.Name, i, err)
	}
	return f, nil
}

// decodeFrame decodes one dictionary frame of n values alone, into the
// form sd names for strings, refusing what a decode of the whole
// dictionary refuses of it.
func decodeFrame(raw []byte, kind value.Kind, n uint64, sd StringDictKind) (dict.Dict, error) {
	b, err := newDictBuilder(kind, n, len(raw))
	if err == nil {
		err = b.readFrame(raw, n)
	}
	if err != nil {
		return nil, err
	}
	return b.dict(sd)
}

// readFrames reads frames idx (ascending) of a column's dictionary into
// bufs — one read per run of adjacent frames — and verifies each against
// its CRC. It returns each frame's file bytes and the disk bytes read.
func (r *Reader) readFrames(mc manifestCol, lay *columnLayout, idx []int, bufs *loadBufs) (recs [][]byte, n int64, err error) {
	spans := make([]record, len(idx))
	for j, i := range idx {
		fr := lay.frame(i)
		spans[j] = record{off: fr.off, n: fr.len, crc: fr.crc}
		n += fr.len
	}
	recs, _, _, err = r.readRuns(mc.File, spans, bufs)
	if err != nil {
		return nil, 0, fmt.Errorf("colstore: load dictionary of %q: %w", mc.Name, err)
	}
	for j, sp := range spans {
		if err := r.verifyRecord(mc.File, sp.off, recs[j], sp.crc); err != nil {
			return nil, 0, err
		}
	}
	return recs, n, nil
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

// rawRecord returns a record's raw bytes from its file bytes: rec itself
// when it is stored raw — its length is its raw length, which a kept
// compressed record never reaches — and otherwise rec decompressed into
// bufs, which must give rawLen bytes.
func (r *Reader) rawRecord(rec []byte, rawLen int64, bufs *loadBufs) ([]byte, error) {
	if int64(len(rec)) == rawLen {
		return rec, nil
	}
	if r.m.Codec == "" {
		return nil, errTruncated
	}
	raw, err := r.decompress(mustCodec(r.m.Codec), rec, bufs)
	if err == nil && int64(len(raw)) != rawLen {
		err = errTruncated
	}
	return raw, err
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

// LoadColumnChunk decodes a single chunk of the named column: only the
// chunk record's byte range is read, and only that record is decompressed
// (if the codec compressed it). The reported disk bytes are exactly the
// record's.
func (r *Reader) LoadColumnChunk(name string, chunk int) (*Chunk, int64, error) {
	mc, lay, err := r.layoutOf(name)
	if err != nil {
		return nil, 0, err
	}
	off, n, _, err := r.chunkRange(mc, lay, chunk)
	if err != nil {
		return nil, 0, err
	}
	rec, err := r.readRange(mc.File, off, n, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("colstore: load column %q chunk %d: %w", name, chunk, err)
	}
	ch, err := r.decodeChunkRecord(mc, lay, chunk, rec, nil)
	if err != nil {
		return nil, 0, err
	}
	return ch, n, nil
}

// chunkRange resolves the byte range of chunk ci's record in the column
// file — the codec record with a codec, raw bytes otherwise — and its
// entry. A chunk index out of range is an error.
func (r *Reader) chunkRange(mc manifestCol, lay *columnLayout, ci int) (off, n int64, ch chunkEntry, err error) {
	if ci < 0 || ci >= lay.numChunks() {
		return 0, 0, ch, fmt.Errorf("colstore: column %q has %d chunks, want %d", mc.Name, lay.numChunks(), ci)
	}
	ch = lay.chunk(ci)
	off, n = ch.fileRange(r.m.Codec != "")
	return off, n, ch, nil
}

// ChunkFileRange returns the byte range of chunk ci's record in the column
// file (see chunkRange).
func (r *Reader) ChunkFileRange(name string, ci int) (off, n int64, err error) {
	mc, lay, err := r.layoutOf(name)
	if err != nil {
		return 0, 0, err
	}
	off, n, _, err = r.chunkRange(mc, lay, ci)
	return off, n, err
}

// DictFileLen returns the file length of a dictionary's frames: what a
// load of the whole dictionary reads.
func (r *Reader) DictFileLen(name string) (int64, error) {
	_, lay, err := r.layoutOf(name)
	if err != nil {
		return 0, err
	}
	return lay.dictFileLen(), nil
}

// IndexBytes returns the file bytes of the named column's layout record.
func (r *Reader) IndexBytes(name string) (int64, error) {
	mc, ok := r.colMeta(name)
	if !ok {
		return 0, fmt.Errorf("colstore: unknown column %q", name)
	}
	return mc.Index.Len, nil
}

// RecordRange is the byte range [Off, Off+Len) of one record in a column
// file, and for a dictionary frame the number of values it holds: frame i
// holds the global-ids from the sum of the counts of those before it.
type RecordRange struct {
	Off, Len int64
	Values   int
}

// ColumnRecords returns the path of the named column's file, relative to
// the store directory, and the byte ranges of its dictionary frames and of
// its chunk records in it, in order, as its layout record gives them.
func (r *Reader) ColumnRecords(name string) (file string, frames, chunks []RecordRange, err error) {
	mc, lay, err := r.layoutOf(name)
	if err != nil {
		return "", nil, nil, err
	}
	for i := range lay.numFrames() {
		fr := lay.frame(i)
		frames = append(frames, RecordRange{fr.off, fr.len, fr.count})
	}
	for i := range lay.numChunks() {
		off, n := lay.chunk(i).fileRange(r.m.Codec != "")
		chunks = append(chunks, RecordRange{Off: off, Len: n})
	}
	return mc.File, frames, chunks, nil
}

// DecodeChunkRecord decodes one chunk from its file-level record bytes (as
// delimited by ChunkFileRange): the codec record with a codec — compressed
// or stored raw — the raw record otherwise.
func (r *Reader) DecodeChunkRecord(name string, ci int, rec []byte) (*Chunk, error) {
	mc, lay, err := r.layoutOf(name)
	if err != nil {
		return nil, err
	}
	return r.decodeChunkRecord(mc, lay, ci, rec, nil)
}

// decodeChunkRecord is DecodeChunkRecord decompressing into bufs.
func (r *Reader) decodeChunkRecord(mc manifestCol, lay *columnLayout, ci int, rec []byte, bufs *loadBufs) (*Chunk, error) {
	off, _, entry, err := r.chunkRange(mc, lay, ci)
	if err != nil {
		return nil, err
	}
	if err := r.verifyRecord(mc.File, off, rec, entry.crc); err != nil {
		return nil, err
	}
	raw, err := r.rawRecord(rec, entry.len, bufs)
	var ch *Chunk
	if err == nil {
		ch, err = decodeChunk(&byteReader{buf: raw})
	}
	if err != nil {
		return nil, fmt.Errorf("colstore: column %q chunk %d: %w", mc.Name, ci, err)
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

// loadColumn decodes one whole column, as the eager Open does: its layout,
// its dictionary (readDict) and every chunk, the chunks read in one run.
// It verifies the CRC of an older build's Bloom record too, which nothing
// reads: every record of the column is checked.
func (r *Reader) loadColumn(mc manifestCol, bufs *loadBufs) (*Column, error) {
	kind, err := value.ParseKind(mc.Kind)
	if err != nil {
		return nil, err
	}
	lay, _, err := r.layout(mc)
	if err != nil {
		return nil, err
	}
	if mc.Bloom != nil {
		if _, err := r.readIndexRecord(mc, *mc.Bloom); err != nil {
			return nil, err
		}
	}
	d, _, err := r.readDict(mc, lay, kind, bufs)
	if err != nil {
		return nil, err
	}
	col := &Column{Name: mc.Name, Kind: kind, Dict: d, Virtual: mc.Virtual, Chunks: make([]*Chunk, lay.numChunks())}
	all := make([]int, lay.numChunks())
	for ci := range all {
		all[ci] = ci
	}
	recs, _, _, err := r.readChunkRuns(mc, lay, all, bufs)
	if err != nil {
		return nil, err
	}
	for ci, rec := range recs {
		if col.Chunks[ci], err = r.decodeChunkRecord(mc, lay, ci, rec, bufs); err != nil {
			return nil, err
		}
	}
	return col, nil
}

// frameEnd refuses a frame with bytes left after its last value.
func frameEnd(r *byteReader) error {
	if r.off != len(r.buf) {
		return fmt.Errorf("colstore: dictionary frame has %d bytes after its values", len(r.buf)-r.off)
	}
	return nil
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

// dictBuilder decodes a dictionary frame by frame into the one form it is
// held in: a string array's block and offsets — two allocations however
// many values it holds — or a slice of numbers.
type dictBuilder struct {
	kind   value.Kind
	block  strings.Builder
	off    []uint32
	ints   []int64
	floats []float64
}

// newDictBuilder sizes a builder for n values held in rawLen raw bytes of
// frames. n is bounded by rawLen — every value takes a byte at least —
// before anything is allocated, and a string block by the bytes rawLen
// leaves after one length byte per value, the most the values can take.
func newDictBuilder(kind value.Kind, n uint64, rawLen int) (*dictBuilder, error) {
	if n > uint64(rawLen) {
		return nil, errTruncated
	}
	b := &dictBuilder{kind: kind}
	switch kind {
	case value.KindString:
		b.block.Grow(rawLen - int(n))
		b.off = make([]uint32, 1, n+1)
	case value.KindInt64:
		b.ints = make([]int64, 0, n)
	case value.KindFloat64:
		b.floats = make([]float64, 0, n)
	default:
		return nil, fmt.Errorf("invalid kind %v", kind)
	}
	return b, nil
}

// readFrame reads a whole frame of n values from raw.
func (b *dictBuilder) readFrame(raw []byte, n uint64) error {
	r := &byteReader{buf: raw}
	if err := b.frame(r, n); err != nil {
		return err
	}
	return frameEnd(r)
}

// frame reads the next frame's n values from r, refusing a value that
// runs past r and, for numbers, what walkNumbers refuses.
func (b *dictBuilder) frame(r *byteReader, n uint64) (err error) {
	switch b.kind {
	case value.KindString:
		return eachString(r, n, func(_ int, s []byte) error {
			b.block.Write(s)
			b.off = append(b.off, uint32(b.block.Len()))
			return nil
		})
	case value.KindInt64:
		b.ints, err = walkNumbers(r, n, b.ints)
	default:
		b.floats, err = walkNumbers(r, n, b.floats)
	}
	return err
}

// dict builds the dictionary of the values read: a string array, or a
// trie built on one, by sd; a numeric dictionary.
// The constructors refuse values that do not ascend strictly, across
// frames as within them. A block with more than a little room left over
// (values of 128 bytes and more, or a builder sized by a whole column
// stream) is trimmed to what it holds.
func (b *dictBuilder) dict(sd StringDictKind) (dict.Dict, error) {
	switch b.kind {
	case value.KindInt64:
		return dict.Int64sOf(b.ints)
	case value.KindFloat64:
		return dict.Float64sOf(b.floats)
	}
	block := b.block.String()
	if b.block.Cap()-b.block.Len() > b.block.Len()/8+64 {
		block = strings.Clone(block)
	}
	arr, err := dict.StringArrayOf(block, b.off)
	if err != nil {
		return nil, err
	}
	if sd != StringDictTrie {
		return arr, nil
	}
	strs := make([]string, arr.Len())
	for i := range strs {
		strs[i] = arr.StringAt(uint32(i))
	}
	return dict.TrieOf(strs)
}
