package colstore

import (
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"

	"powerdrill/internal/dict"
	"powerdrill/internal/memmgr"
	"powerdrill/internal/value"
)

// This file implements the Section 5 "only a fraction of the data needs to
// reside in RAM" machinery: a lazily loaded Store whose data is
// materialized on first touch through a memmgr.Manager, from a Reader
// (reader.go) that decodes a single dictionary or a single chunk from the
// persisted format, and the PinSet (pinset.go) queries use to keep exactly
// the pieces they are scanning resident while cold data gets evicted
// around them.
//
// The unit of residency is the (column, chunk) pair plus, per column, one
// entry for its layout record and one per frame of its global dictionary
// (paged.go). A restricted query that scans k of n chunks pins the layouts
// of its columns, the dictionary frames its literals, aggregated values
// and rendered values lie in, and the k active chunks of each column,
// nothing else.

// ColumnMeta describes a persisted column without loading its data.
type ColumnMeta struct {
	Name    string
	Kind    value.Kind
	Virtual bool
}

// ChunkSpan is the residency metadata of one chunk of one column: the
// bounds of the global-ids occurring in it. Because global dictionaries are
// sorted, the span bounds the chunk's values, which lets the engine decide
// from the column's layout alone whether a restriction can match the chunk
// — before loading any chunk data. MinGID > MaxGID marks an empty chunk.
type ChunkSpan struct {
	MinGID uint32
	MaxGID uint32
}

// Empty reports whether the chunk holds no values.
func (sp ChunkSpan) Empty() bool { return sp.MinGID > sp.MaxGID }

// spanOf summarizes a built chunk.
func spanOf(ch *Chunk) ChunkSpan {
	if len(ch.GlobalIDs) == 0 {
		return ChunkSpan{MinGID: 1, MaxGID: 0}
	}
	return ChunkSpan{MinGID: ch.GlobalIDs[0], MaxGID: ch.GlobalIDs[len(ch.GlobalIDs)-1]}
}

// lazySource wires a Store to its on-disk provider and memory manager.
type lazySource struct {
	reader *Reader
	mgr    *memmgr.Manager
	// ns namespaces this store's keys inside the (possibly shared) manager.
	// Replicas opened from the same directory share entries by design: the
	// data is immutable and identical.
	ns string
	// mu guards sidecar, extended at query time when a virtual column is
	// persisted, and keys.
	mu sync.RWMutex
	// sidecar mirrors the virtual/ sidecar manifest's column list.
	sidecar []manifestCol
	// keys holds each pinned column's residency keys.
	keys map[string]*colKeys

	// persistMu serializes sidecar writes for this store.
	persistMu sync.Mutex
	// noPersist disables sidecar persistence (DisableVirtualPersist).
	noPersist atomic.Bool
}

// colKeys name one column's residency units inside the manager: one entry
// for its layout record, one per dictionary frame, one per chunk.
// They are built on the column's first pin in the store (the frames' on
// the first pin of one of them) and shared by every later one, so a warm
// pin builds no string.
type colKeys struct {
	virtual       bool
	prefix, index string
	chunks        []string
	framesOnce    sync.Once
	frames        []string
}

// frameKeys returns the keys of the column's n dictionary frames.
func (k *colKeys) frameKeys(n int) []string {
	k.framesOnce.Do(func() {
		k.frames = make([]string, n)
		for i := range k.frames {
			k.frames[i] = k.prefix + "f" + strconv.Itoa(i)
		}
	})
	return k.frames
}

// keysOf returns the column's residency keys, building them on first use.
func (l *lazySource) keysOf(meta ColumnMeta, chunks int) *colKeys {
	l.mu.RLock()
	k := l.keys[meta.Name]
	l.mu.RUnlock()
	if k != nil {
		return k
	}
	prefix := l.ns + "\x00" + meta.Name + "#"
	k = &colKeys{virtual: meta.Virtual, prefix: prefix, index: prefix + "index", chunks: make([]string, chunks)}
	for ci := range k.chunks {
		k.chunks[ci] = prefix + strconv.Itoa(ci)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if got := l.keys[meta.Name]; got != nil {
		return got
	}
	l.keys[meta.Name] = k
	return k
}

// OpenLazy opens a persisted store without loading any column data or
// index: only the manifest (and the virtual sidecar's manifest, and the
// layout records of its columns, if one exists) is read. Data materializes
// on first touch through mgr (which enforces the byte budget and evicts
// cold entries); virtual columns the engine materializes later are
// persisted into the sidecar and budgeted the same way
// (AddVirtualColumnPinned). mgr may be shared across stores (e.g. all
// shards of a leaf process share one budget).
//
// Residency is chunk-granular: the manager tracks one entry per
// dictionary frame, one per layout record and one per (column, chunk)
// pair, so a restricted query pins only the frames and chunks it reads. A
// store of an older
// format generation is refused with an *OldFormatError (errors.Is
// ErrOldFormat); Upgrade converts it.
func OpenLazy(dir string, mgr *memmgr.Manager) (*Store, *DiskStats, error) {
	if mgr == nil {
		mgr = memmgr.New(0, "")
	}
	r, manifestBytes, err := NewReader(dir)
	if err != nil {
		return nil, nil, err
	}
	stats := &DiskStats{BytesRead: manifestBytes, Files: 1}
	s := storeShell(r.m)
	ns := filepath.Clean(dir)
	if abs, err := filepath.Abs(ns); err == nil {
		ns = abs
	}
	src := &lazySource{
		reader: r,
		mgr:    mgr,
		ns:     ns,
		keys:   make(map[string]*colKeys),
	}
	s.lazy = src
	s.metas = make(map[string]ColumnMeta, len(r.m.Columns))
	for _, meta := range r.Columns() {
		if meta.Kind == value.KindInvalid {
			return nil, nil, fmt.Errorf("colstore: column %q has invalid kind", meta.Name)
		}
		s.metas[meta.Name] = meta
		s.order = append(s.order, meta.Name)
	}
	// Virtual columns persisted by earlier sessions: register them so this
	// session serves them as ordinary budgeted columns instead of
	// re-materializing the expressions.
	if err := s.loadSidecar(dir); err != nil {
		return nil, nil, err
	}
	return s, stats, nil
}

// DisableVirtualPersist turns off sidecar persistence for this store:
// virtual columns materialized from then on live in the in-memory registry
// (unevictable, outside the budget), as they did before sidecar support.
// A no-op on fully resident stores.
func (s *Store) DisableVirtualPersist() {
	if s.lazy != nil {
		s.lazy.noPersist.Store(true)
	}
}

// MemManager returns the manager enforcing the store's byte budget, or nil
// for fully resident stores.
func (s *Store) MemManager() *memmgr.Manager {
	if s.lazy == nil {
		return nil
	}
	return s.lazy.mgr
}

// Codec returns the compression codec the persisted store was saved with
// ("" for uncompressed stores and for fully resident ones). The ingest
// path uses it to seal write chunks with the same framing as the base
// store's columns.
func (s *Store) Codec() string {
	if s.lazy == nil {
		return ""
	}
	return s.lazy.reader.m.Codec
}

// CacheNamespace returns the prefix that namespaces this lazy store's
// entries inside its (possibly shared) memory manager, or "" for fully
// resident stores. Retiring a superseded store generation drops all its
// residency at once via memmgr.DropNamespace with this prefix.
func (s *Store) CacheNamespace() string {
	if s.lazy == nil {
		return ""
	}
	return s.lazy.ns
}

// IOStats reports the lazy store's physical I/O counters (file opens, read
// calls, decompression time); ok is false for fully resident stores.
func (s *Store) IOStats() (IOStats, bool) {
	if s.lazy == nil {
		return IOStats{}, false
	}
	return s.lazy.reader.IOStats(), true
}

// Close releases the resources a lazy store holds outside the memory
// budget: its cached column-file handles. The store stays usable (files
// re-open on demand); a no-op for fully resident stores.
func (s *Store) Close() error {
	if s.lazy == nil {
		return nil
	}
	return s.lazy.reader.Close()
}

// acquire pins key through the manager; virtual-column entries are tagged
// so their resident bytes show up in Stats.VirtualBytes.
func (s *Store) acquire(k *colKeys, key string, load memmgr.LoadFunc) (any, bool, error) {
	if k.virtual {
		return s.lazy.mgr.AcquireVirtual(key, load)
	}
	return s.lazy.mgr.Acquire(key, load)
}

// acquireLayout pins a column's layout; on a cold miss its layout record
// is read, verified and decoded on this goroutine.
func (s *Store) acquireLayout(k *colKeys, mc manifestCol) (*columnLayout, error) {
	v, _, err := s.acquire(k, k.index, func() (any, int64, int64, error) {
		lay, disk, err := s.lazy.reader.layout(mc)
		if err != nil {
			return nil, 0, 0, err
		}
		return lay, lay.memoryBytes(), disk, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*columnLayout), nil
}

// decodeChunk decodes chunk ci of a pinned column from its file record,
// decompressing into bufs, and checks its rows against the store's. Safe
// to run on several goroutines at once, each with its own bufs.
func (s *Store) decodeChunk(h *heldPin, ci int, rec []byte, bufs *loadBufs) (*Chunk, error) {
	c, err := s.lazy.reader.decodeChunkRecord(h.mc, h.layout, ci, rec, bufs)
	if err != nil {
		return nil, err
	}
	if want := s.ChunkRows(ci); c.Rows() != want {
		return nil, fmt.Errorf("colstore: column %q chunk %d has %d rows, want %d", h.mc.Name, ci, c.Rows(), want)
	}
	return c, nil
}

// acquireChunk pins one chunk of a column. ch is the chunk already decoded
// (decodeChunk) from a record of disk bytes; it is admitted only if this
// call performs the load — when the chunk is resident, or another query's
// load of it finishes first, the resident chunk is shared and ch dropped.
func (s *Store) acquireChunk(k *colKeys, ci int, ch *Chunk, disk int64) (resident *Chunk, cold bool, size, diskBytes int64, err error) {
	v, cold, err := s.acquire(k, k.chunks[ci], func() (any, int64, int64, error) {
		ch.derived.mgr, ch.derived.key = s.lazy.mgr, k.chunks[ci]
		size := ch.MemoryElements() + ch.MemoryChunkDict()
		return &loadedChunk{ch: ch, size: size, diskBytes: disk}, size, disk, nil
	})
	if err != nil {
		return nil, false, 0, 0, err
	}
	lc := v.(*loadedChunk)
	return lc.ch, cold, lc.size, lc.diskBytes, nil
}

// loadedDict (a dictionary frame) and loadedChunk are residency units the
// manager holds; a layout is held as its *columnLayout.
type loadedDict struct {
	d         dict.Dict
	size      int64
	diskBytes int64
}

type loadedChunk struct {
	ch        *Chunk
	size      int64
	diskBytes int64
}
