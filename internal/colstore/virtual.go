package colstore

// Sidecar persistence for materialized virtual columns (paper Section 5
// "virtual fields"). Expressions the engine materializes at query time used
// to live only in the store's in-memory registry: always resident, never
// evictable, invisible to the byte budget. On a lazy store they are
// instead written into a `virtual/` sidecar directory next to the store —
// one column file per materialization plus a sidecar manifest — using the
// exact framing of the store's own columns (same codec, per-chunk value
// spans, byte ranges and checksums). From then on
// a virtual column is indistinguishable from a physical one to the memory
// subsystem: loaded on demand, pinned per query, evicted under budget
// pressure, reloaded from disk, and pruned by restriction spans.
//
// Reopening the store re-reads the sidecar, so a drill-down session's
// materializations survive process restarts: the next session pays a cold
// load, not a re-materialization scan.
//
// Concurrency: one store serializes persists on lazySource.persistMu (the
// engine's plan lock already serializes materialization per engine; a
// materialization race between engines sharing one Store is resolved by
// adopting the winner's column). Two *processes* (or two Stores opened
// separately on the same directory) coordinate through the sidecar's
// generation chain: column files are claimed exclusively (O_EXCL, never
// overwritten), and the manifest is committed by claiming the next
// "manifest.gen-NNNNNN.json" exclusively after merging the newest one on
// disk (GenChain, genfile.go). A writer that loses the claim race re-reads,
// re-merges and retries, so concurrent writers *lose nothing* — every
// committed column survives. Readers take the highest clean generation; a
// crashed writer's torn file is skipped and the previous generation stays
// authoritative. Files orphaned by lost
// column-file races or superseded generations are reclaimed by
// GCVirtualSidecar (the ingest compactor calls it).

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"

	"powerdrill/internal/compress"
	"powerdrill/internal/dict"
	"powerdrill/internal/value"
)

const (
	// virtualSubdir is the sidecar directory inside a persisted store.
	virtualSubdir = "virtual"
	// virtualGenPrefix/virtualGenSuffix frame the generation-chain
	// manifests: virtualGenPrefix + NNNNNN + virtualGenSuffix.
	virtualGenPrefix = "manifest.gen-"
	virtualGenSuffix = ".json"
)

// virtualSidecar is the JSON header of the virtual/ sidecar. Format and
// Codec record the framing its column files were written in — this
// build's generation and the parent store's codec, so every Reader code
// path applies to them unchanged.
type virtualSidecar struct {
	Format  int           `json:"format,omitempty"`
	Codec   string        `json:"codec,omitempty"`
	Columns []manifestCol `json:"columns"`
	// Gen and Check are the generation-chain fields (GenChain.Fields).
	Gen   int    `json:"gen,omitempty"`
	Check uint32 `json:"check,omitempty"`
}

// sidecarChain is the generation chain of dir's virtual sidecar.
func sidecarChain(dir string) GenChain[virtualSidecar] {
	return GenChain[virtualSidecar]{
		Dir: filepath.Join(dir, virtualSubdir), Prefix: virtualGenPrefix, Suffix: virtualGenSuffix,
		Fields: func(vs *virtualSidecar) (*int, *uint32) { return &vs.Gen, &vs.Check },
	}
}

// walkSidecar lists dir's sidecar chain. A missing sidecar is not an error
// (an empty walk), and neither is an unreadable sidecar *path* (e.g. a
// stray file where the directory should be — persisting into it will fail
// and fall back, but the store itself must open).
func walkSidecar(dir string) (GenWalk[virtualSidecar], error) {
	walk, err := sidecarChain(dir).Walk()
	if errors.Is(err, os.ErrNotExist) || errors.Is(err, syscall.ENOTDIR) {
		return walk, nil
	}
	if err != nil {
		return walk, fmt.Errorf("colstore: open virtual sidecar: %w", err)
	}
	return walk, nil
}

// matches reports whether the sidecar's column files use the framing of
// the store they sit next to. One that does not — written by an older
// build, or orphaned by an in-place re-save with another codec — is a stale
// cache: its columns are ignored and re-materialize on demand.
func (vs *virtualSidecar) matches(m *manifest) bool {
	return vs.Format == formatVersion && vs.Codec == m.Codec
}

// persistVirtualLocked writes one freshly built virtual column into the
// store's virtual/ sidecar: the column file in the parent store's framing,
// then a new generation of the sidecar manifest (read-merge-claim; see the
// file comment). The caller holds lazySource.persistMu.
func (s *Store) persistVirtualLocked(col *Column) (manifestCol, error) {
	src := s.lazy
	r := src.reader
	var codec compress.Codec
	if r.m.Codec != "" {
		codec = mustCodec(r.m.Codec)
	}
	raw, mc := encodeColumn(col, codec)
	mc.Virtual = true
	if err := vfs().MkdirAll(filepath.Join(r.dir, virtualSubdir), 0o755); err != nil {
		return mc, fmt.Errorf("colstore: persist virtual column %q: %w", col.Name, err)
	}
	// Claim a column file exclusively (O_EXCL): another Store or process
	// persisting into the same directory can never overwrite bytes a live
	// Reader has already recorded ranges for — the race costs at worst a
	// lost manifest entry, never corrupt data.
	src.mu.RLock()
	seq := len(src.sidecar)
	src.mu.RUnlock()
	for {
		mc.File = filepath.Join(virtualSubdir, fmt.Sprintf("vcol_%04d.bin", seq))
		f, err := vfs().OpenFile(filepath.Join(r.dir, mc.File), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if os.IsExist(err) {
			seq++
			continue
		}
		if err != nil {
			return mc, fmt.Errorf("colstore: persist virtual column %q: %w", col.Name, err)
		}
		_, werr := f.Write(raw)
		cerr := f.Close()
		if werr == nil {
			werr = cerr
		}
		if werr != nil {
			return mc, fmt.Errorf("colstore: persist virtual column %q: %w", col.Name, werr)
		}
		break
	}
	// Commit through the generation chain: re-read the newest manifest on
	// disk (it may carry columns other processes persisted since this
	// store last looked), merge this column in, and claim the next
	// generation number. Losing the claim means another writer committed
	// concurrently — re-read and retry, so every committed column
	// survives. If the merged manifest already names this column (the same
	// expression materialized by another process), the on-disk entry wins:
	// the data is identical by construction (deterministic materialization
	// over immutable rows), our file is merely orphaned for GC, and the
	// caller still registers the in-memory copy it just built.
	chain := sidecarChain(r.dir)
	var cols []manifestCol
	for {
		walk, err := walkSidecar(r.dir)
		if err != nil {
			return mc, fmt.Errorf("colstore: persist virtual column %q: %w", col.Name, err)
		}
		gen := 0
		cols = cols[:0]
		if cur := walk.Newest; cur != nil {
			gen = cur.Gen
			if cur.matches(r.m) {
				cols = append(cols, cur.Columns...)
			}
			// A stale-framing sidecar contributes no columns but keeps the
			// chain moving.
		}
		dup := false
		for _, existing := range cols {
			if existing.Name == mc.Name {
				dup = true
				break
			}
		}
		if !dup {
			cols = append(cols, mc)
		}
		err = chain.Commit(gen+1, &virtualSidecar{Format: formatVersion, Codec: r.m.Codec, Columns: cols})
		if errors.Is(err, fs.ErrExist) {
			continue
		}
		if err != nil {
			return mc, fmt.Errorf("colstore: persist virtual column %q: %w", col.Name, err)
		}
		break
	}
	src.mu.Lock()
	src.sidecar = cols
	src.mu.Unlock()
	return mc, nil
}

// GCVirtualSidecar removes sidecar files nothing references anymore:
// column files orphaned by lost persist races or by in-place re-saves,
// generation manifests superseded by a newer one, and stale temp files.
// Files referenced by the newest generation manifest are kept.
// Best-effort by design: individual removal errors are ignored, and a
// *cross-process* materializer racing the GC can lose a column file it has
// written but not yet committed — costing that process one
// re-materialization, never corruption. The ingest compactor calls this to
// reap dead one-off virtual columns; returns files removed and bytes
// reclaimed. A no-op on fully resident stores.
func (s *Store) GCVirtualSidecar() (files int, bytes int64) {
	if s.lazy == nil {
		return 0, 0
	}
	src := s.lazy
	src.persistMu.Lock()
	defer src.persistMu.Unlock()
	walk, err := walkSidecar(src.reader.dir)
	if err != nil {
		return 0, 0
	}
	vdir := filepath.Join(src.reader.dir, virtualSubdir)
	remove := func(name string, size int64) {
		if vfs().Remove(filepath.Join(vdir, name)) == nil {
			files++
			bytes += size
		}
	}
	for _, f := range walk.Files {
		// Generations older than the newest clean one are superseded. A
		// higher-numbered file is either a concurrent writer's fresh commit
		// (clean, kept) or a crashed writer's torn claim — garbage, swept
		// so it cannot linger.
		if f.Seq < walk.Seq || (f.Seq > walk.Seq && f.Err != nil) {
			remove(f.Name, f.Bytes)
		}
	}
	keep := make(map[string]bool, 8)
	if walk.Newest != nil {
		for _, mc := range walk.Newest.Columns {
			keep[filepath.Base(mc.File)] = true
		}
	}
	for _, ent := range walk.Other {
		if ent.IsDir() || keep[ent.Name()] {
			continue
		}
		var size int64
		if info, err := ent.Info(); err == nil {
			size = info.Size()
		}
		remove(ent.Name(), size)
	}
	return files, bytes
}

// registerSidecarColumn publishes a sidecar column's metadata so the store
// serves it exactly like a physical column: lazy-load metadata in the
// registry, and the manifest entry in the Reader for cold loads of its
// layout, frames and chunks. Used both when a materialization is persisted
// and when OpenLazy finds an existing sidecar.
func (s *Store) registerSidecarColumn(mc manifestCol) error {
	kind, err := value.ParseKind(mc.Kind)
	if err != nil {
		return fmt.Errorf("colstore: virtual column %q: %w", mc.Name, err)
	}
	src := s.lazy
	s.mu.Lock()
	if _, dup := s.metas[mc.Name]; dup {
		s.mu.Unlock()
		return fmt.Errorf("colstore: duplicate column %q", mc.Name)
	}
	if _, dup := s.columns[mc.Name]; dup {
		s.mu.Unlock()
		return fmt.Errorf("colstore: duplicate column %q", mc.Name)
	}
	s.metas[mc.Name] = ColumnMeta{Name: mc.Name, Kind: kind, Virtual: true}
	s.order = append(s.order, mc.Name)
	s.mu.Unlock()
	src.reader.registerVirtual(mc)
	return nil
}

// loadSidecar reads and registers dir's virtual sidecar during OpenLazy.
// The sidecar is best-effort by contract ("lose a column, never corrupt
// one"), so staleness never fails the open: a framing mismatch (see
// virtualSidecar.matches) ignores the sidecar entirely, and an entry that
// no longer registers — a column an in-place Save promoted into the main
// manifest, or one whose layout record does not load or no longer fits
// the store's chunks — is skipped and dropped from the kept list,
// re-materializing (or serving from the main manifest) instead.
func (s *Store) loadSidecar(dir string) error {
	src := s.lazy
	walk, err := walkSidecar(dir)
	vm := walk.Newest
	if err != nil || vm == nil || !vm.matches(src.reader.m) {
		return err
	}
	kept := make([]manifestCol, 0, len(vm.Columns))
	for _, mc := range vm.Columns {
		if _, _, err := src.reader.layout(mc); err != nil {
			continue
		}
		if err := s.registerSidecarColumn(mc); err != nil {
			continue
		}
		kept = append(kept, mc)
	}
	src.mu.Lock()
	src.sidecar = kept
	src.mu.Unlock()
	return nil
}

// adoptVirtual registers a freshly materialized, already persisted virtual
// column's pieces as pinned entries of the memory manager: no cold-load
// counters and no disk charge (the data was just built in memory), but the
// bytes go through the byte budget like any load — cold unpinned entries
// are evicted to make room. The returned column is the resident view:
// data-identical to col, possibly shared with a concurrent materializer
// that raced through another store on the same directory. The pins drop
// with the set's Release, after which the entries are evictable and reload
// from the sidecar.
func (p *PinSet) adoptVirtual(col *Column) (*Column, error) {
	name := col.Name
	if h, ok := p.held[name]; ok {
		return h.view, nil
	}
	src := p.s.lazy
	keys := src.keysOf(ColumnMeta{Name: name, Kind: col.Kind, Virtual: true}, p.s.NumChunks())
	h := &heldPin{view: col, chunks: make([]bool, p.s.NumChunks()), keys: keys}
	if err := p.pinLayout(h); err != nil {
		return nil, err
	}
	// Each frame is cut from the built dictionary as the sidecar's file
	// holds it, and decoded as its load would decode it.
	built, d, i := col.Dict, p.pagedDictOf(h), 0
	var err error
	dictFrames(built, col.Kind, func(raw []byte, count int) {
		if err != nil {
			return
		}
		var f dict.Dict
		if f, err = decodeFrame(raw, col.Kind, uint64(count), src.reader.sd); err == nil {
			key := keys.frameKeys(len(d.frames))[i]
			p.holdFrame(d, i, key, src.mgr.Insert(key, &loadedDict{d: f, size: f.MemoryBytes()}, f.MemoryBytes(), true).(*loadedDict))
		}
		i++
	})
	if err != nil {
		return nil, err
	}
	for ci, ch := range col.Chunks {
		key := keys.chunks[ci]
		size := ch.MemoryElements() + ch.MemoryChunkDict()
		ch.derived.mgr, ch.derived.key = src.mgr, key
		lc := src.mgr.Insert(key, &loadedChunk{ch: ch, size: size}, size, true).(*loadedChunk)
		col.Chunks[ci] = lc.ch
		h.chunks[ci] = true
		p.keys = append(p.keys, key)
	}
	if p.held == nil {
		p.held = make(map[string]*heldPin, 8)
	}
	p.held[name] = h
	return col, nil
}
