package ingest

import (
	"fmt"
	"path/filepath"

	"powerdrill/internal/colstore"
	"powerdrill/internal/table"
	"powerdrill/internal/value"
)

// CompactStats reports what one compaction did.
type CompactStats struct {
	// Merged is the number of segments folded into one (0 when there was
	// nothing to do).
	Merged int
	// MergedRows is the row count of the merged segment.
	MergedRows int
	// Retired counts superseded segments destroyed immediately; segments
	// still pinned by snapshots are destroyed by the last Release.
	Retired int
}

// CompactNow merges every live segment into one: read the segments back
// out, re-import through the base store's pipeline (re-sorting and
// re-partitioning the union, rebuilding dictionaries and chunk spans),
// save under a fresh segment number, and commit a generation whose
// segment list is just the merged segment. Superseded segments are
// retired — destroyed now if unpinned, at their last snapshot Release
// otherwise — so reads in flight keep their generation bit-for-bit while
// the directory shrinks underneath them. Dead virtual-column sidecar
// files of the base store are garbage-collected on the way out.
//
// A no-op (zero CompactStats) when fewer than two segments are live.
func (w *Writer) CompactNow() (CompactStats, error) {
	w.sealMu.Lock()
	defer w.sealMu.Unlock()

	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return CompactStats{}, fmt.Errorf("ingest: writer is closed")
	}
	old := append([]*segment(nil), w.segs...)
	gen, seq := w.gen, w.nextSeg
	// Compaction commits no chunk, so the WAL state just carries forward:
	// floor from the still-uncommitted buffers, done from lingering files.
	walFloor, walDone := w.walStateLocked(nil)
	w.mu.Unlock()
	if len(old) < 2 {
		return CompactStats{}, nil
	}

	tbl, err := w.readout(old)
	if err != nil {
		return CompactStats{}, err
	}
	cs, err := colstore.FromTable(tbl, w.base.Opts)
	if err != nil {
		return CompactStats{}, err
	}
	gs := genSegment{Dir: segRel(seq), Rows: tbl.NumRows()}
	dir := filepath.Join(w.dir, gs.Dir)
	if err := colstore.Save(cs, dir, w.base.Codec()); err != nil {
		return CompactStats{}, err
	}
	m := &genManifest{Gen: gen + 1, NextSeg: seq + 1, Segments: []genSegment{gs}, WalFloor: walFloor, WalDone: walDone}
	if err := commitGeneration(w.dir, m); err != nil {
		return CompactStats{}, err
	}
	merged, err := w.openSegment(gs)
	if err != nil {
		return CompactStats{}, err
	}

	var destroy []*segment
	w.mu.Lock()
	w.gen = gen + 1
	w.nextSeg = seq + 1
	// Seals cannot have interleaved (sealMu is held), so w.segs is still
	// exactly old plus nothing: replace it wholesale.
	w.segs = []*segment{merged}
	for _, s := range old {
		s.retired = true
		if s.refs == 0 {
			destroy = append(destroy, s)
		}
	}
	w.stats.Compactions++
	w.stats.SegmentsCompacted += int64(len(old))
	w.mu.Unlock()

	_ = vfs().Remove(filepath.Join(w.dir, genName(gen)))
	for _, s := range destroy {
		w.destroySegment(s)
	}
	w.base.GCVirtualSidecar()
	return CompactStats{Merged: len(old), MergedRows: gs.Rows, Retired: len(destroy)}, nil
}

// readout decodes the physical columns of the given segments back into
// one raw table, in segment order — the input for the merged re-import.
func (w *Writer) readout(segs []*segment) (*table.Table, error) {
	total := 0
	for _, s := range segs {
		total += s.rows
	}
	tbl := table.New("compact")
	for _, m := range w.schema {
		var strs []string
		var ints []int64
		var flts []float64
		switch m.Kind {
		case value.KindString:
			strs = make([]string, 0, total)
		case value.KindInt64:
			ints = make([]int64, 0, total)
		default:
			flts = make([]float64, 0, total)
		}
		for _, s := range segs {
			err := func() error {
				ps := s.store.NewPinSet()
				defer ps.Release()
				col, err := ps.Column(m.Name)
				if err != nil {
					return fmt.Errorf("ingest: compact read %s/%s: %w", s.rel, m.Name, err)
				}
				for ci := 0; ci < s.store.NumChunks(); ci++ {
					for r := 0; r < s.store.ChunkRows(ci); r++ {
						v := col.ValueAt(ci, r)
						switch m.Kind {
						case value.KindString:
							strs = append(strs, v.Str())
						case value.KindInt64:
							ints = append(ints, v.Int())
						default:
							flts = append(flts, v.Float())
						}
					}
				}
				return ps.Err()
			}()
			if err != nil {
				return nil, err
			}
		}
		switch m.Kind {
		case value.KindString:
			tbl.AddStringColumn(m.Name, strs)
		case value.KindInt64:
			tbl.AddInt64Column(m.Name, ints)
		default:
			tbl.AddFloat64Column(m.Name, flts)
		}
	}
	return tbl, nil
}

// destroySegment removes a retired segment from disk and from the memory
// budget. Called without mu; the segment is unreachable (off w.segs, no
// snapshot pins).
func (w *Writer) destroySegment(s *segment) {
	_ = s.store.Close()
	if mgr := w.base.MemManager(); mgr != nil {
		if ns := s.store.CacheNamespace(); ns != "" {
			mgr.DropNamespace(ns + "\x00")
		}
	}
	_ = vfs().RemoveAll(s.dir)
	w.mu.Lock()
	w.stats.SegmentsRetired++
	w.mu.Unlock()
}
