package powerdrill

import (
	"errors"

	"powerdrill/internal/ingest"
)

// IngestStats is a point-in-time snapshot of a store's append path:
// committed generation, live segments, buffered rows and cumulative
// seal/compaction counters.
type IngestStats = ingest.Stats

// CompactStats reports what one compaction did.
type CompactStats = ingest.CompactStats

// Append buffers a batch of rows into the store's streaming ingestion
// path. The batch must carry exactly the store's physical columns (same
// names and kinds). Rows become visible to queries immediately —
// snapshot-isolated, see Query — and durable when the write buffer seals
// into an on-disk segment: automatically every Options.IngestSealRows
// rows, or on Flush and Close.
//
// Appending requires a store opened from disk (Open); one process at a
// time may append to a directory. Concurrent Appends, Queries and
// background compactions are safe.
func (s *Store) Append(tbl *Table) error {
	w, err := s.ensureWriter()
	if err != nil {
		return err
	}
	return w.Append(tbl)
}

// Flush seals any buffered rows into a committed on-disk segment, making
// every previously appended row durable. A no-op when nothing is
// buffered or nothing was ever appended.
func (s *Store) Flush() error {
	if w := s.writer(); w != nil {
		return w.Flush()
	}
	return nil
}

// CompactNow synchronously merges all live ingest segments into one,
// re-sorting and re-partitioning the union through the import pipeline
// and garbage-collecting dead virtual-column sidecar files. Queries in
// flight keep their pinned generation; superseded segments are destroyed
// when the last such query finishes. The background compactor does the
// same automatically past Options.IngestCompactMinSegments.
func (s *Store) CompactNow() (CompactStats, error) {
	w, err := s.ensureWriter()
	if err != nil {
		return CompactStats{}, err
	}
	return w.CompactNow()
}

// IngestStats reports the append path's state; ok is false when the
// store has no append path (never appended to and nothing attached).
func (s *Store) IngestStats() (IngestStats, bool) {
	if w := s.writer(); w != nil {
		return w.Stats(), true
	}
	return IngestStats{}, false
}

// writer returns the attached ingest writer, or nil.
func (s *Store) writer() *ingest.Writer {
	s.ingMu.Lock()
	defer s.ingMu.Unlock()
	return s.ing
}

// ensureWriter attaches the ingest writer on first use. Open already
// attaches when the directory carries generations; this covers the first
// Append to a store that never had any.
func (s *Store) ensureWriter() (*ingest.Writer, error) {
	s.ingMu.Lock()
	defer s.ingMu.Unlock()
	if s.closed {
		return nil, errors.New("powerdrill: store is closed")
	}
	if s.ing != nil {
		return s.ing, nil
	}
	if s.dir == "" {
		return nil, errors.New("powerdrill: appending requires a store opened from disk (use Open)")
	}
	w, err := ingest.Attach(s.dir, s.store, s.engine, ingest.Opts{
		SealRows:           s.opts.IngestSealRows,
		CompactMinSegments: s.opts.IngestCompactMinSegments,
		FsyncPolicy:        s.opts.IngestFsyncPolicy,
		EngineOpts:         s.opts.engineOptions(),
	})
	if err != nil {
		return nil, err
	}
	s.ing = w
	return w, nil
}
