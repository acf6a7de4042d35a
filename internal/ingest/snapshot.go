package ingest

import (
	"context"
	"sync"

	"powerdrill/internal/exec"
	"powerdrill/internal/sql"
)

// Snapshot is one consistent cut of the append stream: the base store,
// the committed segments of one generation (pinned against retirement),
// the sealed-but-uncommitted buffers in full, and a frozen prefix of the
// live write buffer. Every query run against the same snapshot sees
// bit-for-bit the same rows, however many appends, seals or compactions
// land concurrently. Release the snapshot when done; a snapshot is safe
// for concurrent queries.
type Snapshot struct {
	w *Writer
	// units are the queryable parts in a fixed order (base, segments in
	// manifest order, sealed buffers in seal order, frozen live prefix),
	// so merge order — and therefore the result — is deterministic.
	units []unit
	// pinned are the segments whose refs this snapshot holds.
	pinned []*segment
	rows   int64

	mu       sync.Mutex
	released bool
}

// unit is one queryable part of a snapshot.
type unit struct {
	eng  *exec.Engine
	rows int
}

// Snapshot takes a consistent cut. The cut point is chosen in one mu
// critical section — generation segment list, sealed buffers, live-buffer
// row count — which is exactly why seal marks buffers sealed *inside*
// that same lock: everything the cut sees is a prefix of the append
// stream. Freezing the buffer prefix (an in-memory import) happens after
// the lock is dropped.
func (w *Writer) Snapshot() (*Snapshot, error) {
	w.mu.Lock()
	pinned := make([]*segment, len(w.segs))
	for i, s := range w.segs {
		s.refs++
		pinned[i] = s
	}
	sealing := append([]*writeChunk(nil), w.sealing...)
	mem := w.mem
	memRows := mem.curRows()
	w.mu.Unlock()

	snap := &Snapshot{w: w, pinned: pinned}
	fail := func(err error) (*Snapshot, error) {
		snap.Release()
		return nil, err
	}
	if rows := w.base.NumRows(); rows > 0 {
		snap.units = append(snap.units, unit{eng: w.baseEng, rows: rows})
	}
	for _, s := range pinned {
		snap.units = append(snap.units, unit{eng: s.eng, rows: s.rows})
	}
	for _, c := range sealing {
		fv, err := c.freezeAt(c.curRows(), w)
		if err != nil {
			return fail(err)
		}
		if fv != nil {
			snap.units = append(snap.units, unit{eng: fv.eng, rows: fv.rows})
		}
	}
	fv, err := mem.freezeAt(memRows, w)
	if err != nil {
		return fail(err)
	}
	if fv != nil {
		snap.units = append(snap.units, unit{eng: fv.eng, rows: fv.rows})
	}
	if len(snap.units) == 0 {
		// Empty store, nothing appended: query the base so callers still
		// get a well-formed (empty) result.
		snap.units = append(snap.units, unit{eng: w.baseEng})
	}
	for _, u := range snap.units {
		snap.rows += int64(u.rows)
	}
	return snap, nil
}

// NumRows returns the number of rows the snapshot covers.
func (s *Snapshot) NumRows() int64 { return s.rows }

// Run is RunContext under context.Background().
func (s *Snapshot) Run(stmt *sql.SelectStmt) (*exec.Result, error) {
	return s.RunContext(context.Background(), stmt)
}

// RunContext executes a parsed statement against the snapshot. A
// single-unit snapshot (no appends yet, or everything compacted into the
// base) runs the plain engine — full feature compatibility. A multi-unit
// snapshot runs each unit and merges: aggregates through the same partial
// machinery the distributed tree uses (Section 4), row scans by
// concatenating per-unit scans in unit order and applying ORDER BY and
// LIMIT once at the end. Either way an aggregate ends in the one
// exec.FinalizePartial — over the unit's own partial inside
// Engine.RunContext, over the merged one here — so the two shapes cannot
// answer differently (an ORDER BY key that names no output column is
// refused by every unit's plan). COUNT(DISTINCT x) merges as a sketch, so
// exact distinct mode only works single-unit — the same restriction the
// cluster has. ctx reaches every unit's engine.
func (s *Snapshot) RunContext(ctx context.Context, stmt *sql.SelectStmt) (*exec.Result, error) {
	if len(s.units) == 1 {
		res, err := s.units[0].eng.RunContext(ctx, stmt)
		if err != nil {
			return nil, err
		}
		res.Stats.RowsTotal = s.rows
		res.Stats.RowsCovered = s.rows
		return res, nil
	}
	if exec.RowScan(stmt) {
		return s.runRowScan(ctx, stmt)
	}
	merged, err := s.RunPartialContext(ctx, stmt)
	if err != nil {
		return nil, err
	}
	return exec.FinalizePartial(stmt, merged)
}

// RunPartialContext runs an aggregate on every unit and merges the
// per-unit partials in unit order: the mergeable partial a leaf serving
// the snapshot ships up the serving tree. Row scans are refused, as by
// every engine's RunPartialContext.
func (s *Snapshot) RunPartialContext(ctx context.Context, stmt *sql.SelectStmt) (*exec.Partial, error) {
	parts := make([]*exec.Partial, len(s.units))
	for i, u := range s.units {
		var err error
		if parts[i], err = u.eng.RunPartialContext(ctx, stmt); err != nil {
			return nil, err
		}
	}
	return exec.MergeAll(parts)
}

// runRowScan concatenates per-unit projections in unit order and applies
// ORDER BY and LIMIT once more to the assembled result, as at the root of
// the serving tree. Each unit runs the statement whole: a row among the
// first LIMIT of the assembled order is among the first LIMIT of its own
// unit's, ties going to the earlier row in both, so no unit has to hand
// over more than LIMIT rows.
func (s *Snapshot) runRowScan(ctx context.Context, stmt *sql.SelectStmt) (*exec.Result, error) {
	var out *exec.Result
	for _, u := range s.units {
		res, err := u.eng.RunContext(ctx, stmt)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = res
			continue
		}
		out.Rows = append(out.Rows, res.Rows...)
		out.Stats.Add(res.Stats)
	}
	out.Stats.RowsTotal = s.rows
	out.Stats.RowsCovered = s.rows
	out.Coverage = 1
	exec.ApplyOrderLimit(stmt, out)
	return out, nil
}

// Release drops the snapshot's segment pins. The last release of a
// segment retired by compaction destroys it: directory removed, cache
// entries dropped from the memory budget, file handles closed.
func (s *Snapshot) Release() {
	s.mu.Lock()
	if s.released {
		s.mu.Unlock()
		return
	}
	s.released = true
	s.mu.Unlock()

	var destroy []*segment
	s.w.mu.Lock()
	for _, seg := range s.pinned {
		seg.refs--
		if seg.retired && seg.refs == 0 {
			destroy = append(destroy, seg)
		}
	}
	s.w.mu.Unlock()
	for _, seg := range destroy {
		s.w.destroySegment(seg)
	}
}
