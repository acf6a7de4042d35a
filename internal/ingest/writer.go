package ingest

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"powerdrill/internal/colstore"
	"powerdrill/internal/exec"
	"powerdrill/internal/table"
)

// Opts configures a Writer.
type Opts struct {
	// SealRows is the write-buffer size at which an Append seals the
	// buffer into an on-disk segment (default: the base store's
	// MaxChunkRows, so a fresh segment is roughly one chunk).
	SealRows int
	// CompactMinSegments is the segment count at which the background
	// compactor merges all live segments into one (default 4).
	CompactMinSegments int
	// FsyncPolicy controls when WAL appends reach stable storage:
	// FsyncAlways, FsyncInterval (the default) or FsyncNever.
	FsyncPolicy string
	// EngineOpts configures the engines of segments and frozen buffer
	// views. The gate is always replaced by the base engine's, so every
	// unit shares one process-wide worker budget, and the per-chunk
	// result cache is disabled (units are small and short-lived).
	EngineOpts exec.Options
}

func (o Opts) withDefaults(base *colstore.Store) Opts {
	if o.SealRows <= 0 {
		o.SealRows = base.Opts.MaxChunkRows
		if o.SealRows <= 0 {
			o.SealRows = 50_000
		}
	}
	if o.CompactMinSegments <= 0 {
		o.CompactMinSegments = 4
	}
	if o.FsyncPolicy == "" {
		o.FsyncPolicy = FsyncInterval
	}
	return o
}

// segment is one sealed, committed, immutable on-disk colstore. refs
// counts the snapshots holding it; a compaction that supersedes a segment
// marks it retired, and the last Release destroys it (directory, cache
// namespace, file handles).
type segment struct {
	rel     string
	dir     string
	rows    int
	store   *colstore.Store
	eng     *exec.Engine
	refs    int
	retired bool
}

// Writer is the append path of one store directory. It assumes a single
// writer per directory (the generation claim turns a violation into an
// error rather than lost data, but concurrent writers are not a supported
// deployment); all methods are safe for concurrent use from any number of
// goroutines alongside any number of snapshots.
//
// Lock order: sealMu → mu → writeChunk.mu. sealMu serializes the two
// operations that commit generations (seal and compact); mu guards the
// mutable view state (buffer, sealing list, segments, generation number)
// and is only ever held briefly.
type Writer struct {
	dir     string
	base    *colstore.Store
	baseEng *exec.Engine
	opts    Opts
	schema  []colstore.ColumnMeta

	mu      sync.Mutex
	mem     *writeChunk
	sealing []*writeChunk
	segs    []*segment
	gen     int
	nextSeg int
	closed  bool
	// stats holds the cumulative counters (guarded by mu); Stats fills in
	// the gauges.
	stats Stats

	// walSeq is the next unallocated WAL sequence number. It is written
	// only under sealMu (Attach runs before any concurrency), and read
	// under mu by walStateLocked.
	walSeq int
	// walDone holds committed WAL sequences whose files still exist —
	// normally empty (files are deleted right after commit), populated
	// only when a deletion failed. The next manifest re-lists them so
	// replay never re-ingests their rows.
	walDone map[int]bool

	// sealMu serializes seal and compaction: at most one generation
	// commit is in flight, so generation numbers advance one at a time
	// and the segment list only changes under it.
	sealMu sync.Mutex

	compactCh chan struct{}
	done      chan struct{}
	wg        sync.WaitGroup

	// testBeforeCommit runs between writing a segment directory and
	// claiming its generation manifest — the crash window the durability
	// protocol is designed around. Tests panic here to simulate a crash.
	testBeforeCommit func()
}

// Stats is a point-in-time snapshot of the writer's state and counters.
type Stats struct {
	// Gen is the committed generation number (0 before the first seal).
	Gen int `json:"gen"`
	// Segments and SegmentRows describe the live committed segments.
	Segments    int   `json:"segments"`
	SegmentRows int64 `json:"segment_rows"`
	// MemRows counts buffered rows not yet sealed; SealingRows counts
	// rows sealed but not yet committed; MemBytes is the buffer's
	// resident footprint (dictionaries plus ids).
	MemRows     int   `json:"mem_rows"`
	SealingRows int64 `json:"sealing_rows"`
	MemBytes    int64 `json:"mem_bytes"`
	// Cumulative counters.
	RowsAppended      int64 `json:"rows_appended"`
	Seals             int64 `json:"seals"`
	Compactions       int64 `json:"compactions"`
	SegmentsCompacted int64 `json:"segments_compacted"`
	SegmentsRetired   int64 `json:"segments_retired"`
}

// Attach opens the append path of a store directory: reads the newest
// generation manifest (if any), garbage-collects superseded manifests and
// orphan segment directories, opens every live segment lazily against the
// base store's memory manager, replays the write-ahead log into a fresh
// buffer, and starts the background compactor. The base store must have
// been opened lazily (OpenLazy) from dir.
func Attach(dir string, base *colstore.Store, baseEng *exec.Engine, opts Opts) (*Writer, error) {
	if base.MemManager() == nil {
		return nil, errors.New("ingest: append requires a store opened from disk")
	}
	var schema []colstore.ColumnMeta
	for _, name := range base.Columns() {
		m, ok := base.ColumnMeta(name)
		if !ok || m.Virtual {
			continue
		}
		schema = append(schema, m)
	}
	opts = opts.withDefaults(base)
	w := &Writer{
		dir:       dir,
		base:      base,
		baseEng:   baseEng,
		opts:      opts,
		schema:    schema,
		compactCh: make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	walk, err := genChain(dir).Walk()
	if err != nil {
		return nil, err
	}
	gcGenerations(dir, walk)
	m := walk.Newest
	if m != nil {
		w.gen, w.nextSeg = walk.Seq, m.NextSeg
		for _, gs := range m.Segments {
			seg, err := w.openSegment(gs)
			if err != nil {
				w.closeSegments()
				return nil, err
			}
			w.segs = append(w.segs, seg)
		}
	}
	mem, err := w.replayWAL(m)
	if err != nil {
		w.closeSegments()
		return nil, err
	}
	w.mem = mem
	w.wg.Add(1)
	go w.compactLoop()
	if w.opts.FsyncPolicy == FsyncInterval {
		w.wg.Add(1)
		go w.syncLoop()
	}
	if mem.curRows() >= w.opts.SealRows {
		// A recovered buffer past the seal threshold seals straight away;
		// a failure here is not fatal — the rows are safe in the replayed
		// WAL files and the next threshold crossing retries.
		_ = w.seal()
	}
	return w, nil
}

// replayWAL recovers the write buffer from the WAL files on disk.
// Sequences below the manifest's floor or in its done list are committed
// in segments already — their files are deleted, not replayed. The rest
// are decoded in sequence order into one fresh chunk, which inherits
// those sequences (its rows are durable in them) plus a newly created
// WAL file for rows still to come. A torn tail is legal only in the
// highest live sequence — the file that was being appended at the crash;
// a tear anywhere else is corruption and fails the attach.
func (w *Writer) replayWAL(m *genManifest) (*writeChunk, error) {
	floor := 0
	done := map[int]bool{}
	if m != nil {
		floor = m.WalFloor
		for _, s := range m.WalDone {
			done[s] = true
		}
	}
	seqs, err := listWALFiles(w.dir)
	if err != nil {
		return nil, err
	}
	next := floor
	for _, s := range seqs {
		if s >= next {
			next = s + 1
		}
	}
	for s := range done {
		if s >= next {
			next = s + 1
		}
	}
	chunk := newWriteChunk(w.schema)
	carry := map[int]bool{}
	var live []int
	for i, seq := range seqs {
		path := filepath.Join(w.dir, walRel(seq))
		if seq < floor || done[seq] {
			if vfs().Remove(path) != nil && done[seq] {
				carry[seq] = true
			}
			continue
		}
		payloads, good, size, err := readWALFrames(path)
		if err != nil {
			return nil, fmt.Errorf("ingest: wal replay %s: %w", path, err)
		}
		if good < size && i != len(seqs)-1 {
			return nil, fmt.Errorf("ingest: wal %s: torn frame at offset %d in a non-final file", path, good)
		}
		for _, p := range payloads {
			tbl, err := decodeWALBatch(w.schema, p)
			if err != nil {
				return nil, fmt.Errorf("ingest: wal replay %s: %w", path, err)
			}
			if _, ok, err := chunk.append(tbl, nil, false); err != nil || !ok {
				return nil, fmt.Errorf("ingest: wal replay %s: buffer rejected batch", path)
			}
		}
		live = append(live, seq)
	}
	nw, err := createWAL(w.dir, next)
	if err != nil {
		return nil, err
	}
	chunk.wal = nw
	chunk.walSeqs = append(live, next)
	w.walSeq = next + 1
	w.walDone = carry
	return chunk, nil
}

// walStateLocked computes the WAL retirement state for the manifest
// about to commit: the floor is the lowest sequence a not-yet-committed
// chunk (the live buffer and any stuck sealing chunk other than the one
// committing) still holds; done lists committed sequences at or above
// the floor whose files may still exist. Called with mu held (and sealMu
// held by the committing path, which is what makes walSeq stable).
func (w *Writer) walStateLocked(committing *writeChunk) (floor int, done []int) {
	floor = w.walSeq
	lower := func(c *writeChunk) {
		for _, s := range c.walSeqs {
			if s < floor {
				floor = s
			}
		}
	}
	if w.mem != nil {
		lower(w.mem)
	}
	for _, c := range w.sealing {
		if c != committing {
			lower(c)
		}
	}
	seen := make(map[int]bool, len(w.walDone))
	for s := range w.walDone {
		seen[s] = true
	}
	if committing != nil {
		for _, s := range committing.walSeqs {
			seen[s] = true
		}
	}
	for s := range seen {
		if s >= floor {
			done = append(done, s)
		}
	}
	sort.Ints(done)
	return floor, done
}

// retireWAL runs after a successful commit that covered chunk's rows:
// the chunk's WAL files are superseded by the committed segment, so the
// open handle is closed and the files deleted. A file that refuses to
// die stays in walDone and keeps being listed in manifests so replay
// skips it.
func (w *Writer) retireWAL(chunk *writeChunk, done []int) {
	if chunk.wal != nil {
		_ = chunk.wal.close()
	}
	w.mu.Lock()
	w.walDone = make(map[int]bool, len(done))
	for _, s := range done {
		w.walDone[s] = true
	}
	for _, s := range chunk.walSeqs {
		if vfs().Remove(filepath.Join(w.dir, walRel(s))) == nil {
			delete(w.walDone, s)
		}
	}
	w.mu.Unlock()
}

// fsyncPeriod is the FsyncInterval policy's timer period.
const fsyncPeriod = 200 * time.Millisecond

// syncLoop is the FsyncInterval policy's timer: it periodically fsyncs
// the live buffer's WAL. Sealed chunks' WALs are synced at rotation.
func (w *Writer) syncLoop() {
	defer w.wg.Done()
	t := time.NewTicker(fsyncPeriod)
	defer t.Stop()
	for {
		select {
		case <-w.done:
			return
		case <-t.C:
			w.mu.Lock()
			mem := w.mem
			w.mu.Unlock()
			if mem != nil && mem.wal != nil {
				_ = mem.wal.sync()
			}
		}
	}
}

// unitEngineOpts are the engine options every non-base unit (segment or
// frozen buffer view) runs with: the caller's options minus the result
// cache, sharing the base engine's admission gate.
func (w *Writer) unitEngineOpts() exec.Options {
	o := w.opts.EngineOpts
	o.ResultCacheBytes = 0
	o.Gate = w.baseEng.Gate()
	return o
}

// openSegment opens one committed segment lazily, budgeted by the base
// store's memory manager (segment cache keys are namespaced by the
// segment's own directory, so retirement can drop them wholesale).
func (w *Writer) openSegment(gs genSegment) (*segment, error) {
	dir := filepath.Join(w.dir, gs.Dir)
	cs, _, err := colstore.OpenLazy(dir, w.base.MemManager())
	if err != nil {
		return nil, fmt.Errorf("ingest: open segment %s: %w", gs.Dir, err)
	}
	cs.DisableVirtualPersist()
	return &segment{
		rel:   gs.Dir,
		dir:   dir,
		rows:  gs.Rows,
		store: cs,
		eng:   exec.New(cs, w.unitEngineOpts()),
	}, nil
}

// Append validates and buffers a batch of rows. The batch must carry
// exactly the store's physical columns (same names and kinds). The batch
// is framed into the write-ahead log before it touches the buffer, so an
// acknowledged Append survives a crash; under FsyncAlways the frame is
// also fsynced first. When the buffer reaches SealRows the calling
// goroutine seals it into an on-disk segment before returning — append
// cost is amortized-constant with a periodic spike, which doubles as
// backpressure.
func (w *Writer) Append(tbl *table.Table) error {
	if err := w.validate(tbl); err != nil {
		return err
	}
	if tbl.NumRows() == 0 {
		return nil
	}
	payload := encodeWALBatch(w.schema, tbl)
	syncNow := w.opts.FsyncPolicy == FsyncAlways
	for {
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			return errors.New("ingest: writer is closed")
		}
		mem := w.mem
		w.mu.Unlock()
		rows, ok, err := mem.append(tbl, payload, syncNow)
		if err != nil {
			return err
		}
		if !ok {
			// Sealed between the load and the append; retry against the
			// replacement buffer.
			continue
		}
		w.mu.Lock()
		w.stats.RowsAppended += int64(tbl.NumRows())
		w.mu.Unlock()
		if rows >= w.opts.SealRows {
			return w.seal()
		}
		return nil
	}
}

// validate checks a batch against the store schema.
func (w *Writer) validate(tbl *table.Table) error {
	if got, want := len(tbl.ColumnNames()), len(w.schema); got != want {
		return fmt.Errorf("ingest: batch has %d columns, store has %d", got, want)
	}
	for _, m := range w.schema {
		col := tbl.Column(m.Name)
		if col == nil {
			return fmt.Errorf("ingest: batch is missing column %q", m.Name)
		}
		if col.Kind != m.Kind {
			return fmt.Errorf("ingest: column %q is %v, store has %v", m.Name, col.Kind, m.Kind)
		}
	}
	return nil
}

// Flush seals the current buffer (if non-empty) into a committed on-disk
// segment, making every previously appended row durable.
func (w *Writer) Flush() error { return w.seal() }

// seal turns the current write buffer into a committed segment:
//
//  1. under mu: mark the buffer sealed (finalizing its row count) and
//     swap in a fresh one — appends continue immediately;
//  2. build a colstore from the sealed rows with the base store's import
//     options and save it under segs/;
//  3. commit by claiming the next generation manifest;
//  4. under mu: advance the generation and move the rows from the
//     sealing list to the segment list in one critical section, so no
//     snapshot can see them twice or not at all.
//
// The order of step 1 is what makes snapshot cuts consistent: a buffer is
// sealed (row count frozen) before the fresh buffer becomes visible, so
// the sealed rows plus any fresh-buffer prefix always form a prefix of
// the append stream.
func (w *Writer) seal() error {
	w.sealMu.Lock()
	defer w.sealMu.Unlock()

	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return errors.New("ingest: writer is closed")
	}
	mem := w.mem
	if mem.curRows() == 0 {
		w.mu.Unlock()
		return nil
	}
	w.mu.Unlock()

	// Rotate the WAL with the buffer: the replacement buffer gets a fresh
	// file, created before the swap so no append ever waits on file
	// creation. walSeq is stable here — sealMu is held.
	nw, err := createWAL(w.dir, w.walSeq)
	if err != nil {
		return err
	}
	w.walSeq++

	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		_ = nw.close()
		_ = vfs().Remove(nw.path)
		return errors.New("ingest: writer is closed")
	}
	rows := mem.markSealed()
	w.sealing = append(w.sealing, mem)
	fresh := newWriteChunk(w.schema)
	fresh.wal = nw
	fresh.walSeqs = []int{nw.seq}
	w.mem = fresh
	gen, seq := w.gen, w.nextSeg
	segList := w.liveSegments()
	walFloor, walDone := w.walStateLocked(mem)
	w.mu.Unlock()

	// The sealed chunk's WAL is the only durable copy of its rows until
	// the segment commits; make sure the tail frames have hit disk before
	// the files become this commit's responsibility.
	if mem.wal != nil {
		_ = mem.wal.sync()
	}

	seg, err := w.buildSegment(mem.prefix(rows), seq, gen+1, segList, walFloor, walDone)
	if err != nil {
		return err
	}

	w.mu.Lock()
	w.gen = gen + 1
	w.nextSeg = seq + 1
	w.segs = append(w.segs, seg)
	for i, c := range w.sealing {
		if c == mem {
			w.sealing = append(w.sealing[:i], w.sealing[i+1:]...)
			break
		}
	}
	w.stats.Seals++
	segCount := len(w.segs)
	w.mu.Unlock()

	w.retireWAL(mem, walDone)
	_ = vfs().Remove(filepath.Join(w.dir, genName(gen)))
	if segCount >= w.opts.CompactMinSegments {
		w.kickCompactor()
	}
	return nil
}

// liveSegments renders the current segment list as manifest entries.
// Callers hold mu.
func (w *Writer) liveSegments() []genSegment {
	list := make([]genSegment, len(w.segs))
	for i, s := range w.segs {
		list[i] = genSegment{Dir: s.rel, Rows: s.rows}
	}
	return list
}

// buildSegment writes the rows of p as segment seq on disk and commits
// generation gen listing prev plus the new segment, carrying the WAL
// retirement state computed by the caller. Called with sealMu held.
func (w *Writer) buildSegment(p chunkPrefix, seq, gen int, prev []genSegment, walFloor int, walDone []int) (*segment, error) {
	cs, err := colstore.FromTable(p.toTable("seg"), w.base.Opts)
	if err != nil {
		return nil, err
	}
	rel := segRel(seq)
	dir := filepath.Join(w.dir, rel)
	if err := vfs().MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return nil, err
	}
	if err := colstore.Save(cs, dir, w.base.Codec()); err != nil {
		return nil, err
	}
	if w.testBeforeCommit != nil {
		w.testBeforeCommit()
	}
	gs := genSegment{Dir: rel, Rows: p.rows}
	m := &genManifest{Gen: gen, NextSeg: seq + 1, Segments: append(prev, gs), WalFloor: walFloor, WalDone: walDone}
	if err := commitGeneration(w.dir, m); err != nil {
		if errors.Is(err, fs.ErrExist) {
			return nil, fmt.Errorf("ingest: generation %d already committed: another writer is appending to %s", gen, w.dir)
		}
		return nil, err
	}
	return w.openSegment(gs)
}

// Rows returns the total row count an immediate snapshot would cover:
// base store plus committed segments plus sealed-uncommitted buffers plus
// the live buffer.
func (w *Writer) Rows() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	total := int64(w.base.NumRows())
	for _, s := range w.segs {
		total += int64(s.rows)
	}
	for _, c := range w.sealing {
		total += int64(c.curRows())
	}
	return total + int64(w.mem.curRows())
}

// Stats returns the writer's current state and cumulative counters.
func (w *Writer) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := w.stats
	st.Gen, st.Segments = w.gen, len(w.segs)
	st.MemRows, st.MemBytes = w.mem.curRows(), w.mem.memoryBytes()
	for _, s := range w.segs {
		st.SegmentRows += int64(s.rows)
	}
	for _, c := range w.sealing {
		st.SealingRows += int64(c.curRows())
	}
	return st
}

// kickCompactor nudges the background compactor without blocking.
func (w *Writer) kickCompactor() {
	select {
	case w.compactCh <- struct{}{}:
	default:
	}
}

// compactLoop is the background compactor: it waits for a nudge (sent
// after seals that push the segment count past the threshold) and merges.
// Errors are dropped — the next seal re-nudges, and CompactNow surfaces
// them to callers who want to know.
func (w *Writer) compactLoop() {
	defer w.wg.Done()
	for {
		select {
		case <-w.done:
			return
		case <-w.compactCh:
			w.mu.Lock()
			due := len(w.segs) >= w.opts.CompactMinSegments
			w.mu.Unlock()
			if due {
				_, _ = w.CompactNow()
			}
		}
	}
}

// Close seals any buffered rows, stops the compactor and sync timer,
// closes the live WAL, and releases the segments' file handles. The
// directory remains attachable.
func (w *Writer) Close() error {
	err := w.seal()
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return err
	}
	w.closed = true
	mem := w.mem
	sealing := append([]*writeChunk(nil), w.sealing...)
	w.mu.Unlock()
	close(w.done)
	w.wg.Wait()
	for _, c := range sealing {
		// A chunk stuck on the sealing list (its segment build failed)
		// keeps its rows alive only in its WAL files: sync and close the
		// handle, leave the files for the next attach to replay.
		if c.wal != nil {
			_ = c.wal.sync()
			_ = c.wal.close()
		}
	}
	if mem != nil && mem.wal != nil {
		// If the final seal failed, the WAL is the rows' only durable
		// copy — sync it before letting go of the handle. A clean, empty,
		// unshared WAL file is deleted so a store without pending rows
		// carries no segs/wal-* litter.
		_ = mem.wal.sync()
		_ = mem.wal.close()
		if mem.curRows() == 0 && len(mem.walSeqs) == 1 {
			_ = vfs().Remove(mem.wal.path)
		}
	}
	w.closeSegments()
	return err
}

// closeSegments releases every live segment's file handles.
func (w *Writer) closeSegments() {
	w.mu.Lock()
	segs := append([]*segment(nil), w.segs...)
	w.mu.Unlock()
	for _, s := range segs {
		_ = s.store.Close()
	}
}
