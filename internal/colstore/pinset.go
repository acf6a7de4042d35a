package colstore

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"powerdrill/internal/dict"
	"powerdrill/internal/value"
)

// PinSet keeps the pieces one query touches resident for the query's
// lifetime: the engine pins every layout, dictionary and chunk it needs
// from first touch (during planning) through the parallel chunk scan and
// final dictionary lookups, then releases them all at once.
// Cold-load counters accumulate per set, giving per-query attribution of
// what had to come from disk.
//
// On a lazy store a column is represented by a query-private *Column view
// whose Chunks slice is filled only at the pinned indices; positions the
// residency analysis pruned stay nil and must not be touched. The view pointer is stable across calls within one set, so
// compiled plans can cache it. On a fully resident store a PinSet degrades
// to plain column lookups.
//
// This is the error-carrying access path: prefer it over Store.Column,
// which swallows load errors (see the PinSet-first contract there).
type PinSet struct {
	s    *Store
	held map[string]*heldPin // column name -> pins
	// keys are the memory-manager entries pinned, in the order they were
	// first pinned — the order Release drops them in, so that what the
	// policy evicts next, and what the next query reads from disk, is the
	// same run to run.
	keys []string
	// ColdLoads counts columns for which this set loaded anything from
	// disk (a column with five cold chunks counts once).
	ColdLoads int64
	// ColdChunkLoads counts individual (column, chunk) entries this set
	// cold-loaded.
	ColdChunkLoads int64
	// ColdDictLoads counts the dictionary frames this set cold-loaded.
	ColdDictLoads int64
	// ColdBytesLoaded sums the resident bytes of all cold loads.
	ColdBytesLoaded int64
	// DiskBytesRead sums their on-disk (compressed) bytes.
	DiskBytesRead int64
	// ReadRuns counts the coalesced byte-run reads the set's cold chunk
	// prefetches issued (one ReadAt per run).
	ReadRuns int64
	// CoalescedReads counts the reads run coalescing saved: a run of m
	// contiguous cold chunks is one read instead of m, saving m−1.
	CoalescedReads int64
	// ChecksumVerified counts the records (chunks, dictionary frames) whose
	// CRC32C this set's cold loads checked and matched — one per cold load:
	// the lazy path verifies every record it reads.
	ChecksumVerified int64
	// ChecksumFailed counts cold loads this set aborted on a checksum
	// mismatch (the query then fails with that ChecksumError).
	ChecksumFailed int64

	// bufs holds the transient buffers of the set's reads and dictionary
	// loads, and decode one decompress buffer per chunk decode worker;
	// each is reused by every load it serves and dropped at Release.
	bufs   loadBufs
	decode []loadBufs
	// warm is PinChunks' and pinFrames' scratch; want, mark and ids are
	// the frames a pin of frames wants, a flag a frame for those it names,
	// and the ids it finds them by, sorted (wantFrames). Each is reused by
	// every call.
	warm warmScratch
	want []int
	mark []bool
	ids  []uint32
	// err is the first frame load that failed (Err).
	err error
}

// warmScratch holds one PinChunks call's work: for the column at hand, its
// wanted chunks, their keys, the values the manager pinned for the resident
// ones and the indices of the cold ones; for the call, the cold chunks of
// every column, in (column, chunk) order. Loading reuses chunks for the
// indices of the batch at hand, and pinFrames the first four for frames.
type warmScratch struct {
	chunks  []int
	keys    []string
	values  []any
	cold    []int
	pending []coldChunk
}

// coldChunk is a chunk PinChunks loads from disk.
type coldChunk struct {
	h  *heldPin
	ci int
}

// heldPin records the pins held for one column.
type heldPin struct {
	view *Column
	keys *colKeys
	// mc and layout are the column's manifest entry and pinned layout,
	// which every load of its frames and chunks reads.
	mc     manifestCol
	layout *columnLayout
	// chunks flags which chunk indices are pinned.
	chunks []bool
	// cold marks the column as already counted in ColdLoads.
	cold bool
}

// NewPinSet creates an empty pin set for the store.
func (s *Store) NewPinSet() *PinSet { return &PinSet{s: s} }

// coldColumn folds one cold entry's sizes into the set's counters.
func (p *PinSet) coldColumn(h *heldPin, size, disk int64) {
	if !h.cold {
		h.cold = true
		p.ColdLoads++
	}
	p.ColdBytesLoaded += size
	p.DiskBytesRead += disk
}

// ensure returns (creating if needed) the held record for a lazy column,
// with its layout pinned.
func (p *PinSet) ensure(name string) (*heldPin, error) {
	if h, ok := p.held[name]; ok {
		return h, nil
	}
	meta, ok := p.s.meta(name)
	if !ok {
		return nil, fmt.Errorf("colstore: unknown column %q", name)
	}
	h := &heldPin{
		view: &Column{
			Name:    meta.Name,
			Kind:    meta.Kind,
			Virtual: meta.Virtual,
			Chunks:  make([]*Chunk, p.s.NumChunks()),
		},
		chunks: make([]bool, p.s.NumChunks()),
		keys:   p.s.lazy.keysOf(meta, p.s.NumChunks()),
	}
	if err := p.pinLayout(h); err != nil {
		return nil, err
	}
	if p.held == nil {
		p.held = make(map[string]*heldPin, 8)
	}
	p.held[name] = h
	return h, nil
}

// pinLayout pins the column's layout into h, loading its layout record
// from disk if it is cold.
func (p *PinSet) pinLayout(h *heldPin) error {
	mc, ok := p.s.lazy.reader.colMeta(h.view.Name)
	if !ok {
		return fmt.Errorf("colstore: unknown column %q", h.view.Name)
	}
	lay, err := p.s.acquireLayout(h.keys, mc)
	if err != nil {
		p.noteChecksumErr(err)
		return err
	}
	h.mc, h.layout = mc, lay
	p.keys = append(p.keys, h.keys.index)
	return nil
}

// ChunkSpans returns the per-chunk global-id spans of the named column,
// without loading any chunk data: from its layout, which it pins, on a lazy
// store; from the chunk-dictionaries of a resident column.
func (p *PinSet) ChunkSpans(name string) ([]ChunkSpan, error) {
	if c := p.s.residentColumn(name); c != nil {
		out := make([]ChunkSpan, len(c.Chunks))
		for i, ch := range c.Chunks {
			out[i] = spanOf(ch)
		}
		return out, nil
	}
	if p.s.lazy == nil {
		return nil, fmt.Errorf("colstore: unknown column %q", name)
	}
	h, err := p.ensure(name)
	if err != nil {
		return nil, err
	}
	return h.layout.spans, nil
}

// noteChecksumErr counts a load aborted by a checksum mismatch.
func (p *PinSet) noteChecksumErr(err error) {
	var ce *ChecksumError
	if errors.As(err, &ce) {
		p.ChecksumFailed++
	}
}

// hold records chunk ci of the column as pinned, with ch its data.
func (p *PinSet) hold(h *heldPin, ci int, ch *Chunk) {
	h.view.Chunks[ci] = ch
	h.chunks[ci] = true
	p.keys = append(p.keys, h.keys.chunks[ci])
}

// admitChunk pins a chunk decoded from disk bytes into the view (see
// acquireChunk).
func (p *PinSet) admitChunk(h *heldPin, ci int, ch *Chunk, disk int64) error {
	ch, cold, size, disk, err := p.s.acquireChunk(h.keys, ci, ch, disk)
	if err != nil {
		return err
	}
	p.hold(h, ci, ch)
	if cold {
		p.ColdChunkLoads++
		p.coldColumn(h, size, disk)
		p.ChecksumVerified++
	}
	return nil
}

// Column returns the named column fully pinned: every chunk, and the
// dictionary frames that the chunks' ids lie in. Registry-resident
// columns (fully resident stores, unpersisted virtual columns) need no
// pin and pass straight through; persisted virtual columns pin like
// physical ones. Unknown columns are an error. Use ColumnChunks when the
// query will only scan a subset of the chunks.
func (p *PinSet) Column(name string) (*Column, error) {
	if _, err := p.ColumnDict(name); err != nil {
		return nil, err
	}
	c, err := p.ColumnChunks(name, nil)
	if err == nil {
		err = p.PinChunkFrames(context.Background(), name, nil)
	}
	return c, err
}

// ColumnDict returns a view of the named column with only its global
// dictionary — enough to look up restriction literals and decode group
// keys, but with no chunk data. The dictionary is paged by frame
// (paged.go): it pins each frame on the set's goroutine as a lookup first
// reads it. On a resident store it degrades to the full column.
func (p *PinSet) ColumnDict(name string) (*Column, error) {
	if c := p.s.residentColumn(name); c != nil {
		return c, nil
	}
	if p.s.lazy == nil {
		return nil, fmt.Errorf("colstore: unknown column %q", name)
	}
	h, err := p.ensure(name)
	if err != nil {
		return nil, err
	}
	p.pagedDictOf(h)
	return h.view, nil
}

// ColumnChunks is PinChunks for one column, decoding on the calling
// goroutine.
func (p *PinSet) ColumnChunks(name string, active []bool) (*Column, error) {
	views, err := p.PinChunks(context.Background(), []string{name}, active, 1)
	if err != nil {
		return nil, err
	}
	return views[0], nil
}

// PinChunks returns the named columns, in the order of names, with the
// chunks flagged in active pinned (nil active = every chunk), and no
// dictionary: enough to read and compare global-ids. A caller that reads
// values pins the dictionary too (ColumnDict), or looks them up afterwards
// (Values). A view's Dict is nil until one of them does — on a resident
// store the column is returned whole. Chunks outside the active set stay
// nil in the returned views; callers must not touch them. Pinning is
// monotonic per set: asking again with a wider set fills the missing
// chunks, and already pinned ones are never double-counted.
//
// The call works in three steps:
//  1. Every column's wanted chunks already resident are pinned first, with
//     one PinResident a column, so that this call's own cold loads cannot
//     evict them.
//  2. Each column's cold chunks are read in coalesced runs, one bounded
//     batch at a time: contiguous byte runs, each served by one ReadAt
//     instead of one read per chunk (ReadRuns and CoalescedReads count the
//     effect). A batch holds at most maxPrefetchBatchBytes of records — a
//     batch boundary can split a contiguous run: one extra read, bounded
//     memory. The batch's records are then verified, decompressed and
//     decoded on up to workers goroutines, each decompressing into its own
//     buffer; with one worker, or one record, on the calling goroutine.
//     Before each batch ctx's Done channel, captured once, is polled: a
//     call whose ctx is done reads nothing more and returns ctx.Err(),
//     what it pinned so far staying in the set until Release.
//  3. The decoded chunks are admitted to the memory manager one at a time,
//     in (column, chunk) order, so what is admitted, evicted and counted
//     does not depend on workers. The first record that fails a check, in
//     that order, fails the call, and the chunks decoded after it are
//     dropped unadmitted. A chunk another query loads in between is shared
//     as usual, and the decoded copy dropped.
func (p *PinSet) PinChunks(ctx context.Context, names []string, active []bool, workers int) ([]*Column, error) {
	views := make([]*Column, len(names))
	p.warm.pending = p.warm.pending[:0]
	for i, name := range names {
		if c := p.s.residentColumn(name); c != nil {
			views[i] = c
			continue
		}
		if p.s.lazy == nil {
			return nil, fmt.Errorf("colstore: unknown column %q", name)
		}
		h, err := p.ensure(name)
		if err != nil {
			return nil, err
		}
		views[i] = h.view
		if !slices.Contains(names[:i], name) {
			p.pinWarm(h, active)
		}
	}
	done := ctx.Done()
	for pending := p.warm.pending; len(pending) > 0; {
		select {
		case <-done:
			return nil, ctx.Err()
		default:
		}
		n := p.nextBatch(pending)
		if err := p.loadBatch(pending[:n], workers); err != nil {
			return nil, err
		}
		pending = pending[n:]
	}
	return views, nil
}

// pinWarm pins the column's wanted chunks that are resident, under one
// lock, and queues the others on p.warm.pending.
func (p *PinSet) pinWarm(h *heldPin, active []bool) {
	w := &p.warm
	w.chunks, w.keys = w.chunks[:0], w.keys[:0]
	for ci := range h.chunks {
		if (active != nil && !active[ci]) || h.chunks[ci] {
			continue
		}
		w.chunks = append(w.chunks, ci)
		w.keys = append(w.keys, h.keys.chunks[ci])
	}
	if len(w.keys) == 0 {
		return
	}
	w.values = slices.Grow(w.values[:0], len(w.keys))[:len(w.keys)]
	clear(w.values)
	w.cold = p.s.lazy.mgr.PinResident(w.keys, w.values, w.cold[:0])
	for i, v := range w.values {
		if v != nil {
			p.hold(h, w.chunks[i], v.(*loadedChunk).ch)
		}
	}
	for _, i := range w.cold {
		w.pending = append(w.pending, coldChunk{h: h, ci: w.chunks[i]})
	}
}

// nextBatch returns how many of the cold chunks, from the first, make the
// next batch: the first one's column's, up to maxPrefetchBatchBytes of
// records (at least one).
func (p *PinSet) nextBatch(pending []coldChunk) int {
	compressed := p.s.lazy.reader.m.Codec != ""
	var bytes int64
	for i, c := range pending {
		if c.h != pending[0].h {
			return i
		}
		_, n := c.h.layout.chunk(c.ci).fileRange(compressed)
		if i > 0 && bytes+n > maxPrefetchBatchBytes {
			return i
		}
		bytes += n
	}
	return len(pending)
}

// loadBatch reads one column's batch of cold chunks in coalesced runs,
// decodes their records on up to workers goroutines, and admits them in
// chunk order.
func (p *PinSet) loadBatch(batch []coldChunk, workers int) error {
	h := batch[0].h
	chunks := p.warm.chunks[:0]
	for _, c := range batch {
		chunks = append(chunks, c.ci)
	}
	p.warm.chunks = chunks
	recs, runs, coalesced, err := p.s.lazy.reader.readChunkRuns(h.mc, h.layout, chunks, &p.bufs)
	if err != nil {
		return err
	}
	p.ReadRuns += int64(runs)
	p.CoalescedReads += int64(coalesced)
	decoded := make([]*Chunk, len(chunks))
	errs := make([]error, len(chunks))
	workers = max(1, min(workers, len(chunks)))
	for len(p.decode) < workers {
		p.decode = append(p.decode, loadBufs{})
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	decode := func(w int) {
		for i := int(next.Add(1)) - 1; i < len(chunks); i = int(next.Add(1)) - 1 {
			decoded[i], errs[i] = p.s.decodeChunk(h, chunks[i], recs[i], &p.decode[w])
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			decode(w)
		}(w)
	}
	decode(0)
	wg.Wait()
	for i, ci := range chunks {
		if errs[i] != nil {
			p.noteChecksumErr(errs[i])
			return errs[i]
		}
		if err := p.admitChunk(h, ci, decoded[i], int64(len(recs[i]))); err != nil {
			return err
		}
	}
	return nil
}

// Values returns the values of the global-ids in the named column's
// dictionary, in the order of gids — the lookup a row scan renders its
// winners with. It pins just the frames that hold them, in frame order,
// the cold ones read in coalesced runs.
func (p *PinSet) Values(name string, gids []uint32) ([]value.Value, error) {
	if c := p.s.residentColumn(name); c != nil {
		return lookupValues(c.Dict, gids), nil
	}
	if p.s.lazy == nil {
		return nil, fmt.Errorf("colstore: unknown column %q", name)
	}
	h, err := p.ensure(name)
	if err != nil {
		return nil, err
	}
	d := p.pagedDictOf(h)
	if err := p.pinIDs(d, gids); err != nil {
		return nil, err
	}
	return lookupValues(d, gids), nil
}

// lookupValues looks global-ids up in a dictionary held in memory.
func lookupValues(d dict.Dict, gids []uint32) []value.Value {
	out := make([]value.Value, len(gids))
	for i, id := range gids {
		out[i] = d.Value(id)
	}
	return out
}

// Release drops every pin the set holds, in the order they were taken and
// under one lock, and the buffers its cold loads reused. Safe to call more
// than once.
func (p *PinSet) Release() {
	if p.s.lazy != nil {
		p.s.lazy.mgr.ReleaseAll(p.keys)
	}
	p.held, p.keys, p.bufs, p.decode, p.warm = nil, nil, loadBufs{}, nil, warmScratch{}
	p.want, p.mark, p.ids = nil, nil, nil
}
