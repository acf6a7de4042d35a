package exec

import "powerdrill/internal/enc"

// The restriction memo. A click's charts share one WHERE clause (Sections 1
// and 5), so an engine keeps the last restriction its group-bys evaluated,
// keyed by the clause's canonical text (sql.Expr.String). A hit compiles no
// restriction, classifies and masks nothing, and pins no column only the
// restriction reads. It is safe because an engine's rows never change
// (doc.go); evicting and reloading a chunk reloads the same rows. One entry
// is enough: a user's clicks run one after another, and no click returns
// to an earlier WHERE. The entry costs about one bit per row the residency
// analysis keeps; it holds no pin and no store memory, so like workerPool
// it lives outside the byte budget (docs/memory.md).

// selection is one restriction evaluated over the engine's store: filled in
// by the scan of a query that missed, published when that scan completes,
// and read-only from then on.
type selection struct {
	key string
	// cols are the restriction's columns, in the order columnsOf reports
	// them: what the query accesses and counts cells of.
	cols []string
	// verdict[ci] is chunk ci's exact verdict, and an activeSome chunk's
	// rows are slab[off[ci]:off[ci+1]]: words only for the chunks the
	// residency analysis kept but could not prove fully active.
	verdict []triState
	off     []int32
	slab    []uint64
	// The residency analysis' outputs (plan), and pin: the active chunks
	// whose verdict is not none, the only chunks a hit pins.
	active, full []bool
	activeCount  int
	pin          []bool
	ready        bool // published
}

// size lays the selection out from the query's residency analysis, which
// has already decided the chunks it pruned (none) and those it proved fully
// active (all): one slab for the query, nothing per chunk.
func (s *selection) size(e *Engine, p *plan) {
	n := len(p.full)
	s.verdict, s.off = make([]triState, n), make([]int32, n+1)
	s.active, s.full, s.activeCount = p.active, p.full, p.activeCount
	for ci := range n {
		words := 0
		switch {
		case p.full[ci]:
			s.verdict[ci] = activeAll
		case p.active[ci]:
			words = (e.store.ChunkRows(ci) + 63) / 64
		}
		s.off[ci+1] = s.off[ci] + int32(words)
	}
	s.slab = make([]uint64, s.off[n])
}

// record stores chunk ci's verdict and, for a partially active chunk, its
// rows. Chunks are disjoint, so concurrent workers record without a lock.
func (s *selection) record(ci int, state triState, mask *enc.Bitmap) {
	s.verdict[ci] = state
	if mask != nil {
		copy(s.slab[s.off[ci]:s.off[ci+1]], mask.Words())
	}
}

// chunk returns chunk ci's recorded verdict and, for a partially active
// chunk, its rows copied into sc's bitmap of rows rows.
func (s *selection) chunk(ci, rows int, sc *maskScratch) (triState, *enc.Bitmap) {
	if s.verdict[ci] != activeSome {
		return s.verdict[ci], nil
	}
	m := sc.bitmap(0, rows)
	copy(m.Words(), s.slab[s.off[ci]:s.off[ci+1]])
	return activeSome, m
}

// publish makes a completed selection the engine's memo, replacing the
// one before it.
func (e *Engine) publish(s *selection) {
	s.pin = make([]bool, len(s.verdict))
	for ci, v := range s.verdict {
		s.pin[ci] = s.active[ci] && v != activeNone
	}
	s.ready = true
	e.memo.Store(s)
}

// selectChunk decides chunk ci under the plan's restriction: its verdict
// and, for a partially active chunk, its rows, in sc. A memoized
// restriction is read from its published selection, or computed and
// recorded into the one the query will publish.
func (e *Engine) selectChunk(p *plan, ci int, sc *maskScratch, qs *QueryStats) (triState, *enc.Bitmap) {
	if p.sel != nil && p.sel.ready {
		return p.sel.chunk(ci, e.store.ChunkRows(ci), sc)
	}
	if p.where == nil {
		return activeAll, nil
	}
	state := activeSome
	if !e.opts.DisableSkipping {
		state = p.where.classify(ci, byChunkDict)
	}
	var mask *enc.Bitmap
	if state == activeSome {
		mask = p.where.mask(e, ci, sc)
		qs.MasksBuilt++
	}
	if p.sel != nil {
		p.sel.record(ci, state, mask)
	}
	return state, mask
}
