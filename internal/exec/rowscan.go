package exec

import (
	"slices"

	"powerdrill/internal/colstore"
	"powerdrill/internal/value"
)

// executeRowScan handles queries with neither aggregates nor GROUP BY: a
// plain projection of the matching rows, such as the UI's "slowest
// queries" table. It runs in two phases, the late materialization of Abadi
// et al. ("Materialization Strategies in a Column-Oriented DBMS", ICDE
// 2007), so that a ten-row answer loads about ten rows' worth of the
// columns it projects:
//
//  1. Select (selectRows) reads the WHERE columns and the first ORDER BY
//     key alone. It visits the chunks the residency analysis kept in
//     rounds of 1, 2, 4, … chunks — pinned a round at a time, scanned in
//     parallel within one — in chunk order, or with an ORDER BY best-first
//     by the first key's span in its layout (PinSet.ChunkSpans). A chunk keeps
//     its matching rows whose first key ties or beats its own LIMIT-th
//     (compared on global-ids: dictionaries are sorted, so id order is
//     value order). Once LIMIT rows are held, a chunk whose span cannot
//     tie the LIMIT-th held key is skipped unloaded, and so is every chunk
//     after it; without ORDER BY the scan stops as soon as LIMIT rows are
//     held.
//  2. Fetch (fetchRows) pins the other ORDER BY keys and the projection at
//     the chunks that hold a candidate only, ranks the candidates with the
//     full ORDER BY through topK — ties broken by (chunk, row), which is
//     the order of the rows without an ORDER BY — and looks the winners'
//     values up (PinSet.Values), without pinning a dictionary that would
//     not fit the budget.
//
// The rounds are fixed and every decision between them is made on the
// calling goroutine, so the chunks visited, and every counter, are the
// same at every Parallelism; the rows are those a stable sort of every
// matching row would give.
func (e *Engine) executeRowScan(p *plan, ps *colstore.PinSet) (*Result, QueryStats, error) {
	qs := e.scanStats(p)
	s := newRowScan(e, p, ps)
	// Both phases pin while they hold their workers, and decode cold chunks
	// on them: taking more from the gate could wait on a gate with none
	// free.
	workers, err := e.gate.AcquireUpTo(p.ctx, e.chunkWorkers(len(s.found)))
	if err != nil {
		return nil, qs, err
	}
	defer e.gate.Release(workers)
	if err := s.selectRows(&qs, workers); err != nil {
		return nil, qs, err
	}
	rows, err := s.fetchRows(workers)
	if err != nil {
		return nil, qs, err
	}
	// A row scan caches nothing: every chunk it did not scan — pruned,
	// classified "none", ruled out by the rank bound, or left unvisited by
	// an early stop — was skipped.
	qs.ChunksSkipped = qs.ChunksTotal - qs.ChunksScanned
	qs.RowsSkipped = int64(e.store.NumRows()) - qs.RowsScanned
	return &Result{Columns: p.columns, Rows: rows}, qs, nil
}

// rowCand is a row the select phase keeps: its position, and the global-id
// of the first ORDER BY key there.
type rowCand struct {
	chunk, row int32
	key        uint32
}

// gid is the candidate's global-id in col.
func (c rowCand) gid(col *colstore.Column) uint32 {
	return col.GlobalIDAt(int(c.chunk), int(c.row))
}

// rowScan is one row scan between its phases.
type rowScan struct {
	e  *Engine
	p  *plan
	ps *colstore.PinSet
	// limit is the LIMIT, negative without one.
	limit int
	// ordered is set with an ORDER BY: keyCol is its first key's column
	// and desc that key's direction; keyView is keyCol's pinned view.
	ordered bool
	desc    bool
	keyCol  string
	keyView *colstore.Column
	// whereCols are the restriction's columns.
	whereCols []string
	// found holds each chunk's candidates, in row order; held counts them.
	found [][]rowCand
	held  int
	// keys are the first keys held, and top selects the best LIMIT of
	// them: once it holds LIMIT, the worst it holds is the bound no
	// skipped chunk can tie.
	keys []uint32
	top  *topK
}

func newRowScan(e *Engine, p *plan, ps *colstore.PinSet) *rowScan {
	s := &rowScan{e: e, p: p, ps: ps, limit: p.stmt.Limit, found: make([][]rowCand, e.store.NumChunks())}
	if len(p.orderCols) > 0 {
		s.ordered = true
		s.desc = p.stmt.OrderBy[0].Desc
		s.keyCol = p.groupCols[p.orderCols[0]]
		s.top = s.keyTopK(func(i int) uint32 { return s.keys[i] }, nil)
	}
	if p.where != nil {
		p.where.columnsOf(func(name string) {
			if !slices.Contains(s.whereCols, name) {
				s.whereCols = append(s.whereCols, name)
			}
		})
	}
	p.cols = make(map[string]*colstore.Column, len(p.accessCols))
	return s
}

// worse reports whether first key a ranks strictly after b.
func (s *rowScan) worse(a, b uint32) bool {
	if s.desc {
		return a < b
	}
	return a > b
}

// keyTopK selects the best LIMIT of the first keys key(i) offered, in
// heap, which may be a scratch.
func (s *rowScan) keyTopK(key func(i int) uint32, heap []int) *topK {
	cmp := func(a, b int) int { return compareInts(int64(key(a)), int64(key(b))) }
	return &topK{terms: []orderTerm{{cmp: cmp, desc: s.desc}}, limit: s.limit, heap: heap[:0]}
}

// bounded reports whether LIMIT candidates are held, and returns the
// LIMIT-th best first key among them.
func (s *rowScan) bounded() (uint32, bool) {
	if !s.ordered || s.limit <= 0 || len(s.top.heap) < s.limit {
		return 0, false
	}
	return s.keys[s.top.heap[0]], true
}

// spanBest is the best first key chunk span sp can hold; ok is false for
// an empty chunk.
func (s *rowScan) spanBest(sp colstore.ChunkSpan) (uint32, bool) {
	if sp.Empty() {
		return 0, false
	}
	if s.desc {
		return sp.MaxGID, true
	}
	return sp.MinGID, true
}

// visitOrder lists the chunks the residency analysis kept: in chunk order,
// or with an ORDER BY best-first by the first key's span, in chunk order
// among equals and empty chunks last.
func (s *rowScan) visitOrder() ([]int, []colstore.ChunkSpan, error) {
	var order []int
	for ci := range s.found {
		if s.p.active == nil || s.p.active[ci] {
			order = append(order, ci)
		}
	}
	if !s.ordered {
		return order, nil, nil
	}
	spans, err := s.ps.ChunkSpans(s.keyCol)
	if err != nil {
		return nil, nil, err
	}
	slices.SortStableFunc(order, func(a, b int) int {
		ka, oka := s.spanBest(spans[a])
		kb, okb := s.spanBest(spans[b])
		switch {
		case oka != okb && oka:
			return -1
		case oka != okb:
			return 1
		case !oka:
			return 0
		case s.worse(ka, kb):
			return 1
		case s.worse(kb, ka):
			return -1
		}
		return 0
	})
	return order, spans, nil
}

// ruledOut reports whether chunk ci can hold no row of the answer: LIMIT
// candidates are held and the chunk's span cannot tie the LIMIT-th.
func (s *rowScan) ruledOut(spans []colstore.ChunkSpan, ci int) bool {
	bound, ok := s.bounded()
	if spans == nil || !ok || s.e.opts.DisableSkipping {
		return false
	}
	k, ok := s.spanBest(spans[ci])
	return !ok || s.worse(k, bound)
}

// done reports whether the select phase has what it needs before it runs
// out of chunks: nothing under LIMIT 0, and LIMIT rows without ORDER BY.
func (s *rowScan) done() bool {
	return s.limit == 0 || (!s.ordered && s.limit > 0 && s.held >= s.limit)
}

// selectRows is the select phase: it pins, scans and bounds a round at a
// time. The query's context is polled between rounds, and by the round's
// pin and chunk sweep.
func (s *rowScan) selectRows(qs *QueryStats, workers int) error {
	e, p := s.e, s.p
	order, spans, err := s.visitOrder()
	if err != nil {
		return err
	}
	done := p.ctx.Done()
	ws := workerPool.take(workers)
	defer workerPool.give(ws)
	wqs := make([]QueryStats, workers)
	mask := make([]bool, len(s.found))
	for next, size := 0, 1; next < len(order) && !s.done(); size *= 2 {
		round := order[next:]
		if s.limit >= 0 {
			round = round[:min(size, len(round))]
		}
		// The order is best-first: once one chunk is ruled out, so is
		// every chunk after it.
		if k := slices.IndexFunc(round, func(ci int) bool { return s.ruledOut(spans, ci) }); k >= 0 {
			round, order = round[:k], order[:next+k]
		}
		if len(round) == 0 {
			break
		}
		if closed(done) {
			return p.ctx.Err()
		}
		next += len(round)
		clear(mask)
		for _, ci := range round {
			mask[ci] = true
		}
		// The restriction and the first key read global-ids alone.
		cols := s.whereCols
		if s.ordered {
			cols = append(slices.Clip(cols), s.keyCol)
		}
		if err := e.pinColumns(p.ctx, s.ps, false, cols, mask, workers, p.cols); err != nil {
			return err
		}
		if s.ordered {
			s.keyView = p.cols[s.keyCol]
		}
		clear(wqs)
		err := forEachChunk(p.ctx, len(round), workers, func(w, i int) error {
			s.scanChunk(round[i], ws[w], &wqs[w])
			return nil
		})
		if err != nil {
			return err
		}
		for w := range wqs {
			qs.Add(wqs[w])
		}
		for _, ci := range round {
			s.held += len(s.found[ci])
			if s.ordered && s.limit > 0 {
				for _, c := range s.found[ci] {
					s.keys = append(s.keys, c.key)
					s.top.offer(len(s.keys) - 1)
				}
			}
		}
	}
	return nil
}

// scanChunk selects chunk ci's candidates into s.found[ci].
func (s *rowScan) scanChunk(ci int, w *scanWorker, qs *QueryStats) {
	e, p := s.e, s.p
	rows := e.store.ChunkRows(ci)
	state, mask := e.selectChunk(p, ci, &w.mask, qs)
	if state == activeNone {
		return
	}
	qs.ChunksScanned++
	qs.RowsScanned += int64(rows)
	qs.CellsScanned += int64(rows) * int64(len(p.accessCols))
	// Without ORDER BY the first LIMIT matching rows are all a chunk can
	// give the answer.
	capRows := rows
	if !s.ordered && s.limit >= 0 {
		capRows = min(rows, s.limit)
	}
	m := w.rowCands[:0]
	if state == activeAll {
		for r := 0; r < capRows; r++ {
			m = append(m, rowCand{chunk: int32(ci), row: int32(r)})
		}
	} else {
		mask.ForEach(func(r int) {
			if len(m) < capRows {
				m = append(m, rowCand{chunk: int32(ci), row: int32(r)})
			}
		})
	}
	w.rowCands = m
	if s.ordered {
		for i := range m {
			m[i].key = m[i].gid(s.keyView)
		}
		if s.limit > 0 && len(m) > s.limit {
			// The chunk's own LIMIT-th first key: a row that ranks after
			// it has LIMIT rows of its chunk before it.
			tk := s.keyTopK(func(i int) uint32 { return m[i].key }, w.rowTop)
			for i := range m {
				tk.offer(i)
			}
			w.rowTop = tk.heap
			m = s.keep(m, m[tk.heap[0]].key)
		}
		if bound, ok := s.bounded(); ok {
			// Fixed for the round: set between rounds only.
			m = s.keep(m, bound)
		}
	}
	if len(m) > 0 {
		s.found[ci] = slices.Clone(m)
	}
}

// keep filters m in place to the candidates whose first key ties or beats
// bound.
func (s *rowScan) keep(m []rowCand, bound uint32) []rowCand {
	return slices.DeleteFunc(m, func(c rowCand) bool { return s.worse(c.key, bound) })
}

// fetchRows is the fetch phase: it narrows the candidates to those that
// can still win, pins the rest of what the answer reads at their chunks,
// ranks them and renders the winners.
func (s *rowScan) fetchRows(workers int) ([][]value.Value, error) {
	p := s.p
	var cands []rowCand
	bound, bounded := s.bounded()
	for _, found := range s.found {
		for _, c := range found {
			if !bounded || !s.worse(c.key, bound) {
				cands = append(cands, c)
			}
		}
	}
	if !s.ordered && s.limit >= 0 && len(cands) > s.limit {
		cands = cands[:s.limit]
	}
	if len(cands) == 0 {
		return nil, nil
	}
	mask := make([]bool, len(s.found))
	for _, c := range cands {
		mask[c.chunk] = true
	}
	// The other ORDER BY keys rank, the projection renders.
	names := make([]string, 0, len(p.orderCols)+len(p.groupCols))
	for _, item := range p.orderCols[min(1, len(p.orderCols)):] {
		names = append(names, p.groupCols[item])
	}
	names = append(names, p.groupCols...)
	views := make(map[string]*colstore.Column, len(names))
	if err := s.e.pinColumns(p.ctx, s.ps, false, names, mask, workers, views); err != nil {
		return nil, err
	}
	var picked []int
	if !s.ordered {
		picked = make([]int, len(cands))
		for i := range picked {
			picked[i] = i
		}
	} else {
		terms := make([]orderTerm, len(p.orderCols))
		for k, item := range p.orderCols {
			terms[k].desc = p.stmt.OrderBy[k].Desc
			if k == 0 {
				terms[k].cmp = func(a, b int) int { return compareInts(int64(cands[a].key), int64(cands[b].key)) }
				continue
			}
			col := views[p.groupCols[item]]
			terms[k].cmp = func(a, b int) int { return compareInts(int64(cands[a].gid(col)), int64(cands[b].gid(col))) }
		}
		tk := newTopK(terms, s.limit)
		for i := range cands {
			tk.offer(i)
		}
		picked = tk.sorted()
	}

	nc := len(p.groupCols)
	cells := make([]value.Value, len(picked)*nc)
	gids := make([]uint32, len(picked))
	for j, name := range p.groupCols {
		col := views[name]
		for i, c := range picked {
			gids[i] = cands[c].gid(col)
		}
		vals, err := s.ps.Values(name, gids)
		if err != nil {
			return nil, err
		}
		for i, v := range vals {
			cells[i*nc+j] = v
		}
	}
	rows := make([][]value.Value, len(picked))
	for i := range rows {
		rows[i] = cells[i*nc : (i+1)*nc : (i+1)*nc]
	}
	return rows, nil
}
