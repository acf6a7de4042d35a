package exec

import (
	"sync/atomic"

	"powerdrill/internal/colstore"
	"powerdrill/internal/value"
)

// executeRowScan handles queries with neither aggregates nor GROUP BY:
// a plain projection of the matching rows. Not the workload PowerDrill is
// built for — the UI only issues group-bys — but useful for inspecting raw
// rows, and it exercises the same skipping machinery.
//
// Chunks are scanned in parallel into per-chunk row buffers and
// concatenated in chunk order, so the output rows are exactly the
// sequential engine's. Without ORDER BY, a LIMIT stops workers from
// claiming further chunks once enough rows have been collected; already
// claimed chunks finish (the truncation below restores the exact sequential
// prefix), so under an early stop the scan counters may report slightly
// more work than the sequential engine would, and the chunks no worker
// claimed count as skipped — they were not read. With ORDER BY and LIMIT a
// chunk keeps only its own first LIMIT rows of the order — selected by
// comparing the order columns' global-ids, values looked up for the
// survivors alone — because a row of the final top LIMIT is in the top
// LIMIT of its chunk.
func (e *Engine) executeRowScan(p *plan) (*Result, QueryStats, error) {
	qs := e.scanStats(p)
	nChunks, nCols := e.store.NumChunks(), int64(len(p.accessCols))
	res := &Result{Columns: p.columns}
	orderCols := p.orderCols
	// Without ORDER BY, stop claiming chunks once LIMIT rows are collected.
	canStopEarly := len(orderCols) == 0 && p.stmt.Limit >= 0
	chunkTopK := len(orderCols) > 0 && p.stmt.Limit >= 0

	// Admission control: share the engine's worker budget with concurrent
	// queries (see executeChunks).
	workers := e.gate.AcquireUpTo(e.chunkWorkers(nChunks))
	defer e.gate.Release(workers)

	cols := make([]*colstore.Column, len(p.groupCols))
	for i, cn := range p.groupCols {
		cols[i] = p.col(e, cn)
	}

	chunkRows := make([][][]value.Value, nChunks)
	wqs := make([]QueryStats, workers)
	// Each worker's masks lie in its scratch, as in executeChunks.
	ws := workerPool.take(workers)
	defer workerPool.give(ws)
	var collected atomic.Int64
	var quit func() bool
	if canStopEarly {
		limit := int64(p.stmt.Limit)
		quit = func() bool { return collected.Load() >= limit }
	}

	err := forEachChunk(nChunks, workers, quit, func(w, ci int) error {
		if p.active != nil && !p.active[ci] {
			return nil // pruned by the residency analysis: never loaded, don't touch
		}
		rows := e.store.ChunkRows(ci)
		state := activeAll
		if p.where != nil {
			if e.opts.DisableSkipping {
				state = activeSome
			} else {
				state = p.where.classify(ci, byChunkDict)
			}
		}
		if state == activeNone {
			return nil
		}
		// Under an early-stop LIMIT, one chunk never contributes more than
		// LIMIT rows to the final prefix, so cap the per-chunk buffer —
		// `SELECT ... LIMIT 1` must not materialize a whole chunk.
		maxOut := rows
		if canStopEarly && p.stmt.Limit < maxOut {
			maxOut = p.stmt.Limit
		}
		var out [][]value.Value
		keep := func(r int) {
			row := make([]value.Value, len(cols))
			for i, col := range cols {
				row[i] = col.ValueAt(ci, r)
			}
			out = append(out, row)
		}
		emit := func(r int) {
			if len(out) < maxOut {
				keep(r)
			}
		}
		var tk *topK
		if chunkTopK {
			// Dictionaries are sorted: the order of two rows' global-ids in
			// a column is the order of their values.
			terms := make([]orderTerm, len(orderCols))
			for k, oc := range orderCols {
				col := cols[oc]
				terms[k] = orderTerm{
					cmp: func(a, b int) int {
						return compareInts(int64(col.GlobalIDAt(ci, a)), int64(col.GlobalIDAt(ci, b)))
					},
					desc: p.stmt.OrderBy[k].Desc,
				}
			}
			tk = newTopK(terms, p.stmt.Limit)
			emit = tk.offer
		}
		if state == activeAll {
			for r := 0; r < rows && len(out) < maxOut; r++ {
				emit(r)
			}
		} else {
			mask, err := p.where.mask(e, p, ci, &ws[w].mask)
			if err != nil {
				return err
			}
			mask.ForEach(emit)
		}
		if tk != nil {
			for _, r := range tk.sorted() {
				keep(r)
			}
		}
		chunkRows[ci] = out
		collected.Add(int64(len(out)))
		wqs[w].ChunksScanned++
		wqs[w].RowsScanned += int64(rows)
		wqs[w].CellsScanned += int64(rows) * nCols
		return nil
	})
	if err != nil {
		return nil, qs, err
	}
	for _, out := range chunkRows {
		res.Rows = append(res.Rows, out...)
	}
	for w := 0; w < workers; w++ {
		qs.Add(wqs[w])
	}
	// A row scan caches nothing: every chunk it did not scan — pruned,
	// classified "none", or left unclaimed by an early stop — was skipped.
	qs.ChunksSkipped = qs.ChunksTotal - qs.ChunksScanned
	qs.RowsSkipped = int64(e.store.NumRows()) - qs.RowsScanned

	res.Rows = orderRows(p.stmt, orderCols, res.Rows)
	return res, qs, nil
}
