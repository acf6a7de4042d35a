package exec

import (
	"sort"

	"powerdrill/internal/colstore"
)

// This file decides which chunks of a compiled statement must be resident
// BEFORE any chunk data is loaded — the piece that makes the memory budget
// scale with restriction selectivity (paper Section 5: composite range
// partitioning makes most chunks provably inactive for a restricted query,
// so only the active ones need RAM). It classifies the plan's one
// restriction tree (restrict.go) on metadata alone: the leaves' global-id
// sets and ranges against the per-chunk value spans the columns' layout
// records hold (colstore.ChunkSpan). The verdict is deliberately
// conservative — a chunk is pruned only when the spans PROVE no row can
// match — so the exact classification on the chunk dictionaries, in
// scanChunk, still runs on whatever survives.
//
// Compiling pinned only dictionaries; the verdict tells the plan which
// chunks to pin, so a restricted query never loads — and never charges the
// byte budget for — chunks it cannot scan.

// analyzeResidency classifies every chunk against the plan's restriction
// using spans only, and sets the plan's active and full sets. Anything the
// metadata cannot decide (leaves without spans) is "may match". A
// restriction from the memo brings its analysis along, and pins only the
// chunks its exact verdicts keep.
func (e *Engine) analyzeResidency(p *plan) {
	if s := p.sel; s != nil && s.ready {
		p.active, p.full, p.activeCount, p.pin = s.active, s.full, s.activeCount, s.pin
		return
	}
	n := e.store.NumChunks()
	p.activeCount = n
	if e.opts.DisableSkipping {
		return
	}
	p.full = make([]bool, n)
	if p.where == nil {
		// Everything is trivially fully active — the cache probe can still
		// answer chunks whose partials are cached.
		for ci := range p.full {
			p.full[ci] = true
		}
		return
	}
	p.active = make([]bool, n)
	p.activeCount = 0
	for ci := 0; ci < n; ci++ {
		switch p.where.classify(ci, bySpans) {
		case activeAll:
			// Span-proven fully active: the chunk's cached partial, if any,
			// answers it exactly.
			p.full[ci] = true
			fallthrough
		case activeSome:
			p.active[ci] = true
			p.activeCount++
		}
	}
	p.pin = p.active
	if p.sel != nil {
		p.sel.size(e, p)
	}
}

// classifySpan classifies leaf r on chunk ci's [min, max] span instead of
// its chunk dictionary. Sound by construction: none and all are returned
// only when they hold for every value a chunk with that span can contain.
// Where a span cannot decide an id-set leaf, the chunk's own dictionary
// does, exactly, once the chunk is pinned (classify's byChunkDict).
func (r *restriction) classifySpan(ci int) triState {
	if r.spans == nil {
		return activeSome
	}
	sp := r.spans[ci]
	if r.op == rRange {
		if sp.Empty() || r.lo >= r.hi || sp.MaxGID < r.lo || sp.MinGID >= r.hi {
			return activeNone
		}
		if sp.MinGID >= r.lo && sp.MaxGID < r.hi {
			return activeAll
		}
		return activeSome
	}
	if sp.Empty() || !anyGIDInSpan(r.gids, sp) {
		return activeNone
	}
	if sp.MinGID == sp.MaxGID {
		// Single distinct value, proven to be in the set.
		return activeAll
	}
	return activeSome
}

// anyGIDInSpan reports whether any of the sorted global-ids falls inside
// the span.
func anyGIDInSpan(sorted []uint32, sp colstore.ChunkSpan) bool {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= sp.MinGID })
	return i < len(sorted) && sorted[i] <= sp.MaxGID
}
