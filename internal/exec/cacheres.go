package exec

import (
	"strconv"
	"strings"

	"powerdrill/internal/sql"
)

// Cache-aware residency: before any chunk is pinned or loaded, chunks the
// spans prove fully active are probed in the result cache under the cache
// key the compiled plan would use. A hit removes the chunk from the pin
// set entirely — the Section 6 result cache already holds its partial, so
// the chunk's data is never read, never charged to the byte budget, and on
// a cold store never touches disk (the third leg of the ROADMAP's cold-I/O
// follow-ups). The retrieved partials are held by the plan, so an eviction
// between analysis and scan cannot strand the query.
//
// The probe needs the plan's cache key before the plan exists, so
// predictCacheSig mirrors the naming rules of plan/materializeOperand
// syntactically (idents by name, expressions by canonical string,
// multi-column group-bys by their composite). plan re-derives the
// signature from the compiled query and drops the cached set on any
// mismatch — the prediction is an optimization, never an oracle.

// cacheSigOf renders the chunk-independent part of the result-cache key:
// the single group column (composite for multi-column group-bys, "" for a
// global aggregate) followed by each aggregate's signature.
func cacheSigOf(groupCol string, aggs []aggSpec) string {
	var b strings.Builder
	b.WriteString(groupCol)
	b.WriteByte('|')
	for _, a := range aggs {
		b.WriteString(a.signature())
		b.WriteByte('|')
	}
	return b.String()
}

// cacheKeyAt is the full per-chunk result-cache key.
func cacheKeyAt(ci int, sig string) string {
	return strconv.Itoa(ci) + "|" + sig
}

// operandName is the column name materializeOperand resolves an operand
// to: plain identifiers keep their name, anything else is registered under
// its canonical expression string.
func operandName(x sql.Expr) string {
	if id, ok := x.(*sql.Ident); ok {
		return id.Name
	}
	return x.String()
}

// compositeName is the canonical name of a multi-column group-by's
// combined virtual column — shared by plan and the signature prediction
// so the two can never drift.
func compositeName(cols []string) string {
	return "composite(" + strings.Join(cols, "\x1f") + ")"
}

// aggFnFor maps an aggregate call name to its function — the single
// name→function mapping, used by compileAggregate and the signature
// prediction alike.
func aggFnFor(name string, distinct bool) (aggFn, bool) {
	switch strings.ToLower(name) {
	case "count":
		if distinct {
			return aggCountDistinct, true
		}
		return aggCount, true
	case "sum":
		return aggSum, true
	case "min":
		return aggMin, true
	case "max":
		return aggMax, true
	case "avg":
		return aggAvg, true
	}
	return 0, false
}

// predictCacheSig derives the cache-key signature the compiled plan will
// use, without planning (and so without pinning or materializing
// anything). ok is false whenever the statement's shape leaves room for
// doubt — row scans, malformed aggregates — in which case the cache-aware
// pass simply does nothing.
func (e *Engine) predictCacheSig(stmt *sql.SelectStmt) (string, bool) {
	var groupCols []string
	for _, g := range stmt.GroupBy {
		groupCols = append(groupCols, operandName(resolveGroupExpr(stmt, g)))
	}
	hasAgg := false
	var aggs []aggSpec
	for _, item := range stmt.Items {
		if !sql.HasAggregate(item.Expr) {
			continue
		}
		hasAgg = true
		call, ok := item.Expr.(*sql.Call)
		if !ok {
			return "", false
		}
		fn, ok := aggFnFor(call.Name, call.Distinct)
		if !ok {
			return "", false
		}
		spec := aggSpec{fn: fn}
		switch {
		case call.Star:
			if fn != aggCount {
				return "", false
			}
		case len(call.Args) == 1:
			spec.argCol = operandName(call.Args[0])
		default:
			return "", false
		}
		aggs = append(aggs, spec)
	}
	if !hasAgg && len(groupCols) == 0 {
		// Row scan: no partials, no cache.
		return "", false
	}
	groupCol := ""
	switch {
	case len(groupCols) > 1:
		groupCol = compositeName(groupCols)
	case len(groupCols) == 1:
		groupCol = groupCols[0]
	}
	return cacheSigOf(groupCol, aggs), true
}

// cacheResidency runs the cache-aware pass over an analyzed residency:
// span-proven fully active chunks whose partials sit in the result cache
// are answered from it and dropped from the pin set.
func (e *Engine) cacheResidency(stmt *sql.SelectStmt, rsd *residency) {
	if e.resultCache == nil || rsd.full == nil || e.opts.DisableSkipping {
		return
	}
	sig, ok := e.predictCacheSig(stmt)
	if !ok {
		return
	}
	n := e.store.NumChunks()
	for ci := 0; ci < n; ci++ {
		if !rsd.full[ci] {
			continue
		}
		v, hit := e.resultCache.Get(cacheKeyAt(ci, sig))
		if !hit {
			continue
		}
		if rsd.cached == nil {
			rsd.cached = make(map[int]*partial, 8)
			rsd.pinActive = make([]bool, n)
			if rsd.active != nil {
				copy(rsd.pinActive, rsd.active)
			} else {
				for i := range rsd.pinActive {
					rsd.pinActive[i] = true
				}
			}
			rsd.sig = sig
		}
		rsd.cached[ci] = v.(*partial)
		rsd.pinActive[ci] = false
	}
}
