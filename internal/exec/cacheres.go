package exec

import (
	"strconv"
	"strings"

	"powerdrill/internal/sql"
)

// Cache-aware residency: before any chunk is pinned or loaded, chunks the
// spans prove fully active are probed in the result cache under the
// compiled plan's own cache key. A hit removes the chunk from the pin set
// entirely — the Section 6 result cache already holds its partial, so the
// chunk's data is never read, never charged to the byte budget, and on a
// cold store never touches disk. The retrieved partials are held by the
// plan, so an eviction between the probe and the scan cannot strand the
// query.

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

// cacheKey identifies a fully active chunk's partial result: the chunk and
// the plan's signature, derived once per plan. The probe before pinning
// and the scan use the same key.
func cacheKey(ci int, p *plan) string {
	return strconv.Itoa(ci) + "|" + p.cacheSig
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
// combined virtual column.
func compositeName(cols []string) string {
	return "composite(" + strings.Join(cols, "\x1f") + ")"
}

// aggFnFor maps an aggregate call name to its function — the single
// name→function mapping, used by compileAggregate and FinalizePartial alike.
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

// cacheResidency probes the result cache for the chunks the residency
// analysis proved fully active: those whose partials it holds are answered
// from it and dropped from the plan's pin set.
func (e *Engine) cacheResidency(p *plan) {
	if e.resultCache == nil || p.full == nil || p.rowScan {
		return
	}
	for ci, full := range p.full {
		if !full {
			continue
		}
		v, hit := e.resultCache.Get(cacheKey(ci, p))
		if !hit {
			continue
		}
		if p.cachedParts == nil {
			p.cachedParts = make(map[int]*groupSet, 8)
			// The pin set may be the active set or a memoized one: copy
			// before clearing.
			pin := make([]bool, len(p.full))
			for i := range pin {
				pin[i] = p.pin == nil || p.pin[i]
			}
			p.pin = pin
		}
		p.cachedParts[ci] = v.(*groupSet)
		p.pin[ci] = false
	}
}
