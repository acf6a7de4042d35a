package exec

import (
	"fmt"

	"powerdrill/internal/expr"
	"powerdrill/internal/sql"
	"powerdrill/internal/value"
)

// HAVING support. The paper's execution tree (Section 4) evaluates WHERE
// at the leaves and "the root executes any having statements": by the time
// a HAVING predicate runs, every aggregate has been fully merged, so the
// clause filters finished result rows. Sub-expressions that match an
// output column (by alias or canonical form, e.g. COUNT(*) or c) are
// rewritten to references into the result row, then evaluated with the
// ordinary predicate machinery.

// compileHaving compiles the statement's HAVING clause into a predicate
// over one finished result row (columns are the output column names); nil
// when the statement has none.
func compileHaving(stmt *sql.SelectStmt, columns []string) (func(row []value.Value) (bool, error), error) {
	if stmt.Having == nil {
		return nil, nil
	}
	rewritten, err := rewriteHaving(stmt.Having, outputNames(stmt))
	if err != nil {
		return nil, err
	}
	cols := make(map[string]int, len(columns))
	for i, c := range columns {
		cols[c] = i
	}
	return func(row []value.Value) (bool, error) {
		ok, err := expr.EvalPred(rewritten, resultRow{cols: cols, row: row})
		if err != nil {
			return false, fmt.Errorf("exec: HAVING: %w", err)
		}
		return ok, nil
	}, nil
}

// outputNames maps each select item's alias and canonical expression form
// to its output column name.
func outputNames(stmt *sql.SelectStmt) map[string]string {
	names := map[string]string{}
	for _, item := range stmt.Items {
		out := item.Alias
		if out == "" {
			out = item.Expr.String()
		}
		names[item.Expr.String()] = out
		if item.Alias != "" {
			names[item.Alias] = out
		}
	}
	return names
}

// rewriteHaving substitutes sub-expressions that match an output column
// with references to it; remaining aggregate calls are errors (an
// aggregate in HAVING must appear in the select list, since the engine
// does not re-aggregate at the root).
func rewriteHaving(e sql.Expr, names map[string]string) (sql.Expr, error) {
	if out, ok := names[e.String()]; ok {
		return &sql.Ident{Name: out}, nil
	}
	switch n := e.(type) {
	case *sql.Binary:
		l, err := rewriteHaving(n.L, names)
		if err != nil {
			return nil, err
		}
		r, err := rewriteHaving(n.R, names)
		if err != nil {
			return nil, err
		}
		return &sql.Binary{Op: n.Op, L: l, R: r}, nil
	case *sql.Not:
		x, err := rewriteHaving(n.X, names)
		if err != nil {
			return nil, err
		}
		return &sql.Not{X: x}, nil
	case *sql.In:
		x, err := rewriteHaving(n.X, names)
		if err != nil {
			return nil, err
		}
		list := make([]sql.Expr, len(n.List))
		for i, item := range n.List {
			li, err := rewriteHaving(item, names)
			if err != nil {
				return nil, err
			}
			list[i] = li
		}
		return &sql.In{X: x, List: list, Negated: n.Negated}, nil
	case *sql.Call:
		if n.IsAggregate() {
			return nil, fmt.Errorf("exec: HAVING aggregate %s must appear in the select list", e)
		}
		return e, nil
	default:
		return e, nil
	}
}

// resultRow adapts one output row to expr.Row.
type resultRow struct {
	cols map[string]int
	row  []value.Value
}

// ColumnValue implements expr.Row.
func (r resultRow) ColumnValue(name string) value.Value {
	if i, ok := r.cols[name]; ok {
		return r.row[i]
	}
	return value.Value{}
}
