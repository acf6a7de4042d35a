package exec

// Bounded top-k selection — the one implementation of ORDER BY … LIMIT
// behind FinalizePartial (the one finalizer of aggregates: Engine.Run's
// and every merged shape's), ApplyOrderLimit and the row scan. Candidates
// are ordinals whose numeric order is the order the result would have
// without an ORDER BY (position among a partial's groups — ascending group
// global-id as an engine emits them, merge order after a merge — or scanned
// row position); the selection ranks them by the ORDER BY terms and breaks
// ties by the ordinal, which makes the order total and equal to what a
// stable sort of all rows would give. With a LIMIT only the current best
// LIMIT candidates are held, in a heap, so nothing is materialized for the
// others.

import (
	"fmt"
	"slices"

	"powerdrill/internal/sql"
	"powerdrill/internal/value"
)

// orderTerm is one ORDER BY key as a three-way comparison of candidates.
type orderTerm struct {
	cmp  func(a, b int) int
	desc bool
}

// topK keeps the first limit candidates of the total order (terms, then
// ordinal); limit < 0 keeps them all.
type topK struct {
	terms []orderTerm
	limit int
	// heap holds the kept candidates with the last-ranked at the root
	// while limit >= 0, and in arrival order otherwise.
	heap []int
}

func newTopK(terms []orderTerm, limit int) *topK {
	return &topK{terms: terms, limit: limit}
}

// compare ranks two candidates: negative when a comes first.
func (t *topK) compare(a, b int) int {
	for i := range t.terms {
		c := t.terms[i].cmp(a, b)
		if c == 0 {
			continue
		}
		if t.terms[i].desc {
			return -c
		}
		return c
	}
	return a - b
}

// offer considers one candidate.
func (t *topK) offer(c int) {
	switch {
	case t.limit < 0 || len(t.heap) < t.limit:
		t.heap = append(t.heap, c)
		if t.limit >= 0 {
			t.up(len(t.heap) - 1)
		}
	case t.limit > 0 && t.compare(c, t.heap[0]) < 0:
		t.heap[0] = c
		t.down(0)
	}
}

// sorted returns the kept candidates in result order. The selection must
// not be offered to afterwards.
func (t *topK) sorted() []int {
	slices.SortFunc(t.heap, t.compare)
	return t.heap
}

func (t *topK) up(i int) {
	h := t.heap
	for i > 0 {
		parent := (i - 1) / 2
		if t.compare(h[i], h[parent]) <= 0 {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (t *topK) down(i int) {
	h := t.heap
	for {
		last := i
		if l := 2*i + 1; l < len(h) && t.compare(h[l], h[last]) > 0 {
			last = l
		}
		if r := 2*i + 2; r < len(h) && t.compare(h[r], h[last]) > 0 {
			last = r
		}
		if last == i {
			return
		}
		h[i], h[last] = h[last], h[i]
		i = last
	}
}

// rowSelection is the tail of FinalizePartial: HAVING over each
// candidate's rendered row, the top-k selection, and rendering the rows
// that survive it. HAVING is written against output values, so
// with one every candidate is rendered (once — the row is kept for the
// result); without, only the candidates LIMIT keeps ever are.
type rowSelection struct {
	tk     *topK
	render func(c int) ([]value.Value, error)
	having func(row []value.Value) (bool, error) // nil without a HAVING
	kept   map[int][]value.Value                 // rows that passed it
}

func newRowSelection(stmt *sql.SelectStmt, columns []string, terms []orderTerm, render func(c int) ([]value.Value, error)) (*rowSelection, error) {
	having, err := compileHaving(stmt, columns)
	if err != nil {
		return nil, err
	}
	s := &rowSelection{tk: newTopK(terms, stmt.Limit), render: render, having: having}
	if having != nil {
		s.kept = map[int][]value.Value{}
	}
	return s, nil
}

// offer considers one candidate; candidates come in ascending order.
func (s *rowSelection) offer(c int) error {
	if s.having != nil {
		row, err := s.render(c)
		if err != nil {
			return err
		}
		if ok, err := s.having(row); err != nil || !ok {
			return err
		}
		s.kept[c] = row
	}
	s.tk.offer(c)
	return nil
}

// rows returns the selected candidates' rows in result order.
func (s *rowSelection) rows() ([][]value.Value, error) {
	var out [][]value.Value
	for _, c := range s.tk.sorted() {
		row, ok := s.kept[c]
		if !ok {
			var err error
			if row, err = s.render(c); err != nil {
				return nil, err
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// orderItems maps each ORDER BY expression to the select item it names:
// by output name (alias, or canonical form without one) first, then by
// the item's underlying expression. -1 marks an expression that matches
// no output column.
func orderItems(stmt *sql.SelectStmt) []int {
	out := make([]int, len(stmt.OrderBy))
	for k, o := range stmt.OrderBy {
		want := o.Expr.String()
		out[k] = -1
		for i, item := range stmt.Items {
			if item.Alias == want || (item.Alias == "" && item.Expr.String() == want) {
				out[k] = i
				break
			}
		}
		for i := 0; out[k] < 0 && i < len(stmt.Items); i++ {
			if stmt.Items[i].Expr.String() == want {
				out[k] = i
			}
		}
	}
	return out
}

// checkOrderItems is the engine's verdict on an unmatched ORDER BY key,
// given once, in plan.
func checkOrderItems(stmt *sql.SelectStmt, items []int) error {
	for k, i := range items {
		if i < 0 {
			return fmt.Errorf("exec: ORDER BY %s does not match any output column", stmt.OrderBy[k].Expr)
		}
	}
	return nil
}

// rowOrderTerms ranks finished rows by their values, on the select items
// the ORDER BY terms name (orderItems). ORDER BY keys that match no output
// column are ignored: the root of a merge has no plan to reject them with,
// and every engine's plan already has.
func rowOrderTerms(stmt *sql.SelectStmt, items []int, rows [][]value.Value) []orderTerm {
	var terms []orderTerm
	for k, col := range items {
		if col < 0 {
			continue
		}
		col := col
		terms = append(terms, orderTerm{
			cmp:  func(a, b int) int { return compareOrderValues(rows[a][col], rows[b][col]) },
			desc: stmt.OrderBy[k].Desc,
		})
	}
	return terms
}

// orderRows applies stmt's ORDER BY and LIMIT to finished rows; items are
// the select items the ORDER BY terms name (orderItems). The survivors are
// copied into a slice of their own, so a LIMIT releases the rows it cuts.
func orderRows(stmt *sql.SelectStmt, items []int, rows [][]value.Value) [][]value.Value {
	if len(stmt.OrderBy) == 0 && (stmt.Limit < 0 || len(rows) <= stmt.Limit) {
		return rows
	}
	tk := newTopK(rowOrderTerms(stmt, items, rows), stmt.Limit)
	for i := range rows {
		tk.offer(i)
	}
	picked := tk.sorted()
	out := make([][]value.Value, len(picked))
	for i, r := range picked {
		out[i] = rows[r]
	}
	return out
}

// compareOrderValues is value.Compare made total over floats: a NaN sorts
// before every number and equal to another NaN. (Compare calls a NaN equal
// to everything, which is no order at all; a float SUM can be NaN when
// infinities of both signs meet.)
func compareOrderValues(a, b value.Value) int {
	if a.Kind() == value.KindFloat64 && b.Kind() == value.KindFloat64 {
		return compareFloats(a.Float(), b.Float())
	}
	return a.Compare(b)
}

func compareFloats(x, y float64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	case x == y:
		return 0
	case x != x && y != y:
		return 0
	case x != x:
		return -1
	}
	return 1
}

func compareInts(x, y int64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}
