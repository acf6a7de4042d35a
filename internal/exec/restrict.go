package exec

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"powerdrill/internal/colstore"
	"powerdrill/internal/enc"
	"powerdrill/internal/expr"
	"powerdrill/internal/sql"
	"powerdrill/internal/value"
)

// The restriction machinery implements Section 2.4's "special treatment"
// of AND, OR, NOT, IN, NOT IN, = and != (plus ordinary comparisons, which
// sorted dictionaries turn into global-id ranges): a WHERE clause compiles
// into a tree whose leaves are per-column global-id sets or ranges. A
// comparison that is not column-against-literals — latency * 2 > timestamp,
// x IN (y) — is a leaf too: it is computed once over every row into a
// virtual field of 0s and 1s (Section 5), and the leaf selects the value 1.
// The tree is evaluated up to three times per chunk: in three-valued logic
// against the layout's spans, before the chunk is loaded
// (residency.go); by the same fold against the chunk-dictionaries alone —
// classifying the chunk as skippable, fully active (cacheable) or partially
// active — and only for partially active chunks row-wise, producing a
// selection bitmap. No step can fail: every leaf is decided on its
// column's dictionaries.

// triState is the chunk classification lattice.
type triState int8

const (
	activeNone triState = iota // no row can match: skip the chunk
	activeSome                 // some rows may match: scan with a mask
	activeAll                  // every row matches: fully active
)

func (t triState) String() string {
	switch t {
	case activeNone:
		return "none"
	case activeSome:
		return "some"
	default:
		return "all"
	}
}

// restriction is a compiled WHERE tree node.
type restriction struct {
	op       rOp
	children []*restriction // for rAnd, rOr, rNot

	col string // leaf column
	// colRef is the query's pinned view of col. Compiling pins the
	// dictionary only; the view's chunks fill in when the plan pins the
	// chunks that survive pruning (a PinSet's views are stable).
	colRef *colstore.Column
	gids   []uint32 // rInSet: sorted global-ids
	lo, hi uint32   // rRange: [lo, hi) of global-ids
	// spans are col's per-chunk global-id spans from its layout record,
	// what the leaf is classified on before any chunk is loaded
	// (residency.go). nil spans: the leaf may match anywhere.
	spans []colstore.ChunkSpan
}

type rOp uint8

const (
	rAnd rOp = iota
	rOr
	rNot
	rInSet // column value's global-id ∈ gids
	rRange // lo <= global-id < hi
)

// compileRestriction translates a WHERE expression — the one place that
// walks it. An operand that is not a plain column is first materialized as a
// virtual field (Section 5), after which it is a plain column again. A leaf
// pins its column's dictionary into ps, which the literal lookups need, and
// no chunk: which chunks the scan touches is decided on the compiled tree.
func (e *Engine) compileRestriction(ctx context.Context, w sql.Expr, ps *colstore.PinSet) (*restriction, error) {
	switch n := w.(type) {
	case *sql.Binary:
		switch n.Op {
		case sql.OpAnd, sql.OpOr:
			l, err := e.compileRestriction(ctx, n.L, ps)
			if err != nil {
				return nil, err
			}
			r, err := e.compileRestriction(ctx, n.R, ps)
			if err != nil {
				return nil, err
			}
			op := rAnd
			if n.Op == sql.OpOr {
				op = rOr
			}
			return &restriction{op: op, children: []*restriction{l, r}}, nil
		case sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
			return e.compileComparison(ctx, n, ps)
		default:
			return nil, fmt.Errorf("exec: operator %s is not a predicate", n.Op)
		}
	case *sql.Not:
		child, err := e.compileRestriction(ctx, n.X, ps)
		if err != nil {
			return nil, err
		}
		return &restriction{op: rNot, children: []*restriction{child}}, nil
	case *sql.In:
		return e.compileIn(ctx, n, ps)
	}
	return nil, fmt.Errorf("exec: expression %s is not a predicate", w)
}

// compileLeaf resolves a leaf's operand to its column and hangs the
// column's chunk spans on the leaf. Persisted virtual columns keep theirs
// in the store's sidecar, so a restriction on a materialized expression
// prunes chunks even after the column was evicted, or in a later process
// that reopened the store.
func (e *Engine) compileLeaf(ctx context.Context, op rOp, x sql.Expr, ps *colstore.PinSet) (*restriction, error) {
	col, err := e.materializeOperand(ctx, x, ps)
	if err != nil {
		return nil, err
	}
	return leafOn(op, col, ps)
}

// leafOn is a leaf of op on col, carrying col's spans, pinned into ps.
func leafOn(op rOp, col *colstore.Column, ps *colstore.PinSet) (*restriction, error) {
	spans, err := ps.ChunkSpans(col.Name)
	if err != nil {
		return nil, err
	}
	return &restriction{op: op, col: col.Name, colRef: col, spans: spans}, nil
}

// compilePredicateField compiles a predicate the dictionaries cannot decide
// as a leaf on its predicate field (materializePredicate): the rows where
// the field holds 1.
func (e *Engine) compilePredicateField(ctx context.Context, x sql.Expr, ps *colstore.PinSet) (*restriction, error) {
	col, err := e.materializePredicate(ctx, x, ps)
	if err != nil {
		return nil, err
	}
	leaf, err := leafOn(rInSet, col, ps)
	if err != nil {
		return nil, err
	}
	leaf.gids, err = eqGIDs(col, value.Int64(1))
	return leaf, err
}

// negated wraps leaf in a NOT when neg is set.
func negated(leaf *restriction, neg bool) *restriction {
	if neg {
		return &restriction{op: rNot, children: []*restriction{leaf}}
	}
	return leaf
}

// inGIDs maps `col IN (lits)` onto the sorted global-id set that
// satisfies it.
func inGIDs(col *colstore.Column, lits []value.Value) ([]uint32, error) {
	gids := make([]uint32, 0, len(lits))
	for _, lit := range lits {
		v, err := coerceToKind(lit, col.Kind)
		if err != nil {
			return nil, err
		}
		if !v.IsValid() {
			continue // value cannot equal any column value (e.g. 1.5 vs int)
		}
		if id, ok := col.Dict.Lookup(v); ok {
			gids = append(gids, id)
		}
	}
	slices.Sort(gids)
	return gids, nil
}

// eqGIDs maps `col = lit` onto its global-id set (empty when the literal
// cannot match any column value).
func eqGIDs(col *colstore.Column, lit value.Value) ([]uint32, error) {
	v, err := coerceToKind(lit, col.Kind)
	if err != nil {
		return nil, err
	}
	if v.IsValid() {
		if id, found := col.Dict.Lookup(v); found {
			return []uint32{id}, nil
		}
	}
	return nil, nil
}

// compileIn maps `X [NOT] IN (literals)` onto a global-id set.
func (e *Engine) compileIn(ctx context.Context, n *sql.In, ps *colstore.PinSet) (*restriction, error) {
	lits := make([]value.Value, 0, len(n.List))
	for _, item := range n.List {
		v, ok := expr.IsLiteral(item)
		if !ok {
			return e.compilePredicateField(ctx, n, ps)
		}
		lits = append(lits, v)
	}
	leaf, err := e.compileLeaf(ctx, rInSet, n.X, ps)
	if err != nil {
		return nil, err
	}
	if leaf.gids, err = inGIDs(leaf.colRef, lits); err != nil {
		return nil, fmt.Errorf("exec: IN list for %q: %w", leaf.col, err)
	}
	return negated(leaf, n.Negated), nil
}

// compileComparison maps `col OP literal` (either side) onto a set or a
// range leaf; anything else, such as column against column, onto a
// predicate field.
func (e *Engine) compileComparison(ctx context.Context, n *sql.Binary, ps *colstore.PinSet) (*restriction, error) {
	lhs, rhs := n.L, n.R
	op := n.Op
	if _, isLit := expr.IsLiteral(lhs); isLit {
		// Normalize to column-on-the-left, flipping the operator.
		lhs, rhs = rhs, lhs
		op = flipOp(op)
	}
	lit, ok := expr.IsLiteral(rhs)
	if !ok {
		return e.compilePredicateField(ctx, n, ps)
	}
	if op == sql.OpEq || op == sql.OpNe {
		leaf, err := e.compileLeaf(ctx, rInSet, lhs, ps)
		if err != nil {
			return nil, err
		}
		if leaf.gids, err = eqGIDs(leaf.colRef, lit); err != nil {
			return nil, fmt.Errorf("exec: comparing %q: %w", leaf.col, err)
		}
		return negated(leaf, op == sql.OpNe), nil
	}
	leaf, err := e.compileLeaf(ctx, rRange, lhs, ps)
	if err != nil {
		return nil, err
	}
	if leaf.lo, leaf.hi, err = rangeForComparison(leaf.colRef.Dict, leaf.colRef.Kind, op, lit); err != nil {
		return nil, fmt.Errorf("exec: comparing %q: %w", leaf.col, err)
	}
	return leaf, nil
}

// rangeForComparison converts `col OP lit` into the half-open global-id
// interval [lo, hi) that satisfies it. Sorted dictionaries make ordering
// restrictions as cheap as IN restrictions.
func rangeForComparison(d interface {
	FindGE(value.Value) uint32
	Lookup(value.Value) (uint32, bool)
	Len() int
}, kind value.Kind, op sql.BinaryOp, lit value.Value) (lo, hi uint32, err error) {
	n := uint32(d.Len())
	// Cross-kind numeric comparisons adjust the literal to the column
	// kind, tightening the bound when the literal is fractional.
	v, strict, errc := coerceBound(lit, kind)
	if errc != nil {
		return 0, 0, errc
	}
	ge := d.FindGE(v)
	present := false
	if _, found := d.Lookup(v); found {
		present = true
	}
	switch op {
	case sql.OpLt:
		// v itself, when present, sorts at ge and is excluded.
		return 0, ge, nil
	case sql.OpLe:
		hi = ge
		if present && !strict {
			hi++
		}
		return 0, hi, nil
	case sql.OpGt:
		lo = ge
		if present && !strict {
			lo++
		}
		return lo, n, nil
	case sql.OpGe:
		return ge, n, nil
	}
	return 0, 0, fmt.Errorf("exec: operator %s is not a range", op)
}

// coerceBound adapts a literal to the column kind for range comparisons.
// strict reports that the adjusted literal is already strictly inside the
// bound (e.g. latency > 100.5 became latency >= 101).
func coerceBound(lit value.Value, kind value.Kind) (value.Value, bool, error) {
	if lit.Kind() == kind {
		return lit, false, nil
	}
	switch {
	case kind == value.KindInt64 && lit.Kind() == value.KindFloat64:
		f := lit.Float()
		fl := math.Floor(f)
		if f == fl {
			return value.Int64(int64(fl)), false, nil
		}
		// Fractional bound: x > 100.5 ⇔ x >= 101, and x < 100.5 ⇔ x < 101.
		return value.Int64(int64(fl) + 1), true, nil
	case kind == value.KindFloat64 && lit.Kind() == value.KindInt64:
		return value.Float64(float64(lit.Int())), false, nil
	}
	return value.Value{}, false, fmt.Errorf("cannot compare %s column with %s literal", kind, lit.Kind())
}

// coerceToKind adapts an equality/IN literal to the column kind; an
// invalid value means "can never match".
func coerceToKind(v value.Value, kind value.Kind) (value.Value, error) {
	if v.Kind() == kind {
		return v, nil
	}
	switch {
	case kind == value.KindInt64 && v.Kind() == value.KindFloat64:
		f := v.Float()
		if f == math.Floor(f) {
			return value.Int64(int64(f)), nil
		}
		return value.Value{}, nil // fractional: never equal to an int
	case kind == value.KindFloat64 && v.Kind() == value.KindInt64:
		return value.Float64(float64(v.Int())), nil
	}
	return value.Value{}, fmt.Errorf("cannot compare %s column with %s literal", kind, v.Kind())
}

func flipOp(op sql.BinaryOp) sql.BinaryOp {
	switch op {
	case sql.OpLt:
		return sql.OpGt
	case sql.OpLe:
		return sql.OpGe
	case sql.OpGt:
		return sql.OpLt
	case sql.OpGe:
		return sql.OpLe
	}
	return op // = and != are symmetric
}

// evidence is what a chunk classification reads at the leaves.
type evidence uint8

const (
	bySpans     evidence = iota // the layout's [min, max] spans: no chunk loaded
	byChunkDict                 // the pinned chunk's own dictionary: exact
)

// classify evaluates the tree for chunk ci in three-valued logic — the one
// AND/OR/NOT fold, over whichever evidence the caller has. On spans it is
// conservative: none and all are proofs (classifySpan), so the exact
// verdict on the chunk dictionary agrees wherever they are given.
func (r *restriction) classify(ci int, by evidence) triState {
	switch r.op {
	case rAnd:
		out := activeAll
		for _, c := range r.children {
			if s := c.classify(ci, by); s < out {
				out = s
			}
			if out == activeNone {
				break
			}
		}
		return out
	case rOr:
		out := activeNone
		for _, c := range r.children {
			if s := c.classify(ci, by); s > out {
				out = s
			}
			if out == activeAll {
				break
			}
		}
		return out
	case rNot:
		switch r.children[0].classify(ci, by) {
		case activeNone:
			return activeAll
		case activeAll:
			return activeNone
		default:
			return activeSome
		}
	}
	if by == bySpans {
		return r.classifySpan(ci)
	}
	ch := r.colRef.Chunks[ci]
	if ch.Rows() == 0 {
		return activeNone
	}
	if r.op == rInSet {
		if !ch.ContainsAny(r.gids) {
			return activeNone
		}
		if ch.AllWithin(r.gids) {
			return activeAll
		}
		return activeSome
	}
	first, last := ch.GlobalIDs[0], ch.GlobalIDs[len(ch.GlobalIDs)-1]
	if r.lo >= r.hi || last < r.lo || first >= r.hi {
		return activeNone
	}
	if first >= r.lo && last < r.hi {
		return activeAll
	}
	return activeSome
}

// maskScratch is where a scan worker's restriction masks live: the verdict
// table of the leaf being decided and one bitmap per depth of the tree, all
// of them kept from chunk to chunk, so after the worker's first chunk a mask
// allocates nothing.
type maskScratch struct {
	verdict []uint8
	// bitmaps[d] holds the rows of the node evaluated at depth d.
	bitmaps []*enc.Bitmap
}

// bitmap returns depth's bitmap, cleared and sized to rows.
func (s *maskScratch) bitmap(depth, rows int) *enc.Bitmap {
	for len(s.bitmaps) <= depth {
		s.bitmaps = append(s.bitmaps, &enc.Bitmap{})
	}
	s.bitmaps[depth].Reset(rows)
	return s.bitmaps[depth]
}

// mask computes the row-selection bitmap of the tree for chunk ci with
// eval. The bitmap belongs to sc and is good until sc's next mask.
func (r *restriction) mask(e *Engine, ci int, sc *maskScratch) *enc.Bitmap {
	state := r.eval(e, ci, sc, 0)
	if state == activeSome {
		return sc.bitmaps[0]
	}
	m := sc.bitmap(0, e.store.ChunkRows(ci))
	if state == activeAll {
		m.SetAll()
	}
	return m
}

// eval is the mask evaluation. It decides every leaf on the
// chunk dictionary first (leafVerdicts counts the satisfying distinct
// values on its way): a leaf no value or every value of the chunk
// satisfies is activeNone or activeAll and touches neither the elements
// nor a bitmap, and AND, OR and NOT fold those verdicts as identities and
// short-circuits. Only an activeSome result has rows, in sc.bitmaps[depth];
// the evaluation may overwrite the bitmaps below depth.
func (r *restriction) eval(e *Engine, ci int, sc *maskScratch, depth int) triState {
	rows := e.store.ChunkRows(ci)
	switch r.op {
	case rAnd, rOr:
		// Under AND the running result starts at "all", a child that is
		// "all" changes nothing and one that is "none" decides the node;
		// OR is the mirror image.
		identity, decided := activeAll, activeNone
		if r.op == rOr {
			identity, decided = activeNone, activeAll
		}
		state := identity
		for _, c := range r.children {
			if state == decided {
				break
			}
			if r.op == rAnd && state == activeSome && c.isLeaf() && sc.bitmaps[depth].Count()*8 <= rows {
				// Few rows are left: look the leaf up at those rows only.
				state = c.probe(c.colRef.Chunks[ci], sc, sc.bitmaps[depth])
				continue
			}
			// The first child with rows leaves them in this node's bitmap;
			// later ones go one level down and are folded in.
			at := depth + 1
			if state == identity {
				at = depth
			}
			switch cs := c.eval(e, ci, sc, at); {
			case cs == identity:
			case cs == decided || state == identity:
				state = cs
			case r.op == rAnd:
				if sc.bitmaps[depth].And(sc.bitmaps[at]); sc.bitmaps[depth].None() {
					state = activeNone
				}
			default:
				sc.bitmaps[depth].Or(sc.bitmaps[at])
			}
		}
		return state
	case rNot:
		switch r.children[0].eval(e, ci, sc, depth) {
		case activeNone:
			return activeAll
		case activeAll:
			return activeNone
		}
		sc.bitmaps[depth].Not()
		return activeSome
	}
	ch := r.colRef.Chunks[ci]
	state := r.decide(ch, sc)
	if state == activeSome {
		ch.Elems.SpreadMask(sc.verdict, sc.bitmap(depth, rows))
	}
	return state
}

// isLeaf reports whether r is decided per distinct value of one column.
func (r *restriction) isLeaf() bool { return r.op == rInSet || r.op == rRange }

// decide fills sc.verdict for leaf r on chunk ch and classifies the leaf
// from the count: none, every, or some of the chunk's values satisfy it.
func (r *restriction) decide(ch *colstore.Chunk, sc *maskScratch) triState {
	sc.verdict = resized(sc.verdict, len(ch.GlobalIDs))
	switch r.leafVerdicts(ch, sc.verdict) {
	case 0:
		return activeNone
	case len(ch.GlobalIDs):
		return activeAll
	}
	return activeSome
}

// probe intersects running with leaf r by reading the leaf's column at the
// rows still selected, not at every row.
func (r *restriction) probe(ch *colstore.Chunk, sc *maskScratch, running *enc.Bitmap) triState {
	switch r.decide(ch, sc) {
	case activeNone:
		return activeNone
	case activeAll:
		return activeSome
	}
	words, left := running.Words(), uint64(0)
	for wi, w := range words {
		for rest := w; rest != 0; rest &= rest - 1 {
			bit := bits.TrailingZeros64(rest)
			if sc.verdict[ch.Elems.At(wi*64+bit)] == 0 {
				w &^= 1 << bit
			}
		}
		words[wi] = w
		left |= w
	}
	if left == 0 {
		return activeNone
	}
	return activeSome
}

// leafVerdicts decides leaf r once per *distinct* value of chunk ch, not once
// per row — why the double dictionary encoding makes restrictions cheap:
// verdict[i] becomes 1 where the chunk's i-th global-id satisfies r and 0
// elsewhere, and the number of 1s is returned. The chunk dictionary and an
// id set are both sorted, so the set is decided in one walk over the two;
// a range is the two positions of its bounds.
func (r *restriction) leafVerdicts(ch *colstore.Chunk, verdict []uint8) int {
	ids := ch.GlobalIDs
	clear(verdict)
	if r.op == rRange {
		lo, _ := slices.BinarySearch(ids, r.lo)
		hi, _ := slices.BinarySearch(ids, r.hi)
		for i := lo; i < hi; i++ {
			verdict[i] = 1
		}
		return max(hi-lo, 0)
	}
	n, i := 0, 0
	for _, gid := range r.gids {
		for i < len(ids) && ids[i] < gid {
			i++
		}
		if i == len(ids) {
			break
		}
		if ids[i] == gid {
			verdict[i] = 1
			n++
			i++
		}
	}
	return n
}

// columnsOf reports the column names a restriction tree touches.
func (r *restriction) columnsOf(out func(name string)) {
	for _, c := range r.children {
		c.columnsOf(out)
	}
	if r.col != "" {
		out(r.col)
	}
}
