// Package sql implements the SQL subset PowerDrill's engine parses and
// processes: single-table group-by queries of the shape the Web UI
// generates (paper, "Background" and Section 2.4):
//
//	SELECT expr [AS alias], ... FROM table
//	[WHERE predicate] [GROUP BY expr, ...]
//	[ORDER BY expr [ASC|DESC], ...] [LIMIT n];
//
// with special operator support for AND, OR, NOT, IN, NOT IN, =, != (the
// operators the engine can evaluate against chunk-dictionaries to skip
// data), ordinary comparisons, arithmetic, scalar functions like
// date(timestamp), and the aggregates COUNT(*), COUNT(x), SUM, MIN, MAX,
// AVG and COUNT(DISTINCT x).
package sql

import (
	"fmt"
	"strconv"
	"strings"
)

// Expr is an expression tree node. The String method renders a canonical
// form: it is the key under which the engine materializes virtual fields,
// so equal expressions must print identically.
type Expr interface {
	fmt.Stringer
	exprNode()
}

// Ident references a column (or, in ORDER BY, a select alias).
type Ident struct{ Name string }

// StringLit is a quoted string literal.
type StringLit struct{ Val string }

// IntLit is an integer literal.
type IntLit struct{ Val int64 }

// FloatLit is a floating-point literal.
type FloatLit struct{ Val float64 }

// Call is a function call: scalar (date, lower, ...) or aggregate (count,
// sum, ...). Star marks COUNT(*), Distinct marks COUNT(DISTINCT x).
type Call struct {
	Name     string
	Args     []Expr
	Star     bool
	Distinct bool
}

// BinaryOp enumerates binary operators.
type BinaryOp string

// The binary operators.
const (
	OpAnd BinaryOp = "AND"
	OpOr  BinaryOp = "OR"
	OpEq  BinaryOp = "="
	OpNe  BinaryOp = "!="
	OpLt  BinaryOp = "<"
	OpLe  BinaryOp = "<="
	OpGt  BinaryOp = ">"
	OpGe  BinaryOp = ">="
	OpAdd BinaryOp = "+"
	OpSub BinaryOp = "-"
	OpMul BinaryOp = "*"
	OpDiv BinaryOp = "/"
)

// Binary is a binary operation.
type Binary struct {
	Op   BinaryOp
	L, R Expr
}

// Not is logical negation.
type Not struct{ X Expr }

// In is `X [NOT] IN (list...)`, the restriction shape the UI's drill-downs
// produce.
type In struct {
	X       Expr
	List    []Expr
	Negated bool
}

func (*Ident) exprNode()     {}
func (*StringLit) exprNode() {}
func (*IntLit) exprNode()    {}
func (*FloatLit) exprNode()  {}
func (*Call) exprNode()      {}
func (*Binary) exprNode()    {}
func (*Not) exprNode()       {}
func (*In) exprNode()        {}

// String implements Expr.
func (e *Ident) String() string { return e.Name }

// String implements Expr. A backslash escapes the byte after it, the
// lexer's one escape rule, so the literal reads back byte for byte.
func (e *StringLit) String() string { return `"` + quoteEscaper.Replace(e.Val) + `"` }

var quoteEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`)

// String implements Expr.
func (e *IntLit) String() string { return strconv.FormatInt(e.Val, 10) }

// String implements Expr. The lexer reads neither an exponent nor a
// number without a point as a float, so the value prints in full, with a
// point.
func (e *FloatLit) String() string {
	s := strconv.FormatFloat(e.Val, 'f', -1, 64)
	if !strings.Contains(s, ".") {
		s += ".0"
	}
	return s
}

// String implements Expr.
func (e *Call) String() string {
	if e.Star {
		return e.Name + "(*)"
	}
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	inner := strings.Join(args, ", ")
	if e.Distinct {
		inner = "DISTINCT " + inner
	}
	return e.Name + "(" + inner + ")"
}

// String implements Expr.
func (e *Binary) String() string {
	return "(" + e.L.String() + " " + string(e.Op) + " " + e.R.String() + ")"
}

// String implements Expr.
func (e *Not) String() string { return "(NOT " + e.X.String() + ")" }

// String implements Expr.
func (e *In) String() string {
	items := make([]string, len(e.List))
	for i, v := range e.List {
		items[i] = v.String()
	}
	op := " IN ("
	if e.Negated {
		op = " NOT IN ("
	}
	return "(" + e.X.String() + op + strings.Join(items, ", ") + "))"
}

// SelectItem is one projection with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// String renders the item as it would appear in a query.
func (s SelectItem) String() string {
	if s.Alias != "" {
		return s.Expr.String() + " AS " + s.Alias
	}
	return s.Expr.String()
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a parsed query.
type SelectStmt struct {
	Items   []SelectItem
	From    string
	Where   Expr // nil if absent
	GroupBy []Expr
	Having  Expr // nil if absent; evaluated over output columns at the root
	OrderBy []OrderItem
	Limit   int // -1 if absent
}

// String renders the statement canonically.
func (s *SelectStmt) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.String())
	}
	b.WriteString(" FROM ")
	b.WriteString(s.From)
	if s.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING ")
		b.WriteString(s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.Expr.String())
			if o.Desc {
				b.WriteString(" DESC")
			} else {
				b.WriteString(" ASC")
			}
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	b.WriteString(";")
	return b.String()
}

// AggregateNames lists the supported aggregate functions.
var AggregateNames = map[string]bool{
	"count": true, "sum": true, "min": true, "max": true, "avg": true,
}

// IsAggregate reports whether a call is an aggregate function.
func (e *Call) IsAggregate() bool { return AggregateNames[strings.ToLower(e.Name)] }

// HasAggregate reports whether any node of e is an aggregate call.
func HasAggregate(e Expr) bool {
	switch n := e.(type) {
	case *Call:
		if n.IsAggregate() {
			return true
		}
		for _, a := range n.Args {
			if HasAggregate(a) {
				return true
			}
		}
	case *Binary:
		return HasAggregate(n.L) || HasAggregate(n.R)
	case *Not:
		return HasAggregate(n.X)
	case *In:
		if HasAggregate(n.X) {
			return true
		}
		for _, a := range n.List {
			if HasAggregate(a) {
				return true
			}
		}
	}
	return false
}

// SplitConjuncts flattens nested ANDs into a conjunct list — the engine
// splits user expressions apart by the special operators "as far as
// possible" before materializing anything (Section 5).
func SplitConjuncts(e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == OpAnd {
		return append(SplitConjuncts(b.L), SplitConjuncts(b.R)...)
	}
	if e == nil {
		return nil
	}
	return []Expr{e}
}
