// Package expr evaluates the scalar expressions of the SQL subset: column
// references, literals, arithmetic, comparisons and the scalar functions
// (date, year, month, hour, lower, upper, length). The executor uses it in
// one place: to materialize virtual fields (paper, Section 5 "Complex
// Expressions" — every non-trivial expression is computed once and stored
// in the datastore's own format), among them the fields of 0s and 1s that
// stand for predicates that cannot be mapped to dictionary restrictions.
package expr

import (
	"fmt"
	"strings"
	"time"

	"powerdrill/internal/sql"
	"powerdrill/internal/value"
)

// Row provides column values by name during evaluation.
type Row interface {
	// ColumnValue returns the value of the named column for the current
	// row, or an invalid value if the column does not exist.
	ColumnValue(name string) value.Value
}

// KindResolver reports the kind of a column, for type inference.
type KindResolver func(column string) (value.Kind, bool)

// scalarFuncs maps function name to (argument kind check, result kind).
var scalarFuncs = map[string]struct {
	nargs  int
	result value.Kind
}{
	"date":   {1, value.KindString},
	"year":   {1, value.KindInt64},
	"month":  {1, value.KindInt64},
	"day":    {1, value.KindInt64},
	"hour":   {1, value.KindInt64},
	"lower":  {1, value.KindString},
	"upper":  {1, value.KindString},
	"length": {1, value.KindInt64},
}

// IsScalarFunc reports whether name is a supported scalar function.
func IsScalarFunc(name string) bool {
	_, ok := scalarFuncs[strings.ToLower(name)]
	return ok
}

// InferKind computes the result kind of a value expression (no aggregates,
// no boolean operators).
func InferKind(e sql.Expr, resolve KindResolver) (value.Kind, error) {
	switch n := e.(type) {
	case *sql.Ident:
		k, ok := resolve(n.Name)
		if !ok {
			return value.KindInvalid, fmt.Errorf("expr: unknown column %q", n.Name)
		}
		return k, nil
	case *sql.StringLit:
		return value.KindString, nil
	case *sql.IntLit:
		return value.KindInt64, nil
	case *sql.FloatLit:
		return value.KindFloat64, nil
	case *sql.Call:
		f, ok := scalarFuncs[strings.ToLower(n.Name)]
		if !ok {
			return value.KindInvalid, fmt.Errorf("expr: unknown function %q", n.Name)
		}
		if len(n.Args) != f.nargs || n.Star || n.Distinct {
			return value.KindInvalid, fmt.Errorf("expr: %s expects %d argument(s)", n.Name, f.nargs)
		}
		if _, err := InferKind(n.Args[0], resolve); err != nil {
			return value.KindInvalid, err
		}
		return f.result, nil
	case *sql.Binary:
		switch n.Op {
		case sql.OpAdd, sql.OpSub, sql.OpMul, sql.OpDiv:
			lk, err := InferKind(n.L, resolve)
			if err != nil {
				return value.KindInvalid, err
			}
			rk, err := InferKind(n.R, resolve)
			if err != nil {
				return value.KindInvalid, err
			}
			if lk == value.KindString || rk == value.KindString {
				return value.KindInvalid, fmt.Errorf("expr: arithmetic on strings")
			}
			if lk == value.KindFloat64 || rk == value.KindFloat64 || n.Op == sql.OpDiv {
				return value.KindFloat64, nil
			}
			return value.KindInt64, nil
		default:
			return value.KindInvalid, fmt.Errorf("expr: operator %s is not a value expression", n.Op)
		}
	}
	return value.KindInvalid, fmt.Errorf("expr: unsupported expression %T", e)
}

// Eval computes a value expression for one row.
func Eval(e sql.Expr, row Row) (value.Value, error) {
	switch n := e.(type) {
	case *sql.Ident:
		v := row.ColumnValue(n.Name)
		if !v.IsValid() {
			return value.Value{}, fmt.Errorf("expr: unknown column %q", n.Name)
		}
		return v, nil
	case *sql.StringLit:
		return value.String(n.Val), nil
	case *sql.IntLit:
		return value.Int64(n.Val), nil
	case *sql.FloatLit:
		return value.Float64(n.Val), nil
	case *sql.Call:
		return evalCall(n, row)
	case *sql.Binary:
		return evalArith(n, row)
	}
	return value.Value{}, fmt.Errorf("expr: unsupported expression %T", e)
}

func evalCall(n *sql.Call, row Row) (value.Value, error) {
	name := strings.ToLower(n.Name)
	f, ok := scalarFuncs[name]
	if !ok {
		return value.Value{}, fmt.Errorf("expr: unknown function %q", n.Name)
	}
	if len(n.Args) != f.nargs {
		return value.Value{}, fmt.Errorf("expr: %s expects %d argument(s)", n.Name, f.nargs)
	}
	arg, err := Eval(n.Args[0], row)
	if err != nil {
		return value.Value{}, err
	}
	switch name {
	case "date", "year", "month", "day", "hour":
		if arg.Kind() != value.KindInt64 {
			return value.Value{}, fmt.Errorf("expr: %s expects a timestamp", name)
		}
		t := time.UnixMicro(arg.Int()).UTC()
		switch name {
		case "date":
			return value.String(t.Format("2006-01-02")), nil
		case "year":
			return value.Int64(int64(t.Year())), nil
		case "month":
			return value.Int64(int64(t.Month())), nil
		case "day":
			return value.Int64(int64(t.Day())), nil
		default:
			return value.Int64(int64(t.Hour())), nil
		}
	case "lower", "upper", "length":
		if arg.Kind() != value.KindString {
			return value.Value{}, fmt.Errorf("expr: %s expects a string", name)
		}
		switch name {
		case "lower":
			return value.String(strings.ToLower(arg.Str())), nil
		case "upper":
			return value.String(strings.ToUpper(arg.Str())), nil
		default:
			return value.Int64(int64(len(arg.Str()))), nil
		}
	}
	return value.Value{}, fmt.Errorf("expr: unhandled function %q", name)
}

func evalArith(n *sql.Binary, row Row) (value.Value, error) {
	l, err := Eval(n.L, row)
	if err != nil {
		return value.Value{}, err
	}
	r, err := Eval(n.R, row)
	if err != nil {
		return value.Value{}, err
	}
	if l.Kind() == value.KindString || r.Kind() == value.KindString {
		return value.Value{}, fmt.Errorf("expr: arithmetic on strings")
	}
	// Integer arithmetic stays integral except for division.
	if l.Kind() == value.KindInt64 && r.Kind() == value.KindInt64 && n.Op != sql.OpDiv {
		a, b := l.Int(), r.Int()
		switch n.Op {
		case sql.OpAdd:
			return value.Int64(a + b), nil
		case sql.OpSub:
			return value.Int64(a - b), nil
		case sql.OpMul:
			return value.Int64(a * b), nil
		}
	}
	a, b := l.AsFloat(), r.AsFloat()
	switch n.Op {
	case sql.OpAdd:
		return value.Float64(a + b), nil
	case sql.OpSub:
		return value.Float64(a - b), nil
	case sql.OpMul:
		return value.Float64(a * b), nil
	case sql.OpDiv:
		if b == 0 {
			return value.Value{}, fmt.Errorf("expr: division by zero")
		}
		return value.Float64(a / b), nil
	}
	return value.Value{}, fmt.Errorf("expr: operator %s is not a value expression", n.Op)
}

// EvalPred computes a predicate for one row: comparisons, IN, AND, OR, NOT.
func EvalPred(e sql.Expr, row Row) (bool, error) {
	switch n := e.(type) {
	case *sql.Binary:
		switch n.Op {
		case sql.OpAnd:
			l, err := EvalPred(n.L, row)
			if err != nil {
				return false, err
			}
			if !l {
				return false, nil
			}
			return EvalPred(n.R, row)
		case sql.OpOr:
			l, err := EvalPred(n.L, row)
			if err != nil {
				return false, err
			}
			if l {
				return true, nil
			}
			return EvalPred(n.R, row)
		case sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
			l, err := Eval(n.L, row)
			if err != nil {
				return false, err
			}
			r, err := Eval(n.R, row)
			if err != nil {
				return false, err
			}
			c, err := compareValues(l, r)
			if err != nil {
				return false, err
			}
			switch n.Op {
			case sql.OpEq:
				return c == 0, nil
			case sql.OpNe:
				return c != 0, nil
			case sql.OpLt:
				return c < 0, nil
			case sql.OpLe:
				return c <= 0, nil
			case sql.OpGt:
				return c > 0, nil
			default:
				return c >= 0, nil
			}
		default:
			return false, fmt.Errorf("expr: operator %s is not a predicate", n.Op)
		}
	case *sql.Not:
		b, err := EvalPred(n.X, row)
		if err != nil {
			return false, err
		}
		return !b, nil
	case *sql.In:
		x, err := Eval(n.X, row)
		if err != nil {
			return false, err
		}
		found := false
		for _, item := range n.List {
			v, err := Eval(item, row)
			if err != nil {
				return false, err
			}
			c, err := compareValues(x, v)
			if err != nil {
				return false, err
			}
			if c == 0 {
				found = true
				break
			}
		}
		return found != n.Negated, nil
	}
	return false, fmt.Errorf("expr: expression %T is not a predicate", e)
}

// compareValues compares possibly mixed-kind numerics; strings only compare
// with strings.
func compareValues(a, b value.Value) (int, error) {
	if a.Kind() == b.Kind() {
		return a.Compare(b), nil
	}
	if a.Kind() == value.KindString || b.Kind() == value.KindString {
		return 0, fmt.Errorf("expr: cannot compare %s with %s", a.Kind(), b.Kind())
	}
	af, bf := a.AsFloat(), b.AsFloat()
	switch {
	case af < bf:
		return -1, nil
	case af > bf:
		return 1, nil
	}
	return 0, nil
}

// Columns returns the distinct column names referenced by e, in first-use
// order.
func Columns(e sql.Expr) []string {
	var out []string
	seen := map[string]bool{}
	var walk func(sql.Expr)
	walk = func(e sql.Expr) {
		switch n := e.(type) {
		case *sql.Ident:
			if !seen[n.Name] {
				seen[n.Name] = true
				out = append(out, n.Name)
			}
		case *sql.Call:
			for _, a := range n.Args {
				walk(a)
			}
		case *sql.Binary:
			walk(n.L)
			walk(n.R)
		case *sql.Not:
			walk(n.X)
		case *sql.In:
			walk(n.X)
			for _, a := range n.List {
				walk(a)
			}
		}
	}
	if e != nil {
		walk(e)
	}
	return out
}

// IsLiteral reports whether e is a literal and returns its value.
func IsLiteral(e sql.Expr) (value.Value, bool) {
	switch n := e.(type) {
	case *sql.StringLit:
		return value.String(n.Val), true
	case *sql.IntLit:
		return value.Int64(n.Val), true
	case *sql.FloatLit:
		return value.Float64(n.Val), true
	}
	return value.Value{}, false
}

// MapRow adapts a map to the Row interface (used in tests and by the
// baseline backends).
type MapRow map[string]value.Value

// ColumnValue implements Row.
func (m MapRow) ColumnValue(name string) value.Value { return m[name] }
