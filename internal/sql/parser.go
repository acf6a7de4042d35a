package sql

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses a single SELECT statement.
func Parse(src string) (*SelectStmt, error) {
	if err := CheckLength(src); err != nil {
		return nil, err
	}
	p := &parser{lex: &lexer{src: src}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if p.tok.kind == tokSemi {
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.tok.kind != tokEOF {
		return nil, fmt.Errorf("sql: trailing input at %d: %q", p.tok.pos, p.tok.text)
	}
	return stmt, nil
}

// maxSourceBytes bounds the text of one statement, which every node of a
// serving tree receives whole, and whose predicates name the virtual fields
// a store persists.
const maxSourceBytes = 1 << 20

// LengthError is the error Parse returns for source over 1 MiB.
type LengthError struct {
	Len int // the source's length in bytes
}

func (e *LengthError) Error() string {
	return fmt.Sprintf("sql: statement of %d bytes exceeds the %d-byte limit", e.Len, maxSourceBytes)
}

// CheckLength returns the *LengthError Parse would refuse src with, or nil:
// the check a node that forwards statement text unparsed makes before it
// fans the text out.
func CheckLength(src string) error {
	if len(src) > maxSourceBytes {
		return &LengthError{Len: len(src)}
	}
	return nil
}

// maxDepth bounds how deeply a statement's expressions nest: the height of
// an expression tree, each operator, NOT, IN and call one level. The
// parser, the engine's compilers and String all recurse over the tree, and
// a recursion that exhausts the stack is a fatal error no recover catches.
const maxDepth = 1000

// maxOpen bounds the expressions the parser is inside at once — its own
// recursion, which parentheses deepen without adding a level. String prints
// a tree of height h inside at most 2h+1 of them (an IN list sits inside two
// parentheses), so every statement Parse accepts also parses from its
// String.
const maxOpen = 2*maxDepth + 1

// DepthError is the error Parse returns for a statement nested deeper than
// 1 000 levels, or parenthesized deeper than 2 001.
type DepthError struct {
	Pos int // byte offset where the limit was crossed
}

func (e *DepthError) Error() string {
	return fmt.Sprintf("sql: expression nested deeper than %d levels at %d", maxDepth, e.Pos)
}

type parser struct {
	lex *lexer
	tok token
	// open counts the expressions being parsed, one inside another; height
	// is the height of the expression the last parse step returned.
	open, height int
}

// node records that the expression being built stands one level above its
// tallest operand, of height h, and refuses it past maxDepth.
func (p *parser) node(h int) error {
	if p.height = h + 1; p.height > maxDepth {
		return &DepthError{Pos: p.tok.pos}
	}
	return nil
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// expectKeyword consumes the given keyword or fails.
func (p *parser) expectKeyword(kw string) error {
	if p.tok.kind != tokKeyword || p.tok.text != kw {
		return fmt.Errorf("sql: expected %s at %d, got %q", strings.ToUpper(kw), p.tok.pos, p.tok.text)
	}
	return p.advance()
}

// atKeyword reports whether the current token is the given keyword.
func (p *parser) atKeyword(kw string) bool {
	return p.tok.kind == tokKeyword && p.tok.text == kw
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if p.tok.kind != tokComma {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	if p.tok.kind != tokIdent {
		return nil, fmt.Errorf("sql: expected table name at %d", p.tok.pos)
	}
	stmt.From = p.tok.text
	if err := p.advance(); err != nil {
		return nil, err
	}
	if p.atKeyword("where") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	if p.atKeyword("group") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, g)
			if p.tok.kind != tokComma {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if p.atKeyword("having") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = h
	}
	if p.atKeyword("order") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.atKeyword("desc") {
				item.Desc = true
				if err := p.advance(); err != nil {
					return nil, err
				}
			} else if p.atKeyword("asc") {
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if p.tok.kind != tokComma {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if p.atKeyword("limit") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokNumber {
			return nil, fmt.Errorf("sql: expected LIMIT count at %d", p.tok.pos)
		}
		n, err := strconv.Atoi(p.tok.text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("sql: invalid LIMIT %q", p.tok.text)
		}
		stmt.Limit = n
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	return stmt, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.atKeyword("as") {
		if err := p.advance(); err != nil {
			return SelectItem{}, err
		}
		if p.tok.kind != tokIdent {
			return SelectItem{}, fmt.Errorf("sql: expected alias at %d", p.tok.pos)
		}
		item.Alias = p.tok.text
		if err := p.advance(); err != nil {
			return SelectItem{}, err
		}
	} else if p.tok.kind == tokIdent {
		// Bare alias: `COUNT(*) c`.
		item.Alias = p.tok.text
		if err := p.advance(); err != nil {
			return SelectItem{}, err
		}
	}
	return item, nil
}

// parseExpr parses with precedence OR < AND < NOT < comparison/IN <
// additive < multiplicative < unary.
func (p *parser) parseExpr() (Expr, error) {
	if p.open++; p.open > maxOpen {
		return nil, &DepthError{Pos: p.tok.pos}
	}
	e, err := p.parseOr()
	p.open--
	return e, err
}

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("or") {
		lh := p.height
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		if err := p.node(max(lh, p.height)); err != nil {
			return nil, err
		}
		l = &Binary{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("and") {
		lh := p.height
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		if err := p.node(max(lh, p.height)); err != nil {
			return nil, err
		}
		l = &Binary{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

// parseNot reads a run of NOTs in a loop, not by recursion: a run too long
// to build is refused by node, without the parser recursing through it.
func (p *parser) parseNot() (Expr, error) {
	nots := 0
	for p.atKeyword("not") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		nots++
	}
	x, err := p.parseComparison()
	if err != nil {
		return nil, err
	}
	for ; nots > 0; nots-- {
		if err := p.node(p.height); err != nil {
			return nil, err
		}
		x = &Not{X: x}
	}
	return x, nil
}

var cmpOps = map[string]BinaryOp{
	"=": OpEq, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	lh := p.height
	if p.tok.kind == tokOp {
		if op, ok := cmpOps[p.tok.text]; ok {
			if err := p.advance(); err != nil {
				return nil, err
			}
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if err := p.node(max(lh, p.height)); err != nil {
				return nil, err
			}
			return &Binary{Op: op, L: l, R: r}, nil
		}
	}
	negated := false
	if p.atKeyword("not") {
		// Must be NOT IN here.
		save := *p.lex
		saveTok := p.tok
		if err := p.advance(); err != nil {
			return nil, err
		}
		if !p.atKeyword("in") {
			*p.lex = save
			p.tok = saveTok
			return l, nil
		}
		negated = true
	}
	if p.atKeyword("in") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokLParen {
			return nil, fmt.Errorf("sql: expected ( after IN at %d", p.tok.pos)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			lh = max(lh, p.height)
			list = append(list, e)
			if p.tok.kind == tokComma {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if p.tok.kind != tokRParen {
			return nil, fmt.Errorf("sql: expected ) closing IN list at %d", p.tok.pos)
		}
		if err := p.node(lh); err != nil {
			return nil, err
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &In{X: l, List: list, Negated: negated}, nil
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && (p.tok.text == "+" || p.tok.text == "-") {
		op := OpAdd
		if p.tok.text == "-" {
			op = OpSub
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		lh := p.height
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		if err := p.node(max(lh, p.height)); err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && (p.tok.text == "*" || p.tok.text == "/") {
		op := OpMul
		if p.tok.text == "/" {
			op = OpDiv
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		lh := p.height
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if err := p.node(max(lh, p.height)); err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

// parseUnary reads a run of minus signs in a loop, like parseNot. A minus
// negates a literal in place and subtracts anything else from 0.
func (p *parser) parseUnary() (Expr, error) {
	minus := 0
	for p.tok.kind == tokOp && p.tok.text == "-" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		minus++
	}
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for ; minus > 0; minus-- {
		switch lit := x.(type) {
		case *IntLit:
			x = &IntLit{Val: -lit.Val}
		case *FloatLit:
			x = &FloatLit{Val: -lit.Val}
		default:
			if err := p.node(p.height); err != nil {
				return nil, err
			}
			x = &Binary{Op: OpSub, L: &IntLit{Val: 0}, R: x}
		}
	}
	return x, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	p.height = 1
	switch p.tok.kind {
	case tokNumber:
		text := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if strings.Contains(text, ".") {
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return nil, fmt.Errorf("sql: invalid float %q", text)
			}
			return &FloatLit{Val: f}, nil
		}
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sql: invalid integer %q", text)
		}
		return &IntLit{Val: n}, nil
	case tokString:
		s := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &StringLit{Val: s}, nil
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tokRParen {
			return nil, fmt.Errorf("sql: expected ) at %d", p.tok.pos)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return e, nil
	case tokIdent:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokLParen {
			return &Ident{Name: name}, nil
		}
		// Function call.
		if err := p.advance(); err != nil {
			return nil, err
		}
		call, h := &Call{Name: strings.ToLower(name)}, 0
		if p.tok.kind == tokOp && p.tok.text == "*" {
			call.Star = true
			if err := p.advance(); err != nil {
				return nil, err
			}
		} else if p.tok.kind != tokRParen {
			if p.atKeyword("distinct") {
				call.Distinct = true
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			for {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				h = max(h, p.height)
				if p.tok.kind != tokComma {
					break
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
		}
		if p.tok.kind != tokRParen {
			return nil, fmt.Errorf("sql: expected ) closing call at %d", p.tok.pos)
		}
		if err := p.node(h); err != nil {
			return nil, err
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return call, nil
	}
	return nil, fmt.Errorf("sql: unexpected token %q at %d", p.tok.text, p.tok.pos)
}
