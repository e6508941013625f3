package cql

import (
	"fmt"
	"strconv"
)

// Parse compiles one continuous query. Grammar (informally):
//
//	query   := [ISTREAM|DSTREAM|RSTREAM] '(' select ')' | select
//	select  := SELECT items FROM refs [WHERE expr] [GROUP BY exprs] [HAVING expr]
//	items   := '*' | item (',' item)*
//	item    := expr [AS ident]
//	refs    := ref ((',' | JOIN) ref [ON expr])*
//	ref     := ident ['[' window ']'] [AS? ident]
//	window  := RANGE number [SLIDE number] | ROWS number | NOW | UNBOUNDED
func Parse(src string) (*SelectStmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	if len(toks) > maxQueryTokens {
		return nil, fmt.Errorf("cql: query has more than %d tokens", maxQueryTokens)
	}
	p := &parser{toks: toks}
	stmt, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	p.acceptSym(";")
	if !p.at(tokEOF, "") {
		return nil, p.errf("trailing input starting at %q", p.cur().text)
	}
	return stmt, nil
}

// maxQueryTokens bounds a query's size. The parser, the planner and exprKey
// recurse over expressions as deep as the text nests them, and query text
// arrives from the network: it must not be able to choose their stack depth.
const maxQueryTokens = 4096

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) acceptKw(kw string) bool {
	if p.at(tokKeyword, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) acceptSym(s string) bool {
	if p.at(tokSymbol, s) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %s, got %q", kw, p.cur().text)
	}
	return nil
}

func (p *parser) expectSym(s string) error {
	if !p.acceptSym(s) {
		return p.errf("expected %q, got %q", s, p.cur().text)
	}
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("cql: parse error at offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

func (p *parser) parseQuery() (*SelectStmt, error) {
	emit := EmitIStream
	wrapped := false
	switch {
	case p.acceptKw("ISTREAM"):
		emit, wrapped = EmitIStream, true
	case p.acceptKw("DSTREAM"):
		emit, wrapped = EmitDStream, true
	case p.acceptKw("RSTREAM"):
		emit, wrapped = EmitRStream, true
	}
	if wrapped {
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
	}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	stmt.Emit = emit
	if wrapped {
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
	}
	return stmt, nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{}
	for {
		if p.acceptSym("*") {
			stmt.Items = append(stmt.Items, SelectItem{Star: true})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.acceptKw("AS") {
				if !p.at(tokIdent, "") {
					return nil, p.errf("expected alias after AS")
				}
				item.Alias = p.next().text
			}
			stmt.Items = append(stmt.Items, item)
		}
		if !p.acceptSym(",") {
			break
		}
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	first, err := p.parseStreamRef()
	if err != nil {
		return nil, err
	}
	stmt.From = append(stmt.From, first)
	for {
		if p.acceptSym(",") {
			ref, err := p.parseStreamRef()
			if err != nil {
				return nil, err
			}
			stmt.From = append(stmt.From, ref)
			continue
		}
		if p.acceptKw("JOIN") {
			jref, err := p.parseStreamRef()
			if err != nil {
				return nil, err
			}
			if p.acceptKw("ON") {
				cond, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				jref.JoinOn = cond
			}
			stmt.From = append(stmt.From, jref)
			continue
		}
		break
	}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if !p.acceptSym(",") {
				break
			}
		}
	}
	if p.acceptKw("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = e
	}
	return stmt, nil
}

func (p *parser) parseStreamRef() (StreamRef, error) {
	var ref StreamRef
	if !p.at(tokIdent, "") {
		return ref, p.errf("expected stream name, got %q", p.cur().text)
	}
	ref.Stream = p.next().text
	ref.Window = WindowSpec{Kind: WindowUnbounded}
	if p.acceptSym("[") {
		switch {
		case p.acceptKw("RANGE"):
			n, err := p.parseNumberTok()
			if err != nil {
				return ref, err
			}
			ref.Window = WindowSpec{Kind: WindowRange, N: n}
			if p.acceptKw("SLIDE") {
				s, err := p.parseNumberTok()
				if err != nil {
					return ref, err
				}
				ref.Window.Slide = s
			}
		case p.acceptKw("ROWS"):
			n, err := p.parseNumberTok()
			if err != nil {
				return ref, err
			}
			ref.Window = WindowSpec{Kind: WindowRows, N: n}
		case p.acceptKw("NOW"):
			ref.Window = WindowSpec{Kind: WindowNow}
		case p.acceptKw("UNBOUNDED"):
			ref.Window = WindowSpec{Kind: WindowUnbounded}
		default:
			return ref, p.errf("expected window spec, got %q", p.cur().text)
		}
		if err := p.expectSym("]"); err != nil {
			return ref, err
		}
	}
	if p.acceptKw("AS") {
		if !p.at(tokIdent, "") {
			return ref, p.errf("expected alias after AS")
		}
		ref.Alias = p.next().text
	} else if p.at(tokIdent, "") {
		ref.Alias = p.next().text
	}
	return ref, nil
}

func (p *parser) parseNumberTok() (int64, error) {
	if !p.at(tokNumber, "") {
		return 0, p.errf("expected number, got %q", p.cur().text)
	}
	v, err := strconv.ParseInt(p.next().text, 10, 64)
	if err != nil {
		return 0, p.errf("bad number: %v", err)
	}
	return v, nil
}

// Expression grammar with precedence: OR < AND < NOT < comparison < additive
// < multiplicative < unary < primary.
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKw("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"<=", ">=", "!=", "<>", "=", "<", ">"} {
		if p.at(tokSymbol, op) {
			p.pos++
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if op == "<>" {
				op = "!="
			}
			return &Binary{Op: op, Left: left, Right: right}, nil
		}
	}
	return left, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.acceptSym("+"):
			op = "+"
		case p.acceptSym("-"):
			op = "-"
		default:
			return left, nil
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.acceptSym("*"):
			op = "*"
		case p.acceptSym("/"):
			op = "/"
		default:
			return left, nil
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptSym("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.pos++
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return &NumberLit{V: v}, nil
	case t.kind == tokString:
		p.pos++
		return &StringLit{V: t.text}, nil
	case t.kind == tokKeyword && t.text == "TRUE":
		p.pos++
		return &BoolLit{V: true}, nil
	case t.kind == tokKeyword && t.text == "FALSE":
		p.pos++
		return &BoolLit{V: false}, nil
	case t.kind == tokSymbol && t.text == "(":
		p.pos++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokIdent:
		p.pos++
		name := t.text
		// Function call?
		if p.acceptSym("(") {
			call := &Call{Fn: upper(name)}
			if p.acceptSym("*") {
				call.Star = true
			} else if !p.at(tokSymbol, ")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if !p.acceptSym(",") {
						break
					}
				}
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			return call, nil
		}
		// Qualified identifier?
		if p.acceptSym(".") {
			if !p.at(tokIdent, "") {
				return nil, p.errf("expected column after %q.", name)
			}
			col := p.next().text
			return &Ident{Qualifier: name, Name: col}, nil
		}
		return &Ident{Name: name}, nil
	}
	return nil, p.errf("unexpected token %q", t.text)
}

func upper(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'a' && b[i] <= 'z' {
			b[i] -= 32
		}
	}
	return string(b)
}
