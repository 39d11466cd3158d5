package query

import (
	"fmt"
	"strconv"
	"strings"

	"progxe/internal/preference"
	"progxe/internal/relation"
)

// Parse parses a query in the PREFERRING dialect.
func Parse(input string) (*Query, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	return q, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) errf(format string, args ...any) error {
	t := p.cur()
	return fmt.Errorf("query: position %d (near %q): %s", t.pos, t.text, fmt.Sprintf(format, args...))
}

func (p *parser) expect(k tokenKind) (token, error) {
	if p.cur().kind != k {
		return token{}, p.errf("expected %s, found %s", k, p.cur().kind)
	}
	return p.next(), nil
}

func (p *parser) keyword(kw string) error {
	if !isKeyword(p.cur(), kw) {
		return p.errf("expected keyword %s", kw)
	}
	p.next()
	return nil
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{}
	if err := p.keyword("SELECT"); err != nil {
		return nil, err
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		q.Select = append(q.Select, item)
		if p.cur().kind != tokComma {
			break
		}
		p.next()
	}
	if err := p.keyword("FROM"); err != nil {
		return nil, err
	}
	for i := 0; i < 2; i++ {
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		q.From[i] = tr
		if i == 0 {
			if _, err := p.expect(tokComma); err != nil {
				return nil, fmt.Errorf("%w (SkyMapJoin queries take exactly two sources)", err)
			}
		}
	}
	if err := p.keyword("WHERE"); err != nil {
		return nil, err
	}
	if err := p.parseWhere(q); err != nil {
		return nil, err
	}
	if err := p.keyword("PREFERRING"); err != nil {
		return nil, err
	}
	for {
		item, err := p.parsePrefItem()
		if err != nil {
			return nil, err
		}
		q.Preferring = append(q.Preferring, item)
		if !isKeyword(p.cur(), "AND") {
			break
		}
		p.next()
	}
	if p.cur().kind != tokEOF {
		return nil, p.errf("trailing input after query")
	}
	if err := q.check(); err != nil {
		return nil, err
	}
	return q, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	// Plain column reference: IDENT '.' IDENT not followed by arithmetic.
	if p.cur().kind == tokIdent && !isKeyword(p.cur(), "MIN") && !isKeyword(p.cur(), "MAX") &&
		p.toks[p.i+1].kind == tokDot && p.toks[p.i+2].kind == tokIdent {
		after := p.toks[p.i+3].kind
		if after == tokComma || isKeyword(p.toks[p.i+3], "FROM") {
			alias := p.next().text
			p.next() // dot
			attr, err := p.expect(tokIdent)
			if err != nil {
				return SelectItem{}, err
			}
			return SelectItem{Alias: alias, Attr: attr.text}, nil
		}
	}
	expr, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	if err := p.keyword("AS"); err != nil {
		return SelectItem{}, fmt.Errorf("%w (mapping expressions need an output name)", err)
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return SelectItem{}, err
	}
	return SelectItem{Expr: expr, Name: name.text}, nil
}

// parseExpr handles addition and subtraction (lowest precedence).
func (p *parser) parseExpr() (Node, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokPlus || p.cur().kind == tokMinus {
		op := byte('+')
		if p.next().kind == tokMinus {
			op = '-'
		}
		right, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		left = BinNode{Op: op, L: left, R: right}
	}
	return left, nil
}

// parseTerm handles multiplication.
func (p *parser) parseTerm() (Node, error) {
	left, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokStar {
		p.next()
		right, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		left = BinNode{Op: '*', L: left, R: right}
	}
	return left, nil
}

// parseFactor handles literals, column refs, calls, parens, unary minus.
func (p *parser) parseFactor() (Node, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.next()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return NumNode(v), nil
	case t.kind == tokMinus:
		p.next()
		inner, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		// A negated literal is a negative literal, so the rendered
		// "(-1 * x)" parses back to the node it came from.
		if num, ok := inner.(NumNode); ok {
			return -num, nil
		}
		return BinNode{Op: '*', L: NumNode(-1), R: inner}, nil
	case t.kind == tokLParen:
		p.next()
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return inner, nil
	case isKeyword(t, "MIN") || isKeyword(t, "MAX"):
		fn := strings.ToLower(t.text)
		p.next()
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		var args []Node
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if p.cur().kind != tokComma {
				break
			}
			p.next()
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		if len(args) == 0 {
			return nil, p.errf("%s needs at least one argument", strings.ToUpper(fn))
		}
		return CallNode{Fn: fn, Args: args}, nil
	case t.kind == tokIdent:
		alias := p.next().text
		if _, err := p.expect(tokDot); err != nil {
			return nil, err
		}
		attr, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		return ColNode{Alias: alias, Attr: attr.text}, nil
	default:
		return nil, p.errf("expected an expression")
	}
}

func (p *parser) parseTableRef() (TableRef, error) {
	table, err := p.expect(tokIdent)
	if err != nil {
		return TableRef{}, err
	}
	alias, err := p.expect(tokIdent)
	if err != nil {
		return TableRef{}, fmt.Errorf("%w (every source needs an alias)", err)
	}
	return TableRef{Table: table.text, Alias: alias.text}, nil
}

// parseWhere parses the conjunction of the join condition and filters.
func (p *parser) parseWhere(q *Query) error {
	haveJoin := false
	for {
		alias, err := p.expect(tokIdent)
		if err != nil {
			return err
		}
		if _, err := p.expect(tokDot); err != nil {
			return err
		}
		attr, err := p.expect(tokIdent)
		if err != nil {
			return err
		}
		opTok := p.cur()
		var op relation.CmpOp
		switch opTok.kind {
		case tokEQ:
			op = relation.EQ
		case tokNE:
			op = relation.NE
		case tokLT:
			op = relation.LT
		case tokLE:
			op = relation.LE
		case tokGT:
			op = relation.GT
		case tokGE:
			op = relation.GE
		default:
			return p.errf("expected a comparison operator, found %s", opTok.kind)
		}
		p.next()
		// Join condition: alias.attr = alias2.attr2.
		if op == relation.EQ && p.cur().kind == tokIdent && p.toks[p.i+1].kind == tokDot {
			if haveJoin {
				return p.errf("only one join condition is supported")
			}
			alias2 := p.next().text
			p.next() // dot
			attr2, err := p.expect(tokIdent)
			if err != nil {
				return err
			}
			q.Join = JoinCond{LeftAlias: alias.text, LeftAttr: attr.text, RightAlias: alias2, RightAttr: attr2.text}
			haveJoin = true
		} else {
			num, err := p.expect(tokNumber)
			if err != nil {
				return fmt.Errorf("%w (filters compare against numeric constants)", err)
			}
			v, err := strconv.ParseFloat(num.text, 64)
			if err != nil {
				return p.errf("bad number %q", num.text)
			}
			q.Filters = append(q.Filters, Filter{Alias: alias.text, Attr: attr.text, Op: op, Const: v})
		}
		if !isKeyword(p.cur(), "AND") {
			break
		}
		p.next()
	}
	if !haveJoin {
		return p.errf("WHERE clause needs a join condition (alias.attr = alias.attr)")
	}
	return nil
}

func (p *parser) parsePrefItem() (PrefItem, error) {
	var order preference.Order
	switch {
	case isKeyword(p.cur(), "LOWEST"):
		order = preference.Lowest
	case isKeyword(p.cur(), "HIGHEST"):
		order = preference.Highest
	default:
		return PrefItem{}, p.errf("expected LOWEST or HIGHEST")
	}
	p.next()
	if _, err := p.expect(tokLParen); err != nil {
		return PrefItem{}, err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return PrefItem{}, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return PrefItem{}, err
	}
	return PrefItem{Order: order, Name: name.text}, nil
}

// check validates cross-clause consistency after parsing.
func (q *Query) check() error {
	aliases := map[string]bool{q.From[0].Alias: true, q.From[1].Alias: true}
	if q.From[0].Alias == q.From[1].Alias {
		return fmt.Errorf("query: duplicate source alias %q", q.From[0].Alias)
	}
	names := map[string]bool{}
	for _, s := range q.Select {
		if s.IsExpr() {
			if names[s.Name] {
				return fmt.Errorf("query: duplicate output name %q", s.Name)
			}
			names[s.Name] = true
			if err := checkAliases(s.Expr, aliases); err != nil {
				return err
			}
		} else if !aliases[s.Alias] {
			return fmt.Errorf("query: unknown alias %q in SELECT", s.Alias)
		}
	}
	if !aliases[q.Join.LeftAlias] || !aliases[q.Join.RightAlias] {
		return fmt.Errorf("query: join condition references unknown alias")
	}
	if q.Join.LeftAlias == q.Join.RightAlias {
		return fmt.Errorf("query: join condition must relate the two different sources")
	}
	for _, f := range q.Filters {
		if !aliases[f.Alias] {
			return fmt.Errorf("query: filter references unknown alias %q", f.Alias)
		}
	}
	if len(q.Preferring) == 0 {
		return fmt.Errorf("query: PREFERRING clause is empty")
	}
	for _, pr := range q.Preferring {
		if !names[pr.Name] {
			return fmt.Errorf("query: PREFERRING references %q, which is not a named mapping output", pr.Name)
		}
	}
	return nil
}

func checkAliases(n Node, aliases map[string]bool) error {
	switch v := n.(type) {
	case ColNode:
		if !aliases[v.Alias] {
			return fmt.Errorf("query: unknown alias %q in expression", v.Alias)
		}
	case BinNode:
		if err := checkAliases(v.L, aliases); err != nil {
			return err
		}
		return checkAliases(v.R, aliases)
	case CallNode:
		for _, a := range v.Args {
			if err := checkAliases(a, aliases); err != nil {
				return err
			}
		}
	}
	return nil
}
