// Package parser implements a recursive-descent parser for G-CORE's
// surface syntax (§3–§5 of the paper). It parses every numbered query
// of the paper's guided tour verbatim.
//
// The parser works over the full token slice and uses bounded
// backtracking in exactly one place: deciding whether a parenthesis in
// expression position opens a graph pattern (the implicit existential
// predicates of WHERE, "(n)-[:isLocatedIn]->()…"), a label test
// ("(n:Person)"), or an ordinary parenthesised expression.
package parser

import (
	"fmt"
	"strconv"
	"strings"

	"gcore/internal/ast"
	"gcore/internal/lexer"
	"gcore/internal/value"
)

// Error is a syntax error with its source position.
type Error struct {
	Pos lexer.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("parse error at %s: %s", e.Pos, e.Msg) }

// Parse parses one G-CORE statement.
func Parse(src string) (*ast.Statement, error) {
	toks, err := lexer.Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if p.cur().Is(";") {
		p.next()
	}
	if p.cur().Kind != lexer.EOF {
		return nil, p.errf("unexpected %s after end of statement", p.cur())
	}
	return stmt, nil
}

// Statement is one statement of a script: its syntax tree and its
// source text, the bytes from its first token to its last, without the
// separating ';' and without the blanks and comments around it.
type Statement struct {
	AST  *ast.Statement
	Text string
}

// ParseAll parses a script of statements separated by semicolons in
// one pass over one token slice. A script's statements keep the
// positions of the whole script, so Pos locates each one in it.
func ParseAll(src string) ([]Statement, error) {
	toks, err := lexer.Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var stmts []Statement
	for p.cur().Kind != lexer.EOF {
		first := p.cur().Off
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, Statement{AST: stmt, Text: src[first:p.toks[p.pos-1].End]})
		if p.cur().Is(";") {
			p.next()
		} else if p.cur().Kind != lexer.EOF {
			return nil, p.errf("unexpected %s after end of statement", p.cur())
		}
	}
	return stmts, nil
}

type parser struct {
	toks []lexer.Token
	pos  int
}

func (p *parser) cur() lexer.Token  { return p.toks[p.pos] }
func (p *parser) peek() lexer.Token { return p.at(1) }

func (p *parser) at(off int) lexer.Token {
	i := p.pos + off
	if i >= len(p.toks) {
		return p.toks[len(p.toks)-1] // EOF
	}
	return p.toks[i]
}

func (p *parser) next() lexer.Token {
	t := p.toks[p.pos]
	if t.Kind != lexer.EOF {
		p.pos++
	}
	return t
}

func (p *parser) save() int        { return p.pos }
func (p *parser) restore(mark int) { p.pos = mark }

func (p *parser) errf(format string, args ...any) error {
	return &Error{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expectPunct(s string) error {
	if !p.cur().Is(s) {
		return p.errf("expected %q, got %s", s, p.cur())
	}
	p.next()
	return nil
}

func (p *parser) expectKeyword(kw string) error {
	if !p.cur().IsKeyword(kw) {
		return p.errf("expected %s, got %s", kw, p.cur())
	}
	p.next()
	return nil
}

func (p *parser) expectIdent(what string) (string, error) {
	if p.cur().Kind != lexer.Ident {
		return "", p.errf("expected %s, got %s", what, p.cur())
	}
	return p.next().Text, nil
}

// ===== statements and queries =====

func (p *parser) parseStatement() (*ast.Statement, error) {
	stmt := &ast.Statement{}
	// EXPLAIN [ANALYZE] is a statement prefix, not a keyword: both words
	// stay usable as ordinary identifiers (labels, variables) elsewhere.
	// The lexer classifies them as Ident, so the check is case-insensitive
	// on the token text; a statement proper always starts with one of the
	// PATH/GRAPH/CONSTRUCT/SELECT keywords, so no ambiguity arises.
	if t := p.cur(); t.Kind == lexer.Ident && strings.EqualFold(t.Text, "EXPLAIN") {
		p.next()
		stmt.Explain = ast.ExplainPlan
		if t := p.cur(); t.Kind == lexer.Ident && strings.EqualFold(t.Text, "ANALYZE") {
			p.next()
			stmt.Explain = ast.ExplainAnalyze
		}
	}
	for {
		switch {
		case p.cur().IsKeyword("PATH"):
			pc, err := p.parsePathClause()
			if err != nil {
				return nil, err
			}
			stmt.Paths = append(stmt.Paths, pc)
		case p.cur().IsKeyword("GRAPH"):
			gc, err := p.parseGraphClause()
			if err != nil {
				return nil, err
			}
			stmt.Graphs = append(stmt.Graphs, gc)
		default:
			if p.cur().IsKeyword("CONSTRUCT") || p.cur().IsKeyword("SELECT") {
				q, err := p.parseFullQuery()
				if err != nil {
					return nil, err
				}
				stmt.Query = q
			}
			if stmt.Query == nil && len(stmt.Paths) == 0 && len(stmt.Graphs) == 0 {
				return nil, p.errf("expected CONSTRUCT, SELECT, PATH or GRAPH, got %s", p.cur())
			}
			return stmt, nil
		}
	}
}

func (p *parser) parseFullQuery() (ast.Query, error) {
	left, err := p.parseBasicQuery()
	if err != nil {
		return nil, err
	}
	var q ast.Query = left
	for {
		var op ast.SetOp
		switch {
		case p.cur().IsKeyword("UNION"):
			op = ast.SetUnion
		case p.cur().IsKeyword("INTERSECT"):
			op = ast.SetIntersect
		case p.cur().IsKeyword("MINUS"):
			op = ast.SetMinus
		default:
			return q, nil
		}
		p.next()
		// Operand: another basic query, a bare graph name (the paper's
		// "UNION social_graph" shorthand), or a parenthesised query.
		var right ast.Query
		switch {
		case p.cur().Kind == lexer.Ident:
			// A bare graph name used as a query operand is sugar for
			// CONSTRUCT gid (union with that graph's contents).
			name := p.next().Text
			right = &ast.BasicQuery{
				Construct: &ast.ConstructClause{Items: []*ast.ConstructItem{{GraphName: name}}},
			}
		case p.cur().Is("("):
			p.next()
			sub, err := p.parseFullQuery()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			right = sub
		default:
			sub, err := p.parseBasicQuery()
			if err != nil {
				return nil, err
			}
			right = sub
		}
		q = &ast.SetQuery{Op: op, Left: q, Right: right}
	}
}

func (p *parser) parseBasicQuery() (*ast.BasicQuery, error) {
	bq := &ast.BasicQuery{P: p.cur().Pos}
	switch {
	case p.cur().IsKeyword("CONSTRUCT"):
		cc, err := p.parseConstructClause()
		if err != nil {
			return nil, err
		}
		bq.Construct = cc
	case p.cur().IsKeyword("SELECT"):
		sc, err := p.parseSelectClause()
		if err != nil {
			return nil, err
		}
		bq.Select = sc
	default:
		return nil, p.errf("expected CONSTRUCT or SELECT, got %s", p.cur())
	}
	switch {
	case p.cur().IsKeyword("FROM"):
		p.next()
		name, err := p.expectIdent("binding table name after FROM")
		if err != nil {
			return nil, err
		}
		bq.From = name
	case p.cur().IsKeyword("MATCH"):
		mc, err := p.parseMatchClause()
		if err != nil {
			return nil, err
		}
		bq.Match = mc
	}
	if bq.Select != nil && bq.Match == nil && bq.From == "" {
		return nil, p.errf("SELECT requires a MATCH or FROM clause")
	}
	// ORDER BY and LIMIT may trail the MATCH clause (the natural SQL
	// position) as well as the SELECT list.
	if bq.Select != nil {
		if err := p.parseOrderLimit(bq.Select); err != nil {
			return nil, err
		}
	}
	return bq, nil
}

// ===== head clauses =====

func (p *parser) parsePathClause() (*ast.PathClause, error) {
	pc := &ast.PathClause{P: p.cur().Pos}
	p.next() // PATH
	name, err := p.expectIdent("path view name")
	if err != nil {
		return nil, err
	}
	pc.Name = name
	if err := p.expectPunct("="); err != nil {
		return nil, err
	}
	for {
		gp, err := p.parseGraphPattern(false)
		if err != nil {
			return nil, err
		}
		pc.Patterns = append(pc.Patterns, gp)
		if p.cur().Is(",") {
			p.next()
			continue
		}
		break
	}
	if p.cur().IsKeyword("WHERE") {
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		pc.Where = e
	}
	if p.cur().IsKeyword("COST") {
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		pc.Cost = e
	}
	return pc, nil
}

func (p *parser) parseGraphClause() (*ast.GraphClause, error) {
	gc := &ast.GraphClause{P: p.cur().Pos}
	p.next() // GRAPH
	if p.cur().IsKeyword("VIEW") {
		gc.View = true
		p.next()
	}
	name, err := p.expectIdent("graph name")
	if err != nil {
		return nil, err
	}
	gc.Name = name
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	body, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if body.Query == nil {
		return nil, p.errf("GRAPH %s AS (...) needs a query body", name)
	}
	gc.Body = body
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return gc, nil
}

// ===== MATCH =====

func (p *parser) parseMatchClause() (*ast.MatchClause, error) {
	mc := &ast.MatchClause{P: p.cur().Pos}
	p.next() // MATCH
	pats, err := p.parseLocatedPatterns()
	if err != nil {
		return nil, err
	}
	mc.Patterns = pats
	if p.cur().IsKeyword("WHERE") {
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		mc.Where = e
	}
	for p.cur().IsKeyword("OPTIONAL") {
		ob := &ast.OptionalBlock{P: p.cur().Pos}
		p.next()
		pats, err := p.parseLocatedPatterns()
		if err != nil {
			return nil, err
		}
		ob.Patterns = pats
		if p.cur().IsKeyword("WHERE") {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			ob.Where = e
		}
		mc.Optionals = append(mc.Optionals, ob)
	}
	return mc, nil
}

func (p *parser) parseLocatedPatterns() ([]*ast.LocatedPattern, error) {
	var out []*ast.LocatedPattern
	for {
		gp, err := p.parseGraphPattern(false)
		if err != nil {
			return nil, err
		}
		lp := &ast.LocatedPattern{Pattern: gp}
		if p.cur().IsKeyword("ON") {
			p.next()
			switch {
			case p.cur().Kind == lexer.Ident:
				lp.OnGraph = p.next().Text
			case p.cur().Is("("):
				p.next()
				sub, err := p.parseFullQuery()
				if err != nil {
					return nil, err
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
				lp.OnQuery = sub
			default:
				return nil, p.errf("expected graph name or (query) after ON, got %s", p.cur())
			}
		}
		out = append(out, lp)
		if p.cur().Is(",") {
			p.next()
			continue
		}
		// A trailing ON distributes leftwards: in the paper's line 69,
		// "MATCH (n)-/@p:toWagner/->(), (m:Person) ON social_graph2"
		// locates both patterns on social_graph2. Patterns without
		// their own ON inherit the nearest following pattern's ON.
		for i := len(out) - 2; i >= 0; i-- {
			if out[i].OnGraph == "" && out[i].OnQuery == nil {
				out[i].OnGraph = out[i+1].OnGraph
				out[i].OnQuery = out[i+1].OnQuery
			}
		}
		return out, nil
	}
}

// ===== CONSTRUCT =====

func (p *parser) parseConstructClause() (*ast.ConstructClause, error) {
	cc := &ast.ConstructClause{P: p.cur().Pos}
	p.next() // CONSTRUCT
	for {
		item, err := p.parseConstructItem()
		if err != nil {
			return nil, err
		}
		cc.Items = append(cc.Items, item)
		if p.cur().Is(",") {
			p.next()
			continue
		}
		return cc, nil
	}
}

func (p *parser) parseConstructItem() (*ast.ConstructItem, error) {
	item := &ast.ConstructItem{P: p.cur().Pos}
	if p.cur().Kind == lexer.Ident && !p.peek().Is("(") {
		// Bare graph name (the union shorthand of line 20).
		item.GraphName = p.next().Text
		return item, nil
	}
	gp, err := p.parseGraphPattern(true)
	if err != nil {
		return nil, err
	}
	item.Pattern = gp
	for {
		switch {
		case p.cur().IsKeyword("SET"):
			p.next()
			si, err := p.parseSetItem()
			if err != nil {
				return nil, err
			}
			item.Sets = append(item.Sets, si)
		case p.cur().IsKeyword("REMOVE"):
			p.next()
			ri, err := p.parseRemoveItem()
			if err != nil {
				return nil, err
			}
			item.Removes = append(item.Removes, ri)
		case p.cur().IsKeyword("WHEN"):
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item.When = e
		default:
			return item, nil
		}
	}
}

func (p *parser) parseSetItem() (*ast.SetItem, error) {
	si := &ast.SetItem{P: p.cur().Pos}
	v, err := p.expectIdent("variable in SET")
	if err != nil {
		return nil, err
	}
	si.Var = v
	switch {
	case p.cur().Is("."):
		p.next()
		key, err := p.expectIdent("property name in SET")
		if err != nil {
			return nil, err
		}
		si.Key = key
		if !p.cur().Is(":=") && !p.cur().Is("=") {
			return nil, p.errf("expected := in SET, got %s", p.cur())
		}
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		si.Expr = e
	case p.cur().Is(":"):
		p.next()
		label, err := p.expectIdent("label in SET")
		if err != nil {
			return nil, err
		}
		si.Label = label
	default:
		return nil, p.errf("expected .property or :label in SET, got %s", p.cur())
	}
	return si, nil
}

func (p *parser) parseRemoveItem() (*ast.RemoveItem, error) {
	ri := &ast.RemoveItem{P: p.cur().Pos}
	v, err := p.expectIdent("variable in REMOVE")
	if err != nil {
		return nil, err
	}
	ri.Var = v
	switch {
	case p.cur().Is("."):
		p.next()
		key, err := p.expectIdent("property name in REMOVE")
		if err != nil {
			return nil, err
		}
		ri.Key = key
	case p.cur().Is(":"):
		p.next()
		label, err := p.expectIdent("label in REMOVE")
		if err != nil {
			return nil, err
		}
		ri.Label = label
	default:
		return nil, p.errf("expected .property or :label in REMOVE, got %s", p.cur())
	}
	return ri, nil
}

// ===== SELECT (§5 extension) =====

func (p *parser) parseSelectClause() (*ast.SelectClause, error) {
	sc := &ast.SelectClause{P: p.cur().Pos, Limit: -1}
	p.next() // SELECT
	if p.cur().IsKeyword("DISTINCT") {
		sc.Distinct = true
		p.next()
	}
	for {
		it := &ast.SelectItem{P: p.cur().Pos}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		it.Expr = e
		if p.cur().IsKeyword("AS") {
			p.next()
			name, err := p.expectIdent("column alias")
			if err != nil {
				return nil, err
			}
			it.As = name
		}
		sc.Items = append(sc.Items, it)
		if p.cur().Is(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.parseOrderLimit(sc); err != nil {
		return nil, err
	}
	return sc, nil
}

// parseOrderLimit parses optional ORDER BY and LIMIT clauses into sc.
func (p *parser) parseOrderLimit(sc *ast.SelectClause) error {
	if p.cur().IsKeyword("ORDER") {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return err
		}
		for {
			oi := &ast.OrderItem{}
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			oi.Expr = e
			if p.cur().IsKeyword("DESC") {
				oi.Desc = true
				p.next()
			} else if p.cur().IsKeyword("ASC") {
				p.next()
			}
			sc.OrderBy = append(sc.OrderBy, oi)
			if p.cur().Is(",") {
				p.next()
				continue
			}
			break
		}
	}
	if p.cur().IsKeyword("LIMIT") {
		p.next()
		if p.cur().Kind != lexer.Int {
			return p.errf("expected integer after LIMIT, got %s", p.cur())
		}
		n, err := strconv.Atoi(p.next().Text)
		if err != nil || n < 0 {
			return p.errf("invalid LIMIT value")
		}
		sc.Limit = n
	}
	return nil
}

// literalFromToken converts a literal token to a value.
func literalFromToken(t lexer.Token) (value.Value, error) {
	switch t.Kind {
	case lexer.Int:
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return value.Null, err
		}
		return value.Int(i), nil
	case lexer.Float:
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return value.Null, err
		}
		return value.Float(f), nil
	case lexer.String:
		return value.Str(t.Text), nil
	}
	return value.Null, fmt.Errorf("not a literal token: %s", t)
}

// validFuncName reports whether name may be used as a function.
func validFuncName(name string) bool {
	switch strings.ToLower(name) {
	case "labels", "nodes", "edges", "size", "length", "cost", "id",
		"tostring", "tointeger", "tofloat", "count", "sum", "min", "max",
		"avg", "collect", "trim", "upper", "lower",
		"substring", "contains", "startswith", "endswith", "replace",
		"abs", "floor", "ceil", "round", "sqrt":
		return true
	}
	return false
}
