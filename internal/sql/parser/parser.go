// Package parser turns SQL text into the AST of package ast via a
// hand-written recursive-descent parser.
package parser

import (
	"fmt"
	"strconv"
	"strings"

	"ironsafe/internal/sql/ast"
	"ironsafe/internal/sql/lexer"
	"ironsafe/internal/value"
)

// Parse parses a single SQL statement. Tokens are lexed as the parser reads
// them, so a statement refused early costs no more than the part read.
func Parse(sql string) (ast.Statement, error) {
	p := &parser{sc: lexer.NewScanner(sql)}
	stmt, err := p.parseStatement()
	if err == nil {
		// Allow a trailing semicolon.
		if p.peek().Kind == lexer.Symbol && p.peek().Text == ";" {
			p.next()
		}
		if p.peek().Kind != lexer.EOF {
			err = p.errf("unexpected trailing input %q", p.peek())
		} else if sel, ok := stmt.(*ast.Select); ok && !Fits(sel) {
			err = fmt.Errorf("%w: expression tree over %d levels", ErrTooDeep, maxHeight)
		}
	}
	// A lexical error anywhere in the input is the error, as it would be if
	// the whole input were lexed first.
	if lexErr := p.drain(); lexErr != nil {
		return nil, lexErr
	}
	if err != nil {
		return nil, err
	}
	return stmt, nil
}

// ParseSelect parses a statement and requires it to be a SELECT.
func ParseSelect(sql string) (*ast.Select, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*ast.Select)
	if !ok {
		return nil, fmt.Errorf("parser: expected SELECT, got %T", stmt)
	}
	return sel, nil
}

type parser struct {
	sc lexer.Scanner
	// la holds the lookahead, the next nla tokens; peek2 reads two ahead.
	la  [2]lexer.Token
	nla int
	// lexErr is the scanner's error: the token stream ends there, as EOF.
	lexErr error
	depth  int // nesting levels entered and not yet left
}

// scan reads the next token from the scanner: EOF from a lexical error on.
func (p *parser) scan() lexer.Token {
	if p.lexErr == nil {
		t, err := p.sc.Next()
		if err == nil {
			return t
		}
		p.lexErr = err
	}
	return lexer.Token{Kind: lexer.EOF}
}

// drain lexes the rest of the input and returns its lexical error, if any.
func (p *parser) drain() error {
	for p.lexErr == nil && p.scan().Kind != lexer.EOF {
	}
	return p.lexErr
}

func (p *parser) peek() lexer.Token {
	if p.nla == 0 {
		p.la[0], p.nla = p.scan(), 1
	}
	return p.la[0]
}

func (p *parser) peek2() lexer.Token {
	p.peek()
	if p.nla == 1 {
		p.la[1], p.nla = p.scan(), 2
	}
	return p.la[1]
}

// next consumes the next token; at EOF it stays there.
func (p *parser) next() lexer.Token {
	t := p.peek()
	if t.Kind != lexer.EOF {
		p.la[0], p.nla = p.la[1], p.nla-1
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("parser: %s (near offset %d)", fmt.Sprintf(format, args...), p.peek().Pos)
}

// kw reports whether the next token is the given keyword.
func (p *parser) kw(word string) bool {
	t := p.peek()
	return t.Kind == lexer.Keyword && t.Text == word
}

// acceptKw consumes the keyword if present.
func (p *parser) acceptKw(word string) bool {
	if p.kw(word) {
		p.next()
		return true
	}
	return false
}

// expectKw consumes the keyword or errors.
func (p *parser) expectKw(word string) error {
	if !p.acceptKw(word) {
		return p.errf("expected %s, got %q", word, p.peek())
	}
	return nil
}

// sym reports whether the next token is the given symbol.
func (p *parser) sym(s string) bool {
	t := p.peek()
	return t.Kind == lexer.Symbol && t.Text == s
}

func (p *parser) acceptSym(s string) bool {
	if p.sym(s) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectSym(s string) error {
	if !p.acceptSym(s) {
		return p.errf("expected %q, got %q", s, p.peek())
	}
	return nil
}

// ident consumes an identifier (or a non-reserved keyword used as a name).
func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.Kind == lexer.Ident {
		p.next()
		return t.Text, nil
	}
	return "", p.errf("expected identifier, got %q", t)
}

func (p *parser) parseStatement() (ast.Statement, error) {
	switch {
	case p.kw("SELECT"):
		return p.parseSelect()
	case p.kw("CREATE"):
		return p.parseCreateTable()
	case p.kw("INSERT"):
		return p.parseInsert()
	case p.kw("UPDATE"):
		return p.parseUpdate()
	case p.kw("DELETE"):
		return p.parseDelete()
	case p.kw("DROP"):
		return p.parseDropTable()
	default:
		return nil, p.errf("expected statement, got %q", p.peek())
	}
}

func (p *parser) parseSelect() (*ast.Select, error) { return nested(p, p.parseSelectBody) }

func (p *parser) parseSelectBody() (*ast.Select, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	sel := &ast.Select{Limit: -1}
	sel.Distinct = p.acceptKw("DISTINCT")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.acceptSym(",") {
			break
		}
	}
	if p.acceptKw("FROM") {
		refs, err := p.parseTableRefs()
		if err != nil {
			return nil, err
		}
		sel.From = refs
	}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
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
			sel.GroupBy = append(sel.GroupBy, e)
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
		sel.Having = e
	}
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := ast.OrderItem{Expr: e}
			if p.acceptKw("DESC") {
				item.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.acceptSym(",") {
				break
			}
		}
	}
	if p.acceptKw("LIMIT") {
		t := p.peek()
		if t.Kind != lexer.Number {
			return nil, p.errf("expected LIMIT count, got %q", t)
		}
		n, err := strconv.Atoi(t.Text)
		if err != nil || n < 0 {
			return nil, p.errf("bad LIMIT %q", t.Text)
		}
		p.next()
		sel.Limit = n
	}
	return sel, nil
}

func (p *parser) parseSelectItem() (ast.SelectItem, error) {
	if p.acceptSym("*") {
		return ast.SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return ast.SelectItem{}, err
	}
	item := ast.SelectItem{Expr: e}
	if p.acceptKw("AS") {
		name, err := p.ident()
		if err != nil {
			return ast.SelectItem{}, err
		}
		item.Alias = name
	} else if p.peek().Kind == lexer.Ident {
		item.Alias = p.next().Text
	}
	return item, nil
}

func (p *parser) parseTableRefs() ([]ast.TableRef, error) {
	var refs []ast.TableRef
	ref, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	refs = append(refs, ref)
	for {
		switch {
		case p.acceptSym(","):
			r, err := p.parseTablePrimary()
			if err != nil {
				return nil, err
			}
			refs = append(refs, r)
		case p.kw("LEFT"), p.kw("INNER"), p.kw("JOIN"):
			kind := ast.JoinInner
			if p.acceptKw("LEFT") {
				kind = ast.JoinLeftOuter
				p.acceptKw("OUTER")
			} else {
				p.acceptKw("INNER")
			}
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
			r, err := p.parseTablePrimary()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			r.Join = &ast.JoinClause{Kind: kind, On: on}
			refs = append(refs, r)
		default:
			return refs, nil
		}
	}
}

func (p *parser) parseTablePrimary() (ast.TableRef, error) {
	if p.acceptSym("(") {
		sub, err := p.parseSelect()
		if err != nil {
			return ast.TableRef{}, err
		}
		if err := p.expectSym(")"); err != nil {
			return ast.TableRef{}, err
		}
		ref := ast.TableRef{Subquery: sub}
		p.acceptKw("AS")
		name, err := p.ident()
		if err != nil {
			return ast.TableRef{}, fmt.Errorf("parser: derived table requires an alias: %w", err)
		}
		ref.Alias = name
		return ref, nil
	}
	name, err := p.ident()
	if err != nil {
		return ast.TableRef{}, err
	}
	ref := ast.TableRef{Table: name}
	if p.acceptKw("AS") {
		alias, err := p.ident()
		if err != nil {
			return ast.TableRef{}, err
		}
		ref.Alias = alias
	} else if p.peek().Kind == lexer.Ident {
		ref.Alias = p.next().Text
	}
	return ref, nil
}

// --- Expressions (precedence climbing) ---

func (p *parser) parseExpr() (ast.Expr, error) { return nested(p, p.parseOr) }

func (p *parser) parseOr() (ast.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &ast.BinaryExpr{Op: ast.OpOr, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (ast.Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &ast.BinaryExpr{Op: ast.OpAnd, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (ast.Expr, error) {
	if p.acceptKw("NOT") {
		inner, err := nested(p, p.parseNot)
		if err != nil {
			return nil, err
		}
		// Normalize NOT over quantified predicates into their Not forms
		// so the planner's decorrelation sees them directly.
		switch x := inner.(type) {
		case *ast.Exists:
			x.Not = !x.Not
			return x, nil
		case *ast.InSubquery:
			x.Not = !x.Not
			return x, nil
		case *ast.InList:
			x.Not = !x.Not
			return x, nil
		case *ast.Like:
			x.Not = !x.Not
			return x, nil
		case *ast.Between:
			x.Not = !x.Not
			return x, nil
		}
		return &ast.UnaryExpr{Op: "NOT", Expr: inner}, nil
	}
	return p.parsePredicate()
}

var cmpOps = map[string]ast.BinaryOp{
	"=": ast.OpEq, "<>": ast.OpNe, "!=": ast.OpNe,
	"<": ast.OpLt, "<=": ast.OpLe, ">": ast.OpGt, ">=": ast.OpGe,
}

func (p *parser) parsePredicate() (ast.Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// Comparison.
	if t := p.peek(); t.Kind == lexer.Symbol {
		if op, ok := cmpOps[t.Text]; ok {
			p.next()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &ast.BinaryExpr{Op: op, Left: left, Right: right}, nil
		}
	}
	not := false
	if p.kw("NOT") {
		// Only consume if followed by BETWEEN/LIKE/IN.
		n := p.peek2()
		if n.Kind == lexer.Keyword && (n.Text == "BETWEEN" || n.Text == "LIKE" || n.Text == "IN") {
			p.next()
			not = true
		}
	}
	switch {
	case p.acceptKw("BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &ast.Between{Expr: left, Lo: lo, Hi: hi, Not: not}, nil
	case p.acceptKw("LIKE"):
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &ast.Like{Expr: left, Pattern: pat, Not: not}, nil
	case p.acceptKw("IN"):
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		if p.kw("SELECT") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			return &ast.InSubquery{Expr: left, Subquery: sub, Not: not}, nil
		}
		var items []ast.Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			items = append(items, e)
			if !p.acceptSym(",") {
				break
			}
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return &ast.InList{Expr: left, Items: items, Not: not}, nil
	case p.kw("IS"):
		p.next()
		isNot := p.acceptKw("NOT")
		if err := p.expectKw("NULL"); err != nil {
			return nil, err
		}
		return &ast.IsNull{Expr: left, Not: isNot}, nil
	}
	if not {
		return nil, p.errf("dangling NOT")
	}
	return left, nil
}

func (p *parser) parseAdditive() (ast.Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op ast.BinaryOp
		switch {
		case p.sym("+"):
			op = ast.OpAdd
		case p.sym("-"):
			op = ast.OpSub
		case p.sym("||"):
			op = ast.OpConcat
		default:
			return left, nil
		}
		p.next()
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &ast.BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseMultiplicative() (ast.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op ast.BinaryOp
		switch {
		case p.sym("*"):
			op = ast.OpMul
		case p.sym("/"):
			op = ast.OpDiv
		case p.sym("%"):
			op = ast.OpMod
		default:
			return left, nil
		}
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &ast.BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseUnary() (ast.Expr, error) {
	if p.acceptSym("-") {
		inner, err := nested(p, p.parseUnary)
		if err != nil {
			return nil, err
		}
		// Fold negative literals.
		if lit, ok := inner.(*ast.Literal); ok && lit.Value.IsNumeric() {
			if lit.Value.Kind() == value.KindInt {
				return &ast.Literal{Value: value.Int(-lit.Value.AsInt())}, nil
			}
			return &ast.Literal{Value: value.Float(-lit.Value.AsFloat())}, nil
		}
		return &ast.UnaryExpr{Op: "-", Expr: inner}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (ast.Expr, error) {
	t := p.peek()
	switch {
	case t.Kind == lexer.Number:
		p.next()
		if strings.Contains(t.Text, ".") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.Text)
			}
			return &ast.Literal{Value: value.Float(f)}, nil
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.Text)
		}
		return &ast.Literal{Value: value.Int(n)}, nil

	case t.Kind == lexer.String:
		p.next()
		return &ast.Literal{Value: value.Str(t.Text)}, nil

	case p.kw("NULL"):
		p.next()
		return &ast.Literal{Value: value.Null()}, nil

	case p.kw("TRUE"):
		p.next()
		return &ast.Literal{Value: value.Bool(true)}, nil

	case p.kw("FALSE"):
		p.next()
		return &ast.Literal{Value: value.Bool(false)}, nil

	case p.kw("DATE"):
		p.next()
		s := p.peek()
		if s.Kind != lexer.String {
			return nil, p.errf("DATE requires a string literal")
		}
		p.next()
		v, err := value.ParseDate(s.Text)
		if err != nil {
			return nil, err
		}
		return &ast.Literal{Value: v}, nil

	case p.kw("INTERVAL"):
		p.next()
		s := p.peek()
		if s.Kind != lexer.String && s.Kind != lexer.Number {
			return nil, p.errf("INTERVAL requires a quantity")
		}
		p.next()
		n, err := strconv.Atoi(s.Text)
		if err != nil {
			return nil, p.errf("bad interval quantity %q", s.Text)
		}
		unit := p.peek()
		if unit.Kind != lexer.Keyword || (unit.Text != "DAY" && unit.Text != "MONTH" && unit.Text != "YEAR") {
			return nil, p.errf("expected DAY, MONTH, or YEAR after INTERVAL")
		}
		p.next()
		return &ast.IntervalExpr{N: n, Unit: strings.ToLower(unit.Text)}, nil

	case p.kw("CASE"):
		return p.parseCase()

	case p.kw("EXTRACT"):
		p.next()
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		field := p.peek()
		if field.Kind != lexer.Keyword || (field.Text != "YEAR" && field.Text != "MONTH") {
			return nil, p.errf("EXTRACT supports YEAR and MONTH")
		}
		p.next()
		if err := p.expectKw("FROM"); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return &ast.Extract{Field: field.Text, Expr: e}, nil

	case p.kw("SUBSTRING"):
		p.next()
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("FROM"); err != nil {
			return nil, err
		}
		from, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		var length ast.Expr
		if p.acceptKw("FOR") {
			length, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return &ast.Substring{Expr: e, From: from, For: length}, nil

	case p.kw("EXISTS"):
		p.next()
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return &ast.Exists{Subquery: sub}, nil

	case p.kw("COUNT"), p.kw("SUM"), p.kw("AVG"), p.kw("MIN"), p.kw("MAX"):
		name := p.next().Text
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		fc := &ast.FuncCall{Name: name}
		if p.acceptSym("*") {
			fc.Star = true
		} else {
			fc.Distinct = p.acceptKw("DISTINCT")
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fc.Args = []ast.Expr{arg}
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return fc, nil

	case p.sym("("):
		p.next()
		if p.kw("SELECT") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			return &ast.ScalarSubquery{Subquery: sub}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return e, nil

	case t.Kind == lexer.Ident:
		p.next()
		// Function call?
		if p.sym("(") {
			p.next()
			fc := &ast.FuncCall{Name: strings.ToUpper(t.Text)}
			if !p.acceptSym(")") {
				for {
					arg, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fc.Args = append(fc.Args, arg)
					if !p.acceptSym(",") {
						break
					}
				}
				if err := p.expectSym(")"); err != nil {
					return nil, err
				}
			}
			return fc, nil
		}
		// Qualified column?
		if p.acceptSym(".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ast.ColumnRef{Qualifier: t.Text, Name: col}, nil
		}
		return &ast.ColumnRef{Name: t.Text}, nil
	}
	return nil, p.errf("unexpected token %q in expression", t)
}

func (p *parser) parseCase() (ast.Expr, error) {
	if err := p.expectKw("CASE"); err != nil {
		return nil, err
	}
	ce := &ast.CaseExpr{}
	for p.acceptKw("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("THEN"); err != nil {
			return nil, err
		}
		res, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, ast.WhenClause{Cond: cond, Result: res})
	}
	if len(ce.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN")
	}
	if p.acceptKw("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if err := p.expectKw("END"); err != nil {
		return nil, err
	}
	return ce, nil
}

// --- DDL / DML ---

func (p *parser) parseCreateTable() (ast.Statement, error) {
	if err := p.expectKw("CREATE"); err != nil {
		return nil, err
	}
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	ct := &ast.CreateTable{Name: name}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		kind, err := p.parseType()
		if err != nil {
			return nil, err
		}
		ct.Columns = append(ct.Columns, ast.ColumnDef{Name: col, Kind: kind})
		// Skip PRIMARY KEY annotations.
		if p.acceptKw("PRIMARY") {
			if err := p.expectKw("KEY"); err != nil {
				return nil, err
			}
		}
		if !p.acceptSym(",") {
			break
		}
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return ct, nil
}

func (p *parser) parseType() (value.Kind, error) {
	t := p.peek()
	if t.Kind != lexer.Keyword {
		return value.KindNull, p.errf("expected type, got %q", t)
	}
	p.next()
	var kind value.Kind
	switch t.Text {
	case "INTEGER", "BIGINT":
		kind = value.KindInt
	case "DOUBLE", "DECIMAL":
		kind = value.KindFloat
	case "VARCHAR", "CHAR", "TEXT":
		kind = value.KindString
	case "DATE":
		kind = value.KindDate
	case "BOOLEAN":
		kind = value.KindBool
	default:
		return value.KindNull, p.errf("unknown type %q", t.Text)
	}
	// Optional precision/length: (n) or (p, s).
	if p.acceptSym("(") {
		for !p.acceptSym(")") {
			if p.peek().Kind == lexer.EOF {
				return value.KindNull, p.errf("unterminated type parameters")
			}
			p.next()
		}
	}
	return kind, nil
}

func (p *parser) parseInsert() (ast.Statement, error) {
	if err := p.expectKw("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := &ast.Insert{Table: name}
	if p.acceptSym("(") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col)
			if !p.acceptSym(",") {
				break
			}
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		var row []ast.Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptSym(",") {
				break
			}
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.acceptSym(",") {
			break
		}
	}
	return ins, nil
}

func (p *parser) parseUpdate() (ast.Statement, error) {
	if err := p.expectKw("UPDATE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	upd := &ast.Update{Table: name, Set: map[string]ast.Expr{}}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Set[strings.ToLower(col)] = e
		if !p.acceptSym(",") {
			break
		}
	}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Where = e
	}
	return upd, nil
}

func (p *parser) parseDelete() (ast.Statement, error) {
	if err := p.expectKw("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	del := &ast.Delete{Table: name}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = e
	}
	return del, nil
}

func (p *parser) parseDropTable() (ast.Statement, error) {
	if err := p.expectKw("DROP"); err != nil {
		return nil, err
	}
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	drop := &ast.DropTable{}
	if p.acceptKw("IF") {
		if err := p.expectKw("EXISTS"); err != nil {
			return nil, err
		}
		drop.IfExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	drop.Name = name
	return drop, nil
}
