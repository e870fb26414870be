package parser

import (
	"errors"
	"fmt"

	"ironsafe/internal/sql/ast"
)

// ErrTooDeep reports a statement nested past maxDepth while it is parsed, or
// a SELECT whose expression tree is taller than maxHeight. The parser
// recurses once per nesting level, so without the first bound a few
// megabytes of parentheses exhaust the goroutine stack, a fatal error no
// recover stops.
var ErrTooDeep = errors.New("parser: statement nested too deeply")

const (
	// maxDepth bounds the nesting the parser descends into: parenthesized
	// and CASE subexpressions, subqueries, NOT and unary minus, together.
	maxDepth = 1000
	// maxHeight bounds a SELECT's tree, subqueries included. The printer
	// parenthesizes every operator, so a chain of n ORs prints n levels deep
	// and NOT x as (NOT x); under maxHeight every accepted SELECT prints as
	// SQL that parses again within maxDepth.
	maxHeight = 400
)

// nested runs parse one nesting level down, or fails past maxDepth.
func nested[T any](p *parser, parse func() (T, error)) (T, error) {
	if p.depth == maxDepth {
		var zero T
		return zero, fmt.Errorf("%w: more than %d levels (near offset %d)", ErrTooDeep, maxDepth, p.peek().Pos)
	}
	p.depth++
	defer func() { p.depth-- }()
	return parse()
}

// Fits reports whether sel's tree is at most maxHeight levels tall, as Parse
// requires, descending no further. A tree edited after parsing — the
// monitor's policy rewrite — prints as SQL that parses again if it fits.
func Fits(sel *ast.Select) bool { return fitsSelect(sel, 1) }

// fitsSelect and fits report whether the tree under a node at height h stays
// within maxHeight.
func fitsSelect(sel *ast.Select, h int) bool {
	ok := h <= maxHeight
	ast.EachExpr(sel, func(e ast.Expr) bool { ok = ok && fits(e, h+1); return false })
	for _, ref := range sel.From {
		ok = ok && (ref.Subquery == nil || fitsSelect(ref.Subquery, h+1))
	}
	return ok
}

func fits(e ast.Expr, h int) bool {
	ok := h <= maxHeight
	if sub := ast.SubqueryOf(e); sub != nil {
		ok = ok && fitsSelect(sub, h+1)
	}
	ast.Walk(e, func(x ast.Expr) bool {
		if x == e {
			return ok
		}
		ok = ok && fits(x, h+1)
		return false
	})
	return ok
}
