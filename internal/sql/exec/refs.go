package exec

import (
	"strings"

	"ironsafe/internal/schema"
	"ironsafe/internal/sql/ast"
)

// colRefs is the set of columns a statement can read, by name. It is
// deliberately conservative: qualifiers and scopes are ignored, so a table
// keeps every column whose name appears anywhere in the statement. Because
// the test is by name alone, two FROM entries exposing the same column name
// keep or drop it together, and name resolution (ambiguity included) behaves
// exactly as over the unpruned tables.
type colRefs struct {
	names map[string]bool // lower-cased ColumnRef names, at every nesting level
	// stars holds the lower-cased base tables under a SELECT with a * item.
	// The body of an EXISTS is exempt: existence reads no output column.
	stars map[string]bool
}

// collectRefs gathers the columns sel references, subqueries and derived
// tables included.
func collectRefs(sel *ast.Select) *colRefs {
	r := &colRefs{names: map[string]bool{}, stars: map[string]bool{}}
	r.addSelect(sel, false)
	return r
}

func (r *colRefs) addSelect(sel *ast.Select, existsBody bool) {
	for _, ref := range sel.From {
		if ref.Subquery != nil {
			r.addSelect(ref.Subquery, false)
		}
		for _, it := range sel.Items {
			if it.Star && ref.Subquery == nil && !existsBody {
				r.stars[strings.ToLower(ref.Table)] = true
			}
		}
	}
	eachExpr(sel, func(x ast.Expr) bool {
		if ref, ok := x.(*ast.ColumnRef); ok {
			r.names[strings.ToLower(ref.Name)] = true
		} else if sub := subqueryOf(x); sub != nil {
			_, exists := x.(*ast.Exists)
			r.addSelect(sub, exists)
		}
		return true
	})
}

// eachExpr walks (ast.Walk) the expressions sel itself evaluates: its select
// list, ON conditions, WHERE, GROUP BY, HAVING and ORDER BY. Derived tables
// and subquery bodies are statements of their own.
func eachExpr(sel *ast.Select, fn func(ast.Expr) bool) {
	ast.Walk(sel.Where, fn)
	ast.Walk(sel.Having, fn)
	for _, it := range sel.Items {
		ast.Walk(it.Expr, fn)
	}
	for _, ref := range sel.From {
		if ref.Join != nil {
			ast.Walk(ref.Join.On, fn)
		}
	}
	for _, g := range sel.GroupBy {
		ast.Walk(g, fn)
	}
	for _, o := range sel.OrderBy {
		ast.Walk(o.Expr, fn)
	}
}

// keep returns the positions of table's columns the statement references, or
// nil when it references all of them.
func (r *colRefs) keep(table string, sch *schema.Schema) []int {
	if r.stars[strings.ToLower(table)] {
		return nil
	}
	cols := make([]int, 0, sch.Len())
	for i, c := range sch.Columns {
		if r.names[strings.ToLower(stripQualifier(c.Name))] {
			cols = append(cols, i)
		}
	}
	if len(cols) == sch.Len() {
		return nil
	}
	return cols
}
