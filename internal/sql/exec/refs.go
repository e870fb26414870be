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
	for _, it := range sel.Items {
		if it.Star {
			for _, ref := range sel.From {
				if ref.Subquery == nil && !existsBody {
					r.stars[strings.ToLower(ref.Table)] = true
				}
			}
			continue
		}
		r.addExpr(it.Expr)
	}
	for _, ref := range sel.From {
		if ref.Subquery != nil {
			r.addSelect(ref.Subquery, false)
		}
		if ref.Join != nil {
			r.addExpr(ref.Join.On)
		}
	}
	r.addExpr(sel.Where)
	for _, g := range sel.GroupBy {
		r.addExpr(g)
	}
	r.addExpr(sel.Having)
	for _, o := range sel.OrderBy {
		r.addExpr(o.Expr)
	}
}

func (r *colRefs) addExpr(e ast.Expr) {
	ast.Walk(e, func(x ast.Expr) bool {
		switch q := x.(type) {
		case *ast.ColumnRef:
			r.names[strings.ToLower(q.Name)] = true
		case *ast.Exists:
			r.addSelect(q.Subquery, true)
		case *ast.InSubquery:
			r.addSelect(q.Subquery, false)
		case *ast.ScalarSubquery:
			r.addSelect(q.Subquery, false)
		}
		return true
	})
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
