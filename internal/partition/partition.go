// Package partition implements IronSafe's query partitioner: it splits a
// SELECT into per-table offload queries (scan + pushed-down filters +
// projection) that run on the storage engine, and a host-side query that
// consumes the shipped, filtered tables. The host query is the original
// query verbatim — the host catalog simply resolves base-table names to the
// shipped subsets, and because every pushed predicate also remains in the
// host query, re-filtering is idempotent. That makes the split correct where
// dropping a row before the joins is the same as dropping it after them, which
// is every FROM entry but the NULL-supplying side of a LEFT OUTER JOIN: a row
// missing there turns a match into a NULL extension that a WHERE conjunct such
// as `b.id IS NULL` then accepts. No WHERE conjunct is pushed to such an entry
// (exec.buildFrom draws the same line for its own pushdown).
package partition

import (
	"fmt"
	"sort"
	"strings"

	"ironsafe/internal/schema"
	"ironsafe/internal/sql/ast"
)

// TableShip describes the offloaded scan for one base table.
type TableShip struct {
	// Table is the base table name on the storage system.
	Table string
	// Columns are the projected columns (nil means all — SELECT *).
	Columns []string
	// Predicate is the pushed-down filter (nil means ship every row).
	Predicate ast.Expr
	// SQL is the offload query text sent to the storage engine.
	SQL string
}

// Split is a partitioned query.
type Split struct {
	// Ships lists one offload query per referenced base table, sorted by
	// table name for determinism.
	Ships []TableShip
	// Host is the query the host engine runs over the shipped tables
	// (identical to the client query).
	Host *ast.Select
}

// SchemaSource resolves a base table's schema (the partitioner needs it to
// distinguish table columns from other names).
type SchemaSource interface {
	TableSchema(name string) (*schema.Schema, error)
}

// SchemaMap is a map-backed SchemaSource.
type SchemaMap map[string]*schema.Schema

// TableSchema implements SchemaSource.
func (m SchemaMap) TableSchema(name string) (*schema.Schema, error) {
	s, ok := m[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("partition: unknown table %q", name)
	}
	return s, nil
}

// tableInfo accumulates facts about one base table across all its refs.
type tableInfo struct {
	name     string
	sch      *schema.Schema
	allCols  bool
	cols     map[string]bool
	shipAll  bool       // some ref has no pushable predicate
	refPreds []ast.Expr // per-ref predicate (to be ORed)
}

// SplitQuery partitions sel. It never fails on odd queries — tables it
// cannot push anything for are shipped whole.
func SplitQuery(sel *ast.Select, src SchemaSource) (*Split, error) {
	tables := map[string]*tableInfo{}
	if err := collect(sel, src, tables, nil, false); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(tables))
	for n := range tables {
		names = append(names, n)
	}
	sort.Strings(names)

	split := &Split{Host: sel}
	for _, n := range names {
		ti := tables[n]
		ship := TableShip{Table: ti.name}
		if !ti.allCols {
			for c := range ti.cols {
				ship.Columns = append(ship.Columns, c)
			}
			sort.Strings(ship.Columns)
		}
		if !ti.shipAll && len(ti.refPreds) > 0 {
			var pred ast.Expr
			for _, p := range ti.refPreds {
				if pred == nil {
					pred = p
				} else {
					pred = &ast.BinaryExpr{Op: ast.OpOr, Left: pred, Right: p}
				}
			}
			ship.Predicate = pred
		}
		ship.SQL = renderShip(ship)
		split.Ships = append(split.Ships, ship)
	}
	return split, nil
}

// renderShip builds the offload SQL for one table.
func renderShip(s TableShip) string {
	cols := "*"
	if len(s.Columns) > 0 {
		cols = strings.Join(s.Columns, ", ")
	}
	sql := "SELECT " + cols + " FROM " + s.Table
	if s.Predicate != nil {
		sql += " WHERE " + s.Predicate.String()
	}
	return sql
}

// refInfo is one resolvable FROM entry in a scope.
type refInfo struct {
	name  string // alias or table name in scope
	table string // base table name
	sch   *schema.Schema
	outer bool // the NULL-supplying side of a LEFT OUTER JOIN: takes no WHERE pushdown
}

// scope is a lexical FROM scope, chained to enclosing query scopes so
// correlated references resolve to the right outer table.
type scope struct {
	refs   []*refInfo
	parent *scope
}

// resolve finds the ref a column reference binds to, climbing the chain.
func (s *scope) resolve(c *ast.ColumnRef) *refInfo {
	for cur := s; cur != nil; cur = cur.parent {
		if c.Qualifier != "" {
			for _, r := range cur.refs {
				if strings.EqualFold(r.name, c.Qualifier) && r.sch.IndexOf(c.Name) >= 0 {
					return r
				}
			}
			continue
		}
		var found *refInfo
		ambiguous := false
		for _, r := range cur.refs {
			if r.sch.IndexOf(c.Name) >= 0 {
				if found != nil {
					ambiguous = true
					break
				}
				found = r
			}
		}
		if ambiguous {
			return nil
		}
		if found != nil {
			return found
		}
	}
	return nil
}

// local reports whether r belongs to this scope (not an outer one).
func (s *scope) local(r *refInfo) bool {
	for _, own := range s.refs {
		if own == r {
			return true
		}
	}
	return false
}

// collect walks one SELECT (recursing into derived tables and subqueries)
// and accumulates per-table columns and pushable predicates. existsBody marks
// the body of an EXISTS: existence needs no output column, so a * among its
// items asks nothing of its tables and the columns its conditions reference
// are the whole ship list.
func collect(sel *ast.Select, src SchemaSource, tables map[string]*tableInfo, parent *scope, existsBody bool) error {
	sc := &scope{parent: parent}
	for _, r := range sel.From {
		if r.Subquery != nil {
			// A derived table's body sees only its own and enclosing
			// scopes; columns it exposes are not base-table columns.
			if err := collect(r.Subquery, src, tables, parent, false); err != nil {
				return err
			}
			continue
		}
		sch, err := src.TableSchema(r.Table)
		if err != nil {
			return err
		}
		key := strings.ToLower(r.Table)
		outer := r.Join != nil && r.Join.Kind == ast.JoinLeftOuter
		sc.refs = append(sc.refs, &refInfo{name: r.Name(), table: key, sch: sch, outer: outer})
		if _, ok := tables[key]; !ok {
			tables[key] = &tableInfo{name: key, sch: sch, cols: map[string]bool{}}
		}
	}
	refs := sc.refs

	belongsTo := func(c *ast.ColumnRef) *refInfo { return sc.resolve(c) }

	// Record referenced columns table-wide, and recurse into expression
	// subqueries.
	var exprs []ast.Expr
	star := false
	for _, it := range sel.Items {
		if it.Star {
			star = true
			continue
		}
		exprs = append(exprs, it.Expr)
	}
	if sel.Where != nil {
		exprs = append(exprs, sel.Where)
	}
	exprs = append(exprs, sel.GroupBy...)
	if sel.Having != nil {
		exprs = append(exprs, sel.Having)
	}
	for _, o := range sel.OrderBy {
		exprs = append(exprs, o.Expr)
	}
	for _, r := range sel.From {
		if r.Join != nil && r.Join.On != nil {
			exprs = append(exprs, r.Join.On)
		}
	}
	var subErr error
	for _, e := range exprs {
		ast.Walk(e, func(x ast.Expr) bool {
			switch q := x.(type) {
			case *ast.ColumnRef:
				if r := belongsTo(q); r != nil {
					tables[r.table].cols[strings.ToLower(q.Name)] = true
				}
			case *ast.Exists:
				if err := collect(q.Subquery, src, tables, sc, true); err != nil && subErr == nil {
					subErr = err
				}
			case *ast.InSubquery:
				if err := collect(q.Subquery, src, tables, sc, false); err != nil && subErr == nil {
					subErr = err
				}
			case *ast.ScalarSubquery:
				if err := collect(q.Subquery, src, tables, sc, false); err != nil && subErr == nil {
					subErr = err
				}
			}
			return true
		})
	}
	if subErr != nil {
		return subErr
	}
	if star && !existsBody {
		for _, r := range refs {
			tables[r.table].allCols = true
		}
	}

	// Pushable predicate per ref from this scope's WHERE.
	conjs := ast.SplitConjuncts(sel.Where)
	refPred := map[*refInfo]ast.Expr{}
	for _, c := range conjs {
		if target, ok := pushableTo(c, sc); ok {
			if !target.outer {
				andInto(refPred, target, stripQualifiers(c))
			}
			continue
		}
		// OR conjunct: if every disjunct constrains ref r, the OR of the
		// per-disjunct single-table parts is a valid relaxed pushdown
		// (TPC-H q19's shape).
		disjuncts := ast.SplitDisjuncts(c)
		if len(disjuncts) < 2 {
			continue
		}
		for _, r := range refs {
			if r.outer {
				continue
			}
			var parts []ast.Expr
			complete := true
			for _, d := range disjuncts {
				var dp ast.Expr
				for _, dc := range ast.SplitConjuncts(d) {
					if target, ok := pushableTo(dc, sc); ok && target == r {
						p := stripQualifiers(dc)
						if dp == nil {
							dp = p
						} else {
							dp = &ast.BinaryExpr{Op: ast.OpAnd, Left: dp, Right: p}
						}
					}
				}
				if dp == nil {
					complete = false
					break
				}
				parts = append(parts, dp)
			}
			if !complete {
				continue
			}
			var orPred ast.Expr
			for _, p := range parts {
				if orPred == nil {
					orPred = p
				} else {
					orPred = &ast.BinaryExpr{Op: ast.OpOr, Left: orPred, Right: p}
				}
			}
			andInto(refPred, r, orPred)
		}
	}

	for _, r := range refs {
		ti := tables[r.table]
		if p, ok := refPred[r]; ok {
			ti.refPreds = append(ti.refPreds, p)
		} else {
			ti.shipAll = true
		}
	}
	return nil
}

func andInto(m map[*refInfo]ast.Expr, r *refInfo, p ast.Expr) {
	if prev, ok := m[r]; ok {
		m[r] = &ast.BinaryExpr{Op: ast.OpAnd, Left: prev, Right: p}
		return
	}
	m[r] = p
}

// pushableTo reports the single local ref a conjunct can be pushed to: all
// its column references bind to that ref, the ref belongs to the current
// scope (outer-correlated predicates vary per outer row and cannot be
// pushed), and it contains no subqueries or aggregates.
func pushableTo(c ast.Expr, sc *scope) (*refInfo, bool) {
	var target *refInfo
	ok := true
	hasCol := false
	ast.Walk(c, func(x ast.Expr) bool {
		switch q := x.(type) {
		case *ast.ColumnRef:
			hasCol = true
			r := sc.resolve(q)
			if r == nil || !sc.local(r) {
				ok = false
				return false
			}
			if target != nil && target != r {
				ok = false
				return false
			}
			target = r
		case *ast.Exists, *ast.InSubquery, *ast.ScalarSubquery:
			ok = false
			return false
		case *ast.FuncCall:
			if q.IsAggregate() {
				ok = false
				return false
			}
		}
		return true
	})
	if !ok || !hasCol || target == nil {
		return nil, false
	}
	return target, true
}

// stripQualifiers rewrites column references to unqualified form so the
// predicate is valid in a single-table offload query.
func stripQualifiers(e ast.Expr) ast.Expr {
	switch x := e.(type) {
	case *ast.ColumnRef:
		return &ast.ColumnRef{Name: x.Name}
	case *ast.BinaryExpr:
		return &ast.BinaryExpr{Op: x.Op, Left: stripQualifiers(x.Left), Right: stripQualifiers(x.Right)}
	case *ast.UnaryExpr:
		return &ast.UnaryExpr{Op: x.Op, Expr: stripQualifiers(x.Expr)}
	case *ast.IsNull:
		return &ast.IsNull{Expr: stripQualifiers(x.Expr), Not: x.Not}
	case *ast.Between:
		return &ast.Between{Expr: stripQualifiers(x.Expr), Lo: stripQualifiers(x.Lo), Hi: stripQualifiers(x.Hi), Not: x.Not}
	case *ast.Like:
		return &ast.Like{Expr: stripQualifiers(x.Expr), Pattern: stripQualifiers(x.Pattern), Not: x.Not}
	case *ast.InList:
		items := make([]ast.Expr, len(x.Items))
		for i, it := range x.Items {
			items[i] = stripQualifiers(it)
		}
		return &ast.InList{Expr: stripQualifiers(x.Expr), Items: items, Not: x.Not}
	case *ast.CaseExpr:
		whens := make([]ast.WhenClause, len(x.Whens))
		for i, w := range x.Whens {
			whens[i] = ast.WhenClause{Cond: stripQualifiers(w.Cond), Result: stripQualifiers(w.Result)}
		}
		var els ast.Expr
		if x.Else != nil {
			els = stripQualifiers(x.Else)
		}
		return &ast.CaseExpr{Whens: whens, Else: els}
	case *ast.Extract:
		return &ast.Extract{Field: x.Field, Expr: stripQualifiers(x.Expr)}
	case *ast.Substring:
		var fo ast.Expr
		if x.For != nil {
			fo = stripQualifiers(x.For)
		}
		return &ast.Substring{Expr: stripQualifiers(x.Expr), From: stripQualifiers(x.From), For: fo}
	default:
		return e
	}
}

// SelectivityHint summarizes how much a split reduces data movement: the
// fraction of tables with a real pushdown and whether any projection prunes
// columns. The host engine's offload heuristic uses it.
type SelectivityHint struct {
	TablesWithPredicate int
	TablesTotal         int
	ColumnsPruned       bool
}

// Hint computes the selectivity hint for a split against the schemas.
func (s *Split) Hint(src SchemaSource) SelectivityHint {
	h := SelectivityHint{TablesTotal: len(s.Ships)}
	for _, ship := range s.Ships {
		if ship.Predicate != nil {
			h.TablesWithPredicate++
		}
		if len(ship.Columns) > 0 {
			if sch, err := src.TableSchema(ship.Table); err == nil && len(ship.Columns) < sch.Len() {
				h.ColumnsPruned = true
			}
		}
	}
	return h
}

// Beneficial reports whether offloading this split is expected to reduce
// data movement: at least one table gets a real pushdown predicate or a
// pruned projection. This is the paper's "simple heuristic" for the host's
// offload decision — a split with neither property ships whole tables and
// is equivalent to host-only execution.
func (s *Split) Beneficial(src SchemaSource) bool {
	h := s.Hint(src)
	return h.TablesWithPredicate > 0 || h.ColumnsPruned
}
