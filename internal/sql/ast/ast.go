// Package ast defines the abstract syntax tree for IronSafe's SQL dialect.
package ast

import (
	"fmt"
	"strconv"
	"strings"

	"ironsafe/internal/value"
)

// Statement is any top-level SQL statement.
type Statement interface{ stmt() }

// Expr is any scalar expression.
type Expr interface {
	expr()
	// String renders the expression, subquery bodies included, as SQL that
	// parses back to an equal tree (see Select.String).
	String() string
}

// --- Statements ---

// Select is a SELECT statement (also used for subqueries).
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 means no limit
}

func (*Select) stmt() {}

// String renders the statement as SQL that parses back to an equal tree: the
// monitor's policy rewrite, the partitioner's offload queries and the
// executor's matching of expressions by text all read it.
func (s *Select) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		sb.WriteString(lead(i, ""))
		if it.Star {
			sb.WriteString("*")
		} else {
			sb.WriteString(it.Expr.String() + as(it.Alias))
		}
	}
	for i, ref := range s.From {
		switch {
		case ref.Join == nil:
			sb.WriteString(lead(i, " FROM "))
		case ref.Join.Kind == JoinLeftOuter:
			sb.WriteString(" LEFT OUTER JOIN ")
		default:
			sb.WriteString(" JOIN ")
		}
		if ref.Subquery != nil {
			sb.WriteString("(" + ref.Subquery.String() + ")")
		}
		sb.WriteString(ref.Table + as(ref.Alias))
		if ref.Join != nil {
			sb.WriteString(" ON " + ref.Join.On.String())
		}
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.String())
	}
	for i, g := range s.GroupBy {
		sb.WriteString(lead(i, " GROUP BY ") + g.String())
	}
	if s.Having != nil {
		sb.WriteString(" HAVING " + s.Having.String())
	}
	for i, o := range s.OrderBy {
		sb.WriteString(lead(i, " ORDER BY ") + o.Expr.String())
		if o.Desc {
			sb.WriteString(" DESC")
		}
	}
	if s.Limit >= 0 {
		sb.WriteString(" LIMIT " + strconv.Itoa(s.Limit))
	}
	return sb.String()
}

// lead is what precedes item i of a clause's list: the clause, then commas.
func lead(i int, clause string) string {
	if i == 0 {
		return clause
	}
	return ", "
}

// as renders an alias, if there is one.
func as(alias string) string {
	if alias == "" {
		return ""
	}
	return " AS " + alias
}

// SelectItem is one projection: an expression with an optional alias, or *.
type SelectItem struct {
	Star  bool
	Expr  Expr
	Alias string
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// TableRef is an entry in a FROM clause.
type TableRef struct {
	// Table is a base table name (mutually exclusive with Subquery).
	Table string
	// Subquery is a derived table.
	Subquery *Select
	Alias    string
	// Join links this ref to the previous one; nil for the first ref and
	// for comma-joined refs.
	Join *JoinClause
}

// JoinKind distinguishes join types.
type JoinKind int

// Join kinds.
const (
	JoinInner JoinKind = iota
	JoinLeftOuter
)

// JoinClause is an explicit JOIN ... ON.
type JoinClause struct {
	Kind JoinKind
	On   Expr
}

// Name returns the name this ref is known by in scope.
func (t TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// CreateTable is a CREATE TABLE statement.
type CreateTable struct {
	Name    string
	Columns []ColumnDef
}

func (*CreateTable) stmt() {}

// ColumnDef is one column definition.
type ColumnDef struct {
	Name string
	Kind value.Kind
}

// Insert is an INSERT INTO ... VALUES statement.
type Insert struct {
	Table   string
	Columns []string // empty means table order
	Rows    [][]Expr
}

func (*Insert) stmt() {}

// Update is an UPDATE ... SET ... WHERE statement.
type Update struct {
	Table string
	Set   map[string]Expr
	Where Expr
}

func (*Update) stmt() {}

// Delete is a DELETE FROM ... WHERE statement.
type Delete struct {
	Table string
	Where Expr
}

func (*Delete) stmt() {}

// DropTable is a DROP TABLE statement.
type DropTable struct {
	Name     string
	IfExists bool
}

func (*DropTable) stmt() {}

// --- Expressions ---

// Literal is a constant value.
type Literal struct{ Value value.Value }

func (*Literal) expr() {}

// String implements Expr.
func (l *Literal) String() string {
	switch l.Value.Kind() {
	case value.KindString:
		return "'" + strings.ReplaceAll(l.Value.AsString(), "'", "''") + "'"
	case value.KindDate:
		return "date '" + l.Value.String() + "'"
	case value.KindNull:
		return "NULL"
	case value.KindFloat:
		// An integral float keeps its point, or it would read back as an Int.
		f := l.Value.String()
		if !strings.Contains(f, ".") {
			f += ".0"
		}
		return f
	default:
		return l.Value.String()
	}
}

// ColumnRef references a column, optionally qualified.
type ColumnRef struct {
	Qualifier string
	Name      string
}

func (*ColumnRef) expr() {}

// String implements Expr.
func (c *ColumnRef) String() string {
	if c.Qualifier != "" {
		return c.Qualifier + "." + c.Name
	}
	return c.Name
}

// FullName returns the qualified name used for scope lookups.
func (c *ColumnRef) FullName() string {
	if c.Qualifier != "" {
		return c.Qualifier + "." + c.Name
	}
	return c.Name
}

// BinaryOp codes for BinaryExpr.
type BinaryOp int

// Binary operators.
const (
	OpAnd BinaryOp = iota
	OpOr
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpConcat
)

var binaryOpText = map[BinaryOp]string{
	OpAnd: "AND", OpOr: "OR", OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=",
	OpGt: ">", OpGe: ">=", OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpConcat: "||",
}

// String returns the SQL spelling of the operator.
func (o BinaryOp) String() string { return binaryOpText[o] }

// BinaryExpr is a binary operation.
type BinaryExpr struct {
	Op          BinaryOp
	Left, Right Expr
}

func (*BinaryExpr) expr() {}

// String implements Expr.
func (b *BinaryExpr) String() string {
	return "(" + b.Left.String() + " " + b.Op.String() + " " + b.Right.String() + ")"
}

// UnaryExpr is NOT or unary minus.
type UnaryExpr struct {
	Op   string // "NOT" or "-"
	Expr Expr
}

func (*UnaryExpr) expr() {}

// String implements Expr.
func (u *UnaryExpr) String() string {
	if u.Op == "NOT" {
		return "(NOT " + u.Expr.String() + ")"
	}
	return "(-" + u.Expr.String() + ")"
}

// IsNull tests for (non-)nullness.
type IsNull struct {
	Expr Expr
	Not  bool
}

func (*IsNull) expr() {}

// String implements Expr.
func (i *IsNull) String() string {
	if i.Not {
		return "(" + i.Expr.String() + " IS NOT NULL)"
	}
	return "(" + i.Expr.String() + " IS NULL)"
}

// Between is x [NOT] BETWEEN lo AND hi.
type Between struct {
	Expr, Lo, Hi Expr
	Not          bool
}

func (*Between) expr() {}

// String implements Expr.
func (b *Between) String() string {
	not := ""
	if b.Not {
		not = "NOT "
	}
	return "(" + b.Expr.String() + " " + not + "BETWEEN " + b.Lo.String() + " AND " + b.Hi.String() + ")"
}

// Like is x [NOT] LIKE pattern.
type Like struct {
	Expr, Pattern Expr
	Not           bool
}

func (*Like) expr() {}

// String implements Expr.
func (l *Like) String() string {
	not := ""
	if l.Not {
		not = "NOT "
	}
	return "(" + l.Expr.String() + " " + not + "LIKE " + l.Pattern.String() + ")"
}

// InList is x [NOT] IN (e1, e2, ...).
type InList struct {
	Expr  Expr
	Items []Expr
	Not   bool
}

func (*InList) expr() {}

// String implements Expr.
func (i *InList) String() string {
	items := make([]string, len(i.Items))
	for k, it := range i.Items {
		items[k] = it.String()
	}
	not := ""
	if i.Not {
		not = "NOT "
	}
	return "(" + i.Expr.String() + " " + not + "IN (" + strings.Join(items, ", ") + "))"
}

// InSubquery is x [NOT] IN (SELECT ...).
type InSubquery struct {
	Expr     Expr
	Subquery *Select
	Not      bool
}

func (*InSubquery) expr() {}

// String implements Expr.
func (i *InSubquery) String() string {
	not := ""
	if i.Not {
		not = "NOT "
	}
	return "(" + i.Expr.String() + " " + not + "IN (" + i.Subquery.String() + "))"
}

// Exists is [NOT] EXISTS (SELECT ...).
type Exists struct {
	Subquery *Select
	Not      bool
}

func (*Exists) expr() {}

// String implements Expr.
func (e *Exists) String() string {
	if e.Not {
		return "(NOT EXISTS (" + e.Subquery.String() + "))"
	}
	return "(EXISTS (" + e.Subquery.String() + "))"
}

// ScalarSubquery is (SELECT single-value ...) used as an expression.
type ScalarSubquery struct {
	Subquery *Select
}

func (*ScalarSubquery) expr() {}

// String implements Expr.
func (s *ScalarSubquery) String() string { return "(" + s.Subquery.String() + ")" }

// FuncCall is a function or aggregate invocation.
type FuncCall struct {
	Name     string // upper-cased
	Star     bool   // COUNT(*)
	Distinct bool   // COUNT(DISTINCT x)
	Args     []Expr
}

func (*FuncCall) expr() {}

// String implements Expr.
func (f *FuncCall) String() string {
	if f.Star {
		return f.Name + "(*)"
	}
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.String()
	}
	d := ""
	if f.Distinct {
		d = "DISTINCT "
	}
	return f.Name + "(" + d + strings.Join(args, ", ") + ")"
}

// IsAggregate reports whether the call is one of the aggregate functions.
func (f *FuncCall) IsAggregate() bool {
	switch f.Name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// CaseExpr is CASE WHEN ... THEN ... [ELSE ...] END (searched form).
type CaseExpr struct {
	Whens []WhenClause
	Else  Expr
}

// WhenClause is one WHEN cond THEN result arm.
type WhenClause struct {
	Cond, Result Expr
}

func (*CaseExpr) expr() {}

// String implements Expr.
func (c *CaseExpr) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	for _, w := range c.Whens {
		sb.WriteString(" WHEN " + w.Cond.String() + " THEN " + w.Result.String())
	}
	if c.Else != nil {
		sb.WriteString(" ELSE " + c.Else.String())
	}
	sb.WriteString(" END")
	return sb.String()
}

// IntervalExpr is INTERVAL 'n' unit, usable in date arithmetic.
type IntervalExpr struct {
	N    int
	Unit string // "day", "month", "year"
}

func (*IntervalExpr) expr() {}

// String implements Expr.
func (i *IntervalExpr) String() string {
	return fmt.Sprintf("interval '%d' %s", i.N, i.Unit)
}

// Extract is EXTRACT(field FROM expr).
type Extract struct {
	Field string // "YEAR" or "MONTH"
	Expr  Expr
}

func (*Extract) expr() {}

// String implements Expr.
func (e *Extract) String() string {
	return "extract(" + strings.ToLower(e.Field) + " from " + e.Expr.String() + ")"
}

// Substring is SUBSTRING(expr FROM start [FOR length]).
type Substring struct {
	Expr, From, For Expr // For may be nil
}

func (*Substring) expr() {}

// String implements Expr.
func (s *Substring) String() string {
	out := "substring(" + s.Expr.String() + " from " + s.From.String()
	if s.For != nil {
		out += " for " + s.For.String()
	}
	return out + ")"
}

// Walk visits every expression in e (pre-order), recursing into children but
// not into subquery bodies. Return false from fn to stop descending.
func Walk(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *BinaryExpr:
		Walk(x.Left, fn)
		Walk(x.Right, fn)
	case *UnaryExpr:
		Walk(x.Expr, fn)
	case *IsNull:
		Walk(x.Expr, fn)
	case *Between:
		Walk(x.Expr, fn)
		Walk(x.Lo, fn)
		Walk(x.Hi, fn)
	case *Like:
		Walk(x.Expr, fn)
		Walk(x.Pattern, fn)
	case *InList:
		Walk(x.Expr, fn)
		for _, it := range x.Items {
			Walk(it, fn)
		}
	case *InSubquery:
		Walk(x.Expr, fn)
	case *FuncCall:
		for _, a := range x.Args {
			Walk(a, fn)
		}
	case *CaseExpr:
		for _, w := range x.Whens {
			Walk(w.Cond, fn)
			Walk(w.Result, fn)
		}
		Walk(x.Else, fn)
	case *Extract:
		Walk(x.Expr, fn)
	case *Substring:
		Walk(x.Expr, fn)
		Walk(x.From, fn)
		Walk(x.For, fn)
	}
}

// EachExpr walks (Walk) the expressions sel itself evaluates: its select
// list, ON conditions, WHERE, GROUP BY, HAVING and ORDER BY. Derived tables
// and subquery bodies are statements of their own.
func EachExpr(sel *Select, fn func(Expr) bool) {
	Walk(sel.Where, fn)
	Walk(sel.Having, fn)
	for _, it := range sel.Items {
		Walk(it.Expr, fn)
	}
	for _, ref := range sel.From {
		if ref.Join != nil {
			Walk(ref.Join.On, fn)
		}
	}
	for _, g := range sel.GroupBy {
		Walk(g, fn)
	}
	for _, o := range sel.OrderBy {
		Walk(o.Expr, fn)
	}
}

// SubqueryOf returns the body of a subquery node, nil for any other expression.
func SubqueryOf(e Expr) *Select {
	switch q := e.(type) {
	case *Exists:
		return q.Subquery
	case *InSubquery:
		return q.Subquery
	case *ScalarSubquery:
		return q.Subquery
	}
	return nil
}

// SplitConjuncts flattens a tree of ANDs into its conjunct list.
func SplitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinaryExpr); ok && b.Op == OpAnd {
		return append(SplitConjuncts(b.Left), SplitConjuncts(b.Right)...)
	}
	return []Expr{e}
}

// SplitDisjuncts flattens a tree of ORs into its disjunct list.
func SplitDisjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinaryExpr); ok && b.Op == OpOr {
		return append(SplitDisjuncts(b.Left), SplitDisjuncts(b.Right)...)
	}
	return []Expr{e}
}

// JoinConjuncts rebuilds a left-deep AND tree from conjuncts, skipping nil
// ones (nil for none).
func JoinConjuncts(conjuncts []Expr) Expr {
	var out Expr
	for _, c := range conjuncts {
		switch {
		case c == nil:
		case out == nil:
			out = c
		default:
			out = &BinaryExpr{Op: OpAnd, Left: out, Right: c}
		}
	}
	return out
}
