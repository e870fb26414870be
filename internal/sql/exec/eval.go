package exec

import (
	"fmt"
	"strings"

	"ironsafe/internal/schema"
	"ironsafe/internal/sql/ast"
	"ironsafe/internal/value"
)

// evalCtx evaluates expressions against one row, an outer environment, and
// (after aggregation) the current group's aggregate and GROUP BY values, which
// stand in for the expressions they were computed from.
type evalCtx struct {
	b    *builder
	sch  *schema.Schema
	row  schema.Row
	env  *Env
	agg  *aggBinding           // post-aggregation substitutions; nil outside aggregation
	subs map[ast.Expr]*subEval // prepared subquery evaluators

	// memo caches column-reference resolution per operator: schema lookups
	// are case-insensitive linear scans, far too slow to repeat per row.
	memo map[*ast.ColumnRef]colRes

	vs *vecScratch // evalVec's arrays for the current batch; nil until one is taken
}

// colRes is a memoized resolution: envDepth < 0 means the local schema.
type colRes struct {
	idx      int
	envDepth int
}

// newCtx builds an operator-level evaluation context; per-row copies made
// with withRow share its memo.
func newCtx(b *builder, sch *schema.Schema, env *Env) *evalCtx {
	return &evalCtx{b: b, sch: sch, env: env, memo: map[*ast.ColumnRef]colRes{}}
}

// newCtxWith is newCtx plus aggregate substitutions and prepared subqueries.
func newCtxWith(b *builder, sch *schema.Schema, env *Env, agg *aggBinding, subs map[ast.Expr]*subEval) *evalCtx {
	c := newCtx(b, sch, env)
	c.agg = agg
	c.subs = subs
	return c
}

func (c *evalCtx) withRow(row schema.Row) *evalCtx {
	cp := *c
	cp.row = row
	return &cp
}

// resolveColumnIdx finds a column in the local schema or the environment
// chain, memoizing the result, without touching row data.
func (c *evalCtx) resolveColumnIdx(x *ast.ColumnRef) (colRes, error) {
	if c.memo != nil {
		if r, ok := c.memo[x]; ok {
			return r, nil
		}
	}
	name := x.FullName()
	if c.sch != nil {
		if idx := c.sch.IndexOf(name); idx >= 0 {
			r := colRes{idx: idx, envDepth: -1}
			if c.memo != nil {
				c.memo[x] = r
			}
			return r, nil
		}
	}
	depth := 0
	for env := c.env; env != nil; env = env.Parent {
		if env.Sch != nil {
			if idx := env.Sch.IndexOf(name); idx >= 0 {
				r := colRes{idx: idx, envDepth: depth}
				if c.memo != nil {
					c.memo[x] = r
				}
				return r, nil
			}
		}
		depth++
	}
	return colRes{}, errColumn(name)
}

// resolveColumn reads a column of the current row or of an outer one.
func (c *evalCtx) resolveColumn(x *ast.ColumnRef) (value.Value, error) {
	r, err := c.resolveColumnIdx(x)
	if err != nil {
		return value.Null(), err
	}
	if r.envDepth < 0 {
		return c.row[r.idx], nil
	}
	return c.outer(r), nil
}

// outer reads a column resolved in the environment chain.
func (c *evalCtx) outer(r colRes) value.Value {
	env := c.env
	for d := 0; d < r.envDepth; d++ {
		env = env.Parent
	}
	return env.Row[r.idx]
}

// eval computes the value of e. Boolean results use three-valued logic with
// NULL as unknown.
func (c *evalCtx) eval(e ast.Expr) (value.Value, error) {
	// Post-aggregation substitution takes priority so that e.g. sum(x)
	// resolves to the computed aggregate.
	if v, ok := c.agg.lookup(e); ok {
		return v, nil
	}
	switch x := e.(type) {
	case *ast.Literal:
		return x.Value, nil

	case *ast.ColumnRef:
		return c.resolveColumn(x)

	case *ast.BinaryExpr:
		return c.evalBinary(x)

	case *ast.UnaryExpr:
		v, err := c.eval(x.Expr)
		if err != nil {
			return value.Null(), err
		}
		if x.Op == "NOT" {
			if v.IsNull() {
				return value.Null(), nil
			}
			if v.Kind() != value.KindBool {
				return value.Null(), fmt.Errorf("exec: NOT applied to %s", v.Kind())
			}
			return value.Bool(!v.AsBool()), nil
		}
		// Unary minus.
		if v.IsNull() {
			return value.Null(), nil
		}
		if v.Kind() == value.KindInt {
			return value.Int(-v.AsInt()), nil
		}
		if v.Kind() == value.KindFloat {
			return value.Float(-v.AsFloat()), nil
		}
		return value.Null(), fmt.Errorf("exec: unary minus on %s", v.Kind())

	case *ast.IsNull:
		v, err := c.eval(x.Expr)
		if err != nil {
			return value.Null(), err
		}
		return value.Bool(v.IsNull() != x.Not), nil

	case *ast.Between:
		v, err := c.eval(x.Expr)
		if err != nil {
			return value.Null(), err
		}
		lo, err := c.eval(x.Lo)
		if err != nil {
			return value.Null(), err
		}
		hi, err := c.eval(x.Hi)
		if err != nil {
			return value.Null(), err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return value.Null(), nil
		}
		cl, err := value.Compare(v, lo)
		if err != nil {
			return value.Null(), err
		}
		ch, err := value.Compare(v, hi)
		if err != nil {
			return value.Null(), err
		}
		in := cl >= 0 && ch <= 0
		return value.Bool(in != x.Not), nil

	case *ast.Like:
		v, err := c.eval(x.Expr)
		if err != nil {
			return value.Null(), err
		}
		p, err := c.eval(x.Pattern)
		if err != nil {
			return value.Null(), err
		}
		if v.IsNull() || p.IsNull() {
			return value.Null(), nil
		}
		if v.Kind() != value.KindString || p.Kind() != value.KindString {
			return value.Null(), fmt.Errorf("exec: LIKE on %s and %s", v.Kind(), p.Kind())
		}
		m := likeMatch(v.AsString(), p.AsString())
		return value.Bool(m != x.Not), nil

	case *ast.InList:
		v, err := c.eval(x.Expr)
		if err != nil {
			return value.Null(), err
		}
		if v.IsNull() {
			return value.Null(), nil
		}
		sawNull := false
		for _, item := range x.Items {
			iv, err := c.eval(item)
			if err != nil {
				return value.Null(), err
			}
			if iv.IsNull() {
				sawNull = true
				continue
			}
			cmp, err := value.Compare(v, iv)
			if err != nil {
				return value.Null(), err
			}
			if cmp == 0 {
				return value.Bool(!x.Not), nil
			}
		}
		if sawNull {
			return value.Null(), nil
		}
		return value.Bool(x.Not), nil

	case *ast.CaseExpr:
		for _, w := range x.Whens {
			cond, err := c.eval(w.Cond)
			if err != nil {
				return value.Null(), err
			}
			if !cond.IsNull() && cond.Kind() == value.KindBool && cond.AsBool() {
				return c.eval(w.Result)
			}
		}
		if x.Else != nil {
			return c.eval(x.Else)
		}
		return value.Null(), nil

	case *ast.Extract:
		v, err := c.eval(x.Expr)
		if err != nil {
			return value.Null(), err
		}
		if x.Field == "YEAR" {
			return value.ExtractYear(v)
		}
		return value.ExtractMonth(v)

	case *ast.Substring:
		return c.evalSubstring(x)

	case *ast.IntervalExpr:
		return value.Null(), fmt.Errorf("exec: INTERVAL only valid in date arithmetic")

	case *ast.FuncCall:
		if x.IsAggregate() {
			return value.Null(), fmt.Errorf("exec: aggregate %s outside aggregation context", x.Name)
		}
		return value.Null(), fmt.Errorf("exec: unknown function %s", x.Name)

	case *ast.Exists:
		se, ok := c.subs[e]
		if !ok {
			return value.Null(), fmt.Errorf("exec: unprepared EXISTS subquery")
		}
		found, err := se.exists(c)
		if err != nil {
			return value.Null(), err
		}
		return value.Bool(found != x.Not), nil

	case *ast.InSubquery:
		se, ok := c.subs[e]
		if !ok {
			return value.Null(), fmt.Errorf("exec: unprepared IN subquery")
		}
		lhs, err := c.eval(x.Expr)
		if err != nil {
			return value.Null(), err
		}
		return se.in(c, lhs, x.Not)

	case *ast.ScalarSubquery:
		se, ok := c.subs[e]
		if !ok {
			return value.Null(), fmt.Errorf("exec: unprepared scalar subquery")
		}
		return se.scalar(c)
	}
	return value.Null(), fmt.Errorf("exec: cannot evaluate %T", e)
}

func (c *evalCtx) evalBinary(x *ast.BinaryExpr) (value.Value, error) {
	switch x.Op {
	case ast.OpAnd, ast.OpOr:
		l, err := c.eval(x.Left)
		if err != nil {
			return value.Null(), err
		}
		// Short-circuit where two-valued.
		if !l.IsNull() && l.Kind() == value.KindBool {
			if x.Op == ast.OpAnd && !l.AsBool() {
				return value.Bool(false), nil
			}
			if x.Op == ast.OpOr && l.AsBool() {
				return value.Bool(true), nil
			}
		}
		r, err := c.eval(x.Right)
		if err != nil {
			return value.Null(), err
		}
		return logic3(x.Op, l, r)
	}

	l, err := c.eval(x.Left)
	if err != nil {
		return value.Null(), err
	}

	// Date +/- INTERVAL.
	if iv, ok := x.Right.(*ast.IntervalExpr); ok && (x.Op == ast.OpAdd || x.Op == ast.OpSub) {
		n := iv.N
		if x.Op == ast.OpSub {
			n = -n
		}
		return value.AddInterval(l, n, iv.Unit)
	}

	r, err := c.eval(x.Right)
	if err != nil {
		return value.Null(), err
	}
	switch x.Op {
	case ast.OpEq, ast.OpNe, ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe:
		if l.IsNull() || r.IsNull() {
			return value.Null(), nil
		}
		cmp, err := value.Compare(l, r)
		if err != nil {
			return value.Null(), err
		}
		return value.Bool(cmpHolds(x.Op, cmp)), nil
	case ast.OpAdd:
		return value.Arith('+', l, r)
	case ast.OpSub:
		return value.Arith('-', l, r)
	case ast.OpMul:
		return value.Arith('*', l, r)
	case ast.OpDiv:
		return value.Arith('/', l, r)
	case ast.OpMod:
		return value.Arith('%', l, r)
	case ast.OpConcat:
		if l.IsNull() || r.IsNull() {
			return value.Null(), nil
		}
		return value.Str(l.String() + r.String()), nil
	}
	return value.Null(), fmt.Errorf("exec: unknown operator %v", x.Op)
}

func (c *evalCtx) evalSubstring(x *ast.Substring) (value.Value, error) {
	v, err := c.eval(x.Expr)
	if err != nil {
		return value.Null(), err
	}
	from, err := c.eval(x.From)
	if err != nil {
		return value.Null(), err
	}
	if v.IsNull() || from.IsNull() {
		return value.Null(), nil
	}
	if v.Kind() != value.KindString {
		return value.Null(), fmt.Errorf("exec: SUBSTRING on %s", v.Kind())
	}
	if from.Kind() != value.KindInt {
		return value.Null(), fmt.Errorf("exec: SUBSTRING on %s position", from.Kind())
	}
	s := v.AsString()
	start := int(from.AsInt()) - 1 // SQL is 1-based
	if start < 0 {
		start = 0
	}
	if start > len(s) {
		start = len(s)
	}
	end := len(s)
	if x.For != nil {
		n, err := c.eval(x.For)
		if err != nil {
			return value.Null(), err
		}
		if n.IsNull() {
			return value.Null(), nil
		}
		if n.Kind() != value.KindInt {
			return value.Null(), fmt.Errorf("exec: SUBSTRING on %s length", n.Kind())
		}
		end = start + int(n.AsInt())
		if end > len(s) {
			end = len(s)
		}
		if end < start {
			end = start
		}
	}
	return value.Str(s[start:end]), nil
}

// logic3 applies three-valued AND/OR.
func logic3(op ast.BinaryOp, l, r value.Value) (value.Value, error) {
	lb, lNull, err := asBool3(l)
	if err != nil {
		return value.Null(), err
	}
	rb, rNull, err := asBool3(r)
	if err != nil {
		return value.Null(), err
	}
	if op == ast.OpAnd {
		if (!lNull && !lb) || (!rNull && !rb) {
			return value.Bool(false), nil
		}
		if lNull || rNull {
			return value.Null(), nil
		}
		return value.Bool(true), nil
	}
	if (!lNull && lb) || (!rNull && rb) {
		return value.Bool(true), nil
	}
	if lNull || rNull {
		return value.Null(), nil
	}
	return value.Bool(false), nil
}

func asBool3(v value.Value) (b, isNull bool, err error) {
	if v.IsNull() {
		return false, true, nil
	}
	if v.Kind() != value.KindBool {
		return false, false, fmt.Errorf("exec: expected boolean, got %s", v.Kind())
	}
	return v.AsBool(), false, nil
}

// truthy reports whether a predicate result selects the row.
func truthy(v value.Value) bool {
	return !v.IsNull() && v.Kind() == value.KindBool && v.AsBool()
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single byte),
// using iterative backtracking on the last %.
func likeMatch(s, pattern string) bool {
	var si, pi int
	star, match := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi
			match = si
			pi++
		case star >= 0:
			pi = star + 1
			match++
			si = match
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// containsSubquery reports whether an expression contains any subquery node.
func containsSubquery(e ast.Expr) bool {
	found := false
	ast.Walk(e, func(x ast.Expr) bool {
		found = found || subqueryOf(x) != nil
		return !found
	})
	return found
}

// containsAggregate reports whether an expression contains an aggregate call
// (not descending into subqueries).
func containsAggregate(e ast.Expr) bool {
	found := false
	ast.Walk(e, func(x ast.Expr) bool {
		if f, ok := x.(*ast.FuncCall); ok && f.IsAggregate() {
			found = true
			return false
		}
		return true
	})
	return found
}

// resolvableIn reports whether every column reference in e resolves in sch
// (treating env-resolvable names as bound constants when allowEnv).
func resolvableIn(e ast.Expr, sch *schema.Schema, env *Env, allowEnv bool) bool {
	ok := true
	ast.Walk(e, func(x ast.Expr) bool {
		if ref, isRef := x.(*ast.ColumnRef); isRef {
			name := ref.FullName()
			if sch != nil && sch.IndexOf(name) >= 0 {
				return true
			}
			if allowEnv && env.Resolvable(name) {
				return true
			}
			ok = false
			return false
		}
		return true
	})
	return ok
}

// refsIn reports whether e references at least one column of sch.
func refsIn(e ast.Expr, sch *schema.Schema) bool {
	found := false
	ast.Walk(e, func(x ast.Expr) bool {
		if ref, isRef := x.(*ast.ColumnRef); isRef {
			if sch.IndexOf(ref.FullName()) >= 0 {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// inferKind predicts the value kind an expression produces against sch; used
// to type intermediate schemas. Unknown shapes default to KindFloat for
// numeric contexts and are refined at runtime.
func inferKind(e ast.Expr, sch *schema.Schema, env *Env) value.Kind {
	switch x := e.(type) {
	case *ast.Literal:
		return x.Value.Kind()
	case *ast.ColumnRef:
		name := x.FullName()
		if sch != nil {
			if idx := sch.IndexOf(name); idx >= 0 {
				return sch.Columns[idx].Kind
			}
		}
		if idx, envAt := env.Lookup(name); idx >= 0 {
			return envAt.Sch.Columns[idx].Kind
		}
		return value.KindNull
	case *ast.BinaryExpr:
		switch x.Op {
		case ast.OpAnd, ast.OpOr, ast.OpEq, ast.OpNe, ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe:
			return value.KindBool
		case ast.OpConcat:
			return value.KindString
		default:
			lk := inferKind(x.Left, sch, env)
			rk := inferKind(x.Right, sch, env)
			if lk == value.KindDate || rk == value.KindDate {
				return value.KindDate
			}
			if lk == value.KindInt && rk == value.KindInt && x.Op != ast.OpDiv {
				return value.KindInt
			}
			return value.KindFloat
		}
	case *ast.UnaryExpr:
		if x.Op == "NOT" {
			return value.KindBool
		}
		return inferKind(x.Expr, sch, env)
	case *ast.IsNull, *ast.Between, *ast.Like, *ast.InList, *ast.InSubquery, *ast.Exists:
		return value.KindBool
	case *ast.FuncCall:
		switch x.Name {
		case "COUNT":
			return value.KindInt
		case "SUM", "AVG":
			if len(x.Args) == 1 && inferKind(x.Args[0], sch, env) == value.KindInt && x.Name == "SUM" {
				return value.KindInt
			}
			return value.KindFloat
		case "MIN", "MAX":
			if len(x.Args) == 1 {
				return inferKind(x.Args[0], sch, env)
			}
		}
		return value.KindFloat
	case *ast.CaseExpr:
		if len(x.Whens) > 0 {
			return inferKind(x.Whens[0].Result, sch, env)
		}
		return value.KindNull
	case *ast.Extract:
		return value.KindInt
	case *ast.Substring:
		return value.KindString
	case *ast.ScalarSubquery:
		if len(x.Subquery.Items) == 1 && !x.Subquery.Items[0].Star {
			return inferKind(x.Subquery.Items[0].Expr, nil, nil)
		}
		return value.KindNull
	}
	return value.KindNull
}

// displayName picks the output column name for a select item.
func displayName(item ast.SelectItem, pos int) string {
	if item.Alias != "" {
		return item.Alias
	}
	if ref, ok := item.Expr.(*ast.ColumnRef); ok {
		return ref.Name
	}
	return fmt.Sprintf("col%d", pos+1)
}

// stripQualifier removes a leading qualifier from a column name.
func stripQualifier(name string) string {
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		return name[i+1:]
	}
	return name
}
