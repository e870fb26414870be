package exec

import (
	"errors"
	"fmt"

	"ironsafe/internal/bufpool"
	"ironsafe/internal/schema"
	"ironsafe/internal/sql/ast"
	"ironsafe/internal/value"
)

// subEval evaluates one subquery expression (EXISTS, IN, or scalar).
//
// Uncorrelated subqueries run once and are memoized. Correlated subqueries
// are decorrelated: equality conjuncts linking inner columns to outer
// expressions become hash keys, the inner side (FROM plus inner-only
// predicates) is executed once and grouped by those keys, and any
// remaining outer-referencing conjuncts are evaluated per candidate row at
// lookup time. This turns the paper's TPC-H correlated subqueries (q2, q4,
// q21, ...) from per-row re-execution into a single build plus O(1) probes.
// The grouping is a keyTable over the inner keys — the build side of a hash
// semi-join — and every cache below is indexed by its ids; the inner side
// stays a join chain, and a candidate is a position in it, read through a row
// view for the columns the residual and the select list name. A subquery whose
// WHERE clause is uncorrelated but which names an outer column elsewhere is
// run again for every outer row (perRow): nothing of it is memoized.
type subEval struct {
	b   *builder
	sel *ast.Select

	uncorrelated bool
	perRow       bool
	cached       *Result   // memoized full execution (uncorrelated)
	inSet        *keyTable // its non-NULL first-column values
	inHasNull    bool

	inner     *joinChain // FROM + inner-only filter, full width
	keysInner []ast.Expr
	keysOuter []ast.Expr
	residual  ast.Expr
	// Inner rows grouped by key: the rows of key id are
	// pos[start[id]:start[id+1]].
	keys       *keyTable
	start, pos []int32
	outerVals  []value.Value // the outer row's key
	cand       []int32       // the outer row's candidates that passed the residual

	// outerEnv/ictx are reused across outer rows: the chain's schemas are
	// fixed per operator, only the bound rows change — the outer one in
	// outerEnv, the inner candidate loaded into ictx's row through irow.
	outerEnv *Env
	ictx     *evalCtx
	irow     *rowView

	scalarCache map[int32]value.Value // by key id
	// A scalar subquery over aggregates (q17's `0.2 * avg(l_quantity)`): its
	// calls, and the binding that substitutes their values over the candidates.
	aggs    []aggSpec
	binding *aggBinding
}

// prepareSubqueries walks exprs and builds a subEval for every subquery node
// found, given the enclosing operator's input schema and environment — and
// its input rows, where it holds them and evaluates exprs over nothing else:
// their correlation keys then reduce the subquery's inner scan (prepareSub).
// A subquery buildFrom prepared ahead (b.pre) is taken over as it is.
func (b *builder) prepareSubqueries(exprs []ast.Expr, outerSch *schema.Schema, outer *joinChain, env *Env) (map[ast.Expr]*subEval, error) {
	subs := map[ast.Expr]*subEval{}
	var firstErr error
	for _, e := range exprs {
		ast.Walk(e, func(x ast.Expr) bool {
			sel := ast.SubqueryOf(x)
			if firstErr != nil || sel == nil {
				return firstErr == nil
			}
			if _, in := x.(*ast.InSubquery); in && (len(sel.Items) != 1 || sel.Items[0].Star) {
				firstErr = errors.New("exec: IN subquery must select exactly one column")
				return false
			}
			se, ahead := b.pre[x]
			if ahead {
				delete(b.pre, x)
			} else {
				se, firstErr = b.prepareSub(sel, outerSch, outer, env)
			}
			subs[x] = se
			return firstErr == nil // LHS of InSubquery may itself contain subqueries
		})
	}
	return subs, firstErr
}

// analyzeSub classifies a subquery's WHERE conjuncts against the inner scope
// and the outer chain (outerSch nil: the environment alone) without running
// anything: inner-only conjuncts are returned, correlation keys and the
// residual are set on the subEval.
func (b *builder) analyzeSub(sel *ast.Select, outerSch *schema.Schema, env *Env) (*subEval, []ast.Expr, error) {
	se := &subEval{b: b, sel: sel, scalarCache: map[int32]value.Value{}}

	// Determine the inner scope schema without executing joins yet.
	innerScope, err := b.scopeSchema(sel, env)
	if err != nil {
		return nil, nil, err
	}
	outerChain := &Env{Parent: env, Sch: outerSch}

	conjs := ast.SplitConjuncts(sel.Where)
	var innerOnly, residual []ast.Expr
	for _, c := range conjs {
		switch {
		case resolvableIn(c, innerScope, nil, false):
			innerOnly = append(innerOnly, c)
		default:
			if eq, ok := c.(*ast.BinaryExpr); ok && eq.Op == ast.OpEq {
				l, r := eq.Left, eq.Right
				lInner := resolvableIn(l, innerScope, nil, false) && refsIn(l, innerScope)
				rInner := resolvableIn(r, innerScope, nil, false) && refsIn(r, innerScope)
				lOuter := resolvableIn(l, nil, outerChain, true)
				rOuter := resolvableIn(r, nil, outerChain, true)
				if lInner && rOuter {
					se.keysInner = append(se.keysInner, l)
					se.keysOuter = append(se.keysOuter, r)
					continue
				}
				if rInner && lOuter {
					se.keysInner = append(se.keysInner, r)
					se.keysOuter = append(se.keysOuter, l)
					continue
				}
			}
			if !resolvableIn(c, innerScope, outerChain, true) {
				return nil, nil, fmt.Errorf("exec: subquery predicate %s references unknown columns", c)
			}
			residual = append(residual, c)
		}
	}
	se.residual = ast.JoinConjuncts(residual)
	if len(se.keysInner) == 0 && len(residual) == 0 {
		// Memoized only if nothing else of it reads the outer row either.
		se.uncorrelated, se.perRow = true, !b.closed(sel, innerScope, nil, env)
		if se.perRow {
			b.trace.addf("subquery: outer reference outside WHERE, executed per outer row")
		} else {
			b.trace.addf("subquery: uncorrelated, executed once and cached")
		}
	}
	return se, innerOnly, nil
}

// closed reports whether every column sel names — in its select list, ON
// conditions, WHERE, GROUP BY, HAVING, ORDER BY, derived tables and nested
// subqueries — resolves in its own FROM clause (scope; nil: computed here), in
// a scope between it and the subquery being analysed (within), in its select
// list's aliases, or in env, which is fixed while the operator runs. Only then
// is its result the same for every outer row.
func (b *builder) closed(sel *ast.Select, scope *schema.Schema, within []*schema.Schema, env *Env) bool {
	if scope == nil {
		var err error
		if scope, err = b.scopeSchema(sel, env); err != nil {
			return false
		}
	}
	scopes := append(within[:len(within):len(within)], scope)
	ok := true
	for _, ref := range sel.From {
		ok = ok && (ref.Subquery == nil || b.closed(ref.Subquery, nil, within, env))
	}
	ast.EachExpr(sel, func(x ast.Expr) bool {
		if ref, isRef := x.(*ast.ColumnRef); isRef {
			found := env.Resolvable(ref.FullName())
			for _, s := range scopes {
				found = found || s.IndexOf(ref.FullName()) >= 0
			}
			for _, it := range sel.Items {
				found = found || it.Alias == ref.Name && ref.Qualifier == ""
			}
			ok = ok && found
		} else if sub := ast.SubqueryOf(x); sub != nil {
			ok = ok && b.closed(sub, nil, scopes, env)
		}
		return ok
	})
	return ok
}

// prepareSub analyses a subquery and, for the correlated case, executes its
// inner side — of which only the rows whose key some row of outer (the
// operator's input, nil when it is not at hand) holds are ever looked up, so
// outer's keys are offered to the inner scan as a semi-join reducer.
func (b *builder) prepareSub(sel *ast.Select, outerSch *schema.Schema, outer *joinChain, env *Env) (*subEval, error) {
	se, innerOnly, err := b.analyzeSub(sel, outerSch, env)
	if err != nil || se.uncorrelated {
		return se, err // an uncorrelated subquery is executed lazily on first use
	}
	if len(sel.GroupBy) > 0 {
		return nil, errors.New("exec: correlated subqueries with GROUP BY are not supported")
	}
	// FROM + inner-only predicates at full width: the input of `SELECT *`.
	innerSel := &ast.Select{
		Items: []ast.SelectItem{{Star: true}},
		From:  sel.From,
		Where: ast.JoinConjuncts(innerOnly),
		Limit: -1,
	}
	var offers []*semiReducer
	if outer != nil && len(se.keysInner) > 0 {
		offers = []*semiReducer{{name: "<outer>", src: outer, env: env, srcKeys: se.keysOuter, keys: se.keysInner}}
	}
	inner, err := b.buildInput(innerSel, env, false, offers)
	if err != nil {
		return nil, err
	}
	b.chargePass(inner.n, nil) // that select list's pass, though nothing is boxed for it
	se.inner = inner
	// NULL keys never match an equi-correlation: they get no id.
	se.keys = newKeyTable(b.sc, len(se.keysInner), inner.n, false)
	ids, err := b.keyIDs(se.keys, inner, se.keysInner, env, true)
	if err != nil {
		return nil, err
	}
	se.start, se.pos = groupPositions(b.sc, ids, se.keys.n)
	se.outerVals = make([]value.Value, len(se.keysOuter))
	// Group building is charged row-at-a-time in both modes.
	b.chargeRows(int64(inner.n))
	b.trace.addf("subquery: decorrelated on %d key(s) [%s], %d inner rows in %d groups, residual=%v",
		len(se.keysInner), exprsText(se.keysInner), inner.n, se.keys.n, se.residual != nil)
	se.outerEnv = &Env{Parent: env, Sch: outerSch}
	se.ictx = newCtx(b, inner.sch, se.outerEnv)
	se.ictx.row = make(schema.Row, inner.sch.Len())
	reads := []ast.Expr{se.residual}
	for _, it := range sel.Items {
		reads = append(reads, it.Expr)
	}
	se.irow = inner.view(se.ictx.row, 0, se.ictx.reads(reads...))
	return se, nil
}

// scopeSchema computes the combined qualified schema of a SELECT's FROM
// clause without executing joins (derived tables are planned for shape only).
func (b *builder) scopeSchema(sel *ast.Select, env *Env) (*schema.Schema, error) {
	scope := schema.New()
	for _, ref := range sel.From {
		var s *schema.Schema
		if ref.Subquery != nil {
			sub, err := b.buildSelect(ref.Subquery, env)
			if err != nil {
				return nil, err
			}
			s = sub.Sch
		} else {
			rel, err := b.cat.Relation(ref.Table)
			if err != nil {
				return nil, err
			}
			s = rel.Schema()
		}
		scope = scope.Concat(s.Qualify(ref.Name()))
	}
	return scope, nil
}

// ensureCached runs an uncorrelated subquery: once, or for every outer row
// when it reads the outer row outside its WHERE clause.
func (se *subEval) ensureCached(c *evalCtx) error {
	if se.cached != nil && !se.perRow {
		return nil
	}
	if se.perRow {
		// Run once per outer row, it holds its arrays for that run alone:
		// what it returns is rows of its own.
		outer := se.b.sc
		se.b.sc = bufpool.Open()
		defer func() { se.b.sc.Close(); se.b.sc = outer }()
	}
	res, err := se.b.buildSelect(se.sel, &Env{Parent: c.env, Sch: c.sch, Row: c.row})
	if err != nil {
		return err
	}
	se.cached, se.inSet, se.inHasNull = res, nil, false
	return nil
}

// values returns the non-NULL values an uncorrelated IN subquery selects.
func (se *subEval) values(c *evalCtx) (*keyTable, error) {
	if err := se.ensureCached(c); err != nil {
		return nil, err
	}
	if se.inSet == nil {
		sc := se.b.sc
		if se.perRow {
			sc = nil // made again for the next outer row: the collector's
		}
		se.inSet = newKeyTable(sc, 1, len(se.cached.Rows), false)
		for _, r := range se.cached.Rows {
			if r[0].IsNull() {
				se.inHasNull = true
				continue
			}
			se.inSet.id(r[:1], true)
		}
	}
	return se.inSet, nil
}

// outerKey looks the outer row's correlation key up among the inner keys:
// its id, or -1 when it has a NULL component or no inner row shares it.
func (se *subEval) outerKey(c *evalCtx) (int32, error) {
	for i, k := range se.keysOuter {
		v, err := c.eval(k)
		if err != nil {
			return -1, err
		}
		se.outerVals[i] = v
	}
	return se.keys.id(se.outerVals, false), nil
}

// candidates returns the inner rows — positions in the inner chain — of key
// id (see outerKey) that pass the residual predicate for the current outer
// row. The slice is reused by the next call.
func (se *subEval) candidates(c *evalCtx, id int32) ([]int32, error) {
	if id < 0 {
		return nil, nil
	}
	group := se.pos[se.start[id]:se.start[id+1]]
	if se.residual == nil {
		return group, nil
	}
	se.cand = se.cand[:0]
	se.outerEnv.Row = c.row
	for _, p := range group {
		se.irow.load(int(p))
		v, err := se.ictx.eval(se.residual)
		if err != nil {
			return nil, err
		}
		if truthy(v) {
			se.cand = append(se.cand, p)
		}
	}
	se.b.chargeWork(int64(len(group)))
	return se.cand, nil
}

// exists evaluates EXISTS semantics for the current outer row.
func (se *subEval) exists(c *evalCtx) (bool, error) {
	if se.uncorrelated {
		if err := se.ensureCached(c); err != nil {
			return false, err
		}
		return len(se.cached.Rows) > 0, nil
	}
	id, err := se.outerKey(c)
	if err != nil || id < 0 {
		return false, err
	}
	if se.residual == nil {
		return true, nil // an id has at least one inner row
	}
	rows, err := se.candidates(c, id)
	return len(rows) > 0, err
}

// in evaluates x [NOT] IN (subquery) with SQL three-valued semantics.
func (se *subEval) in(c *evalCtx, lhs value.Value, not bool) (value.Value, error) {
	if se.uncorrelated {
		set, err := se.values(c)
		if err != nil {
			return value.Null(), err
		}
		switch {
		case len(se.cached.Rows) == 0:
			return value.Bool(not), nil // in no set at all, whatever lhs is
		case lhs.IsNull():
			return value.Null(), nil
		case set.id([]value.Value{lhs}, false) >= 0:
			return value.Bool(!not), nil
		case se.inHasNull:
			return value.Null(), nil
		}
		return value.Bool(not), nil
	}

	id, err := se.outerKey(c)
	if err != nil {
		return value.Null(), err
	}
	rows, err := se.candidates(c, id)
	if err != nil {
		return value.Null(), err
	}
	if lhs.IsNull() && len(rows) > 0 {
		return value.Null(), nil // against no row at all it is simply not in
	}
	item := se.sel.Items[0].Expr
	se.outerEnv.Row = c.row
	sawNull := false
	for _, p := range rows {
		se.irow.load(int(p))
		v, err := se.ictx.eval(item)
		if err != nil {
			return value.Null(), err
		}
		if v.IsNull() {
			sawNull = true
			continue
		}
		cmp, err := value.Compare(lhs, v)
		if err != nil {
			return value.Null(), err
		}
		if cmp == 0 {
			return value.Bool(!not), nil
		}
	}
	if sawNull {
		return value.Null(), nil
	}
	return value.Bool(not), nil
}

// scalar evaluates a scalar subquery for the current outer row.
func (se *subEval) scalar(c *evalCtx) (value.Value, error) {
	if se.uncorrelated {
		if err := se.ensureCached(c); err != nil {
			return value.Null(), err
		}
		switch {
		case len(se.cached.Rows) == 0:
			return value.Null(), nil
		case len(se.cached.Rows) > 1:
			return value.Null(), errors.New("exec: scalar subquery returned more than one row")
		case len(se.cached.Rows[0]) != 1:
			return value.Null(), errors.New("exec: scalar subquery must select one column")
		}
		return se.cached.Rows[0][0], nil
	}

	if len(se.sel.Items) != 1 || se.sel.Items[0].Star {
		return value.Null(), errors.New("exec: scalar subquery must select one column")
	}
	item := se.sel.Items[0].Expr

	id, err := se.outerKey(c)
	if err != nil {
		return value.Null(), err
	}
	// Memoizable when the only outer dependence is the hash key. A key no
	// inner row shares has no id to memoize under and no rows to compute over.
	memo := se.residual == nil && id >= 0
	if memo {
		if v, ok := se.scalarCache[id]; ok {
			return v, nil
		}
	}
	rows, err := se.candidates(c, id)
	if err != nil {
		return value.Null(), err
	}
	se.outerEnv.Row = c.row

	var out value.Value
	if containsAggregate(item) {
		// The item may be any expression over aggregates: compute each
		// aggregate over the candidate rows, then evaluate the expression with
		// the results substituted, over the first candidate (or NULLs).
		if se.binding == nil {
			se.aggs = collectAggregates([]ast.Expr{item})
			se.binding = newAggBinding(nil, se.aggs)
		}
		for i, sp := range se.aggs {
			st := aggState{call: sp.call, accs: make([]accumulator, 0, 1)}
			st.open(nil) // made per outer row: the collector's
			for _, p := range rows {
				if sp.call.Star {
					st.accs[0].count++
					continue
				}
				se.irow.load(int(p))
				v, err := se.ictx.eval(sp.call.Args[0])
				if err == nil {
					err = st.add(0, v)
				}
				if err != nil {
					return value.Null(), err
				}
			}
			se.binding.vals[i] = st.result(0)
		}
		rep := -1
		if len(rows) > 0 {
			rep = int(rows[0])
		}
		se.irow.load(rep)
		actx := *se.ictx
		actx.agg = se.binding
		if out, err = actx.eval(item); err != nil {
			return value.Null(), err
		}
	} else {
		switch {
		case len(rows) == 0:
			out = value.Null()
		case len(rows) > 1:
			return value.Null(), errors.New("exec: scalar subquery returned more than one row")
		default:
			se.irow.load(int(rows[0]))
			if out, err = se.ictx.eval(item); err != nil {
				return value.Null(), err
			}
		}
	}
	if memo {
		se.scalarCache[id] = out
	}
	return out, nil
}
