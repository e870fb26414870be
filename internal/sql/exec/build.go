package exec

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"ironsafe/internal/schema"
	"ironsafe/internal/sql/ast"
	"ironsafe/internal/value"
)

// buildInput executes a statement's FROM and WHERE clauses: the joined input
// of its select list. offers are semi-join reducers for its FROM entries' scans
// from outside the statement; emit lets the scan of a statement that merely
// selects columns of its one table emit the statement's rows itself.
func (b *builder) buildInput(sel *ast.Select, env *Env, emit bool, offers []*semiReducer) (*joinChain, error) {
	input, remaining, err := b.buildFrom(sel, env, emit, offers)
	if err == nil && len(remaining) > 0 {
		input, err = b.filter(input, ast.JoinConjuncts(remaining), env)
	}
	return input, err
}

// buildSelect plans and executes one SELECT (possibly a subquery). The result
// is boxed — the select list is where rows are made — or, for the fragment
// that merely ships columns, encoded.
func (b *builder) buildSelect(sel *ast.Select, env *Env, offers ...*semiReducer) (*Result, error) {
	input, err := b.buildInput(sel, env, true, offers)
	if err != nil {
		return nil, err
	}

	items := expandStars(sel.Items, input.sch)
	outSch := schema.New()
	for i, it := range items {
		outSch.Columns = append(outSch.Columns, schema.Col(displayName(it, i), inferKind(it.Expr, input.sch, env)))
	}
	if res := b.passThrough(sel, items, input, outSch); res != nil {
		return res, nil
	}

	aliasMap := map[string]ast.Expr{}
	for _, it := range items {
		if it.Alias != "" && it.Expr != nil {
			aliasMap[it.Alias] = it.Expr
		}
	}
	// Positional references (GROUP BY 1, ORDER BY 2) resolve to select
	// items before alias substitution; an integer literal there is nothing else.
	resolve := func(clause string, e ast.Expr) (ast.Expr, error) {
		if lit, ok := e.(*ast.Literal); ok && lit.Value.Kind() == value.KindInt {
			n := lit.Value.AsInt()
			if n < 1 || n > int64(len(items)) {
				return nil, fmt.Errorf("exec: %s position %d is not in the select list", clause, n)
			}
			e = items[n-1].Expr
		}
		return substituteAliases(e, aliasMap, input.sch), nil
	}
	groupBy := make([]ast.Expr, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		if groupBy[i], err = resolve("GROUP BY", g); err != nil {
			return nil, err
		}
	}
	having := substituteAliases(sel.Having, aliasMap, input.sch)
	orderExprs := make([]ast.Expr, len(sel.OrderBy))
	for i, o := range sel.OrderBy {
		if orderExprs[i], err = resolve("ORDER BY", o.Expr); err != nil {
			return nil, err
		}
	}

	// Collect every expression evaluated after the FROM/WHERE stage.
	var all []ast.Expr
	for _, it := range items {
		all = append(all, it.Expr)
	}
	if having != nil {
		all = append(all, having)
	}
	all = append(all, orderExprs...)

	hasAgg := len(groupBy) > 0
	for _, e := range all {
		if e != nil && containsAggregate(e) {
			hasAgg = true
		}
	}

	// Output rows go straight into the result; only an ORDER BY needs them
	// held beside their sort keys first. DISTINCT keeps the first of equal
	// rows as they are emitted.
	type outRow struct {
		row  schema.Row
		keys []value.Value
	}
	ordered := len(sel.OrderBy) > 0
	res := &Result{Sch: outSch}
	var sorted []outRow
	reserve := func(n int) {
		if ordered {
			sorted = make([]outRow, 0, n)
		} else {
			res.Rows = make([]schema.Row, 0, n)
		}
	}
	batched := 0 // rows emitted out of per-batch arrays (the vectorized projection)
	var seen *keyTable
	if sel.Distinct {
		seen = newKeyTable(len(items), 0, true)
	}
	emit := func(row schema.Row, keys []value.Value) {
		if seen != nil {
			if n := seen.n; seen.id(row, true) < n {
				return
			}
		}
		if ordered {
			sorted = append(sorted, outRow{row: row, keys: keys})
		} else {
			res.Rows = append(res.Rows, row)
		}
	}
	// project emits the select list, beside the order keys, over ctx's row.
	exprs := make([]ast.Expr, 0, len(items)+len(orderExprs))
	for _, it := range items {
		exprs = append(exprs, it.Expr)
	}
	exprs = append(exprs, orderExprs...)
	project := func(ctx *evalCtx) error {
		vals := make([]value.Value, len(exprs))
		for i, e := range exprs {
			v, err := ctx.eval(e)
			if err != nil {
				return err
			}
			vals[i] = v
		}
		emit(vals[:len(items):len(items)], vals[len(items):])
		return nil
	}

	if hasAgg {
		specs := collectAggregates(all)
		subs, err := b.prepareSubqueries(append(append([]ast.Expr{}, all...), groupBy...), input.sch, nil, env)
		if err != nil {
			return nil, err
		}
		groups, err := b.aggregate(input, groupBy, specs, env, subs)
		if err != nil {
			return nil, err
		}
		b.trace.addf("hash aggregate (%d keys, %d aggregates): %d -> %d groups", len(groupBy), len(specs), input.n, groups.n)
		reserve(groups.n)
		// One context serves every group: the binding's slots take the group's
		// values, the row its representative's columns.
		binding := newAggBinding(groupBy, specs)
		ctx := newCtxWith(b, input.sch, env, binding, subs)
		ctx.row = make(schema.Row, input.sch.Len())
		rep := input.view(ctx.row, 0, ctx.reads(all...))
		for g := 0; g < groups.n; g++ {
			groups.bind(binding.vals, g)
			rep.load(int(groups.rep[g]))
			if having != nil {
				hv, err := ctx.eval(having)
				if err != nil {
					return nil, err
				}
				if !truthy(hv) {
					continue
				}
			}
			if err := project(ctx); err != nil {
				return nil, err
			}
		}
	} else {
		subs, err := b.prepareSubqueries(all, input.sch, input, env)
		if err != nil {
			return nil, err
		}
		reserve(input.n)
		ctx := newCtxWith(b, input.sch, env, nil, subs)
		if b.vec() {
			// Vectorized projection: each output column (and order key) is
			// computed as a whole vector per batch, and the batch's rows are
			// boxed from them, each beside its order keys.
			cols := make([]*schema.ColVec, len(exprs))
			for off := 0; off < input.n; off += b.batchRows {
				ctx.nextBatch()
				bt := input.batch(off, min(off+b.batchRows, input.n))
				sel := b.fullSel(bt.Len())
				for i, e := range exprs {
					if cols[i], err = ctx.evalVec(e, bt, sel); err != nil {
						return nil, err
					}
				}
				for slab := boxed(cols, sel); len(slab) > 0; slab = slab[len(exprs):] {
					emit(slab[:len(items):len(items)], slab[len(items):len(exprs)])
				}
				batched += bt.Len()
			}
		} else {
			for _, in := range input.parts[0].Rows {
				if err := project(ctx.withRow(in)); err != nil {
					return nil, err
				}
			}
		}
		b.chargePass(input.n, exprs)
	}

	if ordered {
		desc := make([]bool, len(sel.OrderBy))
		for i, o := range sel.OrderBy {
			desc[i] = o.Desc
		}
		sort.SliceStable(sorted, func(i, j int) bool {
			for k := range desc {
				c := value.MustCompare(sorted[i].keys[k], sorted[j].keys[k])
				if c == 0 {
					continue
				}
				if desc[k] {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		b.chargeWork(int64(len(sorted)))
		b.trace.addf("sort %d rows by %d keys", len(sorted), len(sel.OrderBy))
		res.Rows = make([]schema.Row, len(sorted))
		for i, r := range sorted {
			res.Rows[i] = r.row
		}
	}
	b.limit(sel, res)
	if sel == b.stmt {
		// The statement's result outlives the statement, and what it keeps
		// alive should be its own size: a row that DISTINCT or LIMIT left of a
		// batch is copied out of the batch's array, and a string — which may
		// be cut from the one string that holds a whole window's column
		// (RowWindow.Col) — out of that. The rows are the select list's own, so
		// they can be rewritten.
		for k, row := range res.Rows {
			if len(res.Rows) < batched {
				row = row.Clone()
				res.Rows[k] = row
			}
			for i, v := range row {
				if v.Kind() == value.KindString {
					row[i] = value.Str(strings.Clone(v.AsString()))
				}
			}
		}
	}
	return res, nil
}

// limit cuts a boxed result to the statement's LIMIT. The kept rows are
// copied out, so that a result of ten rows does not hold on to the thousand
// it was cut from.
func (b *builder) limit(sel *ast.Select, res *Result) {
	if sel.Limit >= 0 && len(res.Rows) > sel.Limit {
		res.Rows = append(make([]schema.Row, 0, sel.Limit), res.Rows[:sel.Limit]...)
		b.trace.addf("limit %d", sel.Limit)
	}
}

// plainSelect reports whether everything sel does after its FROM and WHERE is
// in its select list: no DISTINCT, ORDER BY or grouping.
func plainSelect(sel *ast.Select) bool {
	return !sel.Distinct && len(sel.OrderBy) == 0 && len(sel.GroupBy) == 0 && sel.Having == nil
}

// passThrough is the projection of a plain SELECT whose select list names
// every input column in order, over an input that is one boxed or encoded
// result — a derived table, rows a relation held boxed, the rows the statement's
// own scan emitted (see scanOutput): nothing is computed, and the rows are
// handed on as they are, in whichever form they are in — boxed rows are never
// written after they are built. It charges what the computed projection
// charges for the same input. For every other statement it returns nil.
func (b *builder) passThrough(sel *ast.Select, items []ast.SelectItem, input *joinChain, outSch *schema.Schema) *Result {
	in := input.parts[0]
	if !plainSelect(sel) || len(items) != input.sch.Len() || len(input.parts) > 1 || input.idx[0] != nil || input.n != in.NumRows() || in.cols != nil {
		return nil
	}
	for i, it := range items {
		if ref, ok := it.Expr.(*ast.ColumnRef); !ok || input.sch.IndexOf(ref.FullName()) != i {
			return nil // computed, reordered, an outer column, or unknown: the evaluator decides
		}
	}
	b.chargePass(input.n, nil)
	b.trace.addf("project: pass-through")
	res := &Result{Sch: outSch, Rows: in.Rows, enc: in.enc, n: in.n}
	if res.Rows == nil && res.enc == nil {
		res.Rows = []schema.Row{}
	}
	b.limit(sel, res) // the scan only encodes for a statement without LIMIT
	return res
}

// expandStars replaces SELECT * items with one item per input column.
func expandStars(items []ast.SelectItem, sch *schema.Schema) []ast.SelectItem {
	var out []ast.SelectItem
	for _, it := range items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		for _, c := range sch.Columns {
			out = append(out, ast.SelectItem{
				Expr:  &ast.ColumnRef{Name: c.Name},
				Alias: c.Name,
			})
		}
	}
	return out
}

// substituteAliases replaces unqualified column references that match a
// select-item alias (and do not resolve in the input schema) with the
// aliased expression; SQL allows this in GROUP BY and ORDER BY.
func substituteAliases(e ast.Expr, aliases map[string]ast.Expr, sch *schema.Schema) ast.Expr {
	if e == nil || len(aliases) == 0 {
		return e
	}
	switch x := e.(type) {
	case *ast.ColumnRef:
		if x.Qualifier == "" {
			if sub, ok := aliases[x.Name]; ok && sch.IndexOf(x.Name) < 0 {
				return sub
			}
		}
		return x
	case *ast.BinaryExpr:
		return &ast.BinaryExpr{Op: x.Op,
			Left:  substituteAliases(x.Left, aliases, sch),
			Right: substituteAliases(x.Right, aliases, sch)}
	case *ast.UnaryExpr:
		return &ast.UnaryExpr{Op: x.Op, Expr: substituteAliases(x.Expr, aliases, sch)}
	case *ast.IsNull:
		return &ast.IsNull{Expr: substituteAliases(x.Expr, aliases, sch), Not: x.Not}
	case *ast.Between:
		return &ast.Between{Expr: substituteAliases(x.Expr, aliases, sch),
			Lo: substituteAliases(x.Lo, aliases, sch), Hi: substituteAliases(x.Hi, aliases, sch), Not: x.Not}
	case *ast.Like:
		return &ast.Like{Expr: substituteAliases(x.Expr, aliases, sch),
			Pattern: substituteAliases(x.Pattern, aliases, sch), Not: x.Not}
	case *ast.InList:
		items := make([]ast.Expr, len(x.Items))
		for i, it := range x.Items {
			items[i] = substituteAliases(it, aliases, sch)
		}
		return &ast.InList{Expr: substituteAliases(x.Expr, aliases, sch), Items: items, Not: x.Not}
	case *ast.FuncCall:
		args := make([]ast.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = substituteAliases(a, aliases, sch)
		}
		return &ast.FuncCall{Name: x.Name, Star: x.Star, Distinct: x.Distinct, Args: args}
	case *ast.CaseExpr:
		whens := make([]ast.WhenClause, len(x.Whens))
		for i, w := range x.Whens {
			whens[i] = ast.WhenClause{
				Cond:   substituteAliases(w.Cond, aliases, sch),
				Result: substituteAliases(w.Result, aliases, sch),
			}
		}
		return &ast.CaseExpr{Whens: whens, Else: substituteAliases(x.Else, aliases, sch)}
	case *ast.Extract:
		return &ast.Extract{Field: x.Field, Expr: substituteAliases(x.Expr, aliases, sch)}
	case *ast.Substring:
		var fo ast.Expr
		if x.For != nil {
			fo = substituteAliases(x.For, aliases, sch)
		}
		return &ast.Substring{Expr: substituteAliases(x.Expr, aliases, sch),
			From: substituteAliases(x.From, aliases, sch), For: fo}
	default:
		// Literals, intervals, and subquery nodes pass through unchanged.
		return e
	}
}

// buildFrom executes the FROM clause, consuming WHERE conjuncts usable for
// pushdown and join keys; it returns the joined input and the leftover
// conjuncts. offers are reducers whose source is not a FROM entry, each for
// the scan of the one entry that resolves its keys; emit is buildInput's.
func (b *builder) buildFrom(sel *ast.Select, env *Env, emit bool, offers []*semiReducer) (*joinChain, []ast.Expr, error) {
	conjs := factorCommonDisjuncts(ast.SplitConjuncts(sel.Where))
	if len(sel.From) == 0 {
		return chainOf(&Result{Sch: schema.New(), Rows: []schema.Row{{}}}), conjs, nil
	}

	used := make([]bool, len(conjs))
	complex := make([]bool, len(conjs))
	for i, c := range conjs {
		complex[i] = containsSubquery(c) || containsAggregate(c)
	}

	// A statement that merely selects columns of its one table hands that
	// projection to the table's scan, provided the scan consumed the whole
	// WHERE clause (nothing downstream needs a column the projection drops):
	// the scan then emits the statement's rows, and the top-level statement of
	// a storage-side fragment may leave them encoded.
	var out *scanOutput
	if emit && len(sel.From) == 1 && plainSelect(sel) {
		out = &scanOutput{
			encode: b.fragment && sel == b.stmt && sel.Limit < 0,
			columns: func(full *schema.Schema, keep []int) ([]int, bool) {
				for _, u := range used {
					if !u {
						return nil, false
					}
				}
				return scanColumns(sel.Items, full, keep)
			},
		}
	}

	explicit := false
	for _, ref := range sel.From[1:] {
		if ref.Join != nil {
			explicit = true
		}
	}

	// Each FROM entry is built with its single-table conjuncts pushed into
	// it, claimed in FROM order (right sides of outer joins take none: there
	// WHERE semantics differ from ON semantics). In a comma-joined list a
	// stored table's scan is also offered the keys of each earlier entry that
	// lost rows to its own scan and that an equality links it to (semiReducer)
	// — no outer reference: splitEquiKey gets no env — which the join applies,
	// and the offers whose keys it resolves.
	rels := make([]*joinChain, len(sel.From))
	semi := make([]semiScan, len(sel.From))
	reducing := b.vec() && !explicit
	offered := append(offers, b.inSetOffers(conjs, reducing, env)...)
	for i, ref := range sel.From {
		outer := ref.Join != nil && ref.Join.Kind == ast.JoinLeftOuter
		if reducing && i+len(offered) > 0 {
			semi[i].reducers = func(sch *schema.Schema) (rds []*semiReducer) {
				for k, rd := range offered {
					if rd == nil || !keysIn(rd.keys, sch) {
						continue
					}
					if rd.sub != nil {
						// The subquery runs now. If it fails the scan goes unreduced
						// and the filter, should a row reach it, runs into the failure.
						if rd.t, _ = rd.sub.values(newCtx(b, nil, env)); rd.t == nil {
							continue
						}
					}
					offered[k] = nil
					rds = append(rds, rd)
				}
				for j := 0; j < i; j++ {
					if !semi[j].lost {
						continue
					}
					rd := &semiReducer{name: sel.From[j].Name(), src: rels[j]}
					for k, c := range conjs {
						if used[k] || complex[k] {
							continue
						}
						if ks, kd, ok := splitEquiKey(c, rels[j].sch, sch, nil); ok {
							rd.srcKeys, rd.keys = append(rd.srcKeys, ks), append(rd.keys, kd)
						}
					}
					if len(rd.keys) > 0 {
						rds = append(rds, rd)
					}
				}
				return rds
			}
		}
		r, err := b.buildRef(ref, env, out, &semi[i], func(sch *schema.Schema) ast.Expr {
			var push []ast.Expr
			for j, c := range conjs {
				if outer || used[j] || complex[j] {
					continue
				}
				if refsIn(c, sch) && resolvableIn(c, sch, env, true) {
					push = append(push, c)
					used[j] = true
				}
			}
			return ast.JoinConjuncts(push)
		})
		if err != nil {
			return nil, nil, err
		}
		rels[i] = r
	}

	cur := rels[0] // a lone entry is the FROM clause's result as it stands
	if len(rels) > 1 {
		var err error
		if explicit {
			cur, err = b.assembleSequential(sel.From, rels, conjs, used, complex, env)
		} else {
			cur, err = b.assembleGreedy(rels, semi, conjs, used, complex, env)
		}
		if err != nil {
			return nil, nil, err
		}
		if b.vec() {
			b.trace.addf("join chain: %d joins, %d rows x %d columns by position", cur.joins, cur.n, cur.sch.Len())
		}
	}

	var remaining []ast.Expr
	for j, c := range conjs {
		if !used[j] {
			remaining = append(remaining, c)
		}
	}
	return cur, remaining, nil
}

// factorCommonDisjuncts hoists conjuncts present in every branch of an OR
// (matched by text) as additional top-level conjuncts. TPC-H q19 hides its
// join predicate `p_partkey = l_partkey` inside each OR branch; without
// factoring, the join degenerates into a cross product. The original OR is
// kept — AND(common, OR(...)) is equivalent when common appears in every
// branch.
func factorCommonDisjuncts(conjs []ast.Expr) []ast.Expr {
	out := conjs
	seen := map[string]bool{}
	for _, c := range conjs {
		seen[c.String()] = true
	}
	for _, c := range conjs {
		disjuncts := ast.SplitDisjuncts(c)
		if len(disjuncts) < 2 {
			continue
		}
		// absent holds the first branch's conjuncts that some other branch
		// lacks; the rest are common and are hoisted in the order written there.
		first := ast.SplitConjuncts(disjuncts[0])
		absent := map[string]bool{}
		for _, d := range disjuncts[1:] {
			present := map[string]bool{}
			for _, cj := range ast.SplitConjuncts(d) {
				present[cj.String()] = true
			}
			for _, cj := range first {
				if k := cj.String(); !present[k] {
					absent[k] = true
				}
			}
		}
		for _, cj := range first {
			if k := cj.String(); !absent[k] && !seen[k] {
				seen[k] = true
				out = append(out, cj)
			}
		}
	}
	return out
}

// assembleSequential joins refs strictly left to right (required when
// explicit JOIN clauses are present).
func (b *builder) assembleSequential(refs []ast.TableRef, rels []*joinChain, conjs []ast.Expr, used, complex []bool, env *Env) (*joinChain, error) {
	cur := rels[0]
	for i := 1; i < len(refs); i++ {
		right := rels[i]
		if j := refs[i].Join; j != nil {
			onConjs := ast.SplitConjuncts(j.On)
			var keysL, keysR, residual []ast.Expr
			var rightOnly []ast.Expr
			for _, c := range onConjs {
				if kl, kr, ok := splitEquiKey(c, cur.sch, right.sch, env); ok {
					keysL = append(keysL, kl)
					keysR = append(keysR, kr)
					continue
				}
				if refsIn(c, right.sch) && resolvableIn(c, right.sch, env, true) && !refsIn(c, cur.sch) {
					rightOnly = append(rightOnly, c)
					continue
				}
				residual = append(residual, c)
			}
			if len(rightOnly) > 0 {
				var err error
				right, err = b.filter(right, ast.JoinConjuncts(rightOnly), env)
				if err != nil {
					return nil, err
				}
			}
			var err error
			if j.Kind == ast.JoinLeftOuter {
				cur, err = b.hashLeftJoin(cur, right, keysL, keysR, ast.JoinConjuncts(residual), env)
			} else {
				cur, err = b.hashInnerJoin(cur, right, keysL, keysR, env)
				if err == nil && len(residual) > 0 {
					cur, err = b.filter(cur, ast.JoinConjuncts(residual), env)
				}
			}
			if err != nil {
				return nil, err
			}
		} else {
			var err error
			cur, err = b.joinWithWhere(cur, right, conjs, used, complex, env)
			if err != nil {
				return nil, err
			}
		}
		// Apply any WHERE conjuncts that just became resolvable.
		var err error
		if cur, err = b.filterResolvable(cur, conjs, used, complex, env); err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// filterResolvable applies the unused WHERE conjuncts that resolve in cur.
func (b *builder) filterResolvable(cur *joinChain, conjs []ast.Expr, used, complex []bool, env *Env) (*joinChain, error) {
	var post []ast.Expr
	for j, c := range conjs {
		if used[j] || complex[j] {
			continue
		}
		if resolvableIn(c, cur.sch, env, true) {
			post = append(post, c)
			used[j] = true
		}
	}
	if len(post) == 0 {
		return cur, nil
	}
	return b.filter(cur, ast.JoinConjuncts(post), env)
}

// assembleGreedy orders comma-joined relations by equi-join connectivity to
// avoid cross products (TPC-H lists tables in arbitrary order). Every choice
// breaks ties towards the lowest FROM position, so the row order is a
// function of the statement and the data.
func (b *builder) assembleGreedy(rels []*joinChain, semi []semiScan, conjs []ast.Expr, used, complex []bool, env *Env) (*joinChain, error) {
	joined := make([]bool, len(rels))
	cur := rels[0]
	for n := 1; n < len(rels); n++ {
		pick := -1
		for i := 1; i < len(rels) && pick < 0; i++ {
			if !joined[i] && hasEquiLink(conjs, used, complex, cur.sch, rels[i].sch, env) {
				pick = i
			}
		}
		if pick < 0 {
			// No connecting predicate: cross join the smallest relation, by
			// the size its scan would have left it without semi-join reduction.
			for i := 1; i < len(rels); i++ {
				if !joined[i] && (pick < 0 || rels[i].n+semi[i].cut < rels[pick].n+semi[pick].cut) {
					pick = i
				}
			}
		}
		var err error
		cur, err = b.joinWithWhere(cur, rels[pick], conjs, used, complex, env)
		if err != nil {
			return nil, err
		}
		joined[pick] = true
	}
	return cur, nil
}

// joinWithWhere joins cur with right using applicable WHERE equi-conjuncts,
// then applies newly-resolvable WHERE conjuncts.
func (b *builder) joinWithWhere(cur, right *joinChain, conjs []ast.Expr, used, complex []bool, env *Env) (*joinChain, error) {
	var keysL, keysR []ast.Expr
	for j, c := range conjs {
		if used[j] || complex[j] {
			continue
		}
		if kl, kr, ok := splitEquiKey(c, cur.sch, right.sch, env); ok {
			keysL = append(keysL, kl)
			keysR = append(keysR, kr)
			used[j] = true
		}
	}
	out, err := b.hashInnerJoin(cur, right, keysL, keysR, env)
	if err != nil {
		return nil, err
	}
	return b.filterResolvable(out, conjs, used, complex, env)
}

// hasEquiLink reports whether an unused equality conjunct connects the two
// schemas.
func hasEquiLink(conjs []ast.Expr, used, complex []bool, left, right *schema.Schema, env *Env) bool {
	for j, c := range conjs {
		if used[j] || complex[j] {
			continue
		}
		if _, _, ok := splitEquiKey(c, left, right, env); ok {
			return true
		}
	}
	return false
}

// splitEquiKey decomposes `a = b` where one side belongs to left and the
// other to right; returns (leftKey, rightKey, true) on success.
func splitEquiKey(c ast.Expr, left, right *schema.Schema, env *Env) (ast.Expr, ast.Expr, bool) {
	eq, ok := c.(*ast.BinaryExpr)
	if !ok || eq.Op != ast.OpEq {
		return nil, nil, false
	}
	lInLeft := refsIn(eq.Left, left) && resolvableIn(eq.Left, left, env, true)
	lInRight := refsIn(eq.Left, right) && resolvableIn(eq.Left, right, env, true)
	rInLeft := refsIn(eq.Right, left) && resolvableIn(eq.Right, left, env, true)
	rInRight := refsIn(eq.Right, right) && resolvableIn(eq.Right, right, env, true)
	if lInLeft && rInRight && !lInRight && !rInLeft {
		return eq.Left, eq.Right, true
	}
	if rInLeft && lInRight && !rInRight && !lInLeft {
		return eq.Right, eq.Left, true
	}
	return nil, nil, false
}

// scanOutput is what a statement that merely selects columns of one table
// asks of that table's scan.
type scanOutput struct {
	// columns returns the table columns to emit, in order (nil: all), given
	// the table's schema and the columns the scan would keep anyway. It is
	// consulted after the pushdown and reports false when the scan's rows are
	// not the statement's.
	columns func(full *schema.Schema, keep []int) ([]int, bool)
	// encode asks for the rows in the encoded form.
	encode bool
}

// scanColumns resolves a bare select list against the scanned table: a lone
// * keeps what the scan keeps, distinct column references name their columns
// in select order (nil when that is every column in table order). Anything
// else (a * beside other items would expand over the narrowed scan; a
// repeated column would make its own name ambiguous) is left to the
// projection.
func scanColumns(items []ast.SelectItem, full *schema.Schema, keep []int) ([]int, bool) {
	if len(items) == 1 && items[0].Star {
		return keep, true
	}
	cols := make([]int, len(items))
	taken := make([]bool, full.Len())
	whole := len(items) == full.Len()
	for i, it := range items {
		ref, ok := it.Expr.(*ast.ColumnRef)
		if !ok {
			return nil, false
		}
		c := full.IndexOf(ref.FullName())
		if c < 0 || taken[c] {
			return nil, false
		}
		cols[i], taken[c] = c, true
		whole = whole && c == i
	}
	if whole {
		return nil, true
	}
	return cols, true
}

// buildRef executes one FROM entry with a qualified schema, filtered by the
// conjuncts pushed down to it: pushdown(sch) claims them given the entry's
// schema and returns their conjunction (nil for none).
//
// A stored table in vector mode is scanned late-materializing: per window the
// predicate runs over column vectors decoded straight from the pages, and only
// the rows it keeps are copied, column by column, into the entry's vectors,
// narrowed to the columns the statement references anywhere. When the
// statement is nothing but this scan (out, nil otherwise) the scan emits its
// select list instead: the kept rows boxed, or encoded.
func (b *builder) buildRef(ref ast.TableRef, env *Env, out *scanOutput, semi *semiScan, pushdown func(*schema.Schema) ast.Expr) (*joinChain, error) {
	filtered := func(res *Result) (*joinChain, error) {
		if pred := pushdown(res.Sch); pred != nil {
			return b.filter(chainOf(res), pred, env)
		}
		return chainOf(res), nil
	}
	if ref.Subquery != nil {
		sub, err := b.buildSelect(ref.Subquery, env)
		if err != nil {
			return nil, err
		}
		return filtered(&Result{Sch: sub.Sch.Qualify(ref.Name()), Rows: sub.Rows})
	}
	rel, err := b.cat.Relation(ref.Table)
	if err != nil {
		return nil, err
	}
	full := rel.Schema().Qualify(ref.Name())
	res := &Result{Sch: full}
	scanned := 0
	br, ok := rel.(BatchRelation)
	if !ok || !b.vec() {
		//ironsafe:allow rowloop -- the sanctioned fallback: ExecBatchRows=1 and relations without ScanBatch take the row-at-a-time scan
		if err := rel.Scan(func(r schema.Row) error {
			res.Rows = append(res.Rows, r)
			return nil
		}); err != nil {
			return nil, err
		}
		scanned = len(res.Rows)
		b.chargeRows(int64(scanned))
		b.trace.addf("scan %s as %s -> %d rows", ref.Table, ref.Name(), scanned)
		return filtered(res)
	}

	if b.refs == nil {
		b.refs = collectRefs(b.stmt)
	}
	cols := b.refs.keep(ref.Table, full)
	res.Sch = full.Select(cols)
	pred := pushdown(res.Sch)
	emit, encode := false, false
	if out != nil {
		if c, ok := out.columns(full, cols); ok {
			cols, emit, encode = c, true, out.encode
			res.Sch = full.Select(cols)
		}
	}
	if !emit {
		if cols == nil {
			cols = b.fullSel(full.Len())
		}
		res.cols = make([]*schema.ColVec, len(cols))
		for i := range res.cols {
			res.cols[i] = &schema.ColVec{}
		}
	}
	// The predicate reads table columns, so it resolves against the full
	// schema whatever the scan's output keeps.
	ctx := newCtx(b, full, env)
	passed := 0 // rows the predicate kept: what the scan holds unless a reducer rejects some
	var reducers []*semiReducer
	if semi.reducers != nil {
		reducers = semi.reducers(res.Sch)
	}
	// A result's vectors are its own — no next window recycles them — so while
	// a scan of one keeps every row it copies nothing: its columns are shared.
	src, held := rel.(*Result)
	share := held && !emit
	if err := br.ScanBatch(b.batchRows, func(bt *Batch) error {
		ctx.nextBatch()
		n := bt.Len()
		scanned += n
		b.chargeBatch(int64(n))
		keep := b.fullSel(n)
		if pred != nil {
			v, err := ctx.evalVec(pred, bt, keep)
			if err != nil {
				return err
			}
			keep = selectTrue(v, n, ctx.sel(n))
			b.chargeBatch(int64(n))
		}
		passed += len(keep)
		for _, rd := range reducers {
			var err error
			if keep, err = rd.reduce(b, ctx, bt, keep); err != nil {
				return err
			}
		}
		switch {
		case encode:
			res.enc = bt.AppendEncoded(res.enc, keep, cols)
		case emit:
			res.Rows = bt.AppendRows(res.Rows, keep, cols)
		case share && len(keep) == n:
		default:
			for i, c := range cols {
				for off := 0; share && off < res.n; off += b.batchRows {
					res.cols[i].AppendSel(src.col(c), off, b.fullSel(min(b.batchRows, res.n-off)))
				}
				bt.AppendCol(res.cols[i], c, keep)
			}
			share = false
		}
		res.n += len(keep)
		if PoisonRecycledVectors && bt.win != nil && !held {
			for c := range full.Columns {
				bt.Col(c).Poison()
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for i, c := range cols {
		if !share {
			break
		}
		res.cols[i] = src.col(c)
	}
	b.trace.addf("scan %s as %s -> %d rows", ref.Table, ref.Name(), scanned)
	if pred != nil {
		b.trace.addf("filter %s: %d -> %d rows", pred, scanned, passed)
	}
	for _, rd := range reducers {
		if rd.probed > 0 {
			b.trace.addf("semi-join reduce on [%s] from %s: %d -> %d rows (%d probed)", exprsText(rd.keys), rd.name, rd.in, rd.in-rd.rejected, rd.probed)
		}
	}
	semi.lost, semi.cut = res.n < scanned, passed-res.n
	if encode {
		b.trace.addf("fragment: encoded reply, %d rows", res.n)
	}
	return chainOf(res), nil
}

// semiScan is what buildFrom asks of one FROM entry's scan — the reducers the
// entries before it offer, given its schema; nil for none — and learns from it.
type semiScan struct {
	reducers func(*schema.Schema) []*semiReducer
	lost     bool // the scan kept fewer rows than it read: its keys can reduce a later scan
	cut      int  // rows the reducers rejected
}

// semiReducer drops from a running table scan the rows whose key its source
// does not hold. The source is an earlier FROM entry (the join would drop the
// row, after it was boxed), the input rows of the operator that evaluates a
// decorrelated subquery, for the subquery's inner scan (env: what their keys
// are evaluated in; no outer row ever looks the inner row up), or the set of
// an uncorrelated `e IN (subquery)` conjunct (sub; the filter would drop the
// row). The operator downstream still applies the condition, so the reducer
// may pass any row it likes, and it goes by what it observes alone. It costs a
// pass over src to build and a probe per row, so src's keys are collected only
// once more rows have reached the reducer than src holds — if that fails the
// reducer retires, and the operator downstream meets the failure if it gets
// that far — and after a window in which it kept more rows than it rejected it
// sits out twice as many windows as the last time.
type semiReducer struct {
	name          string // the source's name in the statement
	src           *joinChain
	env           *Env
	sub           *subEval
	srcKeys, keys []ast.Expr // paired: src's side, the scanned entry's side
	t             *keyTable  // the source's keys, once built

	in, probed, rejected int // rows that reached the reducer; of those, probed; of those, rejected
	nap, sleep           int // windows sat out last time, and still to sit out
}

// reduce returns the positions among keep of bt's rows that may join src. The
// result is valid as long as the scan's batch is (ctx.nextBatch).
func (rd *semiReducer) reduce(b *builder, ctx *evalCtx, bt *Batch, keep []int) ([]int, error) {
	if rd.in += len(keep); len(keep) == 0 || rd.t == nil && rd.in <= rd.src.n {
		return keep, nil
	}
	if rd.sleep > 0 {
		rd.sleep--
		return keep, nil
	}
	if rd.t == nil {
		rd.t = newKeyTable(len(rd.keys), rd.src.n, false)
		if _, err := b.keyIDs(rd.t, rd.src, rd.srcKeys, rd.env, true); err != nil {
			rd.sleep = math.MaxInt
			return keep, nil
		}
		b.chargePass(rd.src.n, rd.srcKeys)
	}
	cols := make([]*schema.ColVec, len(rd.keys))
	for i, e := range rd.keys {
		var err error
		if cols[i], err = ctx.evalVec(e, bt, keep); err != nil {
			return nil, err
		}
	}
	sel := rd.t.filter(cols, keep, ctx.sel(bt.Len()))
	b.chargeBatch(int64(len(keep)))
	rd.probed += len(keep)
	rd.rejected += len(keep) - len(sel)
	if rd.nap = 2*rd.nap + 1; 2*len(sel) <= len(keep) {
		rd.nap = 0
	}
	rd.sleep = rd.nap
	return sel, nil
}

// inSetOffers prepares each top-level conjunct `e IN (subquery)` whose
// subquery is the same for every row ahead of the filter that evaluates it
// (b.pre hands the subquery over, so it still runs once) and offers its set to
// the scan of the entry that holds e. A subquery that cannot be prepared is
// left to the filter, which reports why. Nothing is prepared where no scan
// is reduced.
func (b *builder) inSetOffers(conjs []ast.Expr, reducing bool, env *Env) (offers []*semiReducer) {
	for _, c := range conjs {
		x, ok := c.(*ast.InSubquery)
		if !ok || x.Not || !reducing {
			continue
		}
		se, _, err := b.analyzeSub(x.Subquery, nil, env)
		if err != nil || !se.uncorrelated {
			continue
		}
		if b.pre == nil {
			b.pre = map[ast.Expr]*subEval{}
		}
		if b.pre[x] = se; !se.perRow {
			offers = append(offers, &semiReducer{name: "IN (<subquery>)", sub: se, keys: []ast.Expr{x.Expr}})
		}
	}
	return offers
}

// keysIn reports whether every key reads sch and nothing else: no other
// scope, and no subquery, which the scan has not prepared.
func keysIn(keys []ast.Expr, sch *schema.Schema) bool {
	for _, k := range keys {
		if !refsIn(k, sch) || !resolvableIn(k, sch, nil, false) || containsSubquery(k) {
			return false
		}
	}
	return true
}

// Format renders a result as aligned text (debug/CLI helper).
func (r *Result) Format() string {
	out := ""
	for _, c := range r.Sch.Columns {
		out += fmt.Sprintf("%s\t", c.Name)
	}
	out += "\n"
	for _, row := range r.Rows {
		for _, v := range row {
			out += v.String() + "\t"
		}
		out += "\n"
	}
	return out
}
