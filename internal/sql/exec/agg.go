package exec

import (
	"fmt"

	"ironsafe/internal/schema"
	"ironsafe/internal/sql/ast"
	"ironsafe/internal/value"
)

// aggSpec is one distinct aggregate call appearing anywhere in a query.
type aggSpec struct {
	key  string // canonical text, used for substitution
	call *ast.FuncCall
}

// collectAggregates returns the distinct aggregate calls in the given
// expressions, keyed by their text.
func collectAggregates(exprs []ast.Expr) []aggSpec {
	seen := map[string]bool{}
	var specs []aggSpec
	for _, e := range exprs {
		ast.Walk(e, func(x ast.Expr) bool {
			if f, ok := x.(*ast.FuncCall); ok && f.IsAggregate() {
				k := f.String()
				if !seen[k] {
					seen[k] = true
					specs = append(specs, aggSpec{key: k, call: f})
				}
				return false // don't collect nested aggregates
			}
			return true
		})
	}
	return specs
}

// accumulator incrementally computes one aggregate.
type accumulator struct {
	call     *ast.FuncCall
	count    int64
	sumF     float64
	sumI     int64
	isFloat  bool
	min, max value.Value
	distinct *keyTable
}

func newAccumulator(call *ast.FuncCall) *accumulator {
	a := &accumulator{call: call, min: value.Null(), max: value.Null()}
	if call.Distinct {
		a.distinct = newKeyTable(1, 0, false)
	}
	return a
}

// add folds one input row into the accumulator.
func (a *accumulator) add(c *evalCtx, row schema.Row) error {
	if a.call.Star {
		a.count++
		return nil
	}
	v, err := c.withRow(row).eval(a.call.Args[0])
	if err != nil {
		return err
	}
	return a.addValue(v)
}

// addValue folds one already-evaluated argument value — the vectorized
// aggregation path extracts the argument column per batch and feeds elements
// here, so both paths share the accumulation (and its summation order).
func (a *accumulator) addValue(v value.Value) error {
	if v.IsNull() {
		return nil // aggregates ignore NULL inputs
	}
	if a.distinct != nil {
		if n := a.distinct.n; a.distinct.id([]value.Value{v}, true) < n {
			return nil
		}
	}
	a.count++
	switch a.call.Name {
	case "SUM", "AVG":
		if !v.IsNumeric() {
			return fmt.Errorf("exec: %s over %s", a.call.Name, v.Kind())
		}
		if v.Kind() == value.KindFloat {
			a.isFloat = true
			a.sumF += v.AsFloat()
		} else {
			a.sumI += v.AsInt()
		}
	case "MIN":
		if a.min.IsNull() || value.MustCompare(v, a.min) < 0 {
			a.min = v
		}
	case "MAX":
		if a.max.IsNull() || value.MustCompare(v, a.max) > 0 {
			a.max = v
		}
	}
	return nil
}

// result finalizes the aggregate value.
func (a *accumulator) result() value.Value {
	switch a.call.Name {
	case "COUNT":
		return value.Int(a.count)
	case "SUM":
		if a.count == 0 {
			return value.Null()
		}
		if a.isFloat {
			return value.Float(a.sumF + float64(a.sumI))
		}
		return value.Int(a.sumI)
	case "AVG":
		if a.count == 0 {
			return value.Null()
		}
		return value.Float((a.sumF + float64(a.sumI)) / float64(a.count))
	case "MIN":
		return a.min
	case "MAX":
		return a.max
	}
	return value.Null()
}

// group is one aggregation group under construction.
type group struct {
	keyVals []value.Value
	repRow  schema.Row // representative input row (lenient column resolution)
	accs    []*accumulator
}

// aggregate groups in by groupBy (empty = one global group, which needs no
// key table) and computes specs; returns one substitution map and
// representative row per group, in order of first appearance.
func (b *builder) aggregate(in *Result, groupBy []ast.Expr, specs []aggSpec, env *Env, subs map[ast.Expr]*subEval) ([]map[string]value.Value, []schema.Row, error) {
	ctx := newCtxWith(b, in.Sch, env, nil, subs)
	var groups []*group // by key id
	var table *keyTable
	if len(groupBy) > 0 {
		table = newKeyTable(len(groupBy), 0, true)
	}
	// Ids are dense in order of first appearance: a row whose id is
	// len(groups) opens the next group.
	newGroup := func(keyVals []value.Value, row schema.Row) {
		g := &group{keyVals: keyVals, repRow: row, accs: make([]*accumulator, len(specs))}
		for i, s := range specs {
			g.accs[i] = newAccumulator(s.call)
		}
		groups = append(groups, g)
	}

	pass := append([]ast.Expr{}, groupBy...)
	for _, s := range specs {
		if !s.call.Star {
			pass = append(pass, s.call.Args[0])
		}
	}
	if b.vec() {
		// Vectorized grouping: group keys and aggregate arguments are
		// extracted column-wise per batch, then rows fold into their groups
		// in order (first appearance still fixes the output order, and the
		// sequential fold preserves float summation order).
		keyCols := make([]*schema.ColVec, len(groupBy))
		argCols := make([]*schema.ColVec, len(specs))
		var ids []int32
		if table != nil {
			ids = make([]int32, min(b.batchRows, len(in.Rows)))
		}
		for off := 0; off < len(in.Rows); off += b.batchRows {
			ctx.nextBatch()
			bt := NewBatch(in.Sch, in.Rows[off:min(off+b.batchRows, len(in.Rows))])
			sel := b.fullSel(bt.Len())
			for i, ge := range groupBy {
				cv, err := ctx.evalVec(ge, bt, sel)
				if err != nil {
					return nil, nil, err
				}
				keyCols[i] = cv
			}
			for i, s := range specs {
				if s.call.Star {
					continue
				}
				cv, err := ctx.evalVec(s.call.Args[0], bt, sel)
				if err != nil {
					return nil, nil, err
				}
				argCols[i] = cv
			}
			if table != nil {
				table.ids(keyCols, bt.Len(), true, ids)
			}
			for j := 0; j < bt.Len(); j++ {
				var id int32
				if table != nil {
					id = ids[j]
				}
				if int(id) == len(groups) {
					keyVals := make([]value.Value, len(groupBy))
					for i, cv := range keyCols {
						keyVals[i] = cv.Value(j)
					}
					newGroup(keyVals, bt.Rows[j])
				}
				for si, acc := range groups[id].accs {
					if acc.call.Star {
						acc.count++
						continue
					}
					if err := acc.addValue(argCols[si].Value(j)); err != nil {
						return nil, nil, err
					}
				}
			}
		}
	} else {
		keyVals := make([]value.Value, len(groupBy))
		for _, row := range in.Rows {
			rc := ctx.withRow(row)
			for i, ge := range groupBy {
				v, err := rc.eval(ge)
				if err != nil {
					return nil, nil, err
				}
				keyVals[i] = v
			}
			var id int32
			if table != nil {
				id = table.id(keyVals, true)
			}
			if int(id) == len(groups) {
				newGroup(append([]value.Value(nil), keyVals...), row)
			}
			for _, acc := range groups[id].accs {
				if err := acc.add(ctx, row); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	b.chargePass(len(in.Rows), pass)

	// Global aggregation over zero rows still yields one group.
	if len(groupBy) == 0 && len(groups) == 0 {
		newGroup(nil, nil)
	}

	maps := make([]map[string]value.Value, 0, len(groups))
	reps := make([]schema.Row, 0, len(groups))
	for _, g := range groups {
		m := make(map[string]value.Value, len(groupBy)+len(specs))
		for i, ge := range groupBy {
			m[ge.String()] = g.keyVals[i]
		}
		for i, s := range specs {
			m[s.key] = g.accs[i].result()
		}
		maps = append(maps, m)
		reps = append(reps, g.repRow)
	}
	return maps, reps, nil
}

// aggregateRows computes a single aggregate call over a row set (used by
// correlated scalar subqueries).
func aggregateRows(b *builder, call *ast.FuncCall, sch *schema.Schema, rows []schema.Row, env *Env) (value.Value, error) {
	acc := newAccumulator(call)
	ctx := newCtx(b, sch, env)
	for _, r := range rows {
		if err := acc.add(ctx, r); err != nil {
			return value.Null(), err
		}
	}
	return acc.result(), nil
}
