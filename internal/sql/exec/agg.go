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

// aggBinding substitutes, while the select list, HAVING and ORDER BY are
// evaluated after aggregation, the current group's values for the expressions
// they were computed from: the GROUP BY expressions and the aggregate calls,
// each with a slot in vals. An expression is matched by its text, wherever and
// however often it is written, but is rendered once: each node's slot — or that
// it has none — is remembered by the node.
type aggBinding struct {
	byText map[string]int
	byNode map[ast.Expr]int // -1: not substituted
	vals   []value.Value    // the current group's values: GROUP BY's, then the aggregates'
}

func newAggBinding(groupBy []ast.Expr, specs []aggSpec) *aggBinding {
	a := &aggBinding{byText: map[string]int{}, byNode: map[ast.Expr]int{}, vals: make([]value.Value, len(groupBy)+len(specs))}
	for i, ge := range groupBy {
		a.byText[ge.String()] = i
	}
	for i, s := range specs {
		a.byText[s.key] = len(groupBy) + i
	}
	return a
}

// lookup returns the value bound to e, if e is substituted. A nil binding
// substitutes nothing.
func (a *aggBinding) lookup(e ast.Expr) (value.Value, bool) {
	if a == nil {
		return value.Value{}, false
	}
	slot, seen := a.byNode[e]
	if !seen {
		var ok bool
		if slot, ok = a.byText[e.String()]; !ok {
			slot = -1
		}
		a.byNode[e] = slot
	}
	if slot < 0 {
		return value.Value{}, false
	}
	return a.vals[slot], true
}

// accumulator incrementally computes one aggregate over one group. The zero
// accumulator is empty (but see aggState.open for DISTINCT).
type accumulator struct {
	count    int64
	sumF     float64
	sumI     int64
	isFloat  bool
	best     value.Value // MIN's or MAX's value so far
	distinct *keyTable
}

// aggState is one aggregate call's accumulators, one per group, in one slab.
type aggState struct {
	call *ast.FuncCall
	accs []accumulator
}

// open adds the accumulator of a new group.
func (s *aggState) open() {
	var a accumulator
	if s.call.Distinct {
		a.distinct = newKeyTable(1, 0, false)
	}
	s.accs = append(schema.Room(s.accs, 1), a)
}

// add folds one evaluated argument value into group g. Both execution modes
// feed it in row order, so they share the accumulation and its summation order.
func (s *aggState) add(g int, v value.Value) error {
	if v.IsNull() {
		return nil // aggregates ignore NULL inputs
	}
	a := &s.accs[g]
	if a.distinct != nil {
		if n := a.distinct.n; a.distinct.id([]value.Value{v}, true) < n {
			return nil
		}
	}
	a.count++
	switch s.call.Name {
	case "SUM", "AVG":
		if !v.IsNumeric() {
			return fmt.Errorf("exec: %s over %s", s.call.Name, v.Kind())
		}
		if v.Kind() == value.KindFloat {
			a.isFloat = true
			a.sumF += v.AsFloat()
		} else {
			a.sumI += v.AsInt()
		}
	case "MIN":
		if a.best.IsNull() || value.MustCompare(v, a.best) < 0 {
			a.best = v
		}
	case "MAX":
		if a.best.IsNull() || value.MustCompare(v, a.best) > 0 {
			a.best = v
		}
	}
	return nil
}

// result finalizes group g's aggregate value.
func (s *aggState) result(g int) value.Value {
	a := &s.accs[g]
	switch s.call.Name {
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
	case "MIN", "MAX":
		return a.best
	}
	return value.Null()
}

// grouped is the outcome of an aggregation pass: per group, in order of first
// appearance, its GROUP BY values, the input row that opened it — the
// representative the select list reads a non-aggregated column from — and one
// accumulator per aggregate.
type grouped struct {
	n    int
	keys []value.Value // the GROUP BY values, group after group
	rep  []int32       // -1: the one group of an input without rows
	aggs []aggState
}

// open adds a group that input row rep is the first of, with room for its
// nk GROUP BY values.
func (gr *grouped) open(rep, nk int) {
	gr.n++
	gr.rep, gr.keys = append(gr.rep, int32(rep)), schema.Room(gr.keys, nk)
	for i := range gr.aggs {
		gr.aggs[i].open()
	}
}

// bind stores group g's values in a binding's slots.
func (gr *grouped) bind(vals []value.Value, g int) {
	nk := len(vals) - len(gr.aggs)
	copy(vals, gr.keys[g*nk:(g+1)*nk])
	for i := range gr.aggs {
		vals[nk+i] = gr.aggs[i].result(g)
	}
}

// aggregate groups in by groupBy (empty = one global group, which needs no
// key table) and computes specs.
func (b *builder) aggregate(in *joinChain, groupBy []ast.Expr, specs []aggSpec, env *Env, subs map[ast.Expr]*subEval) (*grouped, error) {
	ctx := newCtxWith(b, in.sch, env, nil, subs)
	gr := &grouped{aggs: make([]aggState, len(specs))}
	var table *keyTable
	if len(groupBy) > 0 {
		table = newKeyTable(len(groupBy), 0, true)
	}
	pass := append([]ast.Expr{}, groupBy...)
	for i, s := range specs {
		gr.aggs[i].call = s.call
		if !s.call.Star {
			pass = append(pass, s.call.Args[0])
		}
	}
	// Ids are dense in order of first appearance: a row whose id is gr.n opens
	// the next group.
	if b.vec() {
		// Vectorized grouping: group keys and aggregate arguments are
		// extracted column-wise per batch of the chain, then rows fold into
		// their groups in order (first appearance still fixes the output order,
		// and the sequential fold preserves float summation order).
		keyCols := make([]*schema.ColVec, len(groupBy))
		argCols := make([]*schema.ColVec, len(specs))
		var ids []int32
		if table != nil {
			ids = make([]int32, min(b.batchRows, in.n))
		}
		for off := 0; off < in.n; off += b.batchRows {
			ctx.nextBatch()
			bt := in.batch(off, min(off+b.batchRows, in.n))
			sel := b.fullSel(bt.Len())
			for i, ge := range groupBy {
				cv, err := ctx.evalVec(ge, bt, sel)
				if err != nil {
					return nil, err
				}
				keyCols[i] = cv
			}
			for i, s := range specs {
				if s.call.Star {
					continue
				}
				cv, err := ctx.evalVec(s.call.Args[0], bt, sel)
				if err != nil {
					return nil, err
				}
				argCols[i] = cv
			}
			if table != nil {
				table.ids(keyCols, bt.Len(), true, ids)
			}
			for j := 0; j < bt.Len(); j++ {
				id := 0
				if table != nil {
					id = int(ids[j])
				}
				if id == gr.n {
					gr.open(off+j, len(keyCols))
					for _, cv := range keyCols {
						gr.keys = append(gr.keys, cv.Value(j))
					}
				}
				for si := range gr.aggs {
					st := &gr.aggs[si]
					if st.call.Star {
						st.accs[id].count++
					} else if err := st.add(id, argCols[si].Value(j)); err != nil {
						return nil, err
					}
				}
			}
		}
	} else {
		keyVals := make([]value.Value, len(groupBy))
		for n, row := range in.parts[0].Rows {
			rc := ctx.withRow(row)
			for i, ge := range groupBy {
				v, err := rc.eval(ge)
				if err != nil {
					return nil, err
				}
				keyVals[i] = v
			}
			id := 0
			if table != nil {
				id = int(table.id(keyVals, true))
			}
			if id == gr.n {
				gr.open(n, len(keyVals))
				gr.keys = append(gr.keys, keyVals...)
			}
			for si := range gr.aggs {
				st := &gr.aggs[si]
				if st.call.Star {
					st.accs[id].count++
					continue
				}
				v, err := rc.eval(st.call.Args[0])
				if err != nil {
					return nil, err
				}
				if err := st.add(id, v); err != nil {
					return nil, err
				}
			}
		}
	}
	b.chargePass(in.n, pass)

	// Global aggregation over zero rows still yields one group.
	if len(groupBy) == 0 && gr.n == 0 {
		gr.open(-1, 0)
	}
	return gr, nil
}
