package exec

import (
	"fmt"
	"math"

	"ironsafe/internal/schema"
	"ironsafe/internal/sql/ast"
	"ironsafe/internal/value"
)

// Batch is one columnar operator batch. It has two forms. A row-backed batch
// is a window of materialized rows plus lazily extracted per-column vectors;
// operators over intermediate results use it, and filters pass row
// membership downstream via selection vectors (position lists) rather than
// copying data, so output rows are the same schema.Row values the
// row-at-a-time path would produce — byte-identical results by construction.
// A page-backed batch is a window of a stored table whose rows are still
// encoded in their verified plaintext pages (Rows is nil): Col decodes one
// column on demand, AppendRows boxes only what the scan keeps. A third form,
// internal to join chains (see joinChain.batch), has columns only.
type Batch struct {
	Sch  *schema.Schema
	Rows []schema.Row

	win  *schema.RowWindow
	cols []*schema.ColVec

	chain *chainBatch
}

// NewBatch wraps a row window as a batch. The window is NOT copied: batches
// delivered through ScanBatch are only valid during the callback (see
// BatchRelation).
func NewBatch(sch *schema.Schema, rows []schema.Row) *Batch {
	return &Batch{Sch: sch, Rows: rows}
}

// NewWindowBatch wraps a window of encoded rows as a page-backed batch.
func NewWindowBatch(sch *schema.Schema, win *schema.RowWindow) *Batch {
	return &Batch{Sch: sch, win: win}
}

// Len returns the number of rows in the batch.
func (bt *Batch) Len() int {
	if bt.win != nil {
		return bt.win.Len()
	}
	if bt.chain != nil {
		return bt.chain.n
	}
	return len(bt.Rows)
}

// Col lazily columnarizes column i, memoizing the vector.
func (bt *Batch) Col(i int) *schema.ColVec {
	if bt.win != nil {
		return bt.win.Col(i)
	}
	if bt.chain != nil {
		return bt.chain.col(i)
	}
	if bt.cols == nil {
		bt.cols = make([]*schema.ColVec, bt.Sch.Len())
	}
	if bt.cols[i] == nil {
		bt.cols[i] = schema.FromRows(bt.Rows, i)
	}
	return bt.cols[i]
}

// AppendRows appends the batch's rows at the ascending positions sel,
// narrowed to columns cols (nil: every column), to dst. A row-backed batch
// shares its rows by reference when no column is dropped.
func (bt *Batch) AppendRows(dst []schema.Row, sel []int, cols []int) []schema.Row {
	if bt.win != nil {
		return bt.win.AppendRows(dst, sel, cols)
	}
	if cols == nil {
		if len(sel) == len(bt.Rows) { // ascending and distinct: the identity
			return append(dst, bt.Rows...)
		}
		for _, i := range sel {
			dst = append(dst, bt.Rows[i])
		}
		return dst
	}
	for _, i := range sel {
		row := make(schema.Row, len(cols))
		for j, c := range cols {
			row[j] = bt.Rows[i][c]
		}
		dst = append(dst, row)
	}
	return dst
}

// AppendEncoded appends the rows AppendRows would box to dst in the row codec
// instead, without boxing any for a page-backed batch.
func (bt *Batch) AppendEncoded(dst []byte, sel []int, cols []int) []byte {
	if bt.win != nil {
		return bt.win.AppendEncoded(dst, sel, cols)
	}
	for _, row := range bt.AppendRows(nil, sel, cols) {
		dst = schema.EncodeRow(dst, row)
	}
	return dst
}

// fullSel returns the identity selection vector [0, n). It is one shared
// array, grown on demand: kernels only ever read their selection.
func (b *builder) fullSel(n int) []int {
	for i := len(b.ident); i < n; i++ {
		b.ident = append(b.ident, i)
	}
	return b.ident[:n]
}

// boolInts returns the 0/1 array of a typed (hence NULL-free) boolean
// vector, or nil for any other vector.
func boolInts(cv *schema.ColVec) []int64 {
	if cv.Const || cv.Kind != value.KindBool {
		return nil
	}
	return cv.Ints
}

// selectTrue appends to dst the positions in [0, n) where the predicate
// vector v is true.
func selectTrue(v *schema.ColVec, n int, dst []int) []int {
	if ints := boolInts(v); ints != nil {
		for i, t := range ints[:n] {
			if t != 0 {
				dst = append(dst, i)
			}
		}
		return dst
	}
	for i := 0; i < n; i++ {
		if truthy(v.Value(i)) {
			dst = append(dst, i)
		}
	}
	return dst
}

// isConstExpr reports whether e reads no column and runs no subquery or
// function, so that it has one value for every row of a batch.
func isConstExpr(e ast.Expr) bool {
	konst := true
	ast.Walk(e, func(x ast.Expr) bool {
		switch x.(type) {
		case *ast.ColumnRef, *ast.FuncCall, *ast.Exists, *ast.InSubquery, *ast.ScalarSubquery:
			konst = false
		}
		return konst
	})
	return konst
}

// supportsVec reports whether e can be evaluated by evalVec. Subquery nodes
// and function calls take the row-at-a-time fallback; everything else in the
// expression grammar has a vectorized kernel.
func supportsVec(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Literal, *ast.ColumnRef:
		return true
	case *ast.BinaryExpr:
		// Date ± INTERVAL keeps the interval literal on the right; the
		// interval itself is not an evaluable expression.
		if _, ok := x.Right.(*ast.IntervalExpr); ok && (x.Op == ast.OpAdd || x.Op == ast.OpSub) {
			return supportsVec(x.Left)
		}
		return supportsVec(x.Left) && supportsVec(x.Right)
	case *ast.UnaryExpr:
		return supportsVec(x.Expr)
	case *ast.IsNull:
		return supportsVec(x.Expr)
	case *ast.Between:
		return supportsVec(x.Expr) && supportsVec(x.Lo) && supportsVec(x.Hi)
	case *ast.Like:
		return supportsVec(x.Expr) && supportsVec(x.Pattern)
	case *ast.InList:
		if !supportsVec(x.Expr) {
			return false
		}
		for _, it := range x.Items {
			if !supportsVec(it) {
				return false
			}
		}
		return true
	case *ast.CaseExpr:
		for _, w := range x.Whens {
			if !supportsVec(w.Cond) || !supportsVec(w.Result) {
				return false
			}
		}
		if x.Else != nil {
			return supportsVec(x.Else)
		}
		return true
	case *ast.Extract:
		return supportsVec(x.Expr)
	case *ast.Substring:
		if !supportsVec(x.Expr) || !supportsVec(x.From) {
			return false
		}
		if x.For != nil {
			return supportsVec(x.For)
		}
		return true
	}
	return false
}

// supportsVecAll reports whether every expression vectorizes (nil entries are
// vacuously fine).
func supportsVecAll(exprs []ast.Expr) bool {
	for _, e := range exprs {
		if e != nil && !supportsVec(e) {
			return false
		}
	}
	return true
}

// vecScratch is where evalVec takes the arrays it builds for one batch —
// typed result vectors and selection lists — so that a loop over batches
// allocates them for its first batch only, as RowWindow.Col reuses column
// storage across windows. The lifetime rule: a vector returned by evalVec,
// and a list taken with sel, is valid until the loop that owns the batch
// calls nextBatch on the context. Six loops own a batch: the fused scan
// (semiReducer.reduce runs inside it, on its batch), the vectorized
// projection, applyFilter, aggregate, filterChain and keyIDs. Each calls
// nextBatch as it moves to a batch and keeps nothing of the last one but what
// it boxed or copied out.
type vecScratch struct {
	ints   recycled[int64]
	floats recycled[float64]
	sels   recycled[int]
}

// recycled hands out its arrays in order, making one where it has none or
// one too small, and starts over from the first after recycle.
type recycled[T any] struct {
	bufs [][]T
	used int
}

// take returns the next array, resized to n elements: zeroed, as make would
// hand it out, or holding whatever the last batch left.
func (r *recycled[T]) take(n int, zeroed bool) []T {
	if r.used == len(r.bufs) {
		r.bufs = append(r.bufs, nil)
	}
	if cap(r.bufs[r.used]) < n {
		r.bufs[r.used] = make([]T, n)
	} else if zeroed {
		clear(r.bufs[r.used][:n])
	}
	r.used++
	return r.bufs[r.used-1][:n]
}

// recycle makes every array available again, first overwriting what was
// handed out with poison under the PoisonRecycledVectors test hook.
func (r *recycled[T]) recycle(poison T) {
	if PoisonRecycledVectors {
		for _, buf := range r.bufs[:r.used] {
			buf = buf[:cap(buf)]
			for i := range buf {
				buf[i] = poison
			}
		}
	}
	r.used = 0
}

// PoisonRecycledVectors is a test hook: when set (before any query runs),
// nextBatch overwrites every vector it recycles — NaN floats, positions no
// batch has — so that a caller holding one past its lifetime computes garbage
// or panics instead of passing by luck.
var PoisonRecycledVectors bool

func (c *evalCtx) scratch() *vecScratch {
	if c.vs == nil {
		c.vs = &vecScratch{}
	}
	return c.vs
}

// ints returns a zeroed result array of n elements (kernels write only their
// selection), floats its float64 twin, sel an empty selection list with room
// for n positions; all valid until nextBatch. Callers pass sel the batch
// length, not the selection's: a list sized by what one window happened to
// select would be remade for the next.
func (c *evalCtx) ints(n int) []int64     { return c.scratch().ints.take(n, true) }
func (c *evalCtx) floats(n int) []float64 { return c.scratch().floats.take(n, true) }
func (c *evalCtx) sel(n int) []int        { return c.scratch().sels.take(n, false)[:0] }

// nextBatch ends the lifetime of every vector and list handed out since the
// last call (see vecScratch).
func (c *evalCtx) nextBatch() {
	if c.vs != nil {
		c.vs.ints.recycle(0x5a5a5a5a5a5a5a5a)
		c.vs.floats.recycle(math.NaN())
		c.vs.sels.recycle(-1)
	}
}

// resolveColumnIdx memoizes column resolution without touching row data, for
// kernels that read whole vectors.
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

// evalVec computes e over the batch positions listed in sel, returning a
// dense vector of length bt.Len() whose unselected positions are NULL (and
// never read). Semantics mirror evalCtx.eval exactly — same three-valued
// logic, same laziness (AND/OR right sides, CASE arms, IN items, SUBSTRING
// FOR), same error conditions — so a query produces identical rows and
// identical TupleWork whichever path runs. Only the order in which an
// erroring query surfaces its error may differ (by element, not by row);
// either way the query aborts.
func (c *evalCtx) evalVec(e ast.Expr, bt *Batch, sel []int) (*schema.ColVec, error) {
	n := bt.Len()
	// Post-aggregation substitution takes priority, as in eval.
	if c.agg != nil {
		if v, ok := c.agg[e.String()]; ok {
			return schema.ConstVec(v, n), nil
		}
	}
	// A column-free subexpression (date '1994-01-01' + interval '1' year) has
	// one value per batch: compute it once, as the row path would for any
	// selected row.
	if _, lit := e.(*ast.Literal); !lit && len(sel) > 0 && isConstExpr(e) {
		v, err := c.eval(e)
		if err != nil {
			return nil, err
		}
		return schema.ConstVec(v, n), nil
	}
	switch x := e.(type) {
	case *ast.Literal:
		return schema.ConstVec(x.Value, n), nil

	case *ast.ColumnRef:
		r, err := c.resolveColumnIdx(x)
		if err != nil {
			return nil, err
		}
		if r.envDepth < 0 {
			return bt.Col(r.idx), nil
		}
		env := c.env
		for d := 0; d < r.envDepth; d++ {
			env = env.Parent
		}
		return schema.ConstVec(env.Row[r.idx], n), nil

	case *ast.BinaryExpr:
		return c.evalVecBinary(x, bt, sel)

	case *ast.UnaryExpr:
		v, err := c.evalVec(x.Expr, bt, sel)
		if err != nil {
			return nil, err
		}
		if ints := boolInts(v); ints != nil && x.Op == "NOT" {
			out := c.ints(n)
			for _, i := range sel {
				out[i] = 1 - ints[i]
			}
			return schema.IntVec(value.KindBool, out), nil
		}
		out := schema.NewColVec(n)
		for _, i := range sel {
			vv := v.Value(i)
			if vv.IsNull() {
				continue
			}
			if x.Op == "NOT" {
				if vv.Kind() != value.KindBool {
					return nil, fmt.Errorf("exec: NOT applied to %s", vv.Kind())
				}
				out.Set(i, value.Bool(!vv.AsBool()))
				continue
			}
			switch vv.Kind() {
			case value.KindInt:
				out.Set(i, value.Int(-vv.AsInt()))
			case value.KindFloat:
				out.Set(i, value.Float(-vv.AsFloat()))
			default:
				return nil, fmt.Errorf("exec: unary minus on %s", vv.Kind())
			}
		}
		return out, nil

	case *ast.IsNull:
		v, err := c.evalVec(x.Expr, bt, sel)
		if err != nil {
			return nil, err
		}
		out := schema.NewColVec(n)
		for _, i := range sel {
			out.Set(i, value.Bool(v.Value(i).IsNull() != x.Not))
		}
		return out, nil

	case *ast.Between:
		v, err := c.evalVec(x.Expr, bt, sel)
		if err != nil {
			return nil, err
		}
		lo, err := c.evalVec(x.Lo, bt, sel)
		if err != nil {
			return nil, err
		}
		hi, err := c.evalVec(x.Hi, bt, sel)
		if err != nil {
			return nil, err
		}
		if out, ok := c.betweenVecFast(v, lo, hi, x.Not, n, sel); ok {
			return out, nil
		}
		out := schema.NewColVec(n)
		for _, i := range sel {
			vv, lv, hv := v.Value(i), lo.Value(i), hi.Value(i)
			if vv.IsNull() || lv.IsNull() || hv.IsNull() {
				continue
			}
			cl, err := value.Compare(vv, lv)
			if err != nil {
				return nil, err
			}
			ch, err := value.Compare(vv, hv)
			if err != nil {
				return nil, err
			}
			in := cl >= 0 && ch <= 0
			out.Set(i, value.Bool(in != x.Not))
		}
		return out, nil

	case *ast.Like:
		v, err := c.evalVec(x.Expr, bt, sel)
		if err != nil {
			return nil, err
		}
		p, err := c.evalVec(x.Pattern, bt, sel)
		if err != nil {
			return nil, err
		}
		if tv, ok := typedOf(v); ok && tv.strs != nil {
			if tp, ok := typedOf(p); ok && tp.konst && tp.kind == value.KindString {
				out := c.ints(n)
				for _, i := range sel {
					if likeMatch(tv.strs[i], tp.ks) != x.Not {
						out[i] = 1
					}
				}
				return schema.IntVec(value.KindBool, out), nil
			}
		}
		out := schema.NewColVec(n)
		for _, i := range sel {
			vv, pv := v.Value(i), p.Value(i)
			if vv.IsNull() || pv.IsNull() {
				continue
			}
			if vv.Kind() != value.KindString || pv.Kind() != value.KindString {
				return nil, fmt.Errorf("exec: LIKE on %s and %s", vv.Kind(), pv.Kind())
			}
			out.Set(i, value.Bool(likeMatch(vv.AsString(), pv.AsString()) != x.Not))
		}
		return out, nil

	case *ast.InList:
		lhs, err := c.evalVec(x.Expr, bt, sel)
		if err != nil {
			return nil, err
		}
		if out, ok := c.inListVecFast(x, lhs, n, sel); ok {
			return out, nil
		}
		out := schema.NewColVec(n)
		pending := c.sel(n)
		for _, i := range sel {
			if !lhs.Value(i).IsNull() {
				pending = append(pending, i) // null lhs stays NULL in out
			}
		}
		sawNull := make([]bool, n)
		for _, item := range x.Items {
			if len(pending) == 0 {
				break
			}
			iv, err := c.evalVec(item, bt, pending)
			if err != nil {
				return nil, err
			}
			next := c.sel(n)
			for _, i := range pending {
				ivv := iv.Value(i)
				if ivv.IsNull() {
					sawNull[i] = true
					next = append(next, i)
					continue
				}
				cmp, err := value.Compare(lhs.Value(i), ivv)
				if err != nil {
					return nil, err
				}
				if cmp == 0 {
					out.Set(i, value.Bool(!x.Not))
				} else {
					next = append(next, i)
				}
			}
			pending = next
		}
		for _, i := range pending {
			if !sawNull[i] {
				out.Set(i, value.Bool(x.Not))
			}
		}
		return out, nil

	case *ast.CaseExpr:
		out := schema.NewColVec(n)
		remaining := sel
		for _, w := range x.Whens {
			if len(remaining) == 0 {
				break
			}
			cond, err := c.evalVec(w.Cond, bt, remaining)
			if err != nil {
				return nil, err
			}
			matched, rest := c.sel(n), c.sel(n)
			for _, i := range remaining {
				cv := cond.Value(i)
				if !cv.IsNull() && cv.Kind() == value.KindBool && cv.AsBool() {
					matched = append(matched, i)
				} else {
					rest = append(rest, i)
				}
			}
			if len(matched) > 0 {
				rv, err := c.evalVec(w.Result, bt, matched)
				if err != nil {
					return nil, err
				}
				for _, i := range matched {
					out.Set(i, rv.Value(i))
				}
			}
			remaining = rest
		}
		if x.Else != nil && len(remaining) > 0 {
			ev, err := c.evalVec(x.Else, bt, remaining)
			if err != nil {
				return nil, err
			}
			for _, i := range remaining {
				out.Set(i, ev.Value(i))
			}
		}
		return out, nil

	case *ast.Extract:
		v, err := c.evalVec(x.Expr, bt, sel)
		if err != nil {
			return nil, err
		}
		out := schema.NewColVec(n)
		for _, i := range sel {
			var ev value.Value
			var err error
			if x.Field == "YEAR" {
				ev, err = value.ExtractYear(v.Value(i))
			} else {
				ev, err = value.ExtractMonth(v.Value(i))
			}
			if err != nil {
				return nil, err
			}
			out.Set(i, ev)
		}
		return out, nil

	case *ast.Substring:
		return c.evalVecSubstring(x, bt, sel)
	}
	return nil, fmt.Errorf("exec: cannot vectorize %T", e)
}

func (c *evalCtx) evalVecBinary(x *ast.BinaryExpr, bt *Batch, sel []int) (*schema.ColVec, error) {
	n := bt.Len()
	switch x.Op {
	case ast.OpAnd, ast.OpOr:
		l, err := c.evalVec(x.Left, bt, sel)
		if err != nil {
			return nil, err
		}
		// Short-circuit where two-valued: only undecided positions see the
		// right side, mirroring the row path's laziness (and its errors). A
		// decided position holds FALSE under AND, TRUE under OR.
		isOr := x.Op == ast.OpOr
		decided := value.Bool(isOr)
		lb := boolInts(l)
		undecided := c.sel(n)
		for _, i := range sel {
			if lb != nil {
				if (lb[i] != 0) == isOr {
					continue
				}
			} else if lv := l.Value(i); !lv.IsNull() && lv.Kind() == value.KindBool && lv.AsBool() == isOr {
				continue
			}
			undecided = append(undecided, i)
		}
		if len(undecided) == 0 {
			if lb != nil {
				return l, nil
			}
			out := schema.NewColVec(n)
			for _, i := range sel {
				out.Set(i, decided)
			}
			return out, nil
		}
		r, err := c.evalVec(x.Right, bt, undecided)
		if err != nil {
			return nil, err
		}
		if rb := boolInts(r); lb != nil && rb != nil {
			// Both sides two-valued: an undecided position takes the right
			// side's value, a decided one keeps the left's.
			out := c.ints(n)
			for _, i := range sel {
				out[i] = lb[i]
			}
			for _, i := range undecided {
				out[i] = rb[i]
			}
			return schema.IntVec(value.KindBool, out), nil
		}
		out := schema.NewColVec(n)
		u := 0
		for _, i := range sel {
			if u == len(undecided) || undecided[u] != i {
				out.Set(i, decided)
				continue
			}
			u++
			v, err := logic3(x.Op, l.Value(i), r.Value(i))
			if err != nil {
				return nil, err
			}
			out.Set(i, v)
		}
		return out, nil
	}

	l, err := c.evalVec(x.Left, bt, sel)
	if err != nil {
		return nil, err
	}

	// Date +/- INTERVAL.
	if iv, ok := x.Right.(*ast.IntervalExpr); ok && (x.Op == ast.OpAdd || x.Op == ast.OpSub) {
		iN := iv.N
		if x.Op == ast.OpSub {
			iN = -iN
		}
		out := schema.NewColVec(n)
		for _, i := range sel {
			v, err := value.AddInterval(l.Value(i), iN, iv.Unit)
			if err != nil {
				return nil, err
			}
			out.Set(i, v)
		}
		return out, nil
	}

	r, err := c.evalVec(x.Right, bt, sel)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case ast.OpEq, ast.OpNe, ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe:
		if out, ok := c.cmpVecFast(x.Op, l, r, n, sel); ok {
			return out, nil
		}
		out := schema.NewColVec(n)
		for _, i := range sel {
			lv, rv := l.Value(i), r.Value(i)
			if lv.IsNull() || rv.IsNull() {
				continue
			}
			cmp, err := value.Compare(lv, rv)
			if err != nil {
				return nil, err
			}
			out.Set(i, value.Bool(cmpHolds(x.Op, cmp)))
		}
		return out, nil
	case ast.OpAdd, ast.OpSub, ast.OpMul, ast.OpDiv, ast.OpMod:
		if out, ok := c.arithVecFast(x.Op, l, r, n, sel); ok {
			return out, nil
		}
		var opc byte
		switch x.Op {
		case ast.OpAdd:
			opc = '+'
		case ast.OpSub:
			opc = '-'
		case ast.OpMul:
			opc = '*'
		case ast.OpDiv:
			opc = '/'
		default:
			opc = '%'
		}
		out := schema.NewColVec(n)
		for _, i := range sel {
			v, err := value.Arith(opc, l.Value(i), r.Value(i))
			if err != nil {
				return nil, err
			}
			out.Set(i, v)
		}
		return out, nil
	case ast.OpConcat:
		out := schema.NewColVec(n)
		for _, i := range sel {
			lv, rv := l.Value(i), r.Value(i)
			if lv.IsNull() || rv.IsNull() {
				continue
			}
			out.Set(i, value.Str(lv.String()+rv.String()))
		}
		return out, nil
	}
	return nil, fmt.Errorf("exec: unknown operator %v", x.Op)
}

func (c *evalCtx) evalVecSubstring(x *ast.Substring, bt *Batch, sel []int) (*schema.ColVec, error) {
	n := bt.Len()
	v, err := c.evalVec(x.Expr, bt, sel)
	if err != nil {
		return nil, err
	}
	from, err := c.evalVec(x.From, bt, sel)
	if err != nil {
		return nil, err
	}
	out := schema.NewColVec(n)
	// FOR is evaluated only where expr and FROM are non-null, mirroring the
	// row path's laziness.
	need := c.sel(n)
	for _, i := range sel {
		if !v.Value(i).IsNull() && !from.Value(i).IsNull() {
			need = append(need, i)
		}
	}
	var forVec *schema.ColVec
	if x.For != nil && len(need) > 0 {
		forVec, err = c.evalVec(x.For, bt, need)
		if err != nil {
			return nil, err
		}
	}
	for _, i := range need {
		s := v.Value(i).AsString()
		start := int(from.Value(i).AsInt()) - 1 // SQL is 1-based
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			start = len(s)
		}
		end := len(s)
		if forVec != nil {
			nv := forVec.Value(i)
			if nv.IsNull() {
				continue // stays NULL
			}
			end = start + int(nv.AsInt())
			if end > len(s) {
				end = len(s)
			}
			if end < start {
				end = start
			}
		}
		out.Set(i, value.Str(s[start:end]))
	}
	return out, nil
}

// cmpHolds maps a three-way comparison to the operator's truth value.
func cmpHolds(op ast.BinaryOp, cmp int) bool {
	switch op {
	case ast.OpEq:
		return cmp == 0
	case ast.OpNe:
		return cmp != 0
	case ast.OpLt:
		return cmp < 0
	case ast.OpLe:
		return cmp <= 0
	case ast.OpGt:
		return cmp > 0
	default:
		return cmp >= 0
	}
}

// typedVec is a NULL-free typed view of a vector for the typed kernels: a
// flat array or one constant, of kind Int, Date or Bool (integers), Float, or
// String.
type typedVec struct {
	kind   value.Kind
	konst  bool
	ints   []int64
	floats []float64
	strs   []string
	ki     int64
	kf     float64
	ks     string
}

// typedOf views cv for the typed kernels; boxed vectors and NULL constants
// have no such view.
func typedOf(cv *schema.ColVec) (typedVec, bool) {
	switch {
	case cv.Const:
		return typedConst(cv.Value(0))
	case cv.Ints != nil:
		return typedVec{kind: cv.Kind, ints: cv.Ints}, true
	case cv.Floats != nil:
		return typedVec{kind: value.KindFloat, floats: cv.Floats}, true
	case cv.Strs != nil:
		return typedVec{kind: value.KindString, strs: cv.Strs}, true
	}
	return typedVec{}, false
}

// typedConst views a non-NULL value as a constant operand.
func typedConst(v value.Value) (typedVec, bool) {
	t := typedVec{kind: v.Kind(), konst: true}
	switch v.Kind() {
	case value.KindInt, value.KindDate, value.KindBool:
		t.ki = v.AsInt()
	case value.KindFloat:
		t.kf = v.AsFloat()
	case value.KindString:
		t.ks = v.AsString()
	default:
		return t, false
	}
	return t, true
}

// sameKind makes k comparable with a vector of the given kind the way
// value.Compare would, reporting whether it can: equal kinds compare
// directly, and an Int constant widens to Float. Every other pairing keeps
// value.Compare's coercion and error semantics on the general path.
func (k *typedVec) sameKind(kind value.Kind) bool {
	if k.konst && k.kind == value.KindInt && kind == value.KindFloat {
		k.kind, k.kf = value.KindFloat, float64(k.ki)
	}
	return k.kind == kind
}

// cmp3 orders a and b as value.Compare does (NaN compares equal to
// everything), as an index into a three-entry table: 0 less, 1 equal,
// 2 greater.
func cmp3[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return 0
	case a > b:
		return 2
	}
	return 1
}

// cmpKernel writes op's 0/1 truth value into out at the positions in sel. A
// nil array stands for the constant beside it.
func cmpKernel[T int64 | float64 | string](op ast.BinaryOp, l []T, lk T, r []T, rk T, out []int64, sel []int) {
	var holds [3]int64
	for cmp := range holds {
		if cmpHolds(op, cmp-1) {
			holds[cmp] = 1
		}
	}
	switch {
	case l != nil && r != nil:
		for _, i := range sel {
			out[i] = holds[cmp3(l[i], r[i])]
		}
	case l != nil:
		for _, i := range sel {
			out[i] = holds[cmp3(l[i], rk)]
		}
	case r != nil:
		for _, i := range sel {
			out[i] = holds[cmp3(lk, r[i])]
		}
	default:
		for _, i := range sel {
			out[i] = holds[cmp3(lk, rk)]
		}
	}
}

// cmpVecFast runs typed comparison kernels where both operands are typed (a
// vector or a constant, no NULLs by construction) and of one kind — Int,
// Date, Bool, Float or String — or a Float against an Int constant. Other
// mixed kinds and boxed vectors use the general path, which preserves
// value.Compare's coercion and error semantics exactly.
func (c *evalCtx) cmpVecFast(op ast.BinaryOp, lv, rv *schema.ColVec, n int, sel []int) (*schema.ColVec, bool) {
	l, ok := typedOf(lv)
	if !ok {
		return nil, false
	}
	r, ok := typedOf(rv)
	if !ok || !(r.sameKind(l.kind) || l.sameKind(r.kind)) {
		return nil, false
	}
	out := c.ints(n)
	switch l.kind {
	case value.KindFloat:
		cmpKernel(op, l.floats, l.kf, r.floats, r.kf, out, sel)
	case value.KindString:
		cmpKernel(op, l.strs, l.ks, r.strs, r.ks, out, sel)
	default:
		cmpKernel(op, l.ints, l.ki, r.ints, r.ki, out, sel)
	}
	return schema.IntVec(value.KindBool, out), true
}

// betweenKernel writes [NOT] lo <= v[i] <= hi into out, ordering as cmp3.
func betweenKernel[T int64 | float64 | string](v []T, lo, hi T, not bool, out []int64, sel []int) {
	for _, i := range sel {
		if (cmp3(v[i], lo) >= 1 && cmp3(v[i], hi) <= 1) != not {
			out[i] = 1
		}
	}
}

// betweenVecFast is BETWEEN for a typed vector against constant bounds of its
// kind.
func (c *evalCtx) betweenVecFast(vv, lov, hiv *schema.ColVec, not bool, n int, sel []int) (*schema.ColVec, bool) {
	v, ok := typedOf(vv)
	if !ok || v.konst {
		return nil, false
	}
	lo, ok := typedOf(lov)
	if !ok || !lo.konst || !lo.sameKind(v.kind) {
		return nil, false
	}
	hi, ok := typedOf(hiv)
	if !ok || !hi.konst || !hi.sameKind(v.kind) {
		return nil, false
	}
	out := c.ints(n)
	switch v.kind {
	case value.KindFloat:
		betweenKernel(v.floats, lo.kf, hi.kf, not, out, sel)
	case value.KindString:
		betweenKernel(v.strs, lo.ks, hi.ks, not, out, sel)
	default:
		betweenKernel(v.ints, lo.ki, hi.ki, not, out, sel)
	}
	return schema.IntVec(value.KindBool, out), true
}

// inKernel writes [NOT] v[i] IN items into out, equality as cmp3.
func inKernel[T int64 | float64 | string](v []T, items []T, not bool, out []int64, sel []int) {
	for _, i := range sel {
		found := false
		for _, it := range items {
			if cmp3(v[i], it) == 1 {
				found = true
				break
			}
		}
		if found != not {
			out[i] = 1
		}
	}
}

// inListVecFast is IN for a typed vector against a list of non-NULL
// constants of its kind: with nothing NULL and nothing that can fail, the
// ordered lazy walk of the general path reduces to a membership test.
func (c *evalCtx) inListVecFast(x *ast.InList, lhs *schema.ColVec, n int, sel []int) (*schema.ColVec, bool) {
	v, ok := typedOf(lhs)
	if !ok || v.konst {
		return nil, false
	}
	var ints []int64
	var floats []float64
	var strs []string
	for _, item := range x.Items {
		if !isConstExpr(item) {
			return nil, false
		}
		iv, err := c.eval(item)
		if err != nil {
			return nil, false // the general path decides whether it is reached
		}
		k, ok := typedConst(iv)
		if !ok || !k.sameKind(v.kind) {
			return nil, false
		}
		ints, floats, strs = append(ints, k.ki), append(floats, k.kf), append(strs, k.ks)
	}
	out := c.ints(n)
	switch v.kind {
	case value.KindFloat:
		inKernel(v.floats, floats, x.Not, out, sel)
	case value.KindString:
		inKernel(v.strs, strs, x.Not, out, sel)
	default:
		inKernel(v.ints, ints, x.Not, out, sel)
	}
	return schema.IntVec(value.KindBool, out), true
}

// arithKernel writes l op r (op one of + - *) into out at the positions in
// sel. A nil array stands for the constant beside it.
func arithKernel[T int64 | float64](op ast.BinaryOp, l []T, lk T, r []T, rk T, out []T, sel []int) {
	for _, i := range sel {
		a, b := lk, rk
		if l != nil {
			a = l[i]
		}
		if r != nil {
			b = r[i]
		}
		switch op {
		case ast.OpAdd:
			out[i] = a + b
		case ast.OpSub:
			out[i] = a - b
		default:
			out[i] = a * b
		}
	}
}

// arithVecFast runs typed + - * kernels for Int×Int and Float×Float.
// Division and modulo keep value.Arith's exactness and zero-divide handling;
// mixed kinds coerce through the general path.
func (c *evalCtx) arithVecFast(op ast.BinaryOp, lv, rv *schema.ColVec, n int, sel []int) (*schema.ColVec, bool) {
	if op != ast.OpAdd && op != ast.OpSub && op != ast.OpMul {
		return nil, false
	}
	l, ok := typedOf(lv)
	if !ok {
		return nil, false
	}
	r, ok := typedOf(rv)
	if !ok || l.kind != r.kind {
		return nil, false
	}
	switch l.kind {
	case value.KindInt:
		out := c.ints(n)
		arithKernel(op, l.ints, l.ki, r.ints, r.ki, out, sel)
		return schema.IntVec(value.KindInt, out), true
	case value.KindFloat:
		out := c.floats(n)
		arithKernel(op, l.floats, l.kf, r.floats, r.kf, out, sel)
		return schema.FloatVec(out), true
	}
	return nil, false
}
