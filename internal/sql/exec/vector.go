package exec

import (
	"math/bits"
	"sync/atomic"

	"ironsafe/internal/bufpool"
	"ironsafe/internal/schema"
	"ironsafe/internal/sql/ast"
	"ironsafe/internal/value"
)

// Batch is one columnar operator batch. It has three forms. A row-backed batch
// is a window of materialized rows plus lazily extracted per-column vectors: a
// relation that holds boxed rows delivers it. A page-backed batch is a run of
// rows still encoded in the buffers they were read from — a stored table's
// verified plaintext pages, a reply as it arrived — behind a RowWindow (Rows is
// nil): Col decodes one column on demand, AppendRows and AppendCol box or copy
// only what the scan keeps. The third form is a run of a join chain's rows (see
// joinChain.batch): columns only, gathered through the chain's position vectors
// on demand. Filters pass row membership downstream via selection vectors
// (position lists) rather than copying data.
type Batch struct {
	Sch  *schema.Schema
	Rows []schema.Row

	win    *schema.RowWindow
	chain  *joinChain
	off, n int // the batch is rows [off, off+n) of win or chain
	cols   []*schema.ColVec
}

// NewBatch wraps a row window as a batch. The window is NOT copied: batches
// delivered through ScanBatch are only valid during the callback (see
// BatchRelation).
func NewBatch(sch *schema.Schema, rows []schema.Row) *Batch {
	return &Batch{Sch: sch, Rows: rows}
}

// NewWindowBatch wraps a window of encoded rows as a page-backed batch.
func NewWindowBatch(sch *schema.Schema, win *schema.RowWindow) *Batch {
	return &Batch{Sch: sch, win: win, n: win.Len()}
}

// slice returns rows [off, end) of a page-backed or chain batch as a batch.
func (bt *Batch) slice(off, end int) *Batch {
	return &Batch{Sch: bt.Sch, win: bt.win, chain: bt.chain, off: bt.off + off, n: end - off}
}

// Len returns the number of rows in the batch.
func (bt *Batch) Len() int {
	if bt.Rows != nil {
		return len(bt.Rows)
	}
	return bt.n
}

// Col lazily columnarizes column i, memoizing the vector.
func (bt *Batch) Col(i int) *schema.ColVec {
	if bt.win != nil && bt.n == bt.win.Len() {
		return bt.win.Col(i) // the whole window: the vector is the window's own
	}
	if bt.cols == nil {
		bt.cols = make([]*schema.ColVec, bt.Sch.Len())
	}
	if bt.cols[i] == nil {
		switch {
		case bt.win != nil:
			bt.cols[i] = bt.win.Col(i).Slice(bt.off, bt.off+bt.n)
		case bt.chain != nil:
			bt.cols[i] = bt.chain.col(i, bt.off, bt.n)
		default:
			bt.cols[i] = schema.FromRows(bt.Rows, i)
		}
	}
	return bt.cols[i]
}

// AppendRows appends the batch's rows at the ascending positions sel,
// narrowed to columns cols (nil: every column), to dst. A row-backed batch
// shares its rows by reference when no column is dropped.
func (bt *Batch) AppendRows(dst []schema.Row, sel []int, cols []int) []schema.Row {
	switch {
	case bt.win != nil:
		return bt.win.AppendRows(dst, bt.off, sel, cols)
	case bt.chain != nil:
		if cols == nil {
			cols = identity(bt.Sch.Len())
		}
		w, vecs := len(cols), make([]*schema.ColVec, len(cols))
		for j, c := range cols {
			vecs[j] = bt.Col(c)
		}
		slab := boxed(vecs, sel)
		for k := range sel {
			dst = append(dst, slab[k*w:(k+1)*w:(k+1)*w])
		}
		return dst
	case cols == nil:
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

// boxed returns the vectors' elements at the positions sel as rows laid end to
// end in one array, len(vecs) values each. It is where vectors become rows: the
// select list's emit, and Boxed at the root.
func boxed(vecs []*schema.ColVec, sel []int) []value.Value {
	w := len(vecs)
	slab := make([]value.Value, len(sel)*w)
	for j, cv := range vecs {
		for k, i := range sel {
			slab[k*w+j] = cv.Value(i)
		}
	}
	return slab
}

// AppendCol is the column-wise twin of AppendRows: it appends column col of
// the batch's rows at the ascending positions sel to the vector dst (see
// schema.ColVec.Append). A page-backed batch that keeps most of its rows
// decodes the column for all of them — one typed pass, a string column's
// values in one allocation — and one that keeps few reads just those fields.
func (bt *Batch) AppendCol(dst *schema.ColVec, col int, sel []int) {
	switch {
	case bt.win != nil && 2*len(sel) < bt.n:
		bt.win.AppendCol(dst, col, bt.off, sel)
	case bt.win != nil || bt.chain != nil:
		dst.AppendSel(bt.Col(col), 0, sel)
	default:
		for _, i := range sel {
			dst.Append(bt.Rows[i][col])
		}
	}
}

// AppendEncoded appends the rows AppendRows would box to dst in the row codec
// instead, growing dst by bufpool.Grow, and boxes none of a page-backed batch.
func (bt *Batch) AppendEncoded(dst []byte, sel []int, cols []int) []byte {
	if bt.win != nil {
		return bt.win.AppendEncoded(dst, bt.off, sel, cols)
	}
	for _, row := range bt.AppendRows(nil, sel, cols) {
		dst = schema.EncodeRow(bufpool.Grow(dst, schema.EncodedSize(row)), row)
	}
	return dst
}

// identities holds the identity selection vector, shared by every statement
// and only ever read: a kernel reads its selection and writes its survivors
// elsewhere. It is replaced, never written, when a longer one is asked for,
// so it is as long as the longest batch seen (a power of two).
var identities atomic.Pointer[[]int]

// identity returns the identity selection vector [0, n), capped at n so that
// an append copies it.
func identity(n int) []int {
	p := identities.Load()
	if p == nil || len(*p) < n {
		all := make([]int, 1<<bits.Len(uint(max(n-1, 0))))
		for i := range all {
			all[i] = i
		}
		p = &all
		identities.Store(p)
	}
	return (*p)[:n:n]
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

// The pools of exec's own arrays: selection lists, position and id vectors,
// aggregation state, key tables' kinds.
var (
	positions    = bufpool.New(-1, false)
	rowIDs       = bufpool.New[int32](-1, false)
	accumulators = bufpool.New(accumulator{best: value.Str("\x00recycled")}, true)
	kinds        = bufpool.New(value.Kind(0xff), false)
)

// ints returns a zeroed result array of n elements (kernels write only their
// selection), floats its float64 twin, boxed a vector of n NULLs to Set, sel
// an empty selection list with room for n positions; all valid until
// nextBatch. Callers pass sel the batch length, not the selection's: a list
// sized by what one window happened to select would take a larger one for
// the next.
func (c *evalCtx) ints(n int) []int64     { return schema.Int64s.Zeroed(c.vs, n) }
func (c *evalCtx) floats(n int) []float64 { return schema.Float64s.Zeroed(c.vs, n) }
func (c *evalCtx) sel(n int) []int        { return positions.Take(c.vs, n)[:0] }
func (c *evalCtx) boxed(n int) *schema.ColVec {
	return schema.BoxedVec(schema.Values.Zeroed(c.vs, n))
}

// nextBatch ends the lifetime of every vector and list handed out since the
// last call (see evalCtx.vs): they are poisoned under bufpool.Poison — NaN
// floats, positions no batch has, a string no table holds — so that a caller
// holding one past its lifetime computes garbage or panics instead of passing
// by luck, and handed out again for the next batch.
func (c *evalCtx) nextBatch() { c.vs.Reset() }

// evalVec computes e over the batch positions listed in sel, returning a
// dense vector of length bt.Len() whose unselected positions are never read.
// It is total, and it is not a second evaluator: eval is the one
// implementation of the expression language. Where e has a vector form (vec),
// that is the answer; everywhere else — a node vec does not serve, a kernel
// whose operands turn out boxed — it is eval at each selected position
// (evalRows), with eval's three-valued logic, laziness and errors by
// construction. Only the order in which an erroring query surfaces its error
// may differ from row mode (by element, not by row); either way the query
// aborts.
func (c *evalCtx) evalVec(e ast.Expr, bt *Batch, sel []int) (*schema.ColVec, error) {
	if v, err := c.vec(e, bt, sel); v != nil || err != nil {
		return v, err
	}
	return c.evalRows(e, bt, sel)
}

// evalRows is eval at each selected position, through a view of the batch as
// that position's row: the row itself where the batch holds rows; where it
// does not (a page-backed window, a join chain), a scratch row holding the
// position's element of each column e reads (evalCtx.reads).
func (c *evalCtx) evalRows(e ast.Expr, bt *Batch, sel []int) (*schema.ColVec, error) {
	out := c.boxed(bt.Len())
	rc := *c
	var reads []int
	var vecs []*schema.ColVec
	if bt.Rows == nil {
		rc.row = schema.Values.Zeroed(c.vs, c.sch.Len())
		reads = c.reads(e)
		for _, col := range reads {
			vecs = append(vecs, bt.Col(col))
		}
	}
	for _, i := range sel {
		if bt.Rows != nil {
			rc.row = bt.Rows[i]
		}
		for k, col := range reads {
			rc.row[col] = vecs[k].Value(i)
		}
		v, err := rc.eval(e)
		if err != nil {
			return nil, err
		}
		out.Set(i, v)
	}
	return out, nil
}

// reads returns the columns of the context's schema that evaluating exprs over
// one of its rows can read: the ones they name, and every column where one
// holds a subquery, whose body reads the outer row by names of its own. A name
// that does not resolve is eval's to report.
func (c *evalCtx) reads(exprs ...ast.Expr) []int {
	var cols []int
	for _, e := range exprs {
		if e != nil && containsSubquery(e) {
			cols = cols[:0]
			for i := range c.sch.Columns {
				cols = append(cols, i)
			}
			return cols
		}
		ast.Walk(e, func(x ast.Expr) bool {
			if ref, ok := x.(*ast.ColumnRef); ok {
				if r, err := c.resolveColumnIdx(ref); err == nil && r.envDepth < 0 {
					cols = append(cols, r.idx)
				}
			}
			return true
		})
	}
	return cols
}

// vec is what evalVec owns, because it makes a batch cheaper than its rows:
// literals and column references as whole vectors, a column-free
// subexpression computed once, CASE and the predicates — evaluated as
// selections (test), which hand a right side or an arm to the next step at
// exactly the positions eval's laziness would reach, so that kernels run
// beneath them — and the typed + - * kernels over operands that have vector
// forms themselves and come out typed and NULL-free. It returns nil for every
// other node and for a kernel whose operands do not fit; having evaluated
// those operands as vectors first costs nothing but the vectors, since no
// operand of a kernel is ever evaluated by eval here — the plumbing excepted,
// and with it a subquery probe, which is charged per call: a kernel node that
// holds one has no vector form. An error is an operand's, which eval
// evaluates unconditionally too.
func (c *evalCtx) vec(e ast.Expr, bt *Batch, sel []int) (*schema.ColVec, error) {
	n := bt.Len()
	if v, err := c.constant(e, n, sel); v != nil || err != nil {
		return v, err
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
		return schema.ConstVec(c.outer(r), n), nil

	case *ast.CaseExpr:
		return c.evalVecCase(x, bt, sel)

	case *ast.BinaryExpr:
		if x.Op == ast.OpAnd || x.Op == ast.OpOr {
			keep, v, err := c.evalVecLogic(x, bt, sel)
			return c.truth(n, keep, v, err)
		}
	}
	if len(c.subs) > 0 && containsSubquery(e) {
		return nil, nil
	}
	switch x := e.(type) {
	case *ast.BinaryExpr:
		if x.Op != ast.OpAdd && x.Op != ast.OpSub && x.Op != ast.OpMul {
			break
		}
		if _, interval := x.Right.(*ast.IntervalExpr); interval {
			return nil, nil
		}
		v, err := c.operands(bt, sel, x.Left, x.Right)
		if v == nil {
			return nil, err
		}
		return c.arithVecFast(x.Op, v[0], v[1], n, sel), nil

	case *ast.UnaryExpr:
		if x.Op == "NOT" {
			keep, v, err := c.evalVecNot(x, bt, sel)
			return c.truth(n, keep, v, err)
		}
		return nil, nil
	}
	keep, ok, err := c.kernel(e, bt, sel)
	if !ok {
		return nil, err
	}
	return c.truth(n, keep, nil, nil)
}

// constant is the vector of e where it has one value for every row of the
// batch, nil elsewhere. Post-aggregation substitution takes priority, as in
// eval. A column-free subexpression (date '1994-01-01' + interval '1' year)
// is computed once, as the row path would for any selected row.
func (c *evalCtx) constant(e ast.Expr, n int, sel []int) (*schema.ColVec, error) {
	if v, ok := c.agg.lookup(e); ok {
		return schema.ConstVec(v, n), nil
	}
	if _, lit := e.(*ast.Literal); lit || len(sel) == 0 || !isConstExpr(e) {
		return nil, nil
	}
	v, err := c.eval(e)
	if err != nil {
		return nil, err
	}
	return schema.ConstVec(v, n), nil
}

// operands returns the vector forms of exprs, nil if one has none.
func (c *evalCtx) operands(bt *Batch, sel []int, exprs ...ast.Expr) ([]*schema.ColVec, error) {
	vecs := make([]*schema.ColVec, len(exprs))
	for i, x := range exprs {
		var err error
		if vecs[i], err = c.vec(x, bt, sel); vecs[i] == nil {
			return nil, err
		}
	}
	return vecs, nil
}

// evalVecCase is CASE: each arm is evaluated at the positions whose condition
// chose it and nowhere else, as eval returns from the first true WHEN.
func (c *evalCtx) evalVecCase(x *ast.CaseExpr, bt *Batch, sel []int) (*schema.ColVec, error) {
	n := bt.Len()
	out := c.boxed(n)
	remaining := sel
	for _, w := range x.Whens {
		if len(remaining) == 0 {
			break
		}
		matched, err := c.where(w.Cond, bt, remaining)
		if err != nil {
			return nil, err
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
		remaining = minus(c.sel(n), remaining, matched)
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
}

// where returns the ascending positions among sel at which the predicate e is
// TRUE: a WHERE clause's survivors, a join residual's, a CASE arm's. It is
// evalVec for a predicate in filter position, with no vector in between where
// e is two-valued (see test).
func (c *evalCtx) where(e ast.Expr, bt *Batch, sel []int) ([]int, error) {
	keep, v, err := c.test(e, bt, sel)
	if v == nil || err != nil {
		return keep, err
	}
	return c.trueAt(v, bt.Len(), sel), nil
}

// trueAt returns the positions among sel at which v is TRUE.
func (c *evalCtx) trueAt(v *schema.ColVec, n int, sel []int) []int {
	keep := c.sel(n)
	for _, i := range sel {
		if truthy(v.Value(i)) {
			keep = append(keep, i)
		}
	}
	return keep
}

// test evaluates the predicate e at the positions sel. Where e comes out
// two-valued there its answer is a selection, keep, the ascending positions
// among sel where it is TRUE (v is nil: FALSE at the rest); anywhere else —
// a NULL, a non-boolean — it is e's vector, v. The connectives refine
// selections: AND runs its right side over the left side's survivors, OR over
// the rest of sel, NOT takes the complement. The leaves are the selection
// kernels (kernel); any other node is evalVec, a typed boolean vector refined
// into its selection.
func (c *evalCtx) test(e ast.Expr, bt *Batch, sel []int) ([]int, *schema.ColVec, error) {
	v, err := c.constant(e, bt.Len(), sel)
	if v == nil && err == nil {
		if x, ok := e.(*ast.BinaryExpr); ok && (x.Op == ast.OpAnd || x.Op == ast.OpOr) {
			return c.evalVecLogic(x, bt, sel)
		}
		if len(c.subs) == 0 || !containsSubquery(e) {
			if x, ok := e.(*ast.UnaryExpr); ok && x.Op == "NOT" {
				return c.evalVecNot(x, bt, sel)
			}
			if keep, ok, err := c.kernel(e, bt, sel); ok || err != nil {
				return keep, nil, err
			}
		}
		v, err = c.evalVec(e, bt, sel)
	}
	if err != nil {
		return nil, nil, err
	}
	// A typed boolean vector, or a boolean constant, is two-valued.
	if v.Kind == value.KindBool && v.Ints != nil || v.Const && v.Value(0).Kind() == value.KindBool {
		return c.trueAt(v, bt.Len(), sel), nil, nil
	}
	return nil, v, nil
}

// truth is a predicate's value form, for a predicate in value position: its
// vector where test answered with one, else the 0/1 vector of its selection.
func (c *evalCtx) truth(n int, keep []int, v *schema.ColVec, err error) (*schema.ColVec, error) {
	if v != nil || err != nil {
		return v, err
	}
	out := c.ints(n)
	for _, i := range keep {
		out[i] = 1
	}
	return schema.IntVec(value.KindBool, out), nil
}

// evalVecLogic is AND/OR in test's form. The right side is evaluated at
// exactly the positions eval reaches — where the left side is not FALSE
// under AND, not TRUE under OR, NULL and non-boolean included — and nowhere
// else. Two two-valued sides are a selection; a three-valued one is combined
// through logic3 at those positions, and a decided position holds FALSE
// under AND, TRUE under OR.
func (c *evalCtx) evalVecLogic(x *ast.BinaryExpr, bt *Batch, sel []int) ([]int, *schema.ColVec, error) {
	n := bt.Len()
	isOr := x.Op == ast.OpOr
	lk, l, err := c.test(x.Left, bt, sel)
	if err != nil {
		return nil, nil, err
	}
	reached := lk
	switch {
	case l != nil:
		reached = c.sel(n)
		for _, i := range sel {
			if lv := l.Value(i); lv.IsNull() || lv.Kind() != value.KindBool || lv.AsBool() != isOr {
				reached = append(reached, i)
			}
		}
	case isOr:
		reached = minus(c.sel(n), sel, lk)
	}
	if len(reached) == 0 { // the left side decided every position
		if isOr {
			return sel, nil, nil
		}
		return nil, nil, nil
	}
	rk, r, err := c.test(x.Right, bt, reached)
	switch {
	case err != nil:
		return nil, nil, err
	case l == nil && r == nil && isOr:
		return union(c.sel(n), lk, rk), nil, nil
	case l == nil && r == nil:
		return rk, nil, nil
	}
	l, _ = c.truth(n, lk, l, nil)
	r, _ = c.truth(n, rk, r, nil)
	out := c.boxed(n)
	u := 0
	for _, i := range sel {
		if u == len(reached) || reached[u] != i {
			out.Set(i, value.Bool(isOr))
			continue
		}
		u++
		v, err := logic3(x.Op, l.Value(i), r.Value(i))
		if err != nil {
			return nil, nil, err
		}
		out.Set(i, v)
	}
	return nil, out, nil
}

// evalVecNot is NOT in test's form: the complement within sel of a two-valued
// operand, not3 at each position of a three-valued one.
func (c *evalCtx) evalVecNot(x *ast.UnaryExpr, bt *Batch, sel []int) ([]int, *schema.ColVec, error) {
	keep, v, err := c.test(x.Expr, bt, sel)
	if err != nil {
		return nil, nil, err
	}
	if v == nil {
		return minus(c.sel(bt.Len()), sel, keep), nil, nil
	}
	out := c.boxed(bt.Len())
	for _, i := range sel {
		nv, err := not3(v.Value(i))
		if err != nil {
			return nil, nil, err
		}
		out.Set(i, nv)
	}
	return nil, out, nil
}

// minus appends to dst the positions of sel not in keep, an ascending subset
// of it.
func minus(dst, sel, keep []int) []int {
	k := 0
	for _, i := range sel {
		if k < len(keep) && keep[k] == i {
			k++
			continue
		}
		dst = append(dst, i)
	}
	return dst
}

// union appends to dst the ascending merge of the disjoint ascending lists a
// and b.
func union(dst, a, b []int) []int {
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			dst, a = append(dst, a[0]), a[1:]
		} else {
			dst, b = append(dst, b[0]), b[1:]
		}
	}
	return append(append(dst, a...), b...)
}

// kernel runs the selection kernel of a comparison, BETWEEN, LIKE or IN-list
// whose operands have vector forms that come out typed and NULL-free: keep is
// the positions among sel where it holds. ok is false for every other node
// and for operands that do not fit, which are eval's.
func (c *evalCtx) kernel(e ast.Expr, bt *Batch, sel []int) (keep []int, ok bool, err error) {
	var v []*schema.ColVec
	switch x := e.(type) {
	case *ast.BinaryExpr:
		switch x.Op {
		case ast.OpEq, ast.OpNe, ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe:
			if v, err = c.operands(bt, sel, x.Left, x.Right); v != nil {
				keep, ok = c.cmpSel(x.Op, v[0], v[1], bt.Len(), sel)
			}
		}
	case *ast.Between:
		if v, err = c.operands(bt, sel, x.Expr, x.Lo, x.Hi); v != nil {
			keep, ok = c.betweenSel(v[0], v[1], v[2], x.Not, bt.Len(), sel)
		}
	case *ast.InList:
		if v, err = c.operands(bt, sel, x.Expr); v != nil {
			keep, ok = c.inListSel(x, v[0], bt.Len(), sel)
		}
	case *ast.Like: // a string vector against a constant pattern
		if v, err = c.operands(bt, sel, x.Expr, x.Pattern); v == nil {
			break
		}
		s, oks := typedOf(v[0])
		p, okp := typedOf(v[1])
		if ok = oks && s.strs != nil && okp && p.konst && p.kind == value.KindString; ok {
			keep = c.sel(bt.Len())
			for _, i := range sel {
				if likeMatch(s.strs[i], p.ks) != x.Not {
					keep = append(keep, i)
				}
			}
		}
	}
	return keep, ok, err
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
// directly, and an Int constant widens to Float. Every other pairing is left
// to value.Compare's coercion and error semantics (eval).
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

// cmpKernel appends to keep, which has room for them, the positions in sel
// where l op r holds. A nil array stands for the constant beside it.
func cmpKernel[T int64 | float64 | string](op ast.BinaryOp, l []T, lk T, r []T, rk T, sel, keep []int) []int {
	var holds [3]int
	for cmp := range holds {
		if cmpHolds(op, cmp-1) {
			holds[cmp] = 1
		}
	}
	// Every position is written and only a survivor is kept: no branch on
	// the outcome.
	out, k := keep[:len(sel)], 0
	switch {
	case l != nil && r != nil:
		for _, i := range sel {
			out[k] = i
			k += holds[cmp3(l[i], r[i])]
		}
	case l != nil:
		for _, i := range sel {
			out[k] = i
			k += holds[cmp3(l[i], rk)]
		}
	case r != nil:
		for _, i := range sel {
			out[k] = i
			k += holds[cmp3(lk, r[i])]
		}
	case holds[cmp3(lk, rk)] == 1:
		k = copy(out, sel)
	}
	return out[:k]
}

// cmpSel runs typed comparison kernels where both operands are typed (a
// vector or a constant, no NULLs by construction) and of one kind — Int,
// Date, Bool, Float or String — or a Float against an Int constant. Other
// mixed kinds and boxed vectors are left to eval, and with it value.Compare's
// coercion and error semantics.
func (c *evalCtx) cmpSel(op ast.BinaryOp, lv, rv *schema.ColVec, n int, sel []int) ([]int, bool) {
	l, ok := typedOf(lv)
	if !ok {
		return nil, false
	}
	r, ok := typedOf(rv)
	if !ok || !(r.sameKind(l.kind) || l.sameKind(r.kind)) {
		return nil, false
	}
	switch l.kind {
	case value.KindFloat:
		return cmpKernel(op, l.floats, l.kf, r.floats, r.kf, sel, c.sel(n)), true
	case value.KindString:
		return cmpKernel(op, l.strs, l.ks, r.strs, r.ks, sel, c.sel(n)), true
	}
	return cmpKernel(op, l.ints, l.ki, r.ints, r.ki, sel, c.sel(n)), true
}

// betweenKernel appends to keep, which has room for them, the positions in
// sel where [NOT] lo <= v[i] <= hi, ordering as cmp3.
func betweenKernel[T int64 | float64 | string](v []T, lo, hi T, not bool, sel, keep []int) []int {
	out, k := keep[:len(sel)], 0
	for _, i := range sel {
		out[k] = i
		if (cmp3(v[i], lo) >= 1 && cmp3(v[i], hi) <= 1) != not {
			k++
		}
	}
	return out[:k]
}

// betweenSel is BETWEEN for a typed vector against constant bounds of its
// kind.
func (c *evalCtx) betweenSel(vv, lov, hiv *schema.ColVec, not bool, n int, sel []int) ([]int, bool) {
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
	switch v.kind {
	case value.KindFloat:
		return betweenKernel(v.floats, lo.kf, hi.kf, not, sel, c.sel(n)), true
	case value.KindString:
		return betweenKernel(v.strs, lo.ks, hi.ks, not, sel, c.sel(n)), true
	}
	return betweenKernel(v.ints, lo.ki, hi.ki, not, sel, c.sel(n)), true
}

// inKernel appends to keep, which has room for them, the positions in sel
// where [NOT] v[i] IN items, equality as cmp3 — equal, or a NaN on either
// side — without ordering strings.
func inKernel[T int64 | float64 | string](v []T, items []T, not bool, sel, keep []int) []int {
	out, k := keep[:len(sel)], 0
	for _, i := range sel {
		found := false
		for _, it := range items {
			if x := v[i]; x == it || x != x || it != it {
				found = true
				break
			}
		}
		out[k] = i
		if found != not {
			k++
		}
	}
	return out[:k]
}

// inListSel is IN for a typed vector against a list of non-NULL constants of
// its kind: with nothing NULL and nothing that can fail, eval's ordered lazy
// walk reduces to a membership test.
func (c *evalCtx) inListSel(x *ast.InList, lhs *schema.ColVec, n int, sel []int) ([]int, bool) {
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
			return nil, false // eval decides whether it is reached
		}
		k, ok := typedConst(iv)
		if !ok || !k.sameKind(v.kind) {
			return nil, false
		}
		ints, floats, strs = append(ints, k.ki), append(floats, k.kf), append(strs, k.ks)
	}
	switch v.kind {
	case value.KindFloat:
		return inKernel(v.floats, floats, x.Not, sel, c.sel(n)), true
	case value.KindString:
		return inKernel(v.strs, strs, x.Not, sel, c.sel(n)), true
	}
	return inKernel(v.ints, ints, x.Not, sel, c.sel(n)), true
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

// arithVecFast runs the typed + - * kernels for Int×Int and Float×Float; mixed
// kinds coerce through value.Arith (eval).
func (c *evalCtx) arithVecFast(op ast.BinaryOp, lv, rv *schema.ColVec, n int, sel []int) *schema.ColVec {
	l, ok := typedOf(lv)
	if !ok {
		return nil
	}
	r, ok := typedOf(rv)
	if !ok || l.kind != r.kind {
		return nil
	}
	switch l.kind {
	case value.KindInt:
		out := c.ints(n)
		arithKernel(op, l.ints, l.ki, r.ints, r.ki, out, sel)
		return schema.IntVec(value.KindInt, out)
	case value.KindFloat:
		out := c.floats(n)
		arithKernel(op, l.floats, l.kf, r.floats, r.kf, out, sel)
		return schema.FloatVec(out)
	}
	return nil
}
