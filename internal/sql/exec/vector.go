package exec

import (
	"math"

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
		w := len(cols)
		if cols == nil {
			w = bt.Sch.Len()
		}
		vecs := make([]*schema.ColVec, w)
		for j := range vecs {
			c := j
			if cols != nil {
				c = cols[j]
			}
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
// instead, without boxing any for a page-backed batch.
func (bt *Batch) AppendEncoded(dst []byte, sel []int, cols []int) []byte {
	if bt.win != nil {
		return bt.win.AppendEncoded(dst, bt.off, sel, cols)
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

// vecScratch is where evalVec takes the arrays it builds for one batch —
// result vectors and selection lists — so that a loop over batches allocates
// them for its first batch only, as RowWindow.Col reuses column storage
// across windows. The lifetime rule: a vector returned by evalVec, and a list
// taken with sel, is valid until the loop that owns the batch calls nextBatch
// on the context. Five loops own a batch: the fused scan (semiReducer.reduce
// runs inside it, on its batch), the vectorized projection, filter, aggregate
// and keyIDs. Each calls nextBatch as it moves to a batch and keeps nothing of
// the last one but what it boxed or copied out.
type vecScratch struct {
	ints   recycled[int64]
	floats recycled[float64]
	vals   recycled[value.Value]
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
// batch has, a string no table holds — so that a caller holding one past its
// lifetime computes garbage or panics instead of passing by luck.
var PoisonRecycledVectors bool

func (c *evalCtx) scratch() *vecScratch {
	if c.vs == nil {
		c.vs = &vecScratch{}
	}
	return c.vs
}

// ints returns a zeroed result array of n elements (kernels write only their
// selection), floats its float64 twin, boxed a vector of n NULLs to Set, sel
// an empty selection list with room for n positions; all valid until
// nextBatch. Callers pass sel the batch length, not the selection's: a list
// sized by what one window happened to select would be remade for the next.
func (c *evalCtx) ints(n int) []int64     { return c.scratch().ints.take(n, true) }
func (c *evalCtx) floats(n int) []float64 { return c.scratch().floats.take(n, true) }
func (c *evalCtx) sel(n int) []int        { return c.scratch().sels.take(n, false)[:0] }
func (c *evalCtx) boxed(n int) *schema.ColVec {
	return schema.BoxedVec(c.scratch().vals.take(n, true))
}

// nextBatch ends the lifetime of every vector and list handed out since the
// last call (see vecScratch).
func (c *evalCtx) nextBatch() {
	if c.vs != nil {
		c.vs.ints.recycle(0x5a5a5a5a5a5a5a5a)
		c.vs.floats.recycle(math.NaN())
		c.vs.vals.recycle(value.Str("\x00recycled"))
		c.vs.sels.recycle(-1)
	}
}

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
		rc.row = c.scratch().vals.take(c.sch.Len(), true)
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
// subexpression computed once, the selection-vector plumbing of AND/OR and
// CASE — which hands a right side or an arm to evalVec at exactly the
// positions eval's laziness would reach, so that kernels run beneath them —
// and the typed kernels: comparison, + - *, NOT, BETWEEN, LIKE and IN-list
// over operands that have vector forms themselves and come out typed and
// NULL-free. It returns nil for every other node and for a kernel whose
// operands do not fit; having evaluated those operands as vectors first costs
// nothing but the vectors, since no operand of a kernel is ever evaluated by
// eval here — the plumbing excepted, and with it a subquery probe, which is
// charged per call: a kernel node that holds one has no vector form. An error
// is an operand's, which eval evaluates unconditionally too.
func (c *evalCtx) vec(e ast.Expr, bt *Batch, sel []int) (*schema.ColVec, error) {
	n := bt.Len()
	// Post-aggregation substitution takes priority, as in eval.
	if v, ok := c.agg.lookup(e); ok {
		return schema.ConstVec(v, n), nil
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
		return schema.ConstVec(c.outer(r), n), nil

	case *ast.CaseExpr:
		return c.evalVecCase(x, bt, sel)

	case *ast.BinaryExpr:
		if x.Op == ast.OpAnd || x.Op == ast.OpOr {
			return c.evalVecLogic(x, bt, sel)
		}
	}
	if len(c.subs) > 0 && containsSubquery(e) {
		return nil, nil
	}
	// operands returns the vector forms of exprs, nil if one has none.
	operands := func(exprs ...ast.Expr) ([]*schema.ColVec, error) {
		vecs := make([]*schema.ColVec, len(exprs))
		for i, x := range exprs {
			var err error
			if vecs[i], err = c.vec(x, bt, sel); vecs[i] == nil {
				return nil, err
			}
		}
		return vecs, nil
	}
	switch x := e.(type) {
	case *ast.BinaryExpr:
		fast := c.cmpVecFast
		switch x.Op {
		case ast.OpEq, ast.OpNe, ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe:
		case ast.OpAdd, ast.OpSub, ast.OpMul:
			if _, interval := x.Right.(*ast.IntervalExpr); interval {
				return nil, nil
			}
			fast = c.arithVecFast
		default:
			return nil, nil
		}
		v, err := operands(x.Left, x.Right)
		if v == nil {
			return nil, err
		}
		return fast(x.Op, v[0], v[1], n, sel), nil

	case *ast.UnaryExpr:
		if x.Op != "NOT" {
			return nil, nil
		}
		v, err := operands(x.Expr)
		if v == nil || boolInts(v[0]) == nil {
			return nil, err
		}
		ints, out := boolInts(v[0]), c.ints(n)
		for _, i := range sel {
			out[i] = 1 - ints[i]
		}
		return schema.IntVec(value.KindBool, out), nil

	case *ast.Between:
		v, err := operands(x.Expr, x.Lo, x.Hi)
		if v == nil {
			return nil, err
		}
		return c.betweenVecFast(v[0], v[1], v[2], x.Not, n, sel), nil

	case *ast.Like:
		v, err := operands(x.Expr, x.Pattern)
		if v == nil {
			return nil, err
		}
		tv, ok := typedOf(v[0])
		tp, okp := typedOf(v[1])
		if !ok || tv.strs == nil || !okp || !tp.konst || tp.kind != value.KindString {
			return nil, nil
		}
		out := c.ints(n)
		for _, i := range sel {
			if likeMatch(tv.strs[i], tp.ks) != x.Not {
				out[i] = 1
			}
		}
		return schema.IntVec(value.KindBool, out), nil

	case *ast.InList:
		v, err := operands(x.Expr)
		if v == nil {
			return nil, err
		}
		return c.inListVecFast(x, v[0], n, sel), nil
	}
	return nil, nil
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
		cond, err := c.evalVec(w.Cond, bt, remaining)
		if err != nil {
			return nil, err
		}
		matched, rest := c.sel(n), c.sel(n)
		for _, i := range remaining {
			if truthy(cond.Value(i)) {
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
}

// evalVecLogic is AND/OR: the right side is evaluated at the positions the
// left side leaves undecided and nowhere else, as eval short-circuits. A
// decided position holds FALSE under AND, TRUE under OR.
func (c *evalCtx) evalVecLogic(x *ast.BinaryExpr, bt *Batch, sel []int) (*schema.ColVec, error) {
	n := bt.Len()
	l, err := c.evalVec(x.Left, bt, sel)
	if err != nil {
		return nil, err
	}
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
		out := c.boxed(n)
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
	out := c.boxed(n)
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
// mixed kinds and boxed vectors are left to eval, and with it value.Compare's
// coercion and error semantics.
func (c *evalCtx) cmpVecFast(op ast.BinaryOp, lv, rv *schema.ColVec, n int, sel []int) *schema.ColVec {
	l, ok := typedOf(lv)
	if !ok {
		return nil
	}
	r, ok := typedOf(rv)
	if !ok || !(r.sameKind(l.kind) || l.sameKind(r.kind)) {
		return nil
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
	return schema.IntVec(value.KindBool, out)
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
func (c *evalCtx) betweenVecFast(vv, lov, hiv *schema.ColVec, not bool, n int, sel []int) *schema.ColVec {
	v, ok := typedOf(vv)
	if !ok || v.konst {
		return nil
	}
	lo, ok := typedOf(lov)
	if !ok || !lo.konst || !lo.sameKind(v.kind) {
		return nil
	}
	hi, ok := typedOf(hiv)
	if !ok || !hi.konst || !hi.sameKind(v.kind) {
		return nil
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
	return schema.IntVec(value.KindBool, out)
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
// constants of its kind: with nothing NULL and nothing that can fail, eval's
// ordered lazy walk reduces to a membership test.
func (c *evalCtx) inListVecFast(x *ast.InList, lhs *schema.ColVec, n int, sel []int) *schema.ColVec {
	v, ok := typedOf(lhs)
	if !ok || v.konst {
		return nil
	}
	var ints []int64
	var floats []float64
	var strs []string
	for _, item := range x.Items {
		if !isConstExpr(item) {
			return nil
		}
		iv, err := c.eval(item)
		if err != nil {
			return nil // eval decides whether it is reached
		}
		k, ok := typedConst(iv)
		if !ok || !k.sameKind(v.kind) {
			return nil
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
	return schema.IntVec(value.KindBool, out)
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
