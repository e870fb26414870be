package exec

import (
	"ironsafe/internal/schema"
	"ironsafe/internal/sql/ast"
	"ironsafe/internal/value"
)

// joinChain is the running result of a FROM clause's inner joins, not yet
// materialized: the results joined so far, where the scans (or an earlier
// materialization) put them, and per part the position of each output row's
// source row. A join composes position vectors, a vectorized filter compacts
// them, and only materialize copies values — once per surviving row. Its
// schema is the parts' schemas concatenated in join order, as the row the
// pairwise joins used to build at every step.
type joinChain struct {
	sch   *schema.Schema
	parts []*Result
	// idx[p][k] is the row of parts[p] that row k is made of. A lone part is
	// always whole and in order, and has a nil vector.
	idx   [][]int32
	n     int
	joins int // joins composed into the chain, for the trace

	// hdr holds, per part, the row headers of the current batch. It is scratch,
	// handed on to the chains made from this one.
	hdr [][]schema.Row
}

func chainOf(r *Result) *joinChain {
	return &joinChain{sch: r.Sch, parts: []*Result{r}, idx: [][]int32{nil}, n: r.NumRows()}
}

// batch returns rows [off, end) as a batch whose columns are gathered through
// the position vectors on demand, into the typed vectors a row-backed batch
// yields. It is valid until the next call.
func (c *joinChain) batch(off, end int) *Batch {
	if len(c.parts) == 1 {
		return NewBatch(c.sch, c.parts[0].Rows[off:end])
	}
	for len(c.hdr) < len(c.parts) {
		c.hdr = append(c.hdr, nil)
	}
	return &Batch{Sch: c.sch, chain: &chainBatch{c: c, off: off, n: end - off, parts: make([]*Batch, len(c.parts))}}
}

// chainBatch is rows [off, off+n) of a chain: per part, those rows' headers
// gathered on demand into a row-backed batch.
type chainBatch struct {
	c      *joinChain
	off, n int
	parts  []*Batch
}

// col is Batch.Col: the column is one of one part's, extracted from that
// part's rows at the batch's positions.
func (bt *chainBatch) col(i int) *schema.ColVec {
	c := bt.c
	p := 0
	for w := c.parts[0].Sch.Len(); i >= w; w = c.parts[p].Sch.Len() {
		i -= w
		p++
	}
	if bt.parts[p] == nil {
		if cap(c.hdr[p]) < bt.n {
			c.hdr[p] = make([]schema.Row, bt.n)
		}
		rows := c.hdr[p][:bt.n]
		for k, at := range c.idx[p][bt.off : bt.off+bt.n] {
			rows[k] = c.parts[p].Rows[at]
		}
		bt.parts[p] = NewBatch(c.parts[p].Sch, rows)
	}
	return bt.parts[p].Col(i)
}

// pick returns the chain of c's rows at positions keep.
func (c *joinChain) pick(keep []int32) *joinChain {
	out := &joinChain{sch: c.sch, parts: c.parts, idx: make([][]int32, len(c.parts)), n: len(keep), joins: c.joins, hdr: c.hdr}
	for p, at := range c.idx {
		if at == nil {
			out.idx[p] = keep
			continue
		}
		out.idx[p] = make([]int32, len(keep))
		for k, n := range keep {
			out.idx[p][k] = at[n]
		}
	}
	return out
}

// materialize boxes the chain: one row per output row, full width, the parts'
// values in schema order. A lone part is its own materialization.
func (b *builder) materialize(c *joinChain) *Result {
	if len(c.parts) == 1 {
		return c.parts[0]
	}
	out := &Result{Sch: c.sch, Rows: make([]schema.Row, c.n)}
	width := c.sch.Len()
	for k := range out.Rows {
		row := make(schema.Row, 0, width)
		for p, part := range c.parts {
			row = append(row, part.Rows[c.idx[p][k]]...)
		}
		out.Rows[k] = row
	}
	b.trace.addf("join chain: %d joins, %d rows x %d columns materialized", c.joins, c.n, width)
	return out
}

// filterChain keeps the chain's rows where pred is true. Over a joined chain
// the predicate reads gathered columns and compacts the position vectors —
// unless it holds a subquery probe, which needs its outer row whole: then, as
// in row mode, applyFilter runs over the materialized rows.
func (b *builder) filterChain(c *joinChain, pred ast.Expr, env *Env) (*joinChain, error) {
	if len(c.parts) == 1 || !b.vec() || containsSubquery(pred) {
		res, err := b.applyFilter(b.materialize(c), pred, env)
		if err != nil {
			return nil, err
		}
		return chainOf(res), nil
	}
	ctx := newCtx(b, c.sch, env)
	var keep []int32
	for off := 0; off < c.n; off += b.batchRows {
		ctx.nextBatch()
		bt := c.batch(off, min(off+b.batchRows, c.n))
		v, err := ctx.evalVec(pred, bt, b.fullSel(bt.Len()))
		if err != nil {
			return nil, err
		}
		for _, j := range selectTrue(v, bt.Len(), ctx.sel(bt.Len())) {
			keep = append(keep, int32(off+j))
		}
		b.chargeBatch(int64(bt.Len()))
	}
	b.trace.addf("filter %s: %d -> %d rows", pred, c.n, len(keep))
	return c.pick(keep), nil
}

// chargePass charges one operator pass over n rows, evaluating exprs (nil
// entries allowed): a dispatch per row in row mode and where the pass holds a
// subquery probe — a hash semi-join's lookup, made once per row — and one per
// batch otherwise.
func (b *builder) chargePass(n int, exprs []ast.Expr) {
	perRow := !b.vec()
	for _, e := range exprs {
		perRow = perRow || e != nil && containsSubquery(e)
	}
	if perRow {
		b.chargeRows(int64(n))
		return
	}
	for off := 0; off < n; off += b.batchRows {
		b.chargeBatch(int64(min(b.batchRows, n-off)))
	}
}

// keyIDs evaluates the key expressions over every row of c and returns each
// row's id in t (see keyTable.id). Keys are extracted column-wise per batch;
// the row-mode evaluator needs whole rows, so for it c must be a lone part. It
// charges nothing.
func (b *builder) keyIDs(t *keyTable, c *joinChain, keys []ast.Expr, env *Env, insert bool) ([]int32, error) {
	out := make([]int32, c.n)
	ctx := newCtx(b, c.sch, env)
	if b.vec() {
		cols := make([]*schema.ColVec, len(keys))
		for off := 0; off < c.n; off += b.batchRows {
			ctx.nextBatch()
			bt := c.batch(off, min(off+b.batchRows, c.n))
			sel := b.fullSel(bt.Len())
			for i, e := range keys {
				cv, err := ctx.evalVec(e, bt, sel)
				if err != nil {
					return nil, err
				}
				cols[i] = cv
			}
			t.ids(cols, bt.Len(), insert, out[off:])
		}
		return out, nil
	}
	vals := make([]value.Value, len(keys))
	for n, row := range c.parts[0].Rows {
		rc := ctx.withRow(row)
		for i, k := range keys {
			v, err := rc.eval(k)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		out[n] = t.id(vals, insert)
	}
	return out, nil
}

// hashInnerJoin equi-joins the chain with one more result; with no keys it
// degrades to a cross product. The key table is built over whichever input
// has fewer rows. The output order does not depend on that choice: left row
// order, and within one left row its matches in right row order — the right
// rows are grouped by key id and each left row, in order, emits its group.
// Each input is charged one pass, each emitted pair one tuple.
func (b *builder) hashInnerJoin(left *joinChain, right *Result, keysL, keysR []ast.Expr, env *Env) (*joinChain, error) {
	if len(keysL) == 0 {
		lres := b.materialize(left)
		out := &Result{Sch: lres.Sch.Concat(right.Sch)}
		for _, lr := range lres.Rows {
			for _, rr := range right.Rows {
				out.Rows = append(out.Rows, concatRows(lr, rr))
			}
		}
		n := int64(len(lres.Rows)*len(right.Rows)) + 1
		if b.vec() {
			b.chargeBatch(n)
		} else {
			b.chargeRows(n)
		}
		b.trace.addf("cross join: %d x %d -> %d rows", len(lres.Rows), len(right.Rows), len(out.Rows))
		return chainOf(out), nil
	}
	if !b.vec() {
		left = chainOf(b.materialize(left))
	}
	rc := chainOf(right)
	buildLeft, side := left.n < rc.n, "right"
	if buildLeft {
		side = "left"
	}
	// The build side inserts its keys first; the other side only looks up.
	t := newKeyTable(len(keysL), min(left.n, rc.n), false)
	var lid, rid []int32
	var err error
	if buildLeft {
		lid, err = b.keyIDs(t, left, keysL, env, true)
	}
	if err == nil {
		rid, err = b.keyIDs(t, rc, keysR, env, !buildLeft)
	}
	if err == nil && !buildLeft {
		lid, err = b.keyIDs(t, left, keysL, env, false)
	}
	if err != nil {
		return nil, err
	}
	b.chargePass(rc.n, keysR)
	b.chargePass(left.n, keysL)
	start, pos := groupPositions(rid, t.n)
	total := 0
	for _, id := range lid {
		if id >= 0 {
			total += int(start[id+1] - start[id])
		}
	}
	li, ri := make([]int32, 0, total), make([]int32, 0, total)
	for l, id := range lid {
		if id < 0 {
			continue
		}
		for _, r := range pos[start[id]:start[id+1]] {
			li, ri = append(li, int32(l)), append(ri, r)
		}
	}
	// Emitted rows are data work, not operator dispatches.
	b.chargeTuples(int64(total))
	b.trace.addf("hash join on [%s]: %d x %d -> %d rows, build %s", exprsText(keysL), left.n, rc.n, total, side)
	out := left.pick(li)
	out.sch = left.sch.Concat(right.Sch)
	out.parts = append(append([]*Result{}, left.parts...), right)
	out.idx = append(out.idx, ri)
	out.joins++
	return out, nil
}

// hashLeftJoin performs LEFT OUTER JOIN with ON keys plus a residual ON
// predicate; unmatched left rows are null-extended. The key table is always
// built on the right.
func (b *builder) hashLeftJoin(left, right *Result, keysL, keysR []ast.Expr, residual ast.Expr, env *Env) (*Result, error) {
	outSch := left.Sch.Concat(right.Sch)
	out := &Result{Sch: outSch}
	var lid, rid []int32
	groups := int32(1)
	if len(keysL) == 0 {
		// Every right row is every left row's candidate: one group, id 0.
		lid, rid = make([]int32, len(left.Rows)), make([]int32, len(right.Rows))
	} else {
		t := newKeyTable(len(keysR), len(right.Rows), false)
		var err error
		if rid, err = b.keyIDs(t, chainOf(right), keysR, env, true); err != nil {
			return nil, err
		}
		if lid, err = b.keyIDs(t, chainOf(left), keysL, env, false); err != nil {
			return nil, err
		}
		groups = t.n
	}
	b.chargePass(len(right.Rows), keysR)
	start, pos := groupPositions(rid, groups)
	var subs map[ast.Expr]*subEval
	if residual != nil {
		var err error
		subs, err = b.prepareSubqueries([]ast.Expr{residual}, outSch, nil, env)
		if err != nil {
			return nil, err
		}
	}
	octx := newCtxWith(b, outSch, env, nil, subs)
	nulls := make(schema.Row, right.Sch.Len())
	for l, lr := range left.Rows {
		matched := false
		if id := lid[l]; id >= 0 {
			for _, r := range pos[start[id]:start[id+1]] {
				joined := concatRows(lr, right.Rows[r])
				if residual != nil {
					v, err := octx.withRow(joined).eval(residual)
					if err != nil {
						return nil, err
					}
					if !truthy(v) {
						continue
					}
				}
				matched = true
				out.Rows = append(out.Rows, joined)
			}
		}
		if !matched {
			out.Rows = append(out.Rows, concatRows(lr, nulls))
		}
	}
	// The residual and the null extension run row by row in both modes, and
	// the probe is charged as that whichever way its keys were extracted.
	b.chargeRows(int64(len(left.Rows)))
	b.chargeTuples(int64(len(out.Rows)))
	b.trace.addf("left outer join on [%s]: %d x %d -> %d rows", exprsText(keysL), len(left.Rows), len(right.Rows), len(out.Rows))
	return out, nil
}

func concatRows(a, b schema.Row) schema.Row {
	out := make(schema.Row, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}
