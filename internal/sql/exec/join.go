package exec

import (
	"ironsafe/internal/schema"
	"ironsafe/internal/sql/ast"
	"ironsafe/internal/value"
)

// joinChain is what flows between two operators: a run of rows, each made of
// one row from each of its parts — the results the scans produced — named by
// position. A join composes position vectors, a filter compacts them, a left
// outer join marks the side it NULL-extends with -1; values are only ever read,
// a batch of one column at a time (batch) or the columns of one row (view), and
// boxed where the select list emits them. Its schema is the parts' schemas
// concatenated in join order, as the row the pairwise joins would build at every
// step. In vector mode the parts are columnar and nothing between the scans and
// the select list copies a value; under ExecBatchRows = 1 every chain is one
// boxed result, whole and in order (materialize after every join), which the
// row-at-a-time twins read as rows.
type joinChain struct {
	sch   *schema.Schema
	parts []*Result
	// idx[p][k] is the row of parts[p] that row k is made of, negative where row
	// k has NULLs for the part's columns; nil for a part whole and in order.
	idx   [][]int32
	n     int
	joins int // joins composed into the chain, for the trace

	// bufs holds, by column, the storage of the current batch's gathered
	// vectors. It is scratch, shared with the chains made from this one.
	bufs *[]schema.ColBuf
}

func chainOf(r *Result) *joinChain {
	return &joinChain{sch: r.Sch, parts: []*Result{r}, idx: [][]int32{nil}, n: r.NumRows(), bufs: new([]schema.ColBuf)}
}

// batch returns rows [off, end) as a batch whose columns are cut from the
// parts' vectors, or gathered through the position vectors, on demand. It is
// valid until the next call on this chain or one made from it.
func (c *joinChain) batch(off, end int) *Batch {
	if PoisonRecycledVectors {
		for i := range *c.bufs {
			(*c.bufs)[i].Vec().Poison()
		}
	}
	for len(*c.bufs) < c.sch.Len() {
		*c.bufs = append(*c.bufs, schema.ColBuf{})
	}
	return &Batch{Sch: c.sch, chain: c, off: off, n: end - off}
}

// locate returns the part that holds column i and the column's position there.
func (c *joinChain) locate(i int) (part, col int) {
	for w := c.parts[0].Sch.Len(); i >= w; w = c.parts[part].Sch.Len() {
		i -= w
		part++
	}
	return part, i
}

// col is Batch.Col for rows [off, off+n).
func (c *joinChain) col(i, off, n int) *schema.ColVec {
	p, pc := c.locate(i)
	src := c.parts[p].col(pc)
	if c.idx[p] == nil {
		return src.Slice(off, off+n)
	}
	return (*c.bufs)[i].Gather(src, c.idx[p][off:off+n])
}

// rowView reads single rows of a chain — a join's candidate pair, a subquery's
// candidate, a group's representative — into a row for eval, without a vector:
// per column it holds where the value lives.
type rowView struct {
	row  schema.Row
	cols []viewCol
}

type viewCol struct {
	dst  int            // position in row
	at   []int32        // the part's position vector
	rows []schema.Row   // a boxed part's rows, else
	vec  *schema.ColVec // a columnar part's vector
	col  int            // the column's position in the part
}

// view returns a view that loads the chain's columns reads — positions in
// row's schema, of which the chain's columns start at base; others are not the
// chain's — into row.
func (c *joinChain) view(row schema.Row, base int, reads []int) *rowView {
	v := &rowView{row: row}
	for _, r := range reads {
		if r < base || r >= base+c.sch.Len() {
			continue
		}
		p, pc := c.locate(r - base)
		vc := viewCol{dst: r, at: c.idx[p], rows: c.parts[p].Rows, col: pc}
		if c.parts[p].cols != nil {
			vc.vec = c.parts[p].col(pc)
		}
		v.cols = append(v.cols, vc)
	}
	return v
}

// load reads the view's columns of chain row k; a negative k reads NULLs.
func (v *rowView) load(k int) {
	for i := range v.cols {
		c := &v.cols[i]
		p := k
		if c.at != nil && k >= 0 {
			p = int(c.at[k])
		}
		switch {
		case p < 0:
			v.row[c.dst] = value.Null()
		case c.vec != nil:
			v.row[c.dst] = c.vec.Value(p)
		default:
			v.row[c.dst] = c.rows[p][c.col]
		}
	}
}

// pick returns the chain of c's rows at positions keep; a negative position
// is a row of NULLs. No rows is an empty vector, never nil: a nil position
// vector is a part whole and in order.
func (c *joinChain) pick(keep []int32) *joinChain {
	if keep == nil {
		keep = []int32{}
	}
	out := *c
	out.idx, out.n = make([][]int32, len(c.parts)), len(keep)
	for p, at := range c.idx {
		if at == nil {
			out.idx[p] = keep
			continue
		}
		out.idx[p] = make([]int32, len(keep))
		for k, n := range keep {
			out.idx[p][k] = -1
			if n >= 0 {
				out.idx[p][k] = at[n]
			}
		}
	}
	return &out
}

// join returns the chain whose row k is c's row li[k] beside r's row ri[k].
func (c *joinChain) join(li []int32, r *joinChain, ri []int32) *joinChain {
	l, rr := c.pick(li), r.pick(ri)
	l.sch = c.sch.Concat(r.sch)
	l.parts = append(l.parts[:len(l.parts):len(l.parts)], rr.parts...)
	l.idx = append(l.idx, rr.idx...)
	l.joins += r.joins + 1
	return l
}

// materialize boxes the chain, as row mode needs it after every join: one row
// per output row, full width, the parts' values in schema order. A part whole
// and in order is its own materialization.
func (b *builder) materialize(c *joinChain) *joinChain {
	if len(c.parts) == 1 && c.idx[0] == nil {
		return c
	}
	out := &Result{Sch: c.sch, Rows: make([]schema.Row, c.n)}
	width := c.sch.Len()
	for k := range out.Rows {
		row := make(schema.Row, 0, width)
		for p, part := range c.parts {
			if at := c.idx[p][k]; at >= 0 {
				row = append(row, part.Rows[at]...)
			} else {
				row = row[:len(row)+part.Sch.Len()] // NULLs
			}
		}
		out.Rows[k] = row
	}
	b.trace.addf("join chain: %d joins, %d rows x %d columns materialized", c.joins, c.n, width)
	return chainOf(out)
}

// filter keeps the chain's rows where pred is true: in vector mode the
// predicate reads the chain's columns batch by batch and the position vectors
// are compacted, whatever the predicate holds — a subquery probe reads its
// outer row from evalRows' scratch row.
func (b *builder) filter(in *joinChain, pred ast.Expr, env *Env) (*joinChain, error) {
	subs, err := b.prepareSubqueries([]ast.Expr{pred}, in.sch, in, env)
	if err != nil {
		return nil, err
	}
	ctx := newCtxWith(b, in.sch, env, nil, subs)
	out := in
	if b.vec() {
		var keep []int32
		for off := 0; off < in.n; off += b.batchRows {
			ctx.nextBatch()
			bt := in.batch(off, min(off+b.batchRows, in.n))
			v, err := ctx.evalVec(pred, bt, b.fullSel(bt.Len()))
			if err != nil {
				return nil, err
			}
			for _, j := range selectTrue(v, bt.Len(), ctx.sel(bt.Len())) {
				keep = append(keep, int32(off+j))
			}
		}
		if len(keep) < in.n {
			out = in.pick(keep)
		}
	} else {
		res := &Result{Sch: in.sch}
		for _, row := range in.parts[0].Rows {
			v, err := ctx.withRow(row).eval(pred)
			if err != nil {
				return nil, err
			}
			if truthy(v) {
				res.Rows = append(res.Rows, row)
			}
		}
		out = chainOf(res)
	}
	b.chargePass(in.n, []ast.Expr{pred})
	b.trace.addf("filter %s: %d -> %d rows", pred, in.n, out.n)
	return out, nil
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
// the row-mode evaluator reads c's rows. It charges nothing.
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

// hashInnerJoin equi-joins two chains; with no keys it degrades to a cross
// product. The key table is built over whichever input has fewer rows. The
// output order does not depend on that choice: left row order, and within one
// left row its matches in right row order — the right rows are grouped by key
// id and each left row, in order, emits its group. Each input is charged one
// pass, each emitted pair one tuple.
func (b *builder) hashInnerJoin(left, right *joinChain, keysL, keysR []ast.Expr, env *Env) (*joinChain, error) {
	var li, ri []int32
	if len(keysL) == 0 {
		li, ri = make([]int32, 0, left.n*right.n), make([]int32, 0, left.n*right.n)
		for l := 0; l < left.n; l++ {
			for r := 0; r < right.n; r++ {
				li, ri = append(li, int32(l)), append(ri, int32(r))
			}
		}
		if n := int64(len(li)) + 1; b.vec() {
			b.chargeBatch(n)
		} else {
			b.chargeRows(n)
		}
		b.trace.addf("cross join: %d x %d -> %d rows", left.n, right.n, len(li))
	} else {
		buildLeft, side := left.n < right.n, "right"
		if buildLeft {
			side = "left"
		}
		// The build side inserts its keys first; the other side only looks up.
		t := newKeyTable(len(keysL), min(left.n, right.n), false)
		var lid, rid []int32
		var err error
		if buildLeft {
			lid, err = b.keyIDs(t, left, keysL, env, true)
		}
		if err == nil {
			rid, err = b.keyIDs(t, right, keysR, env, !buildLeft)
		}
		if err == nil && !buildLeft {
			lid, err = b.keyIDs(t, left, keysL, env, false)
		}
		if err != nil {
			return nil, err
		}
		b.chargePass(right.n, keysR)
		b.chargePass(left.n, keysL)
		start, pos := groupPositions(rid, t.n)
		total := 0
		for _, id := range lid {
			if id >= 0 {
				total += int(start[id+1] - start[id])
			}
		}
		li, ri = make([]int32, 0, total), make([]int32, 0, total)
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
		b.trace.addf("hash join on [%s]: %d x %d -> %d rows, build %s", exprsText(keysL), left.n, right.n, total, side)
	}
	out := left.join(li, right, ri)
	if !b.vec() {
		out = b.materialize(out)
	}
	return out, nil
}

// hashLeftJoin performs LEFT OUTER JOIN with ON keys plus a residual ON
// predicate; unmatched left rows are null-extended. The key table is always
// built on the right. The probe — each left row's candidates, the residual
// over each pair — is row at a time in both modes.
func (b *builder) hashLeftJoin(left, right *joinChain, keysL, keysR []ast.Expr, residual ast.Expr, env *Env) (*joinChain, error) {
	var lid, rid []int32
	groups := int32(1)
	if len(keysL) == 0 {
		// Every right row is every left row's candidate: one group, id 0.
		lid, rid = make([]int32, left.n), make([]int32, right.n)
	} else {
		t := newKeyTable(len(keysR), right.n, false)
		var err error
		if rid, err = b.keyIDs(t, right, keysR, env, true); err != nil {
			return nil, err
		}
		if lid, err = b.keyIDs(t, left, keysL, env, false); err != nil {
			return nil, err
		}
		groups = t.n
	}
	b.chargePass(right.n, keysR)
	start, pos := groupPositions(rid, groups)
	// The residual reads a pair through a scratch row of the joined schema.
	var octx *evalCtx
	var lrow, rrow *rowView
	if residual != nil {
		outSch := left.sch.Concat(right.sch)
		subs, err := b.prepareSubqueries([]ast.Expr{residual}, outSch, nil, env)
		if err != nil {
			return nil, err
		}
		octx = newCtxWith(b, outSch, env, nil, subs)
		octx.row = make(schema.Row, outSch.Len())
		reads := octx.reads(residual)
		lrow, rrow = left.view(octx.row, 0, reads), right.view(octx.row, left.sch.Len(), reads)
	}
	li, ri := make([]int32, 0, left.n), make([]int32, 0, left.n)
	for l, id := range lid {
		matched := false
		if id >= 0 {
			if residual != nil {
				lrow.load(l)
			}
			for _, r := range pos[start[id]:start[id+1]] {
				if residual != nil {
					rrow.load(int(r))
					v, err := octx.eval(residual)
					if err != nil {
						return nil, err
					}
					if !truthy(v) {
						continue
					}
				}
				matched = true
				li, ri = append(li, int32(l)), append(ri, r)
			}
		}
		if !matched {
			li, ri = append(li, int32(l)), append(ri, -1)
		}
	}
	// The residual and the null extension run row by row in both modes, and
	// the probe is charged as that whichever way its keys were extracted.
	b.chargeRows(int64(left.n))
	b.chargeTuples(int64(len(li)))
	b.trace.addf("left outer join on [%s]: %d x %d -> %d rows", exprsText(keysL), left.n, right.n, len(li))
	out := left.join(li, right, ri)
	if !b.vec() {
		out = b.materialize(out)
	}
	return out, nil
}
