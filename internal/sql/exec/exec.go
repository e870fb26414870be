// Package exec plans and executes SELECT statements against a catalog of
// relations. It provides the operator set used by both the host engine and the
// storage engine: scans, filters, hash and nested-loop joins (inner and left
// outer), hash aggregation with the SQL aggregate functions, sorting, limiting,
// and decorrelated subquery evaluation. There is one expression evaluator, eval
// (eval.go). In vector mode every operator takes its batch path, evalVec
// (vector.go) is typed kernels and selection-vector plumbing over that
// evaluator — what has no kernel, subquery probes included, is eval at each
// selected position — and what flows from one operator to the next is column
// vectors and positions in them (Result's columnar form, joinChain): a value is
// boxed into a row where the select list emits it and nowhere before. An
// operator's row-at-a-time twin runs under ExecBatchRows = 1 alone, over boxed
// rows, as the whole-query reference the differential tests compare with. Work
// is charged to a simtime.Meter so split executions can be priced by the cost
// model — one dispatch per batch, and one per row in row mode and for a pass
// that holds a subquery probe (chargePass).
package exec

import (
	"fmt"

	"ironsafe/internal/bufpool"
	"ironsafe/internal/schema"
	"ironsafe/internal/simtime"
	"ironsafe/internal/sql/ast"
)

// Relation is a scannable source of rows.
type Relation interface {
	Schema() *schema.Schema
	Scan(fn func(schema.Row) error) error
}

// BatchRelation is a Relation that can also deliver its rows in columnar
// batches of at most batchRows rows. Batches passed to fn are only valid for
// the duration of the callback; consumers that retain rows must copy them
// out (appending the schema.Row headers is sufficient — row backing arrays
// are never reused).
type BatchRelation interface {
	Relation
	ScanBatch(batchRows int, fn func(*Batch) error) error
}

// Catalog resolves base-table names to relations.
type Catalog interface {
	Relation(name string) (Relation, error)
}

// scanRows is the single rows→callback bridge shared by every materialized
// relation's Scan method.
func scanRows(rows []schema.Row, fn func(schema.Row) error) error {
	for _, row := range rows {
		if err := fn(row); err != nil {
			return err
		}
	}
	return nil
}

// scanRowBatches is the single rows→batch bridge shared by every
// materialized relation's ScanBatch method.
func scanRowBatches(sch *schema.Schema, rows []schema.Row, batchRows int, fn func(*Batch) error) error {
	batchRows = normBatchRows(batchRows)
	for off := 0; off < len(rows); off += batchRows {
		end := off + batchRows
		if end > len(rows) {
			end = len(rows)
		}
		if err := fn(NewBatch(sch, rows[off:end])); err != nil {
			return err
		}
	}
	return nil
}

// Result is a fully materialized intermediate or final result. It has three
// forms, and each is seen by one party. The boxed form holds Rows: what Run and
// its siblings return, what a select list emits, and every intermediate under
// ExecBatchRows = 1. The encoded form (Rows nil, enc set) holds the same rows
// back to back in the row codec, exactly as the reply wire carries them: a
// storage-side fragment that merely ships columns of one table produces it
// straight from the verified pages, and the host keeps a reply in it, indexed
// once (RetainResult), each column decoded whole the first time a scan of the
// statement reads it. The columnar form (cols set) holds one whole-result
// vector per column — unboxed unless the column holds a NULL or two kinds, as
// RowWindow.Col decides for a window — and is the only form an intermediate
// takes between two operators in vector mode: what a scan keeps, what a join
// chain's position vectors point into, what a subquery's cache is made of. All
// three are relations.
type Result struct {
	Sch  *schema.Schema
	Rows []schema.Row

	enc    []byte // the encoded form: n rows of Sch.Len() columns each
	pooled bool   // enc is a pool buffer (Release)
	n      int    // rows of the encoded and the columnar form
	cols   []*schema.ColVec
	all    *Batch // every row as one batch: the index over enc, the vectors of Rows
}

// NumRows returns the number of rows in any form.
func (r *Result) NumRows() int {
	if r.Rows != nil {
		return len(r.Rows)
	}
	return r.n
}

// Boxed returns the result with its rows materialized: r itself unless it is
// in the encoded or the columnar form.
func (r *Result) Boxed() (*Result, error) {
	if r.enc == nil && r.cols == nil {
		return r, nil
	}
	out := &Result{Sch: r.Sch, Rows: make([]schema.Row, 0, r.n)}
	err := r.ScanBatch(DefaultBatchRows, func(bt *Batch) error {
		out.Rows = bt.AppendRows(out.Rows, identity(bt.Len()), nil)
		return nil
	})
	return out, err
}

// col returns column i as one vector, decoded or extracted on first use. An
// encoded result that reaches here unindexed is a scan's own encoding of rows
// it read (RetainResult indexes what came from outside), so its index cannot
// fail; it is still built here rather than assumed.
func (r *Result) col(i int) *schema.ColVec {
	if r.cols != nil {
		return r.cols[i]
	}
	if err := r.index(); err != nil {
		panic(err)
	}
	return r.all.Col(i)
}

// Schema implements Relation.
func (r *Result) Schema() *schema.Schema { return r.Sch }

// Scan implements Relation.
func (r *Result) Scan(fn func(schema.Row) error) error {
	boxed, err := r.Boxed()
	if err != nil {
		return err
	}
	return scanRows(boxed.Rows, fn)
}

// ScanBatch implements BatchRelation. The encoded form is delivered as
// page-backed batches, like a stored table — but over one index of the whole
// reply, so that every scan of it cuts the same decoded columns at the same
// boundaries.
func (r *Result) ScanBatch(batchRows int, fn func(*Batch) error) error {
	batchRows = normBatchRows(batchRows)
	if r.enc == nil && r.cols == nil {
		return scanRowBatches(r.Sch, r.Rows, batchRows, fn)
	}
	if err := r.index(); err != nil {
		return err
	}
	for off := 0; off < r.n; off += batchRows {
		if err := fn(r.all.slice(off, min(off+batchRows, r.n))); err != nil {
			return err
		}
	}
	return nil
}

// index makes the one batch that holds every row of the result, in whichever
// form it is. For the encoded form that is the one pass over its bytes: indexing
// checks every field of every row as DecodeRow does, so it is also the
// structural validation of bytes that came from outside.
func (r *Result) index() error {
	switch {
	case r.all != nil:
	case r.cols != nil:
		r.all = chainOf(r, nil).batch(0, r.n)
	case r.enc == nil:
		r.all = NewBatch(r.Sch, r.Rows)
	default:
		win := schema.NewRowWindow(r.Sch.Len())
		end, err := win.Fill(r.enc, 0, r.n)
		if err != nil {
			return fmt.Errorf("exec: result row %d: %w", win.Len(), err)
		}
		r.enc, r.all = r.enc[:end:end], NewWindowBatch(r.Sch, win)
	}
	return nil
}

// MemRelation is an in-memory named relation (host-side temp tables).
type MemRelation struct {
	Sch  *schema.Schema
	Rows []schema.Row
}

// Schema implements Relation.
func (m *MemRelation) Schema() *schema.Schema { return m.Sch }

// Scan implements Relation.
func (m *MemRelation) Scan(fn func(schema.Row) error) error {
	return scanRows(m.Rows, fn)
}

// ScanBatch implements BatchRelation.
func (m *MemRelation) ScanBatch(batchRows int, fn func(*Batch) error) error {
	return scanRowBatches(m.Sch, m.Rows, batchRows, fn)
}

// DefaultBatchRows is the operator batch size when none is configured:
// large enough to amortize dispatch, small enough to stay cache- and
// EPC-resident.
const DefaultBatchRows = 4096

// Run plans and executes sel against cat, charging work to meter (which may
// be nil), with the default vectorized batch size.
func Run(sel *ast.Select, cat Catalog, meter *simtime.Meter) (*Result, error) {
	return RunBatched(sel, cat, meter, 0)
}

// RunBatched is Run with an explicit operator batch size: 0 means
// DefaultBatchRows, 1 forces the row-at-a-time path everywhere.
func RunBatched(sel *ast.Select, cat Catalog, meter *simtime.Meter, batchRows int) (*Result, error) {
	return run(&builder{cat: cat, meter: meter, batchRows: normBatchRows(batchRows), stmt: sel}, nil)
}

// RunFragment is RunBatched for the storage side of a split execution, where
// the result is only ever encoded and sent: a statement that merely ships
// columns of one stored table, every WHERE conjunct evaluated inside the scan,
// returns in the encoded form — no row of it is boxed. Any other statement
// returns exactly what RunBatched returns.
func RunFragment(sel *ast.Select, cat Catalog, meter *simtime.Meter, batchRows int) (*Result, error) {
	return run(&builder{cat: cat, meter: meter, batchRows: normBatchRows(batchRows), stmt: sel, fragment: true}, nil)
}

// RunWithEnv executes sel with an outer binding environment (used for
// fallback correlated-subquery evaluation).
func RunWithEnv(sel *ast.Select, cat Catalog, meter *simtime.Meter, env *Env) (*Result, error) {
	return run(&builder{cat: cat, meter: meter, batchRows: DefaultBatchRows, stmt: sel}, env)
}

// run executes the builder's statement with its scratch open: what it returns
// is rows of its own or a reply buffer, never a scratch array.
func run(b *builder, env *Env) (*Result, error) {
	b.sc = bufpool.Open()
	defer b.sc.Close()
	return b.buildSelect(b.stmt, env)
}

func normBatchRows(n int) int {
	if n <= 0 {
		return DefaultBatchRows
	}
	return n
}

// Env is a chain of outer-row bindings for correlated subqueries.
type Env struct {
	Parent *Env
	Sch    *schema.Schema
	Row    schema.Row
}

// Lookup resolves a (possibly qualified) column name through the chain.
func (e *Env) Lookup(name string) (int, *Env) {
	for cur := e; cur != nil; cur = cur.Parent {
		if cur.Sch == nil {
			continue
		}
		if idx := cur.Sch.IndexOf(name); idx >= 0 {
			return idx, cur
		}
	}
	return -1, nil
}

// Resolvable reports whether name resolves anywhere in the chain.
func (e *Env) Resolvable(name string) bool {
	idx, _ := e.Lookup(name)
	return idx >= 0
}

type builder struct {
	cat       Catalog
	meter     *simtime.Meter
	trace     *Trace
	batchRows int

	// stmt is the top-level statement; refs is the set of columns it
	// references, computed from stmt on the first table scan.
	stmt *ast.Select
	refs *colRefs
	// fragment marks a storage-side fragment, whose top-level scan may hand
	// its rows on encoded (see RunFragment).
	fragment bool

	// pre holds the subqueries prepared ahead of the operator that evaluates
	// them (buildFrom), by their node; prepareSubqueries takes them over.
	pre map[ast.Expr]*subEval

	// sc holds the statement's arrays until it ends (run); nil outside run:
	// they are then the collector's.
	sc *bufpool.Scratch
}

// vec reports whether operators should take their vectorized paths.
func (b *builder) vec() bool { return b.batchRows > 1 }

// chargeTuples records n tuples of data work with no dispatch component.
func (b *builder) chargeTuples(n int64) {
	if b.meter != nil && n > 0 {
		b.meter.TupleWork.Add(n)
		b.meter.TuplesProcessed.Add(n)
	}
}

// dispatch records n operator dispatches (batch boundaries).
func (b *builder) dispatch(n int64) {
	if b.meter != nil && n > 0 {
		b.meter.Batches.Add(n)
	}
}

// chargeBatch records one vectorized dispatch covering n tuples: one
// TupleWork.Add, one TuplesProcessed.Add, one Batches increment.
func (b *builder) chargeBatch(n int64) {
	b.chargeTuples(n)
	b.dispatch(1)
}

// chargeRows records n row-at-a-time dispatches covering n tuples — the
// fallback path pays one dispatch per row, still coalesced into single
// atomic adds per operator.
func (b *builder) chargeRows(n int64) {
	b.chargeTuples(n)
	b.dispatch(n)
}

// chargeWork adds weighted work units without counting tuples or dispatches.
func (b *builder) chargeWork(n int64) {
	if b.meter != nil && n > 0 {
		b.meter.TupleWork.Add(n)
	}
}

// errColumn builds a consistent unresolved-column error.
func errColumn(name string) error {
	return fmt.Errorf("exec: unknown column %q", name)
}
