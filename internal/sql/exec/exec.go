// Package exec plans and executes SELECT statements against a catalog of
// relations. It provides the Volcano-style (materializing) operator set used
// by both the host engine and the storage engine: scans, filters, hash and
// nested-loop joins (inner and left outer), hash aggregation with the SQL
// aggregate functions, sorting, limiting, and decorrelated subquery
// evaluation. There is one expression evaluator, eval (eval.go). In vector
// mode every operator (scan, filter, projection, hash join, hash aggregation)
// takes its batch path over columnar batches, and evalVec (vector.go) is
// typed kernels and selection-vector plumbing over that evaluator: what has
// no kernel — subquery probes included — is eval at each selected position.
// An operator's row-at-a-time twin runs under ExecBatchRows = 1 alone, as the
// whole-query reference the differential tests compare with. Work is charged
// to a simtime.Meter so split executions can be priced by the cost model —
// one dispatch per batch, and one per row in row mode and for a pass that
// holds a subquery probe (chargePass).
package exec

import (
	"fmt"

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
	if batchRows <= 0 {
		batchRows = DefaultBatchRows
	}
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

// Result is a fully materialized intermediate or final result. It has two
// forms, as Batch has. The boxed form holds Rows. The encoded form (Rows nil)
// holds the same rows back to back in the row codec, exactly as the reply wire
// carries them: a storage-side fragment that merely ships columns of one table
// produces it straight from the verified pages, and the host keeps a reply in
// it, so a shipped row is boxed only if the host's own scan keeps it. Both
// forms are relations; operators other than the scan only ever see boxed
// results.
type Result struct {
	Sch  *schema.Schema
	Rows []schema.Row

	enc []byte // the encoded form: n rows of Sch.Len() columns each
	n   int
}

// NumRows returns the number of rows in either form.
func (r *Result) NumRows() int {
	if r.enc != nil {
		return r.n
	}
	return len(r.Rows)
}

// Boxed returns the result with its rows materialized: r itself unless it is
// in the encoded form.
func (r *Result) Boxed() (*Result, error) {
	if r.enc == nil {
		return r, nil
	}
	out := &Result{Sch: r.Sch, Rows: make([]schema.Row, 0, r.n)}
	every := make([]int, min(r.n, DefaultBatchRows))
	for i := range every {
		every[i] = i
	}
	_, err := r.scanEncoded(len(every), func(bt *Batch) error {
		out.Rows = bt.AppendRows(out.Rows, every[:bt.Len()], nil)
		return nil
	})
	return out, err
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
// page-backed batches, like a stored table: windows over the retained bytes.
func (r *Result) ScanBatch(batchRows int, fn func(*Batch) error) error {
	if r.enc == nil {
		return scanRowBatches(r.Sch, r.Rows, batchRows, fn)
	}
	_, err := r.scanEncoded(batchRows, fn)
	return err
}

// scanEncoded delivers the encoded form window by window and returns the
// position after its last row. Indexing a window checks every field of every
// row as DecodeRow does, so one pass with a callback that does nothing is the
// structural validation of bytes that came from outside.
func (r *Result) scanEncoded(batchRows int, fn func(*Batch) error) (int, error) {
	if batchRows <= 0 {
		batchRows = DefaultBatchRows
	}
	win := schema.NewRowWindow(r.Sch.Len())
	pos := 0
	for left := r.n; left > 0; left -= win.Len() {
		var err error
		if pos, err = win.Fill(r.enc, pos, min(batchRows, left)); err != nil {
			return 0, fmt.Errorf("exec: result row %d: %w", r.n-left+win.Len(), err)
		}
		if err := fn(NewWindowBatch(r.Sch, win)); err != nil {
			return 0, err
		}
	}
	return pos, nil
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
	b := &builder{cat: cat, meter: meter, batchRows: normBatchRows(batchRows), stmt: sel}
	return b.buildSelect(sel, nil)
}

// RunFragment is RunBatched for the storage side of a split execution, where
// the result is only ever encoded and sent: a statement that merely ships
// columns of one stored table, every WHERE conjunct evaluated inside the scan,
// returns in the encoded form — no row of it is boxed. Any other statement
// returns exactly what RunBatched returns.
func RunFragment(sel *ast.Select, cat Catalog, meter *simtime.Meter, batchRows int) (*Result, error) {
	b := &builder{cat: cat, meter: meter, batchRows: normBatchRows(batchRows), stmt: sel, fragment: true}
	return b.buildSelect(sel, nil)
}

// RunWithEnv executes sel with an outer binding environment (used for
// fallback correlated-subquery evaluation).
func RunWithEnv(sel *ast.Select, cat Catalog, meter *simtime.Meter, env *Env) (*Result, error) {
	b := &builder{cat: cat, meter: meter, batchRows: DefaultBatchRows, stmt: sel}
	return b.buildSelect(sel, env)
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

	ident []int // the identity selection vector, grown on demand
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
