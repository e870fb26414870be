// Package engine is the database engine: a catalog of heap-file tables over
// a PageStore (plain pager or secure store), with SQL DDL/DML/query execution
// via the exec package. It plays the role SQLite plays in the paper — both
// the on-disk instance on the storage system and the in-memory instance on
// the host run this engine, differing only in the PageStore beneath them.
package engine

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"ironsafe/internal/pager"
	"ironsafe/internal/schema"
	"ironsafe/internal/simtime"
	"ironsafe/internal/sql/ast"
	"ironsafe/internal/sql/exec"
	"ironsafe/internal/sql/parser"
	"ironsafe/internal/value"
)

// Table is one stored table.
type Table struct {
	Name string
	Sch  *schema.Schema
	heap *pager.HeapFile
	db   *DB
}

// Schema implements exec.Relation.
func (t *Table) Schema() *schema.Schema { return t.Sch }

// Scan implements exec.Relation.
func (t *Table) Scan(fn func(schema.Row) error) error {
	return t.heap.Scan(fn)
}

// ScanBatch implements exec.BatchRelation: the heap is delivered in windows
// of batchRows rows (0 means exec.DefaultBatchRows) as page-backed batches,
// whose rows stay encoded in their verified plaintext pages until the
// consumer decodes a column or boxes the rows it keeps. A batch is only valid
// during its callback.
func (t *Table) ScanBatch(batchRows int, fn func(*exec.Batch) error) error {
	if batchRows <= 0 {
		batchRows = exec.DefaultBatchRows
	}
	return t.heap.ScanWindows(batchRows, t.Sch.Len(), func(w *schema.RowWindow) error {
		return fn(exec.NewWindowBatch(t.Sch, w))
	})
}

// Count returns the table's row count.
func (t *Table) Count() (int, error) { return t.heap.Count() }

// NumPages returns the number of heap pages the table occupies.
func (t *Table) NumPages() int { return t.heap.NumPages() }

// DB is a database instance over a page store.
type DB struct {
	store pager.TxnStore
	meter *simtime.Meter

	mu        sync.RWMutex
	tables    map[string]*Table
	scanCfg   pager.ScanConfig
	execBatch int // executor batch size (0 = exec.DefaultBatchRows, 1 = row-at-a-time)
	// cataloged is what the store's catalog records, by lower-case table
	// name; nil until this DB has loaded or written one.
	cataloged map[string]catalogEntry

	// execMu serializes writers against readers: SELECTs run concurrently,
	// DDL/DML take the write lock (SQLite-style multi-reader/one-writer).
	execMu sync.RWMutex
}

// catalogRecord is the persisted form of the catalog.
type catalogRecord struct {
	Tables []tableRecord `json:"tables"`
}

type tableRecord struct {
	Name    string         `json:"name"`
	Columns []columnRecord `json:"columns"`
	Pages   []uint32       `json:"pages"`
}

type columnRecord struct {
	Name string     `json:"name"`
	Kind value.Kind `json:"kind"`
}

// Open attaches to (or initializes) a database on the store. Page 0 is the
// catalog root: [u32 length][u32 page count][page ids...]; catalog JSON
// lives in separately allocated pages so it can grow. The first catalog of
// an empty store is written directly; every later write is a batch.
func Open(store pager.TxnStore, meter *simtime.Meter) (*DB, error) {
	db := &DB{store: store, meter: meter, tables: map[string]*Table{}}
	if store.NumPages() == 0 {
		if _, err := store.Allocate(); err != nil { // page 0 = catalog root
			return nil, fmt.Errorf("engine: allocating catalog root: %w", err)
		}
		if err := writeCatalog(store, nil); err != nil {
			return nil, err
		}
		db.noteCatalog(nil)
		return db, nil
	}
	if err := db.loadCatalog(); err != nil {
		return nil, err
	}
	return db, nil
}

// ErrCatalogCorrupt reports a catalog root page whose counts cannot describe
// a catalog: a store that does not authenticate its pages (a plain pager
// medium) hands the root back as it finds it.
var ErrCatalogCorrupt = errors.New("engine: catalog root corrupt")

func (db *DB) loadCatalog() error {
	root, err := db.store.ReadPage(0)
	if err != nil {
		return fmt.Errorf("engine: reading catalog root: %w", err)
	}
	if len(root) < pager.PageSize {
		return fmt.Errorf("%w: root page of %d bytes", ErrCatalogCorrupt, len(root))
	}
	length := binary.LittleEndian.Uint32(root[0:4])
	npages := binary.LittleEndian.Uint32(root[4:8])
	db.cataloged = map[string]catalogEntry{}
	if length == 0 {
		return nil
	}
	if npages > catalogPagesMax {
		return fmt.Errorf("%w: claims %d catalog pages, a root holds %d", ErrCatalogCorrupt, npages, catalogPagesMax)
	}
	if uint64(length) > uint64(npages)*pager.PageSize {
		return fmt.Errorf("%w: claims %d catalog bytes in %d pages", ErrCatalogCorrupt, length, npages)
	}
	var blob []byte
	for i := uint32(0); i < npages; i++ {
		id := binary.LittleEndian.Uint32(root[8+4*i : 12+4*i])
		page, err := db.store.ReadPage(id)
		if err != nil {
			return fmt.Errorf("engine: reading catalog page %d: %w", id, err)
		}
		blob = append(blob, page...)
	}
	if uint32(len(blob)) < length {
		return fmt.Errorf("%w: catalog truncated (%d < %d)", ErrCatalogCorrupt, len(blob), length)
	}
	var rec catalogRecord
	if err := json.Unmarshal(blob[:length], &rec); err != nil {
		return fmt.Errorf("engine: decoding catalog: %w", err)
	}
	for _, tr := range rec.Tables {
		sch := schema.New()
		for _, c := range tr.Columns {
			sch.Columns = append(sch.Columns, schema.Col(c.Name, c.Kind))
		}
		heap := pager.OpenHeapFile(db.store, tr.Pages)
		heap.SetScanConfig(db.scanCfg)
		db.tables[strings.ToLower(tr.Name)] = &Table{
			Name: tr.Name,
			Sch:  sch,
			heap: heap,
			db:   db,
		}
	}
	db.noteCatalog(db.liveTables())
	return nil
}

// SetScanConfig installs the scan-pipeline configuration on every current
// and future table heap (see pager.ScanConfig; the zero value restores the
// sequential per-page path).
func (db *DB) SetScanConfig(cfg pager.ScanConfig) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.scanCfg = cfg
	for _, t := range db.tables {
		t.heap.SetScanConfig(cfg)
	}
}

// SetExecBatchRows sets the executor batch size for subsequent SELECTs:
// 0 restores exec.DefaultBatchRows, 1 forces the row-at-a-time pipeline.
func (db *DB) SetExecBatchRows(n int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.execBatch = n
}

// catalogPagesMax bounds how many catalog pages fit in the root page.
const catalogPagesMax = (pager.PageSize - 8) / 4

// catalogEntry is what the catalog records of one table beside its name.
type catalogEntry struct {
	sch   *schema.Schema
	pages []uint32
}

// catalogHolds reports whether the store's catalog already records exactly
// tables — the same set, each with the schema and the page list it has now —
// so that writing it again would change nothing a load reads. A batch asks it
// before it persists the catalog: a commit that appended to a page with room
// pays for that page and not for the schema. The caller holds db.mu.
func (db *DB) catalogHolds(tables []*Table) bool {
	if db.cataloged == nil || len(tables) != len(db.cataloged) {
		return false
	}
	for _, t := range tables {
		e, ok := db.cataloged[strings.ToLower(t.Name)]
		if !ok || e.sch != t.Sch || !t.heap.HasPages(e.pages) {
			return false
		}
	}
	return true
}

// noteCatalog records that the store's catalog now holds tables. The caller
// holds db.mu exclusively (or is Open, before the DB is shared).
func (db *DB) noteCatalog(tables []*Table) {
	db.cataloged = make(map[string]catalogEntry, len(tables))
	for _, t := range tables {
		db.cataloged[strings.ToLower(t.Name)] = catalogEntry{sch: t.Sch, pages: t.heap.Pages()}
	}
}

func (db *DB) liveTables() []*Table {
	tables := make([]*Table, 0, len(db.tables))
	for _, t := range db.tables {
		tables = append(tables, t)
	}
	return tables
}

// writeCatalog persists the catalog for the given tables through w. Tables
// are serialized in name order so the catalog bytes are a pure function of
// the database state — replicas applying the same statements stay
// byte-comparable and the crash sweeps' media digests stay deterministic.
func writeCatalog(w pager.PageStore, tables []*Table) error {
	sorted := append([]*Table(nil), tables...)
	sort.Slice(sorted, func(i, j int) bool {
		return strings.ToLower(sorted[i].Name) < strings.ToLower(sorted[j].Name)
	})
	rec := catalogRecord{}
	for _, t := range sorted {
		tr := tableRecord{Name: t.Name, Pages: t.heap.Pages()}
		for _, c := range t.Sch.Columns {
			tr.Columns = append(tr.Columns, columnRecord{Name: c.Name, Kind: c.Kind})
		}
		rec.Tables = append(rec.Tables, tr)
	}
	blob, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("engine: encoding catalog: %w", err)
	}
	need := (len(blob) + pager.PageSize - 1) / pager.PageSize
	if need > catalogPagesMax {
		return fmt.Errorf("engine: catalog too large (%d pages)", need)
	}
	root := make([]byte, pager.PageSize)
	binary.LittleEndian.PutUint32(root[0:4], uint32(len(blob)))
	binary.LittleEndian.PutUint32(root[4:8], uint32(need))
	for i := 0; i < need; i++ {
		id, err := w.Allocate()
		if err != nil {
			return fmt.Errorf("engine: allocating catalog page: %w", err)
		}
		binary.LittleEndian.PutUint32(root[8+4*i:12+4*i], id)
		end := (i + 1) * pager.PageSize
		if end > len(blob) {
			end = len(blob)
		}
		if err := w.WritePage(id, blob[i*pager.PageSize:end]); err != nil {
			return err
		}
	}
	return w.WritePage(0, root)
}

// Relation implements exec.Catalog.
func (db *DB) Relation(name string) (exec.Relation, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("engine: no such table %q", name)
	}
	return t, nil
}

// Table returns the named table.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("engine: no such table %q", name)
	}
	return t, nil
}

// TableNames lists the tables in the catalog.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var names []string
	for _, t := range db.tables {
		names = append(names, t.Name)
	}
	return names
}

// Execute parses and runs one SQL statement. SELECTs return a result; DDL
// and DML return a result with an "affected" count column.
func (db *DB) Execute(sqlText string) (*exec.Result, error) {
	stmt, err := parser.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	return db.ExecuteStmt(stmt)
}

// ExecuteFragment is Execute for a statement whose result is only ever
// encoded and shipped: a SELECT runs as exec.RunFragment, so its result may be
// in the encoded form.
func (db *DB) ExecuteFragment(sqlText string) (*exec.Result, error) {
	stmt, err := parser.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	if s, ok := stmt.(*ast.Select); ok {
		return db.runSelect(s, exec.RunFragment)
	}
	return db.ExecuteStmt(stmt)
}

// runSelect runs s under the reader lock with the configured batch size.
func (db *DB) runSelect(s *ast.Select, run func(*ast.Select, exec.Catalog, *simtime.Meter, int) (*exec.Result, error)) (*exec.Result, error) {
	db.execMu.RLock()
	defer db.execMu.RUnlock()
	db.mu.RLock()
	batch := db.execBatch
	db.mu.RUnlock()
	return run(s, db, db.meter, batch)
}

// ExecuteStmt runs a parsed statement.
func (db *DB) ExecuteStmt(stmt ast.Statement) (*exec.Result, error) {
	switch s := stmt.(type) {
	case *ast.Select:
		return db.runSelect(s, exec.RunBatched)
	case *ast.CreateTable:
		db.execMu.Lock()
		defer db.execMu.Unlock()
		return db.createTable(s)
	case *ast.Insert:
		db.execMu.Lock()
		defer db.execMu.Unlock()
		return db.insert(s)
	case *ast.Update:
		db.execMu.Lock()
		defer db.execMu.Unlock()
		return db.update(s)
	case *ast.Delete:
		db.execMu.Lock()
		defer db.execMu.Unlock()
		return db.delete(s)
	case *ast.DropTable:
		db.execMu.Lock()
		defer db.execMu.Unlock()
		return db.dropTable(s)
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
}

func affected(n int) *exec.Result {
	return &exec.Result{
		Sch:  schema.New(schema.Col("affected", value.KindInt)),
		Rows: []schema.Row{{value.Int(int64(n))}},
	}
}

// createTable commits the new, empty table and the catalog update as one
// batch.
func (db *DB) createTable(s *ast.CreateTable) (*exec.Result, error) {
	if _, err := db.Table(s.Name); err == nil {
		return nil, fmt.Errorf("engine: table %q already exists", s.Name)
	}
	sch := schema.New()
	seen := map[string]bool{}
	for _, c := range s.Columns {
		lc := strings.ToLower(c.Name)
		if seen[lc] {
			return nil, fmt.Errorf("engine: duplicate column %q", c.Name)
		}
		seen[lc] = true
		sch.Columns = append(sch.Columns, schema.Col(c.Name, c.Kind))
	}
	err := db.inBatch(func(b *batchCtx) error {
		key := strings.ToLower(s.Name)
		b.shadows[key] = &Table{Name: s.Name, Sch: sch, heap: pager.OpenHeapFile(b.ov, nil), db: db}
		b.created[key] = true
		return nil
	})
	if err != nil {
		return nil, err
	}
	return affected(0), nil
}

// dropTable wipes the table's pages (session-cleanup semantics) and removes
// it from the catalog in one batch.
func (db *DB) dropTable(s *ast.DropTable) (*exec.Result, error) {
	if _, err := db.Table(s.Name); err != nil {
		if s.IfExists {
			return affected(0), nil
		}
		return nil, err
	}
	err := db.inBatch(func(b *batchCtx) error {
		sh, err := b.shadow(s.Name)
		if err != nil {
			return err
		}
		b.dropped[strings.ToLower(s.Name)] = true
		return sh.heap.Rewrite(nil)
	})
	if err != nil {
		return nil, err
	}
	return affected(0), nil
}

// coerce adapts a literal value to the column kind where lossless.
func coerce(v value.Value, kind value.Kind) (value.Value, error) {
	if v.IsNull() || v.Kind() == kind {
		return v, nil
	}
	switch kind {
	case value.KindFloat:
		if v.Kind() == value.KindInt {
			return value.Float(float64(v.AsInt())), nil
		}
	case value.KindInt:
		if v.Kind() == value.KindFloat && v.AsFloat() == float64(int64(v.AsFloat())) {
			return value.Int(int64(v.AsFloat())), nil
		}
	case value.KindDate:
		if v.Kind() == value.KindString {
			return value.ParseDate(v.AsString())
		}
	}
	return value.Null(), fmt.Errorf("engine: cannot store %s into %s column", v.Kind(), kind)
}

func (db *DB) insert(s *ast.Insert) (*exec.Result, error) {
	return db.applyDML(s)
}

// buildInsertRows evaluates an INSERT's value lists against t's schema.
func (db *DB) buildInsertRows(t *Table, s *ast.Insert) ([]schema.Row, error) {
	// Map insert columns to table positions.
	positions := make([]int, 0, t.Sch.Len())
	if len(s.Columns) == 0 {
		for i := range t.Sch.Columns {
			positions = append(positions, i)
		}
	} else {
		for _, c := range s.Columns {
			idx := t.Sch.IndexOf(c)
			if idx < 0 {
				return nil, fmt.Errorf("engine: no column %q in %q", c, s.Table)
			}
			positions = append(positions, idx)
		}
	}
	rows := make([]schema.Row, 0, len(s.Rows))
	for ri, exprs := range s.Rows {
		if len(exprs) != len(positions) {
			return nil, fmt.Errorf("engine: row %d has %d values, want %d", ri, len(exprs), len(positions))
		}
		row := make(schema.Row, t.Sch.Len())
		for i := range row {
			row[i] = value.Null()
		}
		for i, e := range exprs {
			v, err := evalConst(e)
			if err != nil {
				return nil, fmt.Errorf("engine: row %d: %w", ri, err)
			}
			cv, err := coerce(v, t.Sch.Columns[positions[i]].Kind)
			if err != nil {
				return nil, fmt.Errorf("engine: row %d column %q: %w", ri, t.Sch.Columns[positions[i]].Name, err)
			}
			row[positions[i]] = cv
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// applyDML runs one INSERT/UPDATE/DELETE as a batch of one: the heap
// mutation and the catalog update commit as one store transaction. Callers
// hold execMu exclusively.
func (db *DB) applyDML(stmt ast.Statement) (*exec.Result, error) {
	results, err := db.executeBatchLocked([]ast.Statement{stmt})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// InsertRows bulk-loads pre-built rows (used by the TPC-H loader); values
// must already match the schema. The whole load and the catalog update are
// one batch.
func (db *DB) InsertRows(table string, rows []schema.Row) error {
	db.execMu.Lock()
	defer db.execMu.Unlock()
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	for ri, r := range rows {
		if len(r) != t.Sch.Len() {
			return fmt.Errorf("engine: row %d has %d values, want %d", ri, len(r), t.Sch.Len())
		}
	}
	return db.inBatch(func(b *batchCtx) error {
		sh, err := b.shadow(table)
		if err != nil {
			return err
		}
		return sh.heap.AppendAll(rows)
	})
}

func (db *DB) update(s *ast.Update) (*exec.Result, error) {
	return db.applyDML(s)
}

// buildUpdateRows computes the post-image row set of an UPDATE over t's
// current contents (which, inside a batch, include earlier staged writes).
func (db *DB) buildUpdateRows(t *Table, s *ast.Update) ([]schema.Row, int, error) {
	setIdx := map[int]ast.Expr{}
	for col, e := range s.Set {
		idx := t.Sch.IndexOf(col)
		if idx < 0 {
			return nil, 0, fmt.Errorf("engine: no column %q in %q", col, s.Table)
		}
		setIdx[idx] = e
	}
	var rows []schema.Row
	changed := 0
	err := t.heap.Scan(func(r schema.Row) error {
		match := true
		if s.Where != nil {
			v, err := evalRowPredicate(s.Where, t.Sch, r, db, db.meter)
			if err != nil {
				return err
			}
			match = v
		}
		if match {
			nr := r.Clone()
			for idx, e := range setIdx {
				v, err := evalRowExpr(e, t.Sch, r, db, db.meter)
				if err != nil {
					return err
				}
				cv, err := coerce(v, t.Sch.Columns[idx].Kind)
				if err != nil {
					return err
				}
				nr[idx] = cv
			}
			rows = append(rows, nr)
			changed++
		} else {
			rows = append(rows, r)
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return rows, changed, nil
}

func (db *DB) delete(s *ast.Delete) (*exec.Result, error) {
	return db.applyDML(s)
}

// buildDeleteRows computes the surviving row set of a DELETE.
func (db *DB) buildDeleteRows(t *Table, s *ast.Delete) ([]schema.Row, int, error) {
	var kept []schema.Row
	removed := 0
	err := t.heap.Scan(func(r schema.Row) error {
		match := true
		if s.Where != nil {
			v, err := evalRowPredicate(s.Where, t.Sch, r, db, db.meter)
			if err != nil {
				return err
			}
			match = v
		}
		if match {
			removed++
		} else {
			kept = append(kept, r)
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return kept, removed, nil
}

// evalConst evaluates an expression with no row context (INSERT values).
func evalConst(e ast.Expr) (value.Value, error) {
	sel := &ast.Select{Items: []ast.SelectItem{{Expr: e}}, Limit: -1}
	res, err := exec.Run(sel, emptyCatalog{}, nil)
	if err != nil {
		return value.Null(), err
	}
	return res.Rows[0][0], nil
}

// evalRowExpr evaluates an expression against one row of a table.
func evalRowExpr(e ast.Expr, sch *schema.Schema, row schema.Row, cat exec.Catalog, meter *simtime.Meter) (value.Value, error) {
	sel := &ast.Select{Items: []ast.SelectItem{{Expr: e}}, Limit: -1}
	env := &exec.Env{Sch: sch, Row: row}
	res, err := exec.RunWithEnv(sel, cat, meter, env)
	if err != nil {
		return value.Null(), err
	}
	return res.Rows[0][0], nil
}

// evalRowPredicate evaluates a WHERE predicate against one row.
func evalRowPredicate(e ast.Expr, sch *schema.Schema, row schema.Row, cat exec.Catalog, meter *simtime.Meter) (bool, error) {
	v, err := evalRowExpr(e, sch, row, cat, meter)
	if err != nil {
		return false, err
	}
	return !v.IsNull() && v.Kind() == value.KindBool && v.AsBool(), nil
}

type emptyCatalog struct{}

func (emptyCatalog) Relation(name string) (exec.Relation, error) {
	return nil, fmt.Errorf("engine: no table %q in constant context", name)
}
