package engine

import (
	"fmt"
	"strings"

	"ironsafe/internal/pager"
	"ironsafe/internal/sql/ast"
	"ironsafe/internal/sql/exec"
)

// This file implements the engine's one write path. Every DDL and DML
// statement, every ExecuteBatch and every bulk load is one batch: its heap
// writes and its catalog update land in ONE store transaction, and a failure
// anywhere aborts the whole batch. On the secure store — bare, or inside the
// hos enclave (hostengine.EnclavePageStore) — the transaction is one journal
// record and one anchor advance, so a crash recovers to the whole-batch
// boundary too; on the plain pager, which stages its pages and writes them
// at commit, it is all or nothing against an abort, not against a crash.

// overlayStore is a PageStore view of a store with an open transaction
// layered on top: writes stage into the transaction, reads see staged pages
// first (read-your-writes), and everything else falls through to the base
// store. The batch's heaps run over it, so their writes reach the store only
// when the batch commits.
type overlayStore struct {
	base   pager.PageStore
	txn    pager.StoreTxn
	staged map[uint32][]byte // nil for a page allocated and not yet written
	max    uint32            // one past the highest staged/allocated page
}

func newOverlay(base pager.PageStore, txn pager.StoreTxn) *overlayStore {
	return &overlayStore{base: base, txn: txn, staged: map[uint32][]byte{}, max: base.NumPages()}
}

// ReadPage implements pager.PageStore with read-your-writes semantics.
func (o *overlayStore) ReadPage(idx uint32) ([]byte, error) {
	if b, ok := o.staged[idx]; ok {
		out := make([]byte, pager.PageSize)
		copy(out, b)
		return out, nil
	}
	return o.base.ReadPage(idx)
}

// ReadPages implements pager.PageStore; per-page semantics match ReadPage.
func (o *overlayStore) ReadPages(idxs []uint32) ([][]byte, error) {
	out := make([][]byte, len(idxs))
	for i, idx := range idxs {
		b, err := o.ReadPage(idx)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// WritePage stages a page write into the transaction. The overlay's private
// copy of the page is the one it hands the transaction, which may keep it.
func (o *overlayStore) WritePage(idx uint32, data []byte) error {
	if len(data) > pager.PageSize {
		return fmt.Errorf("engine: page write of %d bytes exceeds page size", len(data))
	}
	buf := make([]byte, pager.PageSize)
	copy(buf, data)
	if err := o.txn.WritePage(idx, buf); err != nil {
		return err
	}
	o.staged[idx] = buf
	if idx+1 > o.max {
		o.max = idx + 1
	}
	return nil
}

// Allocate reserves a fresh page through the transaction.
func (o *overlayStore) Allocate() (uint32, error) {
	idx, err := o.txn.Allocate()
	if err != nil {
		return 0, err
	}
	o.staged[idx] = nil
	if idx+1 > o.max {
		o.max = idx + 1
	}
	return idx, nil
}

// NumPages implements pager.PageStore.
func (o *overlayStore) NumPages() uint32 { return o.max }

// batchCtx is one open atomic batch: an overlay store plus shadow tables.
// Statement execution mutates only the shadows; commit persists the catalog
// into the same transaction when the batch changed it, commits, and installs
// the shadows into the live catalog. Abort leaves the database untouched.
type batchCtx struct {
	db      *DB
	ov      *overlayStore
	txn     pager.StoreTxn
	shadows map[string]*Table
	dropped map[string]bool
	created map[string]bool
	catalog []*Table // the catalog this batch staged; nil when the store's already holds it
}

func (db *DB) newBatch() *batchCtx {
	txn := db.store.BeginTxn()
	return &batchCtx{
		db:      db,
		ov:      newOverlay(db.store, txn),
		txn:     txn,
		shadows: map[string]*Table{},
		dropped: map[string]bool{},
		created: map[string]bool{},
	}
}

// shadow returns the batch-local view of a table, cloning it from the live
// catalog on first touch. The shadow's heap runs over the overlay store, so
// statements in the batch read their predecessors' staged writes.
func (b *batchCtx) shadow(name string) (*Table, error) {
	key := strings.ToLower(name)
	if b.dropped[key] {
		return nil, fmt.Errorf("engine: no such table %q", name)
	}
	if t, ok := b.shadows[key]; ok {
		return t, nil
	}
	real, err := b.db.Table(name)
	if err != nil {
		return nil, err
	}
	heap := pager.OpenHeapFile(b.ov, real.heap.Pages())
	sh := &Table{Name: real.Name, Sch: real.Sch, heap: heap, db: b.db}
	b.shadows[key] = sh
	return sh, nil
}

// inBatch runs fn against a new batch and commits the batch, or aborts it
// when fn fails. The caller must hold db.execMu exclusively.
func (db *DB) inBatch(fn func(*batchCtx) error) error {
	b := db.newBatch()
	if err := fn(b); err != nil {
		b.abort()
		return err
	}
	return b.commit()
}

// abort discards the batch.
func (b *batchCtx) abort() { b.txn.Abort() }

// commit persists the catalog into the transaction, commits it atomically,
// and installs the shadow tables into the live catalog. The caller must hold
// db.execMu exclusively.
func (b *batchCtx) commit() error {
	if err := b.persistCatalog(); err != nil {
		b.abort()
		return err
	}
	if err := b.txn.Commit(); err != nil {
		return err
	}
	b.db.mu.Lock()
	defer b.db.mu.Unlock()
	if b.catalog != nil {
		b.db.noteCatalog(b.catalog)
	}
	for key := range b.dropped {
		delete(b.db.tables, key)
	}
	for key, sh := range b.shadows {
		if b.dropped[key] {
			continue
		}
		heap := pager.OpenHeapFile(b.db.store, sh.heap.Pages())
		heap.SetScanConfig(b.db.scanCfg)
		if real, ok := b.db.tables[key]; ok {
			real.heap = heap
			real.Sch = sh.Sch
		} else {
			b.db.tables[key] = &Table{Name: sh.Name, Sch: sh.Sch, heap: heap, db: b.db}
		}
	}
	return nil
}

// persistCatalog writes the catalog as it will look after the batch —
// shadow page lists where touched, live ones elsewhere, dropped tables
// omitted — through the batch transaction, unless the store's catalog holds
// exactly that already. A batch that staged no page at all persists it
// regardless: every batch is one store commit, which is what the ingest
// pipeline's sequence arithmetic counts.
func (b *batchCtx) persistCatalog() error {
	b.db.mu.RLock()
	tables := make([]*Table, 0, len(b.db.tables)+len(b.created))
	seen := map[string]bool{}
	for key, t := range b.db.tables {
		if b.dropped[key] {
			continue
		}
		if sh, ok := b.shadows[key]; ok {
			tables = append(tables, sh)
		} else {
			tables = append(tables, t)
		}
		seen[key] = true
	}
	for key, sh := range b.shadows {
		if !seen[key] && !b.dropped[key] {
			tables = append(tables, sh)
		}
	}
	held := b.db.catalogHolds(tables)
	b.db.mu.RUnlock()
	if held && len(b.ov.staged) > 0 {
		return nil
	}
	b.catalog = tables
	return writeCatalog(b.ov, tables)
}

// ExecuteBatch applies a sequence of DML statements (INSERT/UPDATE/DELETE)
// as one batch: every statement and the catalog update commit as one store
// transaction (on the secure store exactly one journal record and one RPMB
// advance), and on error nothing is applied. This is the ingest coalescer's
// substrate: the commit seq that anchored the batch is the store's Seq()
// after a successful call.
func (db *DB) ExecuteBatch(stmts []ast.Statement) ([]*exec.Result, error) {
	db.execMu.Lock()
	defer db.execMu.Unlock()
	return db.executeBatchLocked(stmts)
}

func (db *DB) executeBatchLocked(stmts []ast.Statement) ([]*exec.Result, error) {
	results := make([]*exec.Result, 0, len(stmts))
	err := db.inBatch(func(b *batchCtx) error {
		for _, stmt := range stmts {
			res, err := db.applyStaged(b, stmt)
			if err != nil {
				return err
			}
			results = append(results, res)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// applyStaged executes one DML statement against the batch's shadows.
func (db *DB) applyStaged(b *batchCtx, stmt ast.Statement) (*exec.Result, error) {
	switch s := stmt.(type) {
	case *ast.Insert:
		t, err := b.shadow(s.Table)
		if err != nil {
			return nil, err
		}
		rows, err := db.buildInsertRows(t, s)
		if err != nil {
			return nil, err
		}
		if err := t.heap.AppendAll(rows); err != nil {
			return nil, err
		}
		return affected(len(rows)), nil
	case *ast.Update:
		t, err := b.shadow(s.Table)
		if err != nil {
			return nil, err
		}
		rows, changed, err := db.buildUpdateRows(t, s)
		if err != nil {
			return nil, err
		}
		if err := t.heap.Rewrite(rows); err != nil {
			return nil, err
		}
		return affected(changed), nil
	case *ast.Delete:
		t, err := b.shadow(s.Table)
		if err != nil {
			return nil, err
		}
		kept, removed, err := db.buildDeleteRows(t, s)
		if err != nil {
			return nil, err
		}
		if err := t.heap.Rewrite(kept); err != nil {
			return nil, err
		}
		return affected(removed), nil
	default:
		return nil, fmt.Errorf("engine: only INSERT/UPDATE/DELETE allowed in a batch, got %T", stmt)
	}
}
