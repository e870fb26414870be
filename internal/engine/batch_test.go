package engine

import (
	"fmt"
	"testing"

	"ironsafe/internal/pager"
	"ironsafe/internal/schema"
	"ironsafe/internal/securestore"
	"ironsafe/internal/simtime"
	"ironsafe/internal/sql/ast"
	"ironsafe/internal/sql/parser"
	"ironsafe/internal/tee/trustzone"
	"ironsafe/internal/value"
)

// secureEnv is an engine over a secure store, for transaction-visible tests.
type secureEnv struct {
	dev   *pager.MemDevice
	nw    *trustzone.NormalWorld
	meter *simtime.Meter
	store *securestore.Store
	db    *DB
}

func newSecureEnv(t testing.TB) *secureEnv {
	t.Helper()
	vendor, err := trustzone.NewVendor("acme")
	if err != nil {
		t.Fatal(err)
	}
	device, err := trustzone.NewDevice("storage-01", vendor)
	if err != nil {
		t.Fatal(err)
	}
	atf := vendor.SignImage("atf", "2.4", []byte("atf"))
	tos := vendor.SignImage("optee", "3.4", []byte("optee"))
	nwImg := trustzone.FirmwareImage{Name: "nw", Version: "1.0", Code: []byte("storage stack")}
	var m simtime.Meter
	_, nw, err := device.Boot(atf, tos, nwImg, &m)
	if err != nil {
		t.Fatal(err)
	}
	dev := pager.NewMemDevice()
	store, err := securestore.Open(dev, nw, &m, securestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(store, &m)
	if err != nil {
		t.Fatal(err)
	}
	return &secureEnv{dev: dev, nw: nw, meter: &m, store: store, db: db}
}

func parseStmts(t *testing.T, sqls ...string) []ast.Statement {
	t.Helper()
	out := make([]ast.Statement, 0, len(sqls))
	for _, s := range sqls {
		stmt, err := parser.Parse(s)
		if err != nil {
			t.Fatalf("parse %s: %v", s, err)
		}
		out = append(out, stmt)
	}
	return out
}

func countRows(t *testing.T, db *DB, table string) int {
	t.Helper()
	tab, err := db.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	n, err := tab.Count()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestBatchOneCommitPerBatch: a batch of DML statements — including the
// catalog update — must advance the store's commit seq exactly once and
// meter exactly one RPMB write. This is the ingest acked-write contract's
// substrate: one group commit, one anchor advance, per coalesced batch.
func TestBatchOneCommitPerBatch(t *testing.T) {
	e := newSecureEnv(t)
	mustExec(t, e.db, "CREATE TABLE ev (id INTEGER, client TEXT, note TEXT)")

	stmts := parseStmts(t,
		"INSERT INTO ev (id, client, note) VALUES (1, 'a', 'x')",
		"INSERT INTO ev (id, client, note) VALUES (2, 'a', 'y'), (3, 'b', 'z')",
		"UPDATE ev SET note = 'w' WHERE id = 2",
		"DELETE FROM ev WHERE id = 1",
	)
	seq0 := e.store.Seq()
	rpmb0 := e.meter.Snapshot().RPMBWrites
	results, err := e.db.ExecuteBatch(stmts)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.store.Seq() - seq0; got != 1 {
		t.Errorf("batch advanced commit seq by %d, want 1", got)
	}
	if got := e.meter.Snapshot().RPMBWrites - rpmb0; got != 1 {
		t.Errorf("batch cost %d RPMB writes, want 1", got)
	}
	wantAffected := []int64{1, 2, 1, 1}
	for i, res := range results {
		if got := res.Rows[0][0].AsInt(); got != wantAffected[i] {
			t.Errorf("stmt %d affected %d, want %d", i, got, wantAffected[i])
		}
	}
	if n := countRows(t, e.db, "ev"); n != 2 {
		t.Errorf("ev has %d rows after batch, want 2", n)
	}
}

// TestBatchReadYourWrites: later statements in a batch must observe earlier
// staged writes — an UPDATE right after an INSERT in the same batch hits the
// freshly inserted row.
func TestBatchReadYourWrites(t *testing.T) {
	e := newSecureEnv(t)
	mustExec(t, e.db, "CREATE TABLE kv (k INTEGER, v TEXT)")

	stmts := parseStmts(t,
		"INSERT INTO kv (k, v) VALUES (1, 'orig')",
		"UPDATE kv SET v = 'patched' WHERE k = 1",
	)
	results, err := e.db.ExecuteBatch(stmts)
	if err != nil {
		t.Fatal(err)
	}
	if got := results[1].Rows[0][0].AsInt(); got != 1 {
		t.Fatalf("UPDATE in batch affected %d rows, want 1 (staged INSERT invisible?)", got)
	}
	res, err := e.db.Execute("SELECT v FROM kv WHERE k = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "patched" {
		t.Fatalf("got %v, want one row 'patched'", res.Rows)
	}
}

// TestBatchAbortLeavesStateUntouched: any statement failing aborts the whole
// batch — no rows, no catalog change, no commit seq advance.
func TestBatchAbortLeavesStateUntouched(t *testing.T) {
	e := newSecureEnv(t)
	mustExec(t, e.db, "CREATE TABLE ev (id INTEGER)")
	mustExec(t, e.db, "INSERT INTO ev (id) VALUES (1)")

	seq0 := e.store.Seq()
	stmts := parseStmts(t,
		"INSERT INTO ev (id) VALUES (2)",
		"INSERT INTO ev (bogus) VALUES (3)", // no such column
	)
	if _, err := e.db.ExecuteBatch(stmts); err == nil {
		t.Fatal("batch with bad statement succeeded")
	}
	if got := e.store.Seq(); got != seq0 {
		t.Errorf("aborted batch advanced seq %d -> %d", seq0, got)
	}
	if n := countRows(t, e.db, "ev"); n != 1 {
		t.Errorf("ev has %d rows after aborted batch, want 1", n)
	}
}

// TestBatchSurvivesReopen: the staged catalog must be the one recovery
// loads — after a batch commits, a fresh store+engine over the same medium
// sees exactly the batch's post-image.
func TestBatchSurvivesReopen(t *testing.T) {
	e := newSecureEnv(t)
	mustExec(t, e.db, "CREATE TABLE ev (id INTEGER, note TEXT)")
	stmts := parseStmts(t,
		"INSERT INTO ev (id, note) VALUES (1, 'a'), (2, 'b'), (3, 'c')",
		"DELETE FROM ev WHERE id = 2",
	)
	if _, err := e.db.ExecuteBatch(stmts); err != nil {
		t.Fatal(err)
	}

	store2, err := securestore.Open(e.dev, e.nw, e.meter, securestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db2, err := Open(store2, e.meter)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db2.Execute("SELECT id FROM ev ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for _, r := range res.Rows {
		got = append(got, r[0].AsInt())
	}
	if fmt.Sprint(got) != "[1 3]" {
		t.Fatalf("reopened ev ids = %v, want [1 3]", got)
	}
}

// TestSingleStatementOneCommit: the plain INSERT/UPDATE/DELETE paths ride
// the same machinery — heap mutation plus catalog in one commit, so a crash
// can never land between them (the old two-txn layout's torn-statement
// window).
func TestSingleStatementOneCommit(t *testing.T) {
	e := newSecureEnv(t)
	mustExec(t, e.db, "CREATE TABLE ev (id INTEGER)")

	for _, sql := range []string{
		"INSERT INTO ev (id) VALUES (1), (2), (3)",
		"UPDATE ev SET id = 9 WHERE id = 2",
		"DELETE FROM ev WHERE id = 3",
	} {
		seq0 := e.store.Seq()
		mustExec(t, e.db, sql)
		if got := e.store.Seq() - seq0; got != 1 {
			t.Errorf("%s advanced commit seq by %d, want 1", sql, got)
		}
	}
}

// TestBatchOnPlainStore: a non-transactional store degrades to sequential
// statement application with the same results.
func TestBatchOnPlainStore(t *testing.T) {
	var m simtime.Meter
	db, err := Open(pager.NewPager(pager.NewMemDevice(), &m, 16), &m)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE ev (id INTEGER)")
	stmts := parseStmts(t,
		"INSERT INTO ev (id) VALUES (1), (2)",
		"DELETE FROM ev WHERE id = 1",
	)
	if _, err := db.ExecuteBatch(stmts); err != nil {
		t.Fatal(err)
	}
	if n := countRows(t, db, "ev"); n != 1 {
		t.Errorf("ev has %d rows, want 1", n)
	}
}

// TestInsertRowsAtomic: the bulk loader path also lands rows + catalog in
// one commit.
func TestInsertRowsAtomic(t *testing.T) {
	e := newSecureEnv(t)
	mustExec(t, e.db, "CREATE TABLE ev (id INTEGER, v TEXT)")
	rows := []schema.Row{
		{value.Int(1), value.Str("a")},
		{value.Int(2), value.Str("b")},
	}
	seq0 := e.store.Seq()
	if err := e.db.InsertRows("ev", rows); err != nil {
		t.Fatal(err)
	}
	if got := e.store.Seq() - seq0; got != 1 {
		t.Errorf("InsertRows advanced commit seq by %d, want 1", got)
	}
	if n := countRows(t, e.db, "ev"); n != 2 {
		t.Errorf("ev has %d rows, want 2", n)
	}
}
