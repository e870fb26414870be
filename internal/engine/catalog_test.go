package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"ironsafe/internal/pager"
	"ironsafe/internal/schema"
	"ironsafe/internal/securestore"
	"ironsafe/internal/simtime"
	"ironsafe/internal/sql/ast"
	"ironsafe/internal/sql/parser"
	"ironsafe/internal/value"
)

// countingStore records which pages are written or allocated, through the
// store itself or through a transaction of it, since the last reset.
type countingStore struct {
	pager.PageStore
	staged map[uint32]bool
}

func (c *countingStore) WritePage(idx uint32, data []byte) error {
	c.staged[idx] = true
	return c.PageStore.WritePage(idx, data)
}

func (c *countingStore) Allocate() (uint32, error) {
	idx, err := c.PageStore.Allocate()
	if err == nil {
		c.staged[idx] = true
	}
	return idx, err
}

// take returns the pages staged since the last call, sorted.
func (c *countingStore) take() []uint32 {
	out := make([]uint32, 0, len(c.staged))
	for idx := range c.staged {
		out = append(out, idx)
	}
	slices.Sort(out)
	c.staged = map[uint32]bool{}
	return out
}

// countingTxnStore is a countingStore over a transactional store: the
// pages its transactions stage are counted too.
type countingTxnStore struct {
	*countingStore
	ts pager.TxnStore
}

func (c countingTxnStore) BeginTxn() pager.StoreTxn {
	return &countingTxn{StoreTxn: c.ts.BeginTxn(), c: c.countingStore}
}

type countingTxn struct {
	pager.StoreTxn
	c *countingStore
}

func (t *countingTxn) WritePage(idx uint32, data []byte) error {
	t.c.staged[idx] = true
	return t.StoreTxn.WritePage(idx, data)
}

func (t *countingTxn) Allocate() (uint32, error) {
	idx, err := t.StoreTxn.Allocate()
	if err == nil {
		t.c.staged[idx] = true
	}
	return idx, err
}

// dumpTables renders every table's rows, in heap order, by table name.
func dumpTables(t *testing.T, db *DB) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	for _, name := range db.TableNames() {
		tab, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		rows := []string{}
		if err := tab.Scan(func(r schema.Row) error {
			rows = append(rows, fmt.Sprint(r))
			return nil
		}); err != nil {
			t.Fatalf("scanning %s: %v", name, err)
		}
		out[strings.ToLower(name)] = rows
	}
	return out
}

// steadyInsertHarness is one store kind under TestSteadyInsertWritesOnePage.
type steadyInsertHarness struct {
	db     *DB
	count  *countingStore
	reopen func() *DB // a second engine over what the medium holds now
}

func secureHarness(t *testing.T) *steadyInsertHarness {
	e := newSecureEnv(t)
	count := &countingStore{PageStore: e.store, staged: map[uint32]bool{}}
	db, err := Open(countingTxnStore{countingStore: count, ts: e.store}, e.meter)
	if err != nil {
		t.Fatal(err)
	}
	return &steadyInsertHarness{db: db, count: count, reopen: func() *DB {
		s2, err := securestore.Open(e.dev, e.nw, e.meter, securestore.Options{})
		if err != nil {
			t.Fatalf("reopening the secure store: %v", err)
		}
		db2, err := Open(s2, e.meter)
		if err != nil {
			t.Fatalf("reopening the database: %v", err)
		}
		return db2
	}}
}

func plainHarness(t *testing.T) *steadyInsertHarness {
	dev := pager.NewMemDevice()
	var m simtime.Meter
	store := pager.NewPager(dev, &m, 16)
	count := &countingStore{PageStore: store, staged: map[uint32]bool{}}
	db, err := Open(countingTxnStore{countingStore: count, ts: store}, &m)
	if err != nil {
		t.Fatal(err)
	}
	return &steadyInsertHarness{db: db, count: count, reopen: func() *DB {
		db2, err := Open(pager.NewPager(dev, &m, 0), &m)
		if err != nil {
			t.Fatalf("reopening the database: %v", err)
		}
		return db2
	}}
}

// TestSteadyInsertWritesOnePage is the guard on what a commit pays for: an
// INSERT into a page with room stages that page and nothing else — no catalog
// generation, no growth of the store — while every statement that changes
// what the catalog records (a page list moved by a filling INSERT, an UPDATE
// or a DELETE; a table created or dropped) still persists it. After every
// statement a second engine opened over the medium must hold the same rows
// in every table.
func TestSteadyInsertWritesOnePage(t *testing.T) {
	for _, kind := range []struct {
		name string
		open func(*testing.T) *steadyInsertHarness
	}{{"secure", secureHarness}, {"plain", plainHarness}} {
		t.Run(kind.name, func(t *testing.T) {
			h := kind.open(t)
			exec := func(sql string) []uint32 {
				t.Helper()
				h.count.take()
				mustExec(t, h.db, sql)
				staged := h.count.take()
				if got, want := dumpTables(t, h.reopen()), dumpTables(t, h.db); !reflect.DeepEqual(got, want) {
					t.Fatalf("after %q the reopened database holds %v, the live one %v", sql, got, want)
				}
				return staged
			}
			catalogWritten := func(staged []uint32) bool { return slices.Contains(staged, 0) }

			if staged := exec("CREATE TABLE ev (id INTEGER, client TEXT)"); !catalogWritten(staged) {
				t.Fatalf("CREATE staged %v: no catalog root", staged)
			}
			if staged := exec("CREATE TABLE other (k INTEGER)"); !catalogWritten(staged) {
				t.Fatalf("second CREATE staged %v: no catalog root", staged)
			}
			exec("INSERT INTO other (k) VALUES (7), (8)")
			if staged := exec("INSERT INTO ev (id, client) VALUES (0, 'c0')"); !catalogWritten(staged) {
				t.Fatalf("the INSERT that gives ev its first page staged %v: no catalog root", staged)
			}
			ev, err := h.db.Table("ev")
			if err != nil {
				t.Fatal(err)
			}
			tail := ev.heap.Pages()[0]

			// A page with room: one staged page per INSERT, the store as large
			// as it was.
			pages := h.db.store.NumPages()
			for i := 1; i <= 100; i++ {
				staged := exec(fmt.Sprintf("INSERT INTO ev (id, client) VALUES (%d, 'c%d')", i, i%3))
				if !slices.Equal(staged, []uint32{tail}) {
					t.Fatalf("insert %d staged pages %v, want only the tail page %d", i, staged, tail)
				}
				if got := h.db.store.NumPages(); got != pages {
					t.Fatalf("insert %d grew the store from %d to %d pages", i, pages, got)
				}
			}

			// The INSERT that fills the page: the new data page and one catalog
			// generation (one catalog page, then the root).
			filled := false
			for i := 101; i < 2000 && !filled; i++ {
				staged := exec(fmt.Sprintf("INSERT INTO ev (id, client) VALUES (%d, 'c%d')", i, i%3))
				if ev.heap.NumPages() == 1 {
					if !slices.Equal(staged, []uint32{tail}) {
						t.Fatalf("insert %d staged pages %v, want only the tail page %d", i, staged, tail)
					}
					continue
				}
				filled = true
				newPage := ev.heap.Pages()[1]
				want := []uint32{0, tail, newPage, newPage + 1} // root, flushed old tail, new tail, catalog page
				if !slices.Equal(staged, want) {
					t.Fatalf("the filling insert staged %v, want %v", staged, want)
				}
				if got := h.db.store.NumPages(); got != pages+2 {
					t.Fatalf("the filling insert grew the store from %d to %d pages, want %d", pages, got, pages+2)
				}
			}
			if !filled {
				t.Fatal("the tail page never filled")
			}

			// Statements that move a page list, or the table set.
			for _, sql := range []string{
				"UPDATE ev SET client = 'moved' WHERE id = 3",
				"DELETE FROM ev WHERE id > 50",
				"DROP TABLE other",
				"CREATE TABLE third (k INTEGER)",
			} {
				if staged := exec(sql); !catalogWritten(staged) {
					t.Fatalf("%q staged %v: no catalog root", sql, staged)
				}
			}
			// And the steady state returns on the rewritten heap.
			exec("INSERT INTO ev (id, client) VALUES (9000, 'c')")
			pages = h.db.store.NumPages()
			if staged := exec("INSERT INTO ev (id, client) VALUES (9001, 'c')"); len(staged) != 1 || catalogWritten(staged) {
				t.Fatalf("an insert after the rewrites staged %v, want one data page", staged)
			}
			if got := h.db.store.NumPages(); got != pages {
				t.Fatalf("an insert after the rewrites grew the store from %d to %d pages", pages, got)
			}
		})
	}
}

// TestEmptyBatchStillCommitsOnce: the ingest pipeline counts store commits to
// tell which batches a recovered node holds, so a batch that stages no page —
// a DELETE over an empty table — is still exactly one commit.
func TestEmptyBatchStillCommitsOnce(t *testing.T) {
	e := newSecureEnv(t)
	mustExec(t, e.db, "CREATE TABLE ev (id INTEGER)")
	for _, stmts := range [][]ast.Statement{
		parseStmts(t, "DELETE FROM ev WHERE id = 1"),
		parseStmts(t, "UPDATE ev SET id = 2 WHERE id = 1"),
		nil,
	} {
		seq0 := e.store.Seq()
		if _, err := e.db.ExecuteBatch(stmts); err != nil {
			t.Fatal(err)
		}
		if got := e.store.Seq() - seq0; got != 1 {
			t.Errorf("a batch that changed nothing advanced the commit seq by %d, want 1", got)
		}
	}
}

// forgedRootDevice is a plain medium holding a small database whose root page
// is then replaced: such a store authenticates nothing it reads.
func forgedRootDevice(tb testing.TB, root []byte) *pager.MemDevice {
	tb.Helper()
	dev := pager.NewMemDevice()
	var m simtime.Meter
	db, err := Open(pager.NewPager(dev, &m, 0), &m)
	if err != nil {
		tb.Fatal(err)
	}
	for _, sql := range []string{"CREATE TABLE t (a INTEGER)", "INSERT INTO t VALUES (1)"} {
		if _, err := db.Execute(sql); err != nil {
			tb.Fatal(err)
		}
	}
	if root != nil {
		if err := dev.WriteBlock(0, root); err != nil {
			tb.Fatal(err)
		}
	}
	return dev
}

func catalogRoot(length, npages uint32, ids ...uint32) []byte {
	root := make([]byte, pager.PageSize)
	binary.LittleEndian.PutUint32(root[0:4], length)
	binary.LittleEndian.PutUint32(root[4:8], npages)
	for i, id := range ids {
		binary.LittleEndian.PutUint32(root[8+4*i:], id)
	}
	return root
}

// TestForgedCatalogRootRejected: a root page claiming more catalog pages than
// a root can list, more bytes than its pages hold, or cut short, is refused
// with ErrCatalogCorrupt — Open used to slice past the page and panic.
func TestForgedCatalogRootRejected(t *testing.T) {
	for name, root := range map[string][]byte{
		"5000 catalog pages":       catalogRoot(100, 5000),
		"one more than fits":       catalogRoot(100, catalogPagesMax+1),
		"more bytes than pages":    catalogRoot(pager.PageSize+1, 1, 1),
		"bytes without pages":      catalogRoot(1, 0),
		"root block cut short":     catalogRoot(100, 1, 1)[:6],
		"root block an empty blob": {},
	} {
		t.Run(name, func(t *testing.T) {
			var m simtime.Meter
			_, err := Open(pager.NewPager(forgedRootDevice(t, root), &m, 0), &m)
			if !errors.Is(err, ErrCatalogCorrupt) {
				t.Fatalf("Open over a forged root: %v, want ErrCatalogCorrupt", err)
			}
		})
	}
}

// FuzzCatalogRoot: whatever the root page of an unauthenticated medium holds,
// Open returns — a database or an error — and a database it returns answers
// for every table it lists.
func FuzzCatalogRoot(f *testing.F) {
	good, err := forgedRootDevice(f, nil).ReadBlock(0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(catalogRoot(100, 5000))
	f.Add(catalogRoot(pager.PageSize+1, 1, 1))
	f.Add(catalogRoot(16, 2, 1, 1))
	f.Add([]byte{1, 0, 0})
	f.Fuzz(func(t *testing.T, root []byte) {
		var m simtime.Meter
		db, err := Open(pager.NewPager(forgedRootDevice(t, root), &m, 0), &m)
		if err != nil {
			return
		}
		names := db.TableNames()
		sort.Strings(names)
		for _, name := range names {
			if _, err := db.Table(name); err != nil {
				t.Fatalf("listed table %q: %v", name, err)
			}
		}
	})
}

// BenchmarkInsertAck is what one acknowledged ingest record costs below the
// monitor: ExecuteBatch of one single-row INSERT over a secure store that
// already holds a bulk table — shadow heap, one sealed page, one journal
// record, the Merkle path, one anchor advance.
func BenchmarkInsertAck(b *testing.B) {
	benchInsertAck(b, newSecureEnv(b).db)
}

// BenchmarkInsertAckPlain is BenchmarkInsertAck over the plain pager: the
// batch's one page is staged by the pager and written at commit.
func BenchmarkInsertAckPlain(b *testing.B) {
	var m simtime.Meter
	db, err := Open(pager.NewPager(pager.NewMemDevice(), &m, 256), &m)
	if err != nil {
		b.Fatal(err)
	}
	benchInsertAck(b, db)
}

func benchInsertAck(b *testing.B, db *DB) {
	for _, sql := range []string{
		"CREATE TABLE bulk (id INTEGER, pad TEXT)",
		"CREATE TABLE events (id INTEGER, client TEXT, payload TEXT)",
	} {
		if _, err := db.Execute(sql); err != nil {
			b.Fatal(err)
		}
	}
	rows := make([]schema.Row, 20000)
	for i := range rows {
		rows[i] = schema.Row{value.Int(int64(i)), value.Str(strings.Repeat("x", 100))}
	}
	if err := db.InsertRows("bulk", rows); err != nil {
		b.Fatal(err)
	}
	stmts := make([][]ast.Statement, 64)
	for i := range stmts {
		stmt, err := parser.Parse(fmt.Sprintf("INSERT INTO events (id, client, payload) VALUES (%d, 'c%d', 'payload-%08d')", i, i%4, i))
		if err != nil {
			b.Fatal(err)
		}
		stmts[i] = []ast.Statement{stmt}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.ExecuteBatch(stmts[i%len(stmts)]); err != nil {
			b.Fatal(err)
		}
	}
}
