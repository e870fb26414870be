package engine_test

import (
	"reflect"
	"testing"

	"ironsafe/internal/engine"
	"ironsafe/internal/pager"
	"ironsafe/internal/schema"
	"ironsafe/internal/securestore"
	"ironsafe/internal/simtime"
	"ironsafe/internal/sql/exec"
	"ironsafe/internal/sql/parser"
	"ironsafe/internal/tee/trustzone"
	"ironsafe/internal/tpch"
)

// secureDB opens an engine over a real secure store (TrustZone-derived keys,
// RPMB-anchored root) with the cluster's default scan pipeline.
func secureDB(tb testing.TB) *engine.DB {
	tb.Helper()
	vendor, err := trustzone.NewVendor("acme")
	if err != nil {
		tb.Fatal(err)
	}
	device, err := trustzone.NewDevice("storage-01", vendor)
	if err != nil {
		tb.Fatal(err)
	}
	atf := vendor.SignImage("atf", "2.4", []byte("atf"))
	tos := vendor.SignImage("optee", "3.4", []byte("optee"))
	nwImg := trustzone.FirmwareImage{Name: "nw", Version: "1.0", Code: []byte("storage stack")}
	var m simtime.Meter
	_, nw, err := device.Boot(atf, tos, nwImg, &m)
	if err != nil {
		tb.Fatal(err)
	}
	store, err := securestore.Open(pager.NewMemDevice(), nw, &m, securestore.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	db, err := engine.Open(store, &m)
	if err != nil {
		tb.Fatal(err)
	}
	db.SetScanConfig(pager.ScanConfig{BatchPages: 32, Prefetch: 2})
	return db
}

// TestScanBatchWindows pins Table.ScanBatch's contract beside the in-memory
// bridge's (exec.TestScanBatchWindows): windows of exactly the requested size
// with a short tail, 0 meaning exec.DefaultBatchRows, page-backed batches
// carrying the table schema, and rows equal to Table.Scan's.
func TestScanBatchWindows(t *testing.T) {
	db := secureDB(t)
	if err := tpch.Load(db, tpch.Generate(0.002)); err != nil {
		t.Fatal(err)
	}
	tab, err := db.Table("orders") // 3000 rows
	if err != nil {
		t.Fatal(err)
	}
	var want []schema.Row
	if err := tab.Scan(func(r schema.Row) error {
		want = append(want, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ batchRows, full int }{
		{0, exec.DefaultBatchRows},
		{-5, exec.DefaultBatchRows},
		{1, 1},
		{7, 7},
		{1000, 1000},
		{len(want), len(want)},
	} {
		var got []schema.Row
		var lens []int
		err := tab.ScanBatch(tc.batchRows, func(bt *exec.Batch) error {
			if bt.Sch != tab.Sch {
				t.Error("batch schema is not the table schema")
			}
			if bt.Rows != nil {
				t.Error("a stored table delivered boxed rows")
			}
			lens = append(lens, bt.Len())
			sel := make([]int, bt.Len())
			for i := range sel {
				sel[i] = i
			}
			got = bt.AppendRows(got, sel, nil)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("batchRows=%d: rows differ from Table.Scan", tc.batchRows)
		}
		for i, n := range lens {
			if last := i == len(lens)-1; (!last && n != tc.full) || n > tc.full || n == 0 {
				t.Errorf("batchRows=%d: window lengths %v, want %d-row windows", tc.batchRows, lens, tc.full)
				break
			}
		}
	}
}

// BenchmarkTableScan times a storage-side scan of lineitem (SF 0.01, ~60 k
// rows over ~2 100 encrypted pages) the three ways the offloaded fragments use
// it: every column of every row boxed (q21's SELECT *), four columns boxed,
// and q6's fragment — the same four columns behind its pushed-down predicate.
// Page decryption and Merkle verification are the same in all three; the
// difference is what the late-materializing scan does not decode or box.
func BenchmarkTableScan(b *testing.B) {
	db := secureDB(b)
	if err := tpch.Load(db, tpch.Generate(0.01)); err != nil {
		b.Fatal(err)
	}
	const four = "SELECT l_discount, l_extendedprice, l_quantity, l_shipdate FROM lineitem"
	for _, bc := range []struct{ name, sql string }{
		{"all-columns", "SELECT * FROM lineitem"},
		{"4-columns", four},
		{"4-columns+q6-predicate", four + " WHERE l_shipdate >= date '1994-01-01' AND l_shipdate < date '1994-01-01' + interval '1' year AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24"},
	} {
		stmt, err := parser.Parse(bc.sql)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			rows := 0
			for i := 0; i < b.N; i++ {
				res, err := db.ExecuteStmt(stmt)
				if err != nil {
					b.Fatal(err)
				}
				rows = len(res.Rows)
			}
			b.ReportMetric(float64(rows), "rows/op")
		})
	}
}
