package storageengine

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ironsafe/internal/pager"
	"ironsafe/internal/partition"
	"ironsafe/internal/simtime"
	"ironsafe/internal/sql/exec"
	"ironsafe/internal/sql/parser"
	"ironsafe/internal/tee/trustzone"
	"ironsafe/internal/tpch"
)

// tpchServer is a secure storage server as a cluster configures one (batched
// page reads with read-ahead), loaded with TPC-H at sf, and the schemas the
// partitioner needs.
func tpchServer(t testing.TB, sf float64) (*Server, partition.SchemaMap) {
	t.Helper()
	vendor, err := trustzone.NewVendor("acme")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		DeviceID: "storage-01", Vendor: vendor, Location: "EU", FWVersion: "3.4",
		Secure: true, Meter: new(simtime.Meter),
		ScanConfig: pager.ScanConfig{BatchPages: 32, Prefetch: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tpch.Load(s.DB(), tpch.Generate(sf)); err != nil {
		t.Fatal(err)
	}
	schemas := partition.SchemaMap{}
	for _, name := range s.DB().TableNames() {
		tab, err := s.DB().Table(name)
		if err != nil {
			t.Fatal(err)
		}
		schemas[strings.ToLower(name)] = tab.Sch
	}
	return s, schemas
}

// fragments returns the offload statements of query qn.
func fragments(t testing.TB, qn int, schemas partition.SchemaMap) []partition.TableShip {
	t.Helper()
	sel, err := parser.ParseSelect(tpch.Queries[qn])
	if err != nil {
		t.Fatal(err)
	}
	split, err := partition.SplitQuery(sel, schemas)
	if err != nil {
		t.Fatal(err)
	}
	return split.Ships
}

// TestFragmentReplyBytes is the wire-compatibility gate of the encoded reply:
// for every fragment of every evaluated query, what ExecFragment hands the
// reply encoder — rows never boxed — serializes to exactly the bytes of the
// boxed execution of the same statement, costs exactly the same counters, and
// ExecOffload's rows are that execution's rows.
func TestFragmentReplyBytes(t *testing.T) {
	s, schemas := tpchServer(t, 0.002)
	encoded := 0
	for _, qn := range tpch.EvaluatedQueries {
		for _, ship := range fragments(t, qn, schemas) {
			base := s.cfg.Meter.Snapshot()
			boxed, err := s.DB().Execute(ship.SQL)
			if err != nil {
				t.Fatalf("q%d %s: %v", qn, ship.SQL, err)
			}
			boxedCost := s.cfg.Meter.Snapshot().Sub(base)
			base = s.cfg.Meter.Snapshot()
			frag, err := s.ExecFragment(ship.SQL)
			if err != nil {
				t.Fatalf("q%d %s: %v", qn, ship.SQL, err)
			}
			if cost := s.cfg.Meter.Snapshot().Sub(base); cost != boxedCost {
				t.Errorf("q%d %s: counters moved:\n  fragment: %+v\n  boxed:    %+v", qn, ship.SQL, cost, boxedCost)
			}
			want, err := exec.EncodeResult(boxed)
			if err != nil {
				t.Fatal(err)
			}
			got, err := exec.EncodeResult(frag)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("q%d %s: the reply is %d bytes, the boxed execution encodes to %d, or they differ", qn, ship.SQL, len(got), len(want))
			}
			if frag.NumRows() != len(boxed.Rows) {
				t.Errorf("q%d %s: %d rows, want %d", qn, ship.SQL, frag.NumRows(), len(boxed.Rows))
			}
			// Every fragment the partitioner writes is a bare shipment.
			if frag.NumRows() > 0 {
				if frag.Rows != nil {
					t.Errorf("q%d %s: the fragment boxed its rows", qn, ship.SQL)
				}
				encoded++
			}
			off, err := s.ExecOffload(ship.SQL)
			if err != nil || !reflect.DeepEqual(off.Rows, boxed.Rows) {
				t.Errorf("q%d %s: ExecOffload returns %d rows (%v), want %d", qn, ship.SQL, len(off.Rows), err, len(boxed.Rows))
			}
		}
	}
	if encoded == 0 {
		t.Error("no fragment took the encoded form")
	}
	// A statement that is not a shipment (the storage-only configuration
	// sends whole queries) comes back boxed from the same call.
	res, err := s.ExecFragment(tpch.Queries[6])
	if err != nil || len(res.Rows) != 1 {
		t.Errorf("q6 through ExecFragment: %v, %v", res, err)
	}
}

// BenchmarkShipFragment times the storage side of the two largest shipments
// of the subquery workload — q21's and q18's lineitem fragments, SF 0.01,
// over a real secure store — from the statement to the reply bytes: boxed
// (engine.DB.Execute, then EncodeResult of the rows) against encoded
// (ExecFragment, whose result is the reply body already).
func BenchmarkShipFragment(b *testing.B) {
	s, schemas := tpchServer(b, 0.01)
	for _, qn := range []int{21, 18} {
		var sql string
		for _, ship := range fragments(b, qn, schemas) {
			if ship.Table == "lineitem" {
				sql = ship.SQL
			}
		}
		for _, form := range []struct {
			name string
			run  func(string) (*exec.Result, error)
		}{
			{"boxed", s.DB().Execute},
			{"encoded", s.ExecFragment},
		} {
			b.Run(fmt.Sprintf("q%d-lineitem-%s", qn, form.name), func(b *testing.B) {
				b.ReportAllocs()
				var reply []byte
				for i := 0; i < b.N; i++ {
					res, err := form.run(sql)
					if err != nil {
						b.Fatal(err)
					}
					if reply, err = exec.EncodeResult(res); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(reply)), "reply-bytes")
			})
		}
	}
}
