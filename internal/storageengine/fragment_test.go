package storageengine

import (
	"bytes"
	"fmt"
	"net"
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
	"ironsafe/internal/transport"
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

// serveChannel connects a host end to s over net.Pipe, through ServeConn and
// a channel handshake, as a cluster's in-process channel is connected. The
// channel says goodbye and waits for ServeConn at cleanup.
func serveChannel(tb testing.TB, s *Server) *transport.SecureConn {
	tb.Helper()
	const session = "sess-channel"
	key := []byte("channel-key")
	s.InstallSessionKey(session, key)
	host, node := net.Pipe()
	served := make(chan struct{})
	go func() {
		s.ServeConn(node)
		close(served)
	}()
	if _, err := host.Write(append([]byte{byte(len(session))}, session...)); err != nil {
		tb.Fatal(err)
	}
	sc, err := transport.Client(host, key, nil)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		sc.Send("bye", nil)
		sc.Close()
		<-served
	})
	return sc
}

// offloadOver ships sql over sc and retains the reply, as the host does. It
// returns the result and the length of its serialization.
func offloadOver(sc *transport.SecureConn, sql string) (*exec.Result, int, error) {
	if err := sc.Send("offload", offloadFrame(sql)); err != nil {
		return nil, 0, err
	}
	typ, payload, err := sc.Recv()
	if err != nil {
		return nil, 0, err
	}
	if typ != "result" || len(payload) < 8 {
		return nil, 0, fmt.Errorf("reply %q of %d bytes: %s", typ, len(payload), payload)
	}
	res, err := exec.RetainResult(payload[8:])
	return res, len(payload) - 8, err
}

// TestRetainedRepliesOutliveLaterOffloads holds three replies of one channel
// — large, small, large — retained and unread until the last has arrived: the
// storage node reuses its reply and frame buffers for every reply, and each
// retained reply must still be its own bytes, the rows of the boxed execution.
func TestRetainedRepliesOutliveLaterOffloads(t *testing.T) {
	s, schemas := tpchServer(t, 0.002)
	ship := func(qn int, table string) string {
		for _, sh := range fragments(t, qn, schemas) {
			if sh.Table == table {
				return sh.SQL
			}
		}
		t.Fatalf("q%d ships no %s", qn, table)
		return ""
	}
	sc := serveChannel(t, s)
	sqls := []string{ship(21, "lineitem"), ship(21, "nation"), ship(18, "lineitem")}
	var held []*exec.Result
	for _, sql := range sqls {
		res, _, err := offloadOver(sc, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		held = append(held, res)
	}
	for i, sql := range sqls {
		want, err := s.DB().Execute(sql)
		if err != nil {
			t.Fatal(err)
		}
		got, err := held[i].Boxed()
		if err != nil || len(want.Rows) == 0 || !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("reply %d (%s): %d rows (%v), want the boxed execution's %d", i, sql, held[i].NumRows(), err, len(want.Rows))
		}
	}
}

// BenchmarkShipFragment times the storage side of the two largest shipments
// of the subquery workload — q21's and q18's lineitem fragments, SF 0.01,
// over a real secure store — from the statement to the reply bytes: boxed
// (engine.DB.Execute, then EncodeResult of the rows) against encoded
// (ExecFragment, whose result is the reply body already, released once
// encoded); and the whole reply path in the channel form: the offload frame
// over net.Pipe, ServeConn's execution and reply, Recv, RetainResult.
func BenchmarkShipFragment(b *testing.B) {
	s, schemas := tpchServer(b, 0.01)
	sc := serveChannel(b, s)
	for _, qn := range []int{21, 18} {
		var sql string
		for _, ship := range fragments(b, qn, schemas) {
			if ship.Table == "lineitem" {
				sql = ship.SQL
			}
		}
		for _, form := range []struct {
			name string
			ship func(string) (int, error) // the reply's length
		}{
			{"boxed", func(sql string) (int, error) {
				res, err := s.DB().Execute(sql)
				if err != nil {
					return 0, err
				}
				reply, err := exec.EncodeResult(res)
				return len(reply), err
			}},
			{"encoded", func(sql string) (int, error) {
				res, err := s.ExecFragment(sql)
				if err != nil {
					return 0, err
				}
				reply, err := exec.EncodeResult(res)
				res.Release()
				return len(reply), err
			}},
			{"channel", func(sql string) (int, error) {
				_, n, err := offloadOver(sc, sql)
				return n, err
			}},
		} {
			b.Run(fmt.Sprintf("q%d-lineitem-%s", qn, form.name), func(b *testing.B) {
				b.ReportAllocs()
				var n int
				for i := 0; i < b.N; i++ {
					var err error
					if n, err = form.ship(sql); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(n), "reply-bytes")
			})
		}
	}
}
