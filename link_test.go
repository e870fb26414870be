package ironsafe_test

import (
	"net"
	"runtime"
	"sync/atomic"
	"testing"

	"ironsafe"
	"ironsafe/internal/tpch"
)

// wireReads is the host side of a storage channel counting the bytes read
// off it.
type wireReads struct {
	net.Conn
	n *atomic.Int64
}

func (w wireReads) Read(b []byte) (int, error) {
	n, err := w.Conn.Read(b)
	w.n.Add(int64(n))
	return n, err
}

// TestLinkMetersMatchTheWire: both ends meter one link, so per query what
// storage sent is what the host received and the other way round, and what
// the host received is what it read off the channel. It runs on one P, where
// the storage side's goroutine lags the host's the most: a side that charged
// a frame only after its write returned would be caught with the frame
// delivered and not yet counted.
func TestLinkMetersMatchTheWire(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, mode := range []ironsafe.Mode{ironsafe.VanillaCS, ironsafe.IronSafe} {
		var read atomic.Int64
		c, err := ironsafe.NewCluster(ironsafe.Config{Mode: mode, ConnWrapper: func(_ string, conn net.Conn) net.Conn {
			return wireReads{Conn: conn, n: &read}
		}})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.LoadTPCHData(benchData); err != nil {
			t.Fatal(err)
		}
		if err := c.SetAccessPolicy("read :- sessionKeyIs(bench)"); err != nil {
			t.Fatal(err)
		}
		for _, qn := range tpch.EvaluatedQueries {
			before := read.Load()
			qr, err := c.NewSession("bench").Query(tpch.Queries[qn])
			if err != nil {
				t.Fatalf("%v q%d: %v", mode, qn, err)
			}
			h, s := qr.Stats.Host, qr.Stats.Storage
			if s.BytesSent != h.BytesReceived || h.BytesSent != s.BytesReceived {
				t.Errorf("%v q%d: storage sent %d B, host received %d B; host sent %d B, storage received %d B",
					mode, qn, s.BytesSent, h.BytesReceived, h.BytesSent, s.BytesReceived)
			}
			if wire := read.Load() - before; wire != h.BytesReceived {
				t.Errorf("%v q%d: host read %d B off the channel, metered %d B", mode, qn, wire, h.BytesReceived)
			}
		}
	}
}
