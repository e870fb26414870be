package storageengine

import (
	"encoding/binary"
	"net"
	"strings"
	"testing"

	"ironsafe/internal/simtime"
	"ironsafe/internal/tee/trustzone"
	"ironsafe/internal/transport"
)

// offloadFrame builds an unbudgeted offload payload (see Serve's protocol
// doc: 8-byte budget prefix, 2^64-1 = unbudgeted, then the SQL).
func offloadFrame(sql string) []byte {
	frame := make([]byte, 8, 8+len(sql))
	binary.LittleEndian.PutUint64(frame, ^uint64(0))
	return append(frame, sql...)
}

func newServer(t *testing.T, secure bool) (*Server, *simtime.Meter) {
	t.Helper()
	vendor, err := trustzone.NewVendor("acme")
	if err != nil {
		t.Fatal(err)
	}
	var m simtime.Meter
	s, err := New(Config{
		DeviceID: "storage-01", Vendor: vendor,
		Location: "EU", FWVersion: "3.4",
		Secure: secure, Meter: &m,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, &m
}

func seed(t *testing.T, s *Server) {
	t.Helper()
	if _, err := s.DB().Execute("CREATE TABLE t (a INTEGER, b VARCHAR(16))"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DB().Execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')"); err != nil {
		t.Fatal(err)
	}
}

func TestNewRequiresMeterAndVendor(t *testing.T) {
	vendor, _ := trustzone.NewVendor("v")
	if _, err := New(Config{Vendor: vendor}); err == nil {
		t.Error("nil meter accepted")
	}
	var m simtime.Meter
	if _, err := New(Config{Meter: &m}); err == nil {
		t.Error("nil vendor accepted")
	}
}

func TestExecOffloadSecure(t *testing.T) {
	s, m := newServer(t, true)
	seed(t, s)
	base := m.Snapshot()
	res, err := s.ExecOffload("SELECT a FROM t WHERE a > 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
	d := m.Snapshot().Sub(base)
	if d.PagesDecrypted == 0 || d.MerkleVerifies == 0 {
		t.Errorf("secure offload did not touch secure store: %+v", d)
	}
}

func TestExecOffloadVanillaSkipsCrypto(t *testing.T) {
	s, m := newServer(t, false)
	seed(t, s)
	base := m.Snapshot()
	if _, err := s.ExecOffload("SELECT a FROM t"); err != nil {
		t.Fatal(err)
	}
	d := m.Snapshot().Sub(base)
	if d.PagesDecrypted != 0 || d.MerkleVerifies != 0 {
		t.Errorf("vanilla offload paid crypto: %+v", d)
	}
}

func TestAttestationWorks(t *testing.T) {
	s, _ := newServer(t, true)
	report, err := s.Attest([]byte("challenge"))
	if err != nil {
		t.Fatal(err)
	}
	if report.NormalWorld != s.NormalWorldMeasurement() {
		t.Error("report measurement mismatch")
	}
}

func TestSessionKeyLifecycle(t *testing.T) {
	s, _ := newServer(t, false)
	s.InstallSessionKey("sess-1", []byte("k"))
	if k, ok := s.sessionKey("sess-1"); !ok || string(k) != "k" {
		t.Error("key not installed")
	}
	s.RevokeSessionKey("sess-1")
	if _, ok := s.sessionKey("sess-1"); ok {
		t.Error("key not revoked")
	}
}

// TestRestartForgetsVolatileSecrets: what the node held in memory alone — the
// session keys the monitor installed, the resumption tickets of the channels
// it served — does not survive a reboot. A host that resumes against the
// rebooted node fails its handshake; one that starts over, under a key
// installed since, gets its channel.
func TestRestartForgetsVolatileSecrets(t *testing.T) {
	s, _ := newServer(t, true)
	seed(t, s)
	key := []byte("monitor-issued-key")
	host := transport.NewTicketStore()
	dial := func() error {
		hostSide, storageSide := net.Pipe()
		defer hostSide.Close()
		served := make(chan struct{})
		go func() {
			defer close(served)
			s.ServeConn(storageSide)
		}()
		defer func() { <-served }()
		if _, err := hostSide.Write(append([]byte{byte(len("sess-1"))}, "sess-1"...)); err != nil {
			return err
		}
		sc, err := transport.ClientResuming(hostSide, key, nil, host, "storage-01")
		if err != nil {
			hostSide.Close()
			return err
		}
		return sc.Send("bye", nil)
	}
	s.InstallSessionKey("sess-1", key)
	for i := 0; i < 2; i++ {
		if err := dial(); err != nil {
			t.Fatalf("channel %d: %v", i, err)
		}
	}
	if full, resumed := host.Exchanges(); full != 1 || resumed != 1 {
		t.Fatalf("before the reboot: %d full / %d resumed handshakes, want 1 / 1", full, resumed)
	}

	if err := s.Restart(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.sessionKey("sess-1"); ok {
		t.Fatal("a session key survived the reboot")
	}
	s.InstallSessionKey("sess-1", key)
	if err := dial(); err == nil {
		t.Fatal("a ticket survived the reboot: the host resumed")
	}
	if err := dial(); err != nil {
		t.Fatalf("full exchange after the reboot: %v", err)
	}
	if full, resumed := host.Exchanges(); full != 2 || resumed != 2 {
		t.Fatalf("after the reboot: %d full / %d resumed handshakes, want 2 / 2", full, resumed)
	}
}

func TestServeOffloadOverTCP(t *testing.T) {
	s, _ := newServer(t, true)
	seed(t, s)
	s.InstallSessionKey("sess-9", []byte("monitor-issued-key"))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go s.Serve(ln)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write(append([]byte{byte(len("sess-9"))}, "sess-9"...))
	sc, err := transport.Client(conn, []byte("monitor-issued-key"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if err := sc.Send("offload", offloadFrame("SELECT a FROM t WHERE a >= 2")); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := sc.Recv()
	if err != nil || typ != "result" {
		t.Fatalf("recv = %q, %v", typ, err)
	}
	if len(payload) == 0 {
		t.Error("empty result payload")
	}
	// Errors travel as error frames.
	sc.Send("offload", offloadFrame("SELECT nope FROM t"))
	typ, payload, _ = sc.Recv()
	if typ != "error" || !strings.Contains(string(payload), "nope") {
		t.Errorf("error frame = %q %q", typ, payload)
	}
	// A frame declaring an exhausted deadline budget is refused with a
	// typed "budget" frame before any execution.
	drained := make([]byte, 8)
	sc.Send("offload", append(drained, "SELECT a FROM t"...))
	typ, _, _ = sc.Recv()
	if typ != "budget" {
		t.Errorf("exhausted-budget offload = %q, want budget refusal", typ)
	}
	// So is one below the minimum useful execution slice — the host floors
	// sub-µs remainders to 1µs, so a zero-only check would never fire
	// against a well-behaved host.
	low := make([]byte, 8)
	binary.LittleEndian.PutUint64(low, MinOffloadBudgetMicros-1)
	sc.Send("offload", append(low, "SELECT a FROM t"...))
	typ, _, _ = sc.Recv()
	if typ != "budget" {
		t.Errorf("below-minimum budget offload = %q, want budget refusal", typ)
	}
	// Exactly the minimum is admitted and executes.
	min := make([]byte, 8)
	binary.LittleEndian.PutUint64(min, MinOffloadBudgetMicros)
	sc.Send("offload", append(min, "SELECT a FROM t"...))
	typ, _, _ = sc.Recv()
	if typ != "result" {
		t.Errorf("minimum-budget offload = %q, want result", typ)
	}
	// A frame too short to carry the budget prefix is malformed.
	sc.Send("offload", []byte("SELECT"))
	typ, payload, _ = sc.Recv()
	if typ != "error" || !strings.Contains(string(payload), "budget prefix") {
		t.Errorf("short offload frame = %q %q", typ, payload)
	}
	sc.Send("unknown-cmd", nil)
	typ, _, _ = sc.Recv()
	if typ != "error" {
		t.Errorf("unknown command = %q", typ)
	}
}

func TestServeRejectsUnknownSession(t *testing.T) {
	s, _ := newServer(t, false)
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	defer ln.Close()
	go s.Serve(ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write(append([]byte{byte(len("bogus"))}, "bogus"...))
	if _, err := transport.Client(conn, []byte("whatever"), nil); err == nil {
		t.Error("handshake with unknown session succeeded")
	}
}

func TestServeRejectsWrongSessionKey(t *testing.T) {
	s, _ := newServer(t, false)
	s.InstallSessionKey("sess-1", []byte("right-key"))
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	defer ln.Close()
	go s.Serve(ln)
	conn, _ := net.Dial("tcp", ln.Addr().String())
	conn.Write(append([]byte{byte(len("sess-1"))}, "sess-1"...))
	if _, err := transport.Client(conn, []byte("wrong-key"), nil); err == nil {
		t.Error("handshake with wrong key succeeded")
	}
}

func TestBlockFetcher(t *testing.T) {
	s, m := newServer(t, false)
	seed(t, s)
	n := s.Blocks()
	if n == 0 {
		t.Fatal("no blocks")
	}
	base := m.Snapshot()
	b, err := s.FetchBlock(0)
	if err != nil || len(b) == 0 {
		t.Fatalf("fetch: %v", err)
	}
	if m.Snapshot().Sub(base).BytesSent == 0 {
		t.Error("fetch did not charge bytes")
	}
	if err := s.StoreBlock(n, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if s.Blocks() != n+1 {
		t.Errorf("blocks = %d", s.Blocks())
	}
}
