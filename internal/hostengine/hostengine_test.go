package hostengine

import (
	"net"
	"strings"
	"testing"

	"ironsafe/internal/engine"
	"ironsafe/internal/pager"
	"ironsafe/internal/partition"
	"ironsafe/internal/resilience"
	"ironsafe/internal/schema"
	"ironsafe/internal/securestore"
	"ironsafe/internal/simtime"
	"ironsafe/internal/sql/exec"
	"ironsafe/internal/storageengine"
	"ironsafe/internal/tee/sgx"
	"ironsafe/internal/tee/trustzone"
	"ironsafe/internal/tpch"
	"ironsafe/internal/transport"
	"ironsafe/internal/value"
)

// rig wires a secure host to a secure storage server loaded with TPC-H data.
type rig struct {
	t       *testing.T
	host    *Host
	server  *storageengine.Server
	hostM   *simtime.Meter
	schemas partition.SchemaMap
}

func newRig(t *testing.T, secureHost, secureStorage bool) *rig {
	t.Helper()
	vendor, err := trustzone.NewVendor("acme")
	if err != nil {
		t.Fatal(err)
	}
	var storM, hostM simtime.Meter
	server, err := storageengine.New(storageengine.Config{
		DeviceID: "storage-01", Vendor: vendor, Location: "EU", FWVersion: "3.4",
		Secure: secureStorage, Meter: &storM,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tpch.Load(server.DB(), tpch.Generate(0.001)); err != nil {
		t.Fatal(err)
	}
	platform, err := sgx.NewPlatform("host-plat", nil)
	if err != nil {
		t.Fatal(err)
	}
	host, err := New(Config{
		ID: "host-1", Location: "EU", FWVersion: "2.1",
		Platform: platform, Secure: secureHost, Meter: &hostM,
	})
	if err != nil {
		t.Fatal(err)
	}
	schemas := partition.SchemaMap{}
	for _, name := range server.DB().TableNames() {
		tab, _ := server.DB().Table(name)
		schemas[strings.ToLower(name)] = tab.Sch
	}
	host.SetSchemas(schemas)
	server.InstallSessionKey(rigSession, rigKey)
	return &rig{t: t, host: host, server: server, hostM: &hostM, schemas: schemas}
}

// The session every rig channel is bound to.
const rigSession = "rig"

var rigKey = []byte("rig-session-key")

// channel opens a channel to the rig's server the way the cluster runtime
// does — the server's ServeConn on the far end of an in-process pipe — and
// closes it when the test ends. Safe to call from any goroutine.
func (r *rig) channel() (*RemoteNode, error) {
	hostSide, storageSide := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		r.server.ServeConn(storageSide)
	}()
	n, err := NewRemoteNode(hostSide, "storage-01", rigSession, rigKey, r.hostM, nil, nil, resilience.Config{})
	if err != nil {
		storageSide.Close()
		return nil, err
	}
	n.ServedBy(served)
	r.t.Cleanup(func() { n.Close() })
	return n, nil
}

// node is channel for the test's own goroutine.
func (r *rig) node() StorageNode {
	r.t.Helper()
	n, err := r.channel()
	if err != nil {
		r.t.Fatal(err)
	}
	return n
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil meter accepted")
	}
	var m simtime.Meter
	if _, err := New(Config{Meter: &m, Secure: true}); err == nil {
		t.Error("secure host without platform accepted")
	}
}

func TestQuoteOnlyWhenSecure(t *testing.T) {
	r := newRig(t, true, true)
	q, err := r.host.Quote([64]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	if q.Measurement != r.host.Enclave().Measurement() {
		t.Error("quote measurement mismatch")
	}
	r2 := newRig(t, false, true)
	if _, err := r2.host.Quote([64]byte{}); err == nil {
		t.Error("non-secure host produced a quote")
	}
}

func TestExecuteSplitMatchesDirect(t *testing.T) {
	r := newRig(t, true, true)
	for _, qn := range []int{1, 3, 6, 13} {
		res, outcome, err := r.host.ExecuteSplit(tpch.Queries[qn], []StorageNode{r.node()})
		if err != nil {
			t.Fatalf("q%d: %v", qn, err)
		}
		direct, err := r.server.DB().Execute(tpch.Queries[qn])
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(direct.Rows) {
			t.Errorf("q%d: split %d rows, direct %d", qn, len(res.Rows), len(direct.Rows))
		}
		if outcome.Offloads == 0 || outcome.BytesShipped == 0 {
			t.Errorf("q%d outcome = %+v", qn, outcome)
		}
	}
}

func TestExecuteSplitChargesEnclaveAndLink(t *testing.T) {
	r := newRig(t, true, true)
	base := r.hostM.Snapshot()
	if _, _, err := r.host.ExecuteSplit(tpch.Queries[6], []StorageNode{r.node()}); err != nil {
		t.Fatal(err)
	}
	d := r.hostM.Snapshot().Sub(base)
	if d.EnclaveTransitions == 0 {
		t.Error("no enclave transitions charged")
	}
	if d.BytesReceived == 0 || d.RowsShipped == 0 {
		t.Errorf("link accounting missing: %+v", d)
	}
}

func TestExecuteSplitSelectiveQueryShipsLess(t *testing.T) {
	r := newRig(t, true, true)
	_, selective, err := r.host.ExecuteSplit(
		"SELECT count(*) FROM lineitem WHERE l_quantity < 2", []StorageNode{r.node()})
	if err != nil {
		t.Fatal(err)
	}
	_, full, err := r.host.ExecuteSplit(
		"SELECT count(*) FROM lineitem", []StorageNode{r.node()})
	if err != nil {
		t.Fatal(err)
	}
	if selective.BytesShipped >= full.BytesShipped {
		t.Errorf("selective ship %d >= full ship %d", selective.BytesShipped, full.BytesShipped)
	}
}

func TestExecuteSplitNoNodes(t *testing.T) {
	r := newRig(t, true, true)
	if _, _, err := r.host.ExecuteSplit("SELECT 1", nil); err == nil {
		t.Error("no nodes accepted")
	}
}

func TestExecuteLocal(t *testing.T) {
	r := newRig(t, true, true)
	res, err := r.host.ExecuteLocal(r.server.DB(), "SELECT count(*) FROM nation")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 25 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
}

func TestRemoteNodeOverTCP(t *testing.T) {
	r := newRig(t, true, true)
	r.server.InstallSessionKey("s1", []byte("key"))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go r.server.Serve(ln)

	cfg := resilience.Config{}.WithDefaults()
	tickets := transport.NewTicketStore()
	dial := func() *RemoteNode {
		t.Helper()
		conn, err := resilience.DialTCP(ln.Addr().String(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		node, err := NewRemoteNode(conn, "storage-01", "s1", []byte("key"), r.hostM, tickets, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return node
	}

	node := dial()
	res, outcome, err := r.host.ExecuteSplit(tpch.Queries[6], []StorageNode{node})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("q6 over TCP = %v", res.Rows)
	}
	if outcome.BytesShipped == 0 {
		t.Error("no wire bytes counted")
	}
	// Error propagation over the wire.
	if _, _, err := node.Offload("SELECT broken FROM lineitem"); err == nil {
		t.Error("remote error not propagated")
	}
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}

	// The next connect resumes the first channel from the ticket it left,
	// and the resumed channel works.
	again := dial()
	defer again.Close()
	if full, resumed := tickets.Exchanges(); full != 1 || resumed != 1 {
		t.Errorf("exchanges = %d full / %d resumed, want 1 / 1", full, resumed)
	}
	if res, _, err := r.host.ExecuteSplit(tpch.Queries[6], []StorageNode{again}); err != nil || len(res.Rows) != 1 {
		t.Errorf("q6 over the resumed channel = %v, %v", res, err)
	}
}

func TestRemoteDeviceHostOnly(t *testing.T) {
	// hons-style: the host runs the whole query over remotely fetched pages.
	r := newRig(t, false, false)
	var hostM simtime.Meter
	dev := &RemoteDevice{Fetcher: r.server, HostMeter: &hostM}
	store := pager.NewPager(dev, &hostM, 64)
	db, err := engine.Open(store, &hostM)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Execute("SELECT count(*) FROM nation")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 25 {
		t.Errorf("remote count = %v", res.Rows[0][0])
	}
	if hostM.Snapshot().BytesReceived == 0 {
		t.Error("remote reads did not charge bytes")
	}
}

// enclaveKeySource is a host-enclave-rooted key source for hos tests.
type enclaveKeySource struct{ secret []byte }

func (k enclaveKeySource) DeriveKey(label string) ([]byte, error) {
	out := make([]byte, 32)
	copy(out, label)
	for i := range out {
		out[i] ^= k.secret[i%len(k.secret)]
	}
	return out, nil
}

// memAnchor keeps the root tag in (enclave) memory.
type memAnchor struct{ tag []byte }

func (a *memAnchor) StoreRoot(tag []byte) error { a.tag = append([]byte(nil), tag...); return nil }
func (a *memAnchor) LoadRoot(nonce []byte) ([]byte, error) {
	return append([]byte(nil), a.tag...), nil
}

// newHosStore is the hos secure store on an in-memory medium, its keys and
// root anchor enclave-held, metered on m.
func newHosStore(tb testing.TB, m *simtime.Meter) *securestore.Store {
	tb.Helper()
	s, err := securestore.OpenWith(pager.NewMemDevice(), enclaveKeySource{secret: []byte("s")}, &memAnchor{}, m)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// newEnclaveStore is the hos page store: newHosStore inside an enclave of
// epcBytes of EPC.
func newEnclaveStore(tb testing.TB, m *simtime.Meter, epcBytes int64) *EnclavePageStore {
	tb.Helper()
	platform, _ := sgx.NewPlatform("p", nil)
	enc, err := platform.CreateEnclave([]byte("host"), sgx.Config{Meter: m, EPCLimitBytes: epcBytes})
	if err != nil {
		tb.Fatal(err)
	}
	inner := newHosStore(tb, m)
	return &EnclavePageStore{Inner: inner, Enclave: enc, TreeBytes: inner.TreeBytes}
}

func TestEnclavePageStoreChargesTransitionsAndEPC(t *testing.T) {
	var m simtime.Meter
	eps := newEnclaveStore(t, &m, 256<<10)
	db, err := engine.Open(eps, &m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Execute("CREATE TABLE t (a INTEGER, s VARCHAR(64))"); err != nil {
		t.Fatal(err)
	}
	rows := make([]schema.Row, 6000)
	for i := range rows {
		rows[i] = schema.Row{value.Int(int64(i)), value.Str("padding-padding-padding-padding-padding-padding")}
	}
	if err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	base := m.Snapshot()
	if _, err := db.Execute("SELECT count(*) FROM t"); err != nil {
		t.Fatal(err)
	}
	d := m.Snapshot().Sub(base)
	if d.EnclaveTransitions == 0 {
		t.Errorf("no transitions: %+v", d)
	}
	// The table exceeds the tiny EPC, so sustained scans must fault.
	for i := 0; i < 3; i++ {
		db.Execute("SELECT count(*) FROM t")
	}
	if m.Snapshot().EPCFaults == 0 {
		t.Error("no EPC faults under tiny EPC")
	}

	// A committed transaction of k staged pages charges the enclave what k
	// WritePage calls charge: k exits and k EPC touches, nothing while it
	// stages. Beneath the enclave the secure store pays one group commit for
	// the batch, not one commit per page.
	const k = 40
	write := func(s pager.TxnStore, m *simtime.Meter, staged bool) simtime.Snapshot {
		idxs := make([]uint32, k)
		for i := range idxs {
			if idxs[i], err = s.Allocate(); err != nil {
				t.Fatal(err)
			}
		}
		base := m.Snapshot()
		txn := s.BeginTxn()
		for _, idx := range idxs {
			page := []byte{byte(idx)}
			if !staged {
				err = s.WritePage(idx, page)
			} else if err = txn.WritePage(idx, page); err == nil && m.Snapshot() != base {
				t.Fatalf("staging a page cost %+v", m.Snapshot().Sub(base))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		return m.Snapshot().Sub(base)
	}
	var directM, stagedM, groupM simtime.Meter
	direct, batched := newEnclaveStore(t, &directM, 64<<10), newEnclaveStore(t, &stagedM, 64<<10)
	wantCost := write(direct, &directM, false)
	gotCost := write(batched, &stagedM, true)
	groupCost := write(newHosStore(t, &groupM), &groupM, true)
	if wantCost.EnclaveTransitions != k || wantCost.EPCFaults == 0 {
		t.Fatalf("%d page writes cost %+v: want %d transitions and EPC faults", k, wantCost, k)
	}
	if gotCost.EnclaveTransitions != wantCost.EnclaveTransitions || gotCost.EPCFaults != wantCost.EPCFaults ||
		batched.Enclave.ResidentBytes() != direct.Enclave.ResidentBytes() {
		t.Errorf("a commit of %d staged pages cost %d transitions and %d EPC faults and left %d bytes resident; %d WritePage calls cost %d, %d and left %d",
			k, gotCost.EnclaveTransitions, gotCost.EPCFaults, batched.Enclave.ResidentBytes(),
			k, wantCost.EnclaveTransitions, wantCost.EPCFaults, direct.Enclave.ResidentBytes())
	}
	groupCost.EnclaveTransitions, groupCost.EPCFaults = gotCost.EnclaveTransitions, gotCost.EPCFaults
	if gotCost != groupCost {
		t.Errorf("the secure store paid %+v for a commit of %d staged pages; one group commit of them pays %+v", gotCost, k, groupCost)
	}
}

func TestSplitOutcomeValueSanity(t *testing.T) {
	r := newRig(t, true, true)
	res, _, err := r.host.ExecuteSplit(
		"SELECT sum(l_quantity) FROM lineitem WHERE l_quantity < 10", []StorageNode{r.node()})
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := r.server.DB().Execute("SELECT sum(l_quantity) FROM lineitem WHERE l_quantity < 10")
	if !value.Equal(res.Rows[0][0], direct.Rows[0][0]) {
		t.Errorf("split %v vs direct %v", res.Rows[0][0], direct.Rows[0][0])
	}
	_ = exec.Result{}
}
