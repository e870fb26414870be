package ingest

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ironsafe/internal/ctl"
	"ironsafe/internal/faultinject"
	"ironsafe/internal/monitor"
	"ironsafe/internal/pager"
	"ironsafe/internal/resilience"
	"ironsafe/internal/simtime"
	"ironsafe/internal/sql/ast"
	"ironsafe/internal/sql/exec"
	"ironsafe/internal/sql/parser"
	"ironsafe/internal/storageengine"
	"ironsafe/internal/tee/trustzone"
)

// env is one secure storage server, optionally with a power-cut wrapped
// medium, plus the shared meter.
type env struct {
	srv   *storageengine.Server
	meter *simtime.Meter
	cut   *faultinject.PowerCut
}

func newEnv(t *testing.T, name string, withCut bool) *env {
	t.Helper()
	e := &env{}
	var wrap func(string, pager.BlockDevice) pager.BlockDevice
	if withCut {
		wrap = func(node string, dev pager.BlockDevice) pager.BlockDevice {
			if e.cut == nil {
				e.cut = faultinject.NewPowerCut(dev, node)
			}
			return e.cut
		}
	}
	e.srv, e.meter = newServer(t, name, wrap)
	return e
}

// newServer boots one secure storage server holding the ev table, its medium
// passed through wrap when set.
func newServer(t *testing.T, name string, wrap func(string, pager.BlockDevice) pager.BlockDevice) (*storageengine.Server, *simtime.Meter) {
	t.Helper()
	vendor, err := trustzone.NewVendor("acme")
	if err != nil {
		t.Fatal(err)
	}
	var m simtime.Meter
	srv, err := storageengine.New(storageengine.Config{
		DeviceID: name, Vendor: vendor,
		Location: "EU", FWVersion: "3.4",
		Secure: true, Meter: &m,
		MediumWrapper: wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.DB().Execute("CREATE TABLE ev (id INTEGER, note TEXT)"); err != nil {
		t.Fatal(err)
	}
	return srv, &m
}

func rowCount(t *testing.T, srv *storageengine.Server) int {
	t.Helper()
	tab, err := srv.DB().Table("ev")
	if err != nil {
		t.Fatal(err)
	}
	n, err := tab.Count()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// gateNode blocks every Apply until the gate opens — it makes coalescing
// deterministic: the leader stalls inside its first batch while the other
// submitters enqueue behind it.
type gateNode struct {
	Node
	release chan struct{}
}

func (g *gateNode) Apply(stmts []ast.Statement) ([]*exec.Result, error) {
	<-g.release
	return g.Node.Apply(stmts)
}

func TestIngestAcksDurably(t *testing.T) {
	e := newEnv(t, "storage-01", false)
	p, err := New(Config{Nodes: []Node{NewServerNode(e.srv)}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var last uint64
	for i, sql := range []string{
		"INSERT INTO ev (id, note) VALUES (1, 'a'), (2, 'b')",
		"UPDATE ev SET note = 'c' WHERE id = 2",
		"DELETE FROM ev WHERE id = 1",
	} {
		ack, err := p.Submit(Record{Client: "w", SQL: sql})
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if ack.Seq <= last {
			t.Errorf("record %d: seq %d did not advance past %d", i, ack.Seq, last)
		}
		last = ack.Seq
		want := []int{2, 1, 1}[i]
		if ack.Affected != want {
			t.Errorf("record %d: affected %d, want %d", i, ack.Affected, want)
		}
	}
	if n := rowCount(t, e.srv); n != 1 {
		t.Errorf("ev has %d rows, want 1", n)
	}
	if got := p.Batches(); got != 3 {
		t.Errorf("pipeline committed %d batches, want 3", got)
	}
}

// TestIngestCoalesces: concurrent submissions behind a stalled leader share
// one group commit — and one group commit costs exactly one RPMB write.
func TestIngestCoalesces(t *testing.T) {
	e := newEnv(t, "storage-01", false)
	gate := &gateNode{Node: NewServerNode(e.srv), release: make(chan struct{})}
	p, err := New(Config{Nodes: []Node{gate}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const followers = 5
	rpmb0 := e.meter.Snapshot().RPMBWrites
	acks := make([]Ack, followers+1)
	errs := make([]error, followers+1)
	var wg sync.WaitGroup
	submit := func(i int) {
		defer wg.Done()
		acks[i], errs[i] = p.Submit(Record{Client: "w",
			SQL: "INSERT INTO ev (id, note) VALUES (1, 'x')"})
	}
	wg.Add(1)
	go submit(0) // leader: stalls inside Apply on the gate
	for p.Stats().Submitted < 1 {
		time.Sleep(time.Millisecond)
	}
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go submit(i)
	}
	for p.Stats().Submitted < followers+1 {
		time.Sleep(time.Millisecond)
	}
	close(gate.release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("submitter %d: %v", i, err)
		}
	}
	// Leader's singleton plus one coalesced follower batch.
	if got := p.Batches(); got != 2 {
		t.Errorf("committed %d batches for %d records, want 2", got, followers+1)
	}
	if got := e.meter.Snapshot().RPMBWrites - rpmb0; got != 2 {
		t.Errorf("%d records cost %d RPMB writes, want 2 (one per group commit)", followers+1, got)
	}
	if st := p.Stats(); st.Coalesced != followers {
		t.Errorf("coalesced %d records, want %d", st.Coalesced, followers)
	}
	// Every follower shares the second batch's anchor.
	for i := 2; i <= followers; i++ {
		if acks[i].Seq != acks[1].Seq || acks[i].Batch != acks[1].Batch {
			t.Errorf("follower %d ack %+v, want batch-mate of %+v", i, acks[i], acks[1])
		}
	}
	if n := rowCount(t, e.srv); n != followers+1 {
		t.Errorf("ev has %d rows, want %d", n, followers+1)
	}
}

// TestIngestOverloadTyped: a full queue refuses with ctl.OverloadedError
// carrying retry-after.
func TestIngestOverloadTyped(t *testing.T) {
	e := newEnv(t, "storage-01", false)
	gate := &gateNode{Node: NewServerNode(e.srv), release: make(chan struct{})}
	p, err := New(Config{Nodes: []Node{gate}, QueueMax: 1, RetryAfter: 40 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var wg sync.WaitGroup
	wg.Add(2)
	for i := 0; i < 2; i++ {
		go func() {
			defer wg.Done()
			if _, err := p.Submit(Record{Client: "w", SQL: "INSERT INTO ev (id) VALUES (1)"}); err != nil {
				t.Errorf("admitted submit failed: %v", err)
			}
		}()
	}
	for p.Stats().Submitted < 2 {
		time.Sleep(time.Millisecond)
	}
	// Leader in flight, queue full: the next submission is refused, typed.
	_, err = p.Submit(Record{Client: "w", SQL: "INSERT INTO ev (id) VALUES (2)"})
	if !errors.Is(err, ctl.ErrOverloaded) {
		t.Fatalf("overloaded submit = %v, want ctl.ErrOverloaded", err)
	}
	var oe *ctl.OverloadedError
	if !errors.As(err, &oe) || oe.RetryAfter != 40*time.Millisecond {
		t.Errorf("refusal carries retry-after %v, want 40ms", err)
	}
	close(gate.release)
	wg.Wait()
	if st := p.Stats(); st.Overloaded != 1 {
		t.Errorf("overloaded count = %d, want 1", st.Overloaded)
	}
}

func TestIngestBudgetRefusal(t *testing.T) {
	e := newEnv(t, "storage-01", false)
	bud := resilience.NewBudget(time.Millisecond, time.Second)
	bud.Spend(time.Millisecond) // drain it
	p, err := New(Config{Nodes: []Node{NewServerNode(e.srv)}, Budget: bud})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	_, err = p.Submit(Record{Client: "w", SQL: "INSERT INTO ev (id) VALUES (1)"})
	if !errors.Is(err, resilience.ErrBudgetExhausted) {
		t.Fatalf("budget-dry submit = %v, want ErrBudgetExhausted", err)
	}
	if n := rowCount(t, e.srv); n != 0 {
		t.Errorf("refused record reached the store (%d rows)", n)
	}
}

func TestIngestRejectsNonDML(t *testing.T) {
	e := newEnv(t, "storage-01", false)
	p, err := New(Config{Nodes: []Node{NewServerNode(e.srv)}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Submit(Record{Client: "w", SQL: "SELECT * FROM ev"}); !errors.Is(err, ErrNotDML) {
		t.Errorf("SELECT = %v, want ErrNotDML", err)
	}
	if _, err := p.Submit(Record{Client: "w", SQL: "DROP TABLE ev"}); !errors.Is(err, ErrNotDML) {
		t.Errorf("DROP = %v, want ErrNotDML", err)
	}
	if _, err := p.Submit(Record{Client: "w", SQL: "not sql"}); err == nil {
		t.Error("garbage accepted")
	}
}

// stubAuth is a scripted Authorizer.
type stubAuth struct {
	deny  bool
	mu    sync.Mutex
	ended []string
}

func (a *stubAuth) Authorize(req monitor.AuthRequest) (*monitor.Authorization, error) {
	if a.deny {
		return nil, monitor.ErrDenied
	}
	return &monitor.Authorization{SessionID: "sess-" + req.ClientKey}, nil
}

func (a *stubAuth) EndSession(id string) {
	a.mu.Lock()
	a.ended = append(a.ended, id)
	a.mu.Unlock()
}

func TestIngestPolicyGate(t *testing.T) {
	e := newEnv(t, "storage-01", false)
	auth := &stubAuth{deny: true}
	p, err := New(Config{Nodes: []Node{NewServerNode(e.srv)}, Authorizer: auth})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Submit(Record{Client: "w", SQL: "INSERT INTO ev (id) VALUES (1)"}); !errors.Is(err, monitor.ErrDenied) {
		t.Fatalf("denied submit = %v, want monitor.ErrDenied", err)
	}
	if n := rowCount(t, e.srv); n != 0 {
		t.Errorf("denied record reached the store (%d rows)", n)
	}
	auth.deny = false
	if _, err := p.Submit(Record{Client: "w", SQL: "INSERT INTO ev (id) VALUES (1)"}); err != nil {
		t.Fatal(err)
	}
	auth.mu.Lock()
	defer auth.mu.Unlock()
	if len(auth.ended) != 1 || auth.ended[0] != "sess-w" {
		t.Errorf("one-shot write session not revoked: %v", auth.ended)
	}
}

// TestIngestSemanticSplit: one bad record in a coalesced group nacks alone —
// its batch-mates re-commit as singletons and ack.
func TestIngestSemanticSplit(t *testing.T) {
	e := newEnv(t, "storage-01", false)
	p, err := New(Config{Nodes: []Node{NewServerNode(e.srv)}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	mk := func(sql string) *pending {
		stmt, err := parser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		return &pending{stmt: stmt, ch: make(chan outcome, 1)}
	}
	group := []*pending{
		mk("INSERT INTO ev (id, note) VALUES (1, 'good')"),
		mk("INSERT INTO ev (bogus) VALUES (2)"), // no such column
		mk("INSERT INTO ev (id, note) VALUES (3, 'good')"),
	}
	p.commitGroup(group)
	for i, pd := range group {
		out := <-pd.ch
		if i == 1 {
			if out.err == nil {
				t.Error("bad record acked")
			}
			continue
		}
		if out.err != nil {
			t.Errorf("good record %d nacked: %v", i, out.err)
		}
	}
	if n := rowCount(t, e.srv); n != 2 {
		t.Errorf("ev has %d rows, want 2", n)
	}
	if got := p.Batches(); got != 2 {
		t.Errorf("split committed %d batches, want 2 singletons", got)
	}
}

// TestIngestNodeCrashRecovery: a power cut mid-batch loses nothing — the
// pipeline reports the node down, waits for restart + NodeRecovered, reapplies
// the rolled-back batch, and acks with the real affected count.
func TestIngestNodeCrashRecovery(t *testing.T) {
	e := newEnv(t, "storage-01", true)
	downs := make(chan string, 1)
	p, err := New(Config{
		Nodes:      []Node{NewServerNode(e.srv)},
		OnNodeDown: func(name string, cause error) { downs <- name },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	e.cut.Arm(1, false, 7) // first device write of the batch dies
	ackc := make(chan outcome, 1)
	go func() {
		ack, err := p.Submit(Record{Client: "w",
			SQL: "INSERT INTO ev (id, note) VALUES (1, 'x'), (2, 'y')"})
		ackc <- outcome{ack: ack, err: err}
	}()

	select {
	case name := <-downs:
		if name != "storage-01" {
			t.Fatalf("down node %q", name)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("node failure never reported")
	}
	e.cut.Disarm()
	e.cut.Revive()
	if err := e.srv.Restart(); err != nil {
		t.Fatal(err)
	}
	p.NodeRecovered("storage-01")

	select {
	case out := <-ackc:
		if out.err != nil {
			t.Fatalf("submit after recovery: %v", out.err)
		}
		if out.ack.Affected != 2 {
			t.Errorf("affected = %d, want 2", out.ack.Affected)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("submit hung after recovery")
	}
	if n := rowCount(t, e.srv); n != 2 {
		t.Errorf("ev has %d rows, want 2", n)
	}
}

// eioDevice is a plain medium whose writes fail while broken is set: a real
// device's I/O error, which is not the fault package's sentinel.
type eioDevice struct {
	pager.BlockDevice
	broken atomic.Bool
}

var errEIO = errors.New("input/output error")

func (d *eioDevice) WriteBlock(idx uint32, data []byte) error {
	if d.broken.Load() {
		return errEIO
	}
	return d.BlockDevice.WriteBlock(idx, data)
}

// TestIngestPlainDeviceFailureIsNodeFailure: the commit that dies on a plain
// failing device reports the node down — it is not read as a semantic
// rejection, so the group is neither nacked nor split and recommitted.
func TestIngestPlainDeviceFailureIsNodeFailure(t *testing.T) {
	var dev *eioDevice
	srv, _ := newServer(t, "storage-01", func(_ string, inner pager.BlockDevice) pager.BlockDevice {
		if dev == nil {
			dev = &eioDevice{BlockDevice: inner}
		}
		return dev
	})
	downs := make(chan error, 1)
	p, err := New(Config{
		Nodes:      []Node{NewServerNode(srv)},
		OnNodeDown: func(_ string, cause error) { downs <- cause },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var group []*pending
	for _, sql := range []string{
		"INSERT INTO ev (id, note) VALUES (1, 'x')",
		"INSERT INTO ev (id, note) VALUES (2, 'y')",
	} {
		stmt, err := parser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		group = append(group, &pending{stmt: stmt, ch: make(chan outcome, 1)})
	}
	dev.broken.Store(true)
	go p.commitGroup(group)

	select {
	case cause := <-downs:
		if !errors.Is(cause, errEIO) {
			t.Errorf("node-down cause %v does not carry the device error", cause)
		}
	case out := <-group[0].ch:
		t.Fatalf("device failure settled the record (ack %+v, err %v) instead of reporting the node down", out.ack, out.err)
	case <-time.After(5 * time.Second):
		t.Fatal("node failure never reported")
	}
	dev.broken.Store(false)
	if err := srv.Restart(); err != nil {
		t.Fatal(err)
	}
	p.NodeRecovered("storage-01")

	for i, pd := range group {
		select {
		case out := <-pd.ch:
			if out.err != nil {
				t.Errorf("record %d nacked after recovery: %v", i, out.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("record %d hung after recovery", i)
		}
	}
	if got := p.Batches(); got != 1 {
		t.Errorf("committed %d batches, want the one group (a device failure is not a reason to split)", got)
	}
	if n := rowCount(t, srv); n != 2 {
		t.Errorf("ev has %d rows, want 2", n)
	}
}

// TestIngestReplicates: every batch lands on every node, in order, with
// matching commit seqs.
func TestIngestReplicates(t *testing.T) {
	a := newEnv(t, "storage-01", false)
	b := newEnv(t, "storage-02", false)
	p, err := New(Config{Nodes: []Node{NewServerNode(a.srv), NewServerNode(b.srv)}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 3; i++ {
		if _, err := p.Submit(Record{Client: "w", SQL: "INSERT INTO ev (id) VALUES (1)"}); err != nil {
			t.Fatal(err)
		}
	}
	if na, nb := rowCount(t, a.srv), rowCount(t, b.srv); na != 3 || nb != 3 {
		t.Errorf("replicas diverge: authority %d rows, replica %d rows", na, nb)
	}
	if sa, sb := a.srv.StoreSeq(), b.srv.StoreSeq(); sa != sb {
		t.Errorf("commit seqs diverge: %d vs %d", sa, sb)
	}
}

// TestIngestReplicaDivergenceFatal: a replica rejecting a batch the authority
// committed poisons the pipeline with ErrDiverged.
func TestIngestReplicaDivergenceFatal(t *testing.T) {
	a := newEnv(t, "storage-01", false)
	b := newEnv(t, "storage-02", false)
	if _, err := b.srv.DB().Execute("DROP TABLE ev"); err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{Nodes: []Node{NewServerNode(a.srv), NewServerNode(b.srv)}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Submit(Record{Client: "w", SQL: "INSERT INTO ev (id) VALUES (1)"}); !errors.Is(err, ErrDiverged) {
		t.Fatalf("diverging submit = %v, want ErrDiverged", err)
	}
	if _, err := p.Submit(Record{Client: "w", SQL: "INSERT INTO ev (id) VALUES (2)"}); !errors.Is(err, ErrDiverged) {
		t.Fatalf("post-divergence submit = %v, want ErrDiverged", err)
	}
}

func TestIngestClosedRefuses(t *testing.T) {
	e := newEnv(t, "storage-01", false)
	p, err := New(Config{Nodes: []Node{NewServerNode(e.srv)}})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := p.Submit(Record{Client: "w", SQL: "INSERT INTO ev (id) VALUES (1)"}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close = %v, want ErrClosed", err)
	}
}
