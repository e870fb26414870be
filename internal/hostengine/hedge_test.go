package hostengine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ironsafe/internal/resilience"
	"ironsafe/internal/sql/exec"
	"ironsafe/internal/tpch"
)

// hedgeProvider is a NodeProvider with a scriptable budget, latency clock
// and hedge plan; it hands out a fresh node per Connect, so it detaches
// nothing.
type hedgeProvider struct {
	plainProvider
	r   *rig
	ids []string
	bud *resilience.Budget

	// fail / stale script per-node offload outcomes: fail is a generic
	// offload failure, stale simulates the cluster's epoch-fencing wrapper
	// rejecting a zombie's reply (the stale rows never escape the wrapper).
	fail  map[string]bool
	stale map[string]bool

	planOK   bool
	delay    time.Duration
	join     bool
	capSlots int

	mu            sync.Mutex
	granted, done int
	concurrent    int
	maxConcurrent int
	clock         map[string]time.Duration
	latencies     []string
}

func (p *hedgeProvider) CandidateIDs() []string { return p.ids }

func (p *hedgeProvider) Connect(id string) (StorageNode, error) {
	return &hedgeNode{p: p, id: id}, nil
}

func (p *hedgeProvider) Report(id string, ok bool) {}

func (p *hedgeProvider) QueryBudget() *resilience.Budget { return p.bud }

func (p *hedgeProvider) NodeNow(id string) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.clock[id]
}

func (p *hedgeProvider) ReportLatency(id string, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.latencies = append(p.latencies, fmt.Sprintf("%s:%v", id, d))
}

func (p *hedgeProvider) PlanHedge(primary string, candidates []string) (string, time.Duration, bool) {
	if !p.planOK || len(candidates) == 0 {
		return "", 0, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.capSlots > 0 && p.concurrent >= p.capSlots {
		return "", 0, false
	}
	p.concurrent++
	if p.concurrent > p.maxConcurrent {
		p.maxConcurrent = p.concurrent
	}
	p.granted++
	return candidates[0], p.delay, true
}

func (p *hedgeProvider) HedgeDone() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.concurrent--
	p.done++
}

func (p *hedgeProvider) JoinLoser() bool { return p.join }

type hedgeNode struct {
	p  *hedgeProvider
	id string
}

func (n *hedgeNode) NodeID() string { return n.id }

func (n *hedgeNode) Offload(sql string) (*exec.Result, int64, error) {
	p := n.p
	p.mu.Lock()
	if p.clock == nil {
		p.clock = map[string]time.Duration{}
	}
	fail, stale := p.fail[n.id], p.stale[n.id]
	// Scripted per-node virtual latency: failures and fenced replies burn
	// 10× the healthy cost.
	if fail || stale {
		p.clock[n.id] += 10 * time.Millisecond
	} else {
		p.clock[n.id] += time.Millisecond
	}
	p.mu.Unlock()
	if fail {
		return nil, 0, errors.New("injected offload failure")
	}
	if stale {
		// What the fencing wrapper does to a zombie's reply: the rows are
		// dropped and only the typed error escapes.
		return nil, 0, errors.New("stale-epoch reply rejected by fence")
	}
	return p.r.node().Offload(sql)
}

func newHedgeProvider(r *rig) *hedgeProvider {
	return &hedgeProvider{
		r:     r,
		ids:   []string{"storage-01", "storage-02"},
		fail:  map[string]bool{},
		stale: map[string]bool{},
		clock: map[string]time.Duration{},
	}
}

func TestExecuteSplitProviderBudgetExhaustedTyped(t *testing.T) {
	r := newRig(t, true, true)
	p := newHedgeProvider(r)
	p.fail["storage-01"] = true
	p.fail["storage-02"] = true
	// One attempt's worth of budget: the first (failing) attempt is
	// admitted, the failover attempt is refused with a typed error.
	p.bud = resilience.NewBudget(10*time.Millisecond, 10*time.Millisecond)
	_, outcome, err := r.host.ExecuteSplitProvider(tpch.Queries[1], p)
	if !errors.Is(err, resilience.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if !outcome.BudgetExhausted {
		t.Error("outcome.BudgetExhausted not set")
	}
	if p.bud.Spends() != 1 {
		t.Errorf("budget admitted %d attempts, want 1", p.bud.Spends())
	}
}

func TestHedgedOffloadHedgeWinsOnFailedPrimary(t *testing.T) {
	r := newRig(t, true, true)
	p := newHedgeProvider(r)
	p.fail["storage-01"] = true // primary leg always fails
	p.planOK, p.join = true, true
	res, outcome, err := r.host.ExecuteSplitProvider(tpch.Queries[1], p)
	if err != nil {
		t.Fatalf("hedged execution failed: %v", err)
	}
	direct, err := r.server.DB().Execute(tpch.Queries[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(direct.Rows) {
		t.Errorf("hedged result %d rows, direct %d", len(res.Rows), len(direct.Rows))
	}
	if outcome.Hedges == 0 || outcome.HedgeWins != outcome.Hedges {
		t.Errorf("Hedges=%d HedgeWins=%d, want every race won by the hedge", outcome.Hedges, outcome.HedgeWins)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.granted != p.done {
		t.Errorf("hedge slot leak: granted=%d done=%d", p.granted, p.done)
	}
}

func TestHedgedOffloadNeverReturnsStaleEpochReply(t *testing.T) {
	// The primary's replies are fenced (stale epoch): the race must return
	// the hedge leg's valid rows and never the zombie's.
	r := newRig(t, true, true)
	p := newHedgeProvider(r)
	p.stale["storage-01"] = true
	p.planOK, p.join = true, true
	res, outcome, err := r.host.ExecuteSplitProvider(tpch.Queries[1], p)
	if err != nil {
		t.Fatalf("hedged execution failed: %v", err)
	}
	direct, err := r.server.DB().Execute(tpch.Queries[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(direct.Rows) {
		t.Errorf("result %d rows, direct %d — a fenced reply may have leaked", len(res.Rows), len(direct.Rows))
	}
	if outcome.HedgeWins != outcome.Hedges {
		t.Errorf("fenced primary must lose every race: Hedges=%d HedgeWins=%d", outcome.Hedges, outcome.HedgeWins)
	}
}

func TestHedgeNotLaunchedWhenPrimaryBeatsDelay(t *testing.T) {
	r := newRig(t, true, true)
	p := newHedgeProvider(r)
	p.planOK, p.join = true, true
	p.delay = 5 * time.Second // primary (healthy, in-process) always beats this
	_, outcome, err := r.host.ExecuteSplitProvider(tpch.Queries[1], p)
	if err != nil {
		t.Fatal(err)
	}
	if outcome.Hedges != 0 {
		t.Errorf("Hedges = %d, want 0 (primary resolved before the trigger)", outcome.Hedges)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.granted == 0 || p.granted != p.done {
		t.Errorf("granted-but-unlaunched hedge slots must still be released: granted=%d done=%d", p.granted, p.done)
	}
}

func TestHedgeBudgetDryDegradesToPlainAttempt(t *testing.T) {
	r := newRig(t, true, true)
	p := newHedgeProvider(r)
	p.planOK, p.join = true, true
	// Budget for exactly one attempt: the primary leg spends it, the hedge
	// leg finds it dry and silently does not launch.
	p.bud = resilience.NewBudget(10*time.Millisecond, 10*time.Millisecond)
	_, outcome, err := r.host.ExecuteSplitProvider(tpch.Queries[1], p)
	if err != nil {
		t.Fatalf("budgeted primary should still succeed: %v", err)
	}
	if outcome.Hedges != 0 {
		t.Errorf("Hedges = %d, want 0 (no budget for the hedge leg)", outcome.Hedges)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.granted != p.done {
		t.Errorf("slot leak on budget-refused hedge: granted=%d done=%d", p.granted, p.done)
	}
}

func TestHedgeFanOutRespectsConcurrencyCap(t *testing.T) {
	// Two queries race through the same provider with a single hedge slot:
	// PlanHedge grants at most one hedge at a time and the executor's slot
	// accounting must stay balanced under the contention.
	r := newRig(t, true, true)
	p := newHedgeProvider(r)
	p.fail["storage-01"] = true
	p.planOK, p.join = true, true
	p.capSlots = 1
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = r.host.ExecuteSplitProvider(tpch.Queries[1], p)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("query %d failed: %v", i, err)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.maxConcurrent > 1 {
		t.Errorf("hedge fan-out exceeded cap: max concurrent = %d", p.maxConcurrent)
	}
	if p.granted != p.done {
		t.Errorf("slot leak under contention: granted=%d done=%d", p.granted, p.done)
	}
}

// cachingHedgeProvider mimics the cluster's sessionProvider: one live node
// cached per id across Connects, failure reports dropping the cached entry,
// and DetachLeg so abandoned hedge losers finish on a detached private node
// while subsequent Connects get a fresh one.
type cachingHedgeProvider struct {
	plainProvider
	r   *rig
	ids []string

	// stallFirst blocks the first node object dialed for that id until
	// release is closed — the gray leg an abandon-mode race leaves behind.
	// stalledIn is closed the moment that offload is in flight; Connect for
	// every OTHER id waits on it, pinning the schedule: the race is always
	// decided while the stalled loser is mid-offload, never before it sent.
	stallFirst string
	release    chan struct{}
	stalledIn  chan struct{}
	stallOnce  sync.Once

	mu       sync.Mutex
	cache    map[string]*trackedNode
	nodes    []*trackedNode
	connects map[string]int
	settles  int
	drains   sync.WaitGroup
}

// trackedNode records per-object offload concurrency: two offloads in
// flight on one node object means two Send+Recv exchanges sharing a channel,
// which is exactly the reply-crossing bug the detach exists to prevent.
type trackedNode struct {
	p     *cachingHedgeProvider
	id    string
	stall bool

	inflight    int32
	maxInflight int32
	closed      int32
}

func (n *trackedNode) NodeID() string { return n.id }

func (n *trackedNode) Offload(sql string) (*exec.Result, int64, error) {
	cur := atomic.AddInt32(&n.inflight, 1)
	defer atomic.AddInt32(&n.inflight, -1)
	for {
		max := atomic.LoadInt32(&n.maxInflight)
		if cur <= max || atomic.CompareAndSwapInt32(&n.maxInflight, max, cur) {
			break
		}
	}
	if n.stall {
		n.p.stallOnce.Do(func() { close(n.p.stalledIn) })
		select {
		case <-n.p.release:
		case <-time.After(5 * time.Second):
		}
		return nil, 0, errors.New("stalled leg drained")
	}
	return n.p.r.node().Offload(sql)
}

func (n *trackedNode) Close() error {
	atomic.AddInt32(&n.closed, 1)
	return nil
}

func (p *cachingHedgeProvider) CandidateIDs() []string { return p.ids }

func (p *cachingHedgeProvider) Connect(id string) (StorageNode, error) {
	if id != p.stallFirst {
		select {
		case <-p.stalledIn:
		case <-time.After(5 * time.Second):
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if n, ok := p.cache[id]; ok {
		return n, nil
	}
	p.connects[id]++
	n := &trackedNode{p: p, id: id, stall: id == p.stallFirst && p.connects[id] == 1}
	p.cache[id] = n
	p.nodes = append(p.nodes, n)
	return n, nil
}

func (p *cachingHedgeProvider) Report(id string, ok bool) {
	if ok {
		return
	}
	p.mu.Lock()
	n, cached := p.cache[id]
	delete(p.cache, id)
	p.mu.Unlock()
	if cached {
		n.Close()
	}
}

func (p *cachingHedgeProvider) DetachLeg(id string, node StorageNode) func(ok, reportable bool) {
	p.mu.Lock()
	if n, ok := p.cache[id]; ok && StorageNode(n) == node {
		delete(p.cache, id)
	}
	p.mu.Unlock()
	p.drains.Add(1)
	return func(legOK, reportable bool) {
		p.mu.Lock()
		p.settles++
		p.mu.Unlock()
		if tn, ok := node.(*trackedNode); ok {
			tn.Close()
		}
		p.drains.Done()
	}
}

func (p *cachingHedgeProvider) PlanHedge(primary string, candidates []string) (string, time.Duration, bool) {
	if len(candidates) == 0 {
		return "", 0, false
	}
	return candidates[0], 0, true
}

func (p *cachingHedgeProvider) HedgeDone() {}

func (p *cachingHedgeProvider) JoinLoser() bool { return false }

func TestAbandonedHedgeLoserDetachedFromCache(t *testing.T) {
	// Abandon-mode regression: the loser's stalled offload stays in flight on
	// its channel after the race returns. Later ships landing on the same
	// node must get a FRESH channel (never the one with a foreign request
	// outstanding), and no node object may ever carry two concurrent
	// offloads.
	r := newRig(t, true, true)
	p := &cachingHedgeProvider{
		r:          r,
		ids:        []string{"storage-01", "storage-02"},
		stallFirst: "storage-01",
		release:    make(chan struct{}),
		stalledIn:  make(chan struct{}),
		cache:      map[string]*trackedNode{},
		connects:   map[string]int{},
	}
	res, outcome, err := r.host.ExecuteSplitProvider(tpch.Queries[3], p)
	if err != nil {
		t.Fatalf("query failed despite healthy hedges: %v", err)
	}
	direct, err := r.server.DB().Execute(tpch.Queries[3])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(direct.Rows) {
		t.Errorf("result %d rows, direct %d — a crossed reply may have been absorbed", len(res.Rows), len(direct.Rows))
	}
	if outcome.Hedges == 0 {
		t.Fatal("setup: no hedge race fired")
	}
	close(p.release) // let the stalled loser drain
	p.drains.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.connects["storage-01"] < 2 {
		t.Errorf("stalled node never re-dialed after detach: connects=%v", p.connects)
	}
	if p.settles == 0 {
		t.Error("abandoned loser never settled its detached channel")
	}
	var stalled *trackedNode
	for _, n := range p.nodes {
		if n.stall {
			stalled = n
		}
	}
	if stalled == nil {
		t.Fatal("setup: stalled primary never dialed")
	}
	if atomic.LoadInt32(&stalled.closed) == 0 {
		t.Error("detached channel never closed after its drain landed")
	}
	for i, n := range p.nodes {
		if m := atomic.LoadInt32(&n.maxInflight); m > 1 {
			t.Errorf("node object %d (%s) saw %d concurrent offloads on one channel", i, n.id, m)
		}
	}
}

func TestHedgeLatenciesReportedPrimaryThenHedge(t *testing.T) {
	// JoinLoser mode reports both legs in fixed primary-then-hedge order so
	// the EWMA state evolves deterministically.
	r := newRig(t, true, true)
	p := newHedgeProvider(r)
	p.fail["storage-01"] = true
	p.planOK, p.join = true, true
	_, outcome, err := r.host.ExecuteSplitProvider(tpch.Queries[1], p)
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.latencies) != 2*outcome.Hedges {
		t.Fatalf("latency reports = %v, want 2 per hedge race", p.latencies)
	}
	for i := 0; i < len(p.latencies); i += 2 {
		if p.latencies[i] != "storage-01:10ms" || p.latencies[i+1] != "storage-02:1ms" {
			t.Fatalf("report order not primary-then-hedge: %v", p.latencies)
		}
	}
}
