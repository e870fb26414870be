package hostengine

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ironsafe/internal/resilience"
	"ironsafe/internal/sql/exec"
	"ironsafe/internal/tpch"
)

// hedgeProvider is a NodeProvider with a scriptable budget, latency clock
// and hedge plan; it hands out a fresh node per Connect.
type hedgeProvider struct {
	plainProvider
	r   *rig
	ids []string
	bud *resilience.Budget

	// fail / stale script per-node offload outcomes: fail is a generic
	// offload failure, stale simulates the cluster's epoch-fencing wrapper
	// rejecting a zombie's reply (the stale rows never escape the wrapper),
	// slow a valid reply that takes as long as a failure.
	fail  map[string]bool
	stale map[string]bool
	slow  map[string]bool

	planOK   bool
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

func (p *hedgeProvider) PlanHedge(primary string, candidates []string) (string, bool) {
	if !p.planOK || len(candidates) == 0 {
		return "", false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.capSlots > 0 && p.concurrent >= p.capSlots {
		return "", false
	}
	p.concurrent++
	if p.concurrent > p.maxConcurrent {
		p.maxConcurrent = p.concurrent
	}
	p.granted++
	return candidates[0], true
}

func (p *hedgeProvider) HedgeDone() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.concurrent--
	p.done++
}

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
	// Scripted per-node virtual latency: failures, fenced replies and slow
	// replies burn 10× the healthy cost.
	if fail || stale || p.slow[n.id] {
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
	node, err := p.r.channel()
	if err != nil {
		return nil, 0, err
	}
	return node.Offload(sql)
}

func newHedgeProvider(r *rig) *hedgeProvider {
	return &hedgeProvider{
		r:     r,
		ids:   []string{"storage-01", "storage-02"},
		fail:  map[string]bool{},
		stale: map[string]bool{},
		slow:  map[string]bool{},
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
	p.planOK = true
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
	p.planOK = true
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

func TestHedgeBudgetDryDegradesToPlainAttempt(t *testing.T) {
	r := newRig(t, true, true)
	p := newHedgeProvider(r)
	p.planOK = true
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
	p.planOK = true
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

func TestHedgeLatenciesReportedPrimaryThenHedge(t *testing.T) {
	// A race reports both legs in fixed primary-then-hedge order so the
	// EWMA state evolves deterministically.
	r := newRig(t, true, true)
	p := newHedgeProvider(r)
	p.fail["storage-01"] = true
	p.planOK = true
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

func TestHedgeRacePrimaryWinsTie(t *testing.T) {
	// Both legs succeed and the primary is the slower one: its reply is
	// still the one taken — "which landed first" never decides a race.
	r := newRig(t, true, true)
	p := newHedgeProvider(r)
	p.slow["storage-01"] = true
	p.planOK = true
	res, outcome, err := r.host.ExecuteSplitProvider(tpch.Queries[1], p)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := r.server.DB().Execute(tpch.Queries[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(direct.Rows) {
		t.Errorf("result %d rows, direct %d", len(res.Rows), len(direct.Rows))
	}
	if outcome.Hedges == 0 || outcome.HedgeWins != 0 {
		t.Errorf("Hedges=%d HedgeWins=%d, want races that the primary wins", outcome.Hedges, outcome.HedgeWins)
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
	if p.granted != p.done {
		t.Errorf("hedge slot leak: granted=%d done=%d", p.granted, p.done)
	}
}
