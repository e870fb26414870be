package hostengine

import (
	"errors"
	"testing"
	"time"

	"ironsafe/internal/resilience"
	"ironsafe/internal/sql/exec"
	"ironsafe/internal/tpch"
)

// plainProvider is the tail-tolerance half of NodeProvider switched off: no
// budget, no latency feed, never a hedge. The test fakes embed it and
// override what they script.
type plainProvider struct{}

func (plainProvider) QueryBudget() *resilience.Budget           { return nil }
func (plainProvider) NodeNow(string) time.Duration              { return 0 }
func (plainProvider) ReportLatency(string, time.Duration)       {}
func (plainProvider) PlanHedge(string, []string) (string, bool) { return "", false }
func (plainProvider) HedgeDone()                                {}

// flakyProvider serves nodes from a rig but scripts per-node failures.
type flakyProvider struct {
	plainProvider
	r *rig
	// failFor[id] > 0: the next N offloads through that id fail.
	failFor map[string]int
	// deadNodes always fail to connect.
	dead map[string]bool
	ids  []string

	reports []string
}

func (p *flakyProvider) CandidateIDs() []string { return p.ids }

func (p *flakyProvider) Connect(id string) (StorageNode, error) {
	if p.dead[id] {
		return nil, errors.New("node unreachable")
	}
	return &scriptedNode{p: p, id: id}, nil
}

func (p *flakyProvider) Report(id string, ok bool) {
	state := "ok"
	if !ok {
		state = "fail"
	}
	p.reports = append(p.reports, id+":"+state)
}

type scriptedNode struct {
	p  *flakyProvider
	id string
}

func (n *scriptedNode) NodeID() string { return n.id }

func (n *scriptedNode) Offload(sql string) (*exec.Result, int64, error) {
	if n.p.failFor[n.id] > 0 {
		n.p.failFor[n.id]--
		return nil, 0, errors.New("injected offload failure")
	}
	real, err := n.p.r.channel()
	if err != nil {
		return nil, 0, err
	}
	return real.Offload(sql)
}

func TestExecuteSplitProviderFailsOver(t *testing.T) {
	r := newRig(t, true, true)
	p := &flakyProvider{
		r:       r,
		ids:     []string{"storage-01", "storage-02"},
		failFor: map[string]int{"storage-01": 100}, // node 1 always fails offloads
		dead:    map[string]bool{},
	}
	res, outcome, err := r.host.ExecuteSplitProvider(tpch.Queries[3], p)
	if err != nil {
		t.Fatalf("failover did not rescue the query: %v", err)
	}
	direct, err := r.server.DB().Execute(tpch.Queries[3])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(direct.Rows) {
		t.Errorf("failover result %d rows, direct %d", len(res.Rows), len(direct.Rows))
	}
	if outcome.Failovers == 0 {
		t.Error("no failovers recorded despite scripted failures")
	}
	sawFail := false
	for _, rep := range p.reports {
		if rep == "storage-01:fail" {
			sawFail = true
		}
	}
	if !sawFail {
		t.Errorf("failing node never reported: %v", p.reports)
	}
}

func TestExecuteSplitProviderAllNodesFailTyped(t *testing.T) {
	r := newRig(t, true, true)
	p := &flakyProvider{
		r:    r,
		ids:  []string{"storage-01", "storage-02"},
		dead: map[string]bool{"storage-01": true, "storage-02": true},
	}
	_, _, err := r.host.ExecuteSplitProvider(tpch.Queries[1], p)
	if !errors.Is(err, ErrAllNodesFailed) {
		t.Errorf("err = %v, want ErrAllNodesFailed", err)
	}
}

func TestExecuteSplitProviderNoCandidatesTyped(t *testing.T) {
	r := newRig(t, true, true)
	p := &flakyProvider{r: r, ids: nil, dead: map[string]bool{}}
	_, _, err := r.host.ExecuteSplitProvider(tpch.Queries[1], p)
	if !errors.Is(err, ErrAllNodesFailed) {
		t.Errorf("err = %v, want ErrAllNodesFailed", err)
	}
}
