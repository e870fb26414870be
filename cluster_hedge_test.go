package ironsafe

import (
	"reflect"
	"testing"
	"time"

	"ironsafe/internal/resilience"
	"ironsafe/internal/sql/exec"
)

// countingNode is a fake cached storage channel counting Close calls.
type countingNode struct {
	id     string
	closes int
}

func (n *countingNode) NodeID() string                              { return n.id }
func (n *countingNode) Offload(string) (*exec.Result, int64, error) { return nil, 0, nil }
func (n *countingNode) ReplyEpoch() uint64                          { return 0 }
func (n *countingNode) Close() error                                { n.closes++; return nil }

// ejectFirst feeds the health tracker latencies that soft-eject storage-01
// against a fast cohort.
func ejectFirst(t *testing.T, c *Cluster, cohort ...string) {
	t.Helper()
	for i := 0; i < 3; i++ {
		for _, id := range cohort {
			c.Health().ReportLatency(id, time.Millisecond)
		}
		c.Health().ReportLatency("storage-01", 100*time.Millisecond)
	}
	if !c.Health().Ejected("storage-01") {
		t.Fatal("setup: storage-01 not ejected")
	}
}

// TestSessionProviderHedgeContract pins what the cluster's node provider
// offers the host engine's hedged race: nothing at all without a latency
// clock, and with one a hedge for an ejected primary only, on the first
// alternate that is up and not ejected, at most maxHedges at a time.
func TestSessionProviderHedgeContract(t *testing.T) {
	ids := []string{"storage-01", "storage-02", "storage-03"}

	t.Run("no clock", func(t *testing.T) {
		c, err := NewCluster(Config{Mode: IronSafe, StorageNodes: 3})
		if err != nil {
			t.Fatal(err)
		}
		ejectFirst(t, c, "storage-02", "storage-03")
		p := c.newSessionProvider(ids, "sid", nil)
		if got := p.CandidateIDs(); !reflect.DeepEqual(got, ids) {
			t.Errorf("CandidateIDs = %v, want proof order %v", got, ids)
		}
		if hedge, ok := p.PlanHedge("storage-01", ids[1:]); ok {
			t.Errorf("PlanHedge granted %s without a latency clock", hedge)
		}
		if now := p.NodeNow("storage-01"); now != 0 {
			t.Errorf("NodeNow = %v without a latency clock, want 0", now)
		}
	})

	t.Run("clock", func(t *testing.T) {
		clock := func(id string) time.Duration { return time.Duration(len(id)) * time.Millisecond }
		c, err := NewCluster(Config{Mode: IronSafe, StorageNodes: 3, Resilience: &resilience.Config{LatencyClock: clock}})
		if err != nil {
			t.Fatal(err)
		}
		ejectFirst(t, c, "storage-02", "storage-03")
		p := c.newSessionProvider(ids, "sid", nil)
		if now := p.NodeNow("storage-01"); now != clock("storage-01") {
			t.Errorf("NodeNow = %v, want the latency clock's %v", now, clock("storage-01"))
		}
		if got, want := p.CandidateIDs(), []string{"storage-02", "storage-03", "storage-01"}; !reflect.DeepEqual(got, want) {
			t.Errorf("CandidateIDs = %v, want the ejected node last %v", got, want)
		}
		if hedge, ok := p.PlanHedge("storage-02", []string{"storage-03", "storage-01"}); ok {
			t.Errorf("PlanHedge hedged a primary that is not ejected on %s", hedge)
		}
		if hedge, ok := p.PlanHedge("storage-01", ids[1:]); !ok || hedge != "storage-02" {
			t.Errorf("PlanHedge = %q, %t, want the first alternate storage-02", hedge, ok)
		}
		c.KillStorage("storage-02")
		if hedge, ok := p.PlanHedge("storage-01", ids[1:]); !ok || hedge != "storage-03" {
			t.Errorf("PlanHedge = %q, %t, want storage-03 past the down storage-02", hedge, ok)
		}
		if hedge, ok := p.PlanHedge("storage-01", ids[1:]); ok {
			t.Errorf("third concurrent hedge granted on %s", hedge)
		}
		p.HedgeDone()
		if _, ok := p.PlanHedge("storage-01", ids[1:]); !ok {
			t.Error("hedge refused after HedgeDone released a slot")
		}
		p.HedgeDone()
		p.HedgeDone()
	})

	t.Run("close", func(t *testing.T) {
		c, err := NewCluster(Config{Mode: IronSafe, StorageNodes: 3})
		if err != nil {
			t.Fatal(err)
		}
		p := c.newSessionProvider(ids, "sid", nil)
		nodes := map[string]*countingNode{}
		for _, id := range ids {
			nodes[id] = &countingNode{id: id}
			p.cached[id] = &fencedNode{storageNode: nodes[id], c: c}
		}
		// A failure report closes and evicts its channel; close() must not
		// close it a second time.
		p.Report("storage-02", false)
		p.close()
		for id, n := range nodes {
			if n.closes != 1 {
				t.Errorf("%s closed %d times, want exactly once", id, n.closes)
			}
		}
		if len(p.cached) != 0 {
			t.Errorf("close() left %d cached channels", len(p.cached))
		}
	})
}
