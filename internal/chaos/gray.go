package chaos

import (
	"fmt"
	"time"

	"ironsafe"
	"ironsafe/internal/faultinject"
)

// GrayConfig scripts one gray-failure run: a cluster where one node does not
// crash but goes *slow* — the paper's fail-stop machinery (down sets, epochs,
// re-attestation) never triggers, so the tail-tolerance layer (deadline
// budgets, latency-outlier soft-ejection, hedged offloads) is the only
// defense under test.
type GrayConfig struct {
	// Seed drives every fault decision; same seed, same run.
	Seed uint64
	// Queries is how many queries to submit (rotating through QueryMix).
	Queries int
	// GrayNode is the victim (default storage-01: the proof-order primary, so
	// its brown-out exercises both ejection and hedged races).
	GrayNode string
}

const (
	// grayNodes is the storage node count: ejection needs a cohort.
	grayNodes = 3
	// graySlowOps bounds the victim's Slow injections per channel leg; once
	// exhausted the node runs clean again, so the run must observe recovery
	// (readmission) as well as ejection: roughly the first third of the
	// default run, leaving the rest for the probe-driven EWMA decay to
	// readmit the node.
	graySlowOps = 30
	// grayStallOps bounds the victim's Stall injections (deadline-bounded
	// hangs; these consume retry budget).
	grayStallOps = 2
)

// GrayReport is the full gray-failure run record.
type GrayReport struct {
	Outcomes []Outcome
	// Digest commits to the deterministic outcome fields (index, mix, ok,
	// class, row digest, failovers, hedges): two runs with the same config
	// must match byte for byte. The fault plan's trace stays out — hedged
	// legs interleave channel operations across site streams, so the
	// trace's global ordering is scheduling-dependent even though each
	// stream (and every outcome) is not.
	Digest string
	// Tally partitions the outcomes and counts the broken invariants.
	Tally
	// BudgetExhausted counts queries refused because their deadline budget
	// ran dry — bounded overrun, never a hang.
	BudgetExhausted int
	// Hedges / HedgeWins total the hedged offload races across the run.
	Hedges, HedgeWins int
	// Ejections / Readmissions are the tracker's soft-ejection event
	// counters: the gray node must be ejected during the brown-out and
	// readmitted after it clears.
	Ejections, Readmissions int
	// GrayEjectedDuringRun records whether the victim was observed in the
	// soft-ejected state at any point (sampled after every query).
	GrayEjectedDuringRun bool
	// GrayEjectedAtEnd records whether the victim was still ejected after
	// the final query (recovery must readmit it).
	GrayEjectedAtEnd bool
	// GrayVirtualEnd / HealthyVirtualMax are the victim's and the slowest
	// healthy node's final virtual-clock readings — the victim's excess is
	// exactly the injected penalty, so the budgeted paths keep it bounded.
	GrayVirtualEnd, HealthyVirtualMax time.Duration
}

func (c *GrayConfig) fill() {
	if c.Queries == 0 {
		c.Queries = 48
	}
	if c.GrayNode == "" {
		c.GrayNode = "storage-01"
	}
}

// grayRules arm the victim's channel legs with bounded Slow faults plus a
// couple of deadline-bounded stalls — a brown-out, not a crash: the node
// keeps answering, just late.
func grayRules(cfg *GrayConfig) []faultinject.Rule {
	read := "conn:" + cfg.GrayNode + ":read"
	write := "conn:" + cfg.GrayNode + ":write"
	return []faultinject.Rule{
		{Site: read, Class: faultinject.Slow, Prob: 0.9, MaxCount: graySlowOps},
		{Site: write, Class: faultinject.Slow, Prob: 0.9, MaxCount: graySlowOps},
		{Site: read, Class: faultinject.Stall, Prob: 0.05, After: 4, MaxCount: grayStallOps},
	}
}

// RunGray executes one scripted gray-failure run and returns its report.
func RunGray(cfg GrayConfig) (*GrayReport, error) {
	cfg.fill()
	h := newHarness(ironsafe.IronSafe, grayNodes)
	if err := h.reference(accessPolicy); err != nil {
		return nil, fmt.Errorf("gray: %w", err)
	}

	// Cluster under brown-out: the resilience layer runs in full
	// tail-tolerance mode with the plan's virtual per-node clocks as the
	// latency source — ejection and hedging decisions then follow the seeded
	// fault schedule exactly, never the host machine's speed.
	plan := faultinject.NewPlan(cfg.Seed, grayRules(&cfg)...)
	c, err := h.cluster(substrate{conn: faultyConns(plan), latencyClock: plan.NodeVirtualNow})
	if err != nil {
		return nil, fmt.Errorf("gray: cluster: %w", err)
	}

	rep := &GrayReport{}
	session := c.NewSession(clientKey)
	for queryIdx := 0; queryIdx < cfg.Queries; queryIdx++ {
		out, res := h.query(session, queryIdx, queryIdx%len(QueryMix), &rep.Tally)
		if res != nil {
			rep.Hedges += res.Stats.Hedges
			rep.HedgeWins += res.Stats.HedgeWins
		}
		if out.Class == "budget-exhausted" {
			rep.BudgetExhausted++
		}
		rep.Outcomes = append(rep.Outcomes, out)
		if c.Health().Ejected(cfg.GrayNode) {
			rep.GrayEjectedDuringRun = true
		}
	}

	rep.GrayEjectedAtEnd = c.Health().Ejected(cfg.GrayNode)
	rep.Ejections, rep.Readmissions = c.Health().TailEvents()
	rep.GrayVirtualEnd = plan.NodeVirtualNow(cfg.GrayNode)
	for _, id := range nodeIDs(grayNodes) {
		if id == cfg.GrayNode {
			continue
		}
		if v := plan.NodeVirtualNow(id); v > rep.HealthyVirtualMax {
			rep.HealthyVirtualMax = v
		}
	}
	rep.Digest = digestGrayRun(rep)
	return rep, nil
}

// digestGrayRun commits to the deterministic outcome fields only.
func digestGrayRun(rep *GrayReport) string {
	var lines []string
	for _, o := range rep.Outcomes {
		lines = append(lines, fmt.Sprintf("q%03d mix=%d ok=%t class=%s rows=%s failovers=%d hedges=%d",
			o.Query, o.SQL, o.OK, o.Class, o.RowDigest, o.Failovers, o.Hedges))
	}
	return digestLines(lines)
}
