package chaos

import (
	"fmt"
	"testing"
)

// TestGraySweepInvariants is the gray-failure acceptance gate: a 3-node scs
// cluster where the proof-order primary goes slow (bounded Slow faults plus
// a couple of deadline-bounded stalls) but never crashes. The tail-tolerance
// layer must carry the run: zero hangs, zero wrong results, every failure
// typed, the victim soft-ejected during the brown-out and readmitted after
// it clears, hedged races actually fired, and budget overruns bounded.
func TestGraySweepInvariants(t *testing.T) {
	cfg := GrayConfig{Seed: 42, Queries: 40}
	rep, err := RunGray(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hangs != 0 {
		t.Errorf("hangs = %d, want 0", rep.Hangs)
	}
	if rep.WrongResults != 0 {
		t.Errorf("wrong results = %d, want 0", rep.WrongResults)
	}
	if rep.Untyped != 0 {
		t.Errorf("untyped failures = %d, want 0", rep.Untyped)
	}
	// A gray node must not take the cluster down: the overwhelming majority
	// of queries succeed (slow ≠ dead).
	if rep.Succeeded < cfg.Queries*9/10 {
		t.Errorf("succeeded = %d of %d, want >= 90%%", rep.Succeeded, cfg.Queries)
	}
	// The latency estimator must both catch the brown-out and let go of it.
	if !rep.GrayEjectedDuringRun {
		t.Error("gray node was never soft-ejected during the brown-out")
	}
	if rep.GrayEjectedAtEnd {
		t.Error("gray node still ejected after the brown-out cleared (no readmission)")
	}
	if rep.Ejections == 0 || rep.Readmissions == 0 {
		t.Errorf("tail events = %d ejections / %d readmissions, want both > 0",
			rep.Ejections, rep.Readmissions)
	}
	// Hedged races must actually fire (ejected primary → immediate race).
	if rep.Hedges == 0 {
		t.Error("no hedged offloads despite an ejected primary in rotation")
	}
	// Budget overrun is bounded: a slow node may burn retry budget, but it
	// must never exhaust more than a sliver of the stream.
	if rep.BudgetExhausted > cfg.Queries/10 {
		t.Errorf("budget-exhausted = %d of %d queries, want <= 10%%",
			rep.BudgetExhausted, cfg.Queries)
	}
	// The victim's virtual clock must show the injected excess (it really
	// was slow) without running away from the healthy cohort unboundedly.
	if rep.GrayVirtualEnd <= rep.HealthyVirtualMax {
		t.Errorf("gray virtual clock %v not ahead of healthy max %v — no brown-out?",
			rep.GrayVirtualEnd, rep.HealthyVirtualMax)
	}
	checkPinned(t, "RunGray/seed=42,queries=40", rep.Digest)
	t.Logf("gray: %d ok / %d failed, hedges %d (wins %d), eject/readmit %d/%d, digest %s",
		rep.Succeeded, rep.Failed, rep.Hedges, rep.HedgeWins,
		rep.Ejections, rep.Readmissions, rep.Digest[:16])
}

// TestGraySweepDeterministicPerSeed: a config's outcome digest — and its
// ejection, readmission, and hedge counters — must be the committed ones,
// byte for byte. Ejection, hedging, and budget decisions all
// derive from the fault plan's virtual clocks, so the whole run replays
// exactly. A different scripted brown-out (another victim) must diverge:
// the hedge pattern follows which node goes gray.
func TestGraySweepDeterministicPerSeed(t *testing.T) {
	cfg := GrayConfig{Seed: 7, Queries: 24}
	a, err := RunGray(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.GrayNode = "storage-02"
	c, err := RunGray(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Digest == a.Digest {
		t.Error("different victims produced identical runs (digest blind to the brown-out?)")
	}
	checkPinned(t, "RunGray/seed=7,queries=24", a.Digest)
	checkPinned(t, "RunGray/seed=7,queries=24,tail", fmt.Sprintf("ejections=%d readmissions=%d hedges=%d", a.Ejections, a.Readmissions, a.Hedges))
	checkPinned(t, "RunGray/seed=7,queries=24,gray=storage-02", c.Digest)
}
