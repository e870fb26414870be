package chaos

import "testing"

// TestStatementSweepEveryBoundary proves whole-statement crash atomicity: a
// power cut at EVERY device-write boundary of a DML workload — including
// inside UPDATE/DELETE heap rewrites and inside the catalog persist, clean
// and torn — must recover to a statement's pre- or post-image, catalog
// included, never a mix. RunStatementSweep fails on the first violating k.
func TestStatementSweepEveryBoundary(t *testing.T) {
	rep, err := RunStatementSweep(StatementSweepConfig{Seed: 42, Tear: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Points != 2*rep.Writes {
		t.Errorf("swept %d points over %d writes, want clean+torn at every k", rep.Points, rep.Writes)
	}
	if rep.LandedOld == 0 {
		t.Error("no crash point recovered to a statement's pre-image (journal always won?)")
	}
	if rep.LandedNew == 0 {
		t.Error("no crash point replayed a statement's journaled commit (redo never ran?)")
	}
	checkPinned(t, "RunStatementSweep/seed=42,tear", rep.Digest)
	t.Logf("statement sweep: %d statements, %d writes, %d points, %d landed old / %d landed new, digest %s",
		rep.Statements, rep.Writes, rep.Points, rep.LandedOld, rep.LandedNew, rep.Digest[:16])
}

// TestStatementSweepDeterministicPerSeed: a config must produce the committed
// sweep digest, byte for byte; a different seed must diverge.
func TestStatementSweepDeterministicPerSeed(t *testing.T) {
	cfg := StatementSweepConfig{Seed: 7, Tear: true}
	a, err := RunStatementSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 8
	c, err := RunStatementSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Digest == a.Digest {
		t.Error("different seeds produced identical sweeps (workload not seed-driven?)")
	}
	checkPinned(t, "RunStatementSweep/seed=7,tear", a.Digest)
	checkPinned(t, "RunStatementSweep/seed=8,tear", c.Digest)
}
