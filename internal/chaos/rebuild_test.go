package chaos

import "testing"

// TestRebuildFaultMatrixDeterministic drives the full rebuild fault sweep:
// every fault point must uphold the all-or-quarantined invariant (enforced
// inside RunRebuildSweep), and the report's digest — every (point, outcome)
// pair — must be the committed one, byte for byte.
func TestRebuildFaultMatrixDeterministic(t *testing.T) {
	cfg := RebuildConfig{Seed: 0xB1D5, Stride: 13}
	a, err := RunRebuildSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Points == 0 {
		t.Fatal("sweep exercised zero fault points")
	}
	if a.Absorbed+a.Refused != a.Points {
		t.Errorf("absorbed %d + refused %d != points %d", a.Absorbed, a.Refused, a.Points)
	}
	if a.DeviceWrites == 0 || a.DonorReadOps == 0 || a.TargetWriteOps == 0 {
		t.Errorf("clean counting cycle saw no operations: %+v", a)
	}
	checkPinned(t, "RunRebuildSweep/seed=0xB1D5,stride=13", a.Digest)
}

// TestRebuildReadmitNarrowStride spot-checks the sweep's early fault points
// (the handshake and marker-write windows, where half-admission bugs would
// live) at full resolution over a tiny grid.
func TestRebuildReadmitNarrowStride(t *testing.T) {
	if testing.Short() {
		t.Skip("full-resolution sweep in -short mode")
	}
	rep, err := RunRebuildSweep(RebuildConfig{Seed: 7, Stride: 97})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Refused == 0 {
		t.Error("device sweep exercised zero cut points")
	}
	checkPinned(t, "RunRebuildSweep/seed=7,stride=97", rep.Digest)
}
