package chaos

import (
	"errors"
	"testing"

	"ironsafe"
	"ironsafe/internal/faultinject"
	"ironsafe/internal/pager"
	"ironsafe/internal/tpch"
)

// TestPowerCutSweepEveryBoundary is the crash-consistency acceptance gate:
// a power cut at EVERY block-write boundary of a multi-transaction workload
// — clean and torn — must recover to exactly the old or the new state of the
// interrupted transaction. RunSweep fails on the first violating k.
func TestPowerCutSweepEveryBoundary(t *testing.T) {
	rep, err := RunSweep(SweepConfig{Seed: 42, Tear: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Points != 2*rep.Writes {
		t.Errorf("swept %d points over %d writes, want clean+torn at every k", rep.Points, rep.Writes)
	}
	if rep.LandedOld == 0 {
		t.Error("no crash point recovered to the pre-transaction state (journal always won?)")
	}
	if rep.LandedNew == 0 {
		t.Error("no crash point replayed the journaled transaction (redo never ran?)")
	}
	checkPinned(t, "RunSweep/seed=42,tear", rep.Digest)
	t.Logf("sweep: %d writes, %d points, %d landed old / %d landed new, digest %s",
		rep.Writes, rep.Points, rep.LandedOld, rep.LandedNew, rep.Digest[:16])
}

// TestPowerCutSweepDeterministicPerSeed: a seed's digest (covering every
// crash point's landing) must be the committed one, byte for byte, and a
// different seed must diverge.
func TestPowerCutSweepDeterministicPerSeed(t *testing.T) {
	cfg := SweepConfig{Seed: 7, Txns: 3, PagesPerTxn: 2, Tear: true}
	a, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 8
	c, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Digest == a.Digest {
		t.Error("different seeds produced identical sweeps (workload not seed-driven?)")
	}
	checkPinned(t, "RunSweep/seed=7,txns=3,pages=2,tear", a.Digest)
	checkPinned(t, "RunSweep/seed=8,txns=3,pages=2,tear", c.Digest)
}

// TestClusterPowerCutCrashReadmitted cuts power to storage-02 in the middle
// of a group commit, then walks the node through the full lifecycle: restart
// runs journal recovery (a crash is not a rollback, so RestartStorage must
// succeed), re-attestation readmits it — while a restart from a rolled-back
// medium is still refused with ErrNodeNotReadmitted.
func TestClusterPowerCutCrashReadmitted(t *testing.T) {
	var cut *faultinject.PowerCut
	c, err := ironsafe.NewCluster(ironsafe.Config{
		Mode:         ironsafe.IronSafe,
		StorageNodes: 2,
		StorageDeviceWrapper: func(node string, dev pager.BlockDevice) pager.BlockDevice {
			if node != "storage-02" {
				return dev
			}
			cut = faultinject.NewPowerCut(dev, node)
			return cut
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cut == nil {
		t.Fatal("device wrapper never installed on storage-02")
	}
	if err := c.LoadTPCHData(tpch.Generate(0.001)); err != nil {
		t.Fatal(err)
	}
	stale, err := c.SnapshotStorage("storage-02")
	if err != nil {
		t.Fatal(err)
	}

	// Cut power at the second block write of the next commit: the journal
	// record lands, the in-place writes do not — the canonical crash window.
	cut.Arm(2, false, 7)
	err = markMedia(c)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("markMedia over a dying medium = %v, want injected", err)
	}
	c.KillStorage("storage-02")
	cut.Disarm()
	cut.Revive()

	// A crashed-mid-commit node recovers and is readmitted.
	if err := c.RestartStorage("storage-02", nil); err != nil {
		t.Fatalf("crash recovery restart refused: %v", err)
	}
	if err := c.ReattestStorage("storage-02"); err != nil {
		t.Fatalf("recovered node not readmitted: %v", err)
	}
	if c.NodeDown("storage-02") {
		t.Error("readmitted node still marked down")
	}
	good, err := c.SnapshotStorage("storage-02")
	if err != nil {
		t.Fatal(err)
	}

	// A rolled-back medium is not a crash: restart must refuse it.
	c.KillStorage("storage-02")
	err = c.RestartStorage("storage-02", stale)
	if !errors.Is(err, ironsafe.ErrNodeNotReadmitted) {
		t.Fatalf("rolled-back restart = %v, want ErrNodeNotReadmitted", err)
	}
	if !c.NodeDown("storage-02") {
		t.Error("refused node left the quarantine set")
	}

	// Honest restart from the recovered state readmits again.
	if err := c.RestartStorage("storage-02", good); err != nil {
		t.Fatal(err)
	}
	if err := c.ReattestStorage("storage-02"); err != nil {
		t.Fatalf("honest restart refused: %v", err)
	}
}
