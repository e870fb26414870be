package chaos

import (
	"errors"
	"net"
	"testing"
	"time"

	"ironsafe"
	"ironsafe/internal/faultinject"
	"ironsafe/internal/resilience"
	"ironsafe/internal/tpch"
)

// TestChaosSuiteInvariants is the acceptance gate: 60 queries against a
// 2-node IronSafe (scs) cluster under every fault class. Each query must
// complete correctly or fail fast with a typed error — zero hangs, zero
// wrong results — and the whole run must be byte-for-byte deterministic.
func TestChaosSuiteInvariants(t *testing.T) {
	cfg := Config{
		Seed:       42,
		Queries:    60,
		Mode:       ironsafe.IronSafe,
		RollbackAt: 20,
	}
	rep, err := Run(cfg)
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
		t.Errorf("untyped failures = %d, want 0 (every failure must be typed)", rep.Untyped)
	}
	if rep.Succeeded == 0 {
		t.Error("no query succeeded — the cluster never degraded gracefully")
	}
	if len(rep.Classes) < 6 {
		t.Errorf("only %d fault classes injected (%v), want >= 6", len(rep.Classes), rep.Classes)
	}
	if len(rep.Outcomes) != cfg.Queries {
		t.Errorf("outcomes = %d, want %d", len(rep.Outcomes), cfg.Queries)
	}
	checkPinned(t, "Run/seed=42,queries=60,rollback=20", rep.Digest)
	t.Logf("chaos: %d ok / %d failed, classes %v, digest %s",
		rep.Succeeded, rep.Failed, rep.Classes, rep.Digest[:16])
}

// TestChaosDeterministicPerSeed: the digest (covering every outcome, row
// digest, and fault decision) of a seed must be the committed one, byte for
// byte — any two runs of it, in any process, then agree — and a different
// seed must diverge.
func TestChaosDeterministicPerSeed(t *testing.T) {
	cfg := Config{Seed: 7, Queries: 24, Mode: ironsafe.IronSafe, RollbackAt: 10}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 8
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Digest == a.Digest {
		t.Error("different seeds produced identical runs (faults not seed-driven?)")
	}
	checkPinned(t, "Run/seed=7,queries=24,rollback=10", a.Digest)
	checkPinned(t, "Run/seed=8,queries=24,rollback=10", c.Digest)
}

// TestStorageKillMidOffloadSurvived crashes storage-01 on its first offload
// read in full IronSafe mode: the query must fail over to the surviving
// replica and return a verified-proof result; the crashed node must be
// excluded from authorizations until it re-attests, then rejoin.
func TestStorageKillMidOffloadSurvived(t *testing.T) {
	plan := faultinject.NewPlan(1,
		faultinject.Rule{Site: "conn:storage-01:read", Class: faultinject.Crash, Prob: 1, MaxCount: 1})
	rc := chaosResilience()
	c, err := ironsafe.NewCluster(ironsafe.Config{
		Mode:         ironsafe.IronSafe,
		StorageNodes: 2,
		ConnWrapper: func(node string, conn net.Conn) net.Conn {
			return faultinject.WrapConn(conn, node, plan)
		},
		Resilience: rc,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan.OnCrash = c.KillStorage
	if err := c.LoadTPCHData(tpch.Generate(0.001)); err != nil {
		t.Fatal(err)
	}
	if err := c.SetAccessPolicy(accessPolicy); err != nil {
		t.Fatal(err)
	}
	session := c.NewSession(clientKey)

	res, err := session.Query(tpch.Queries[6])
	if err != nil {
		t.Fatalf("query did not survive the mid-offload crash: %v", err)
	}
	if res.Stats.Failovers == 0 {
		t.Error("no failover recorded despite the scripted crash")
	}
	if len(res.Proof.Signature) == 0 {
		t.Error("surviving result has no proof")
	}
	if !c.NodeDown("storage-01") {
		t.Fatal("crashed node not marked down")
	}

	// While down, the monitor must exclude the node from authorizations.
	res2, err := session.Query(tpch.Queries[6])
	if err != nil {
		t.Fatalf("follow-up on surviving node: %v", err)
	}
	for _, id := range res2.Proof.StorageIDs {
		if id == "storage-01" {
			t.Error("downed node still authorized for offloads")
		}
	}

	// Restart + readmission: integrity sweep and re-attestation must pass
	// before the node serves offloads again.
	if err := c.RestartStorage("storage-01", nil); err != nil {
		t.Fatal(err)
	}
	if err := c.ReattestStorage("storage-01"); err != nil {
		t.Fatalf("honest restart refused: %v", err)
	}
	res3, err := session.Query(tpch.Queries[6])
	if err != nil {
		t.Fatal(err)
	}
	readmitted := false
	for _, id := range res3.Proof.StorageIDs {
		if id == "storage-01" {
			readmitted = true
		}
	}
	if !readmitted {
		t.Error("re-attested node absent from new authorizations")
	}
}

// TestRollbackRestartRefused restarts a node with a stale medium snapshot:
// the secure store's journal recovery must refuse the reopen with a typed
// error at RestartStorage (a rolled-back medium is not a crash), and the
// node stays quarantined until an honest restart.
func TestRollbackRestartRefused(t *testing.T) {
	c, err := ironsafe.NewCluster(ironsafe.Config{Mode: ironsafe.IronSafe, StorageNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.LoadTPCHData(tpch.Generate(0.001)); err != nil {
		t.Fatal(err)
	}
	stale, err := c.SnapshotStorage("storage-02")
	if err != nil {
		t.Fatal(err)
	}
	if err := markMedia(c); err != nil {
		t.Fatal(err)
	}
	good, err := c.SnapshotStorage("storage-02")
	if err != nil {
		t.Fatal(err)
	}

	c.KillStorage("storage-02")
	err = c.RestartStorage("storage-02", stale)
	if !errors.Is(err, ironsafe.ErrNodeNotReadmitted) {
		t.Fatalf("rolled-back node restart: %v, want ErrNodeNotReadmitted", err)
	}
	if !c.NodeDown("storage-02") {
		t.Error("refused node left the quarantine set")
	}

	// Honest restart readmits.
	if err := c.RestartStorage("storage-02", good); err != nil {
		t.Fatal(err)
	}
	if err := c.ReattestStorage("storage-02"); err != nil {
		t.Fatalf("honest restart refused: %v", err)
	}
	if c.NodeDown("storage-02") {
		t.Error("readmitted node still marked down")
	}
}

// TestVanillaCSHostFallback kills every storage channel in vcs mode: the
// query must degrade to the host block-fetch path and still return correct
// rows.
func TestVanillaCSHostFallback(t *testing.T) {
	plan := faultinject.NewPlan(1,
		faultinject.Rule{Site: "conn:", Class: faultinject.Reset, Prob: 1})
	c, err := ironsafe.NewCluster(ironsafe.Config{
		Mode:         ironsafe.VanillaCS,
		StorageNodes: 2,
		ConnWrapper: func(node string, conn net.Conn) net.Conn {
			return faultinject.WrapConn(conn, node, plan)
		},
		Resilience: chaosResilience(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.LoadTPCHData(tpch.Generate(0.001)); err != nil {
		t.Fatal(err)
	}
	if err := c.SetAccessPolicy(accessPolicy); err != nil {
		t.Fatal(err)
	}
	res, err := c.NewSession(clientKey).Query(tpch.Queries[6])
	if err != nil {
		t.Fatalf("host fallback did not rescue the query: %v", err)
	}
	if !res.Stats.HostFallback {
		t.Error("fallback flag not set")
	}
	direct, err := c.Storage[0].DB().Execute(res.Stats.RewrittenSQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Result.Rows) != len(direct.Rows) {
		t.Errorf("fallback rows = %d, direct = %d", len(res.Result.Rows), len(direct.Rows))
	}
}

func chaosResilience() *resilience.Config {
	return &resilience.Config{
		HandshakeTimeout: 500 * time.Millisecond,
		IOTimeout:        250 * time.Millisecond,
	}
}
