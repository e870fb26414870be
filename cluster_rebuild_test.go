package ironsafe

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ironsafe/internal/monitor"
	"ironsafe/internal/securestore"
)

// queryChannel opens a fenced query channel to storage node id the way the
// session provider does, under a session key installed for it alone, and
// closes it when the test ends.
func queryChannel(t *testing.T, c *Cluster, id string) *fencedNode {
	t.Helper()
	srv := c.storageByID(id)
	key := []byte("test-session-key")
	srv.InstallSessionKey("test-session", key)
	n, err := c.dialNodeChannel(srv, id, "test-session", key, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return &fencedNode{RemoteNode: n, c: c}
}

// TestRestartStorageRequiresKill: restarting a live node is a membership
// error, not a silent no-op — the node must be explicitly quarantined first.
func TestRestartStorageRequiresKill(t *testing.T) {
	c := newFlightCluster(t, IronSafe)
	if err := c.RestartStorage("storage-01", nil); !errors.Is(err, ErrNodeNotDown) {
		t.Errorf("restart of live node = %v, want ErrNodeNotDown", err)
	}
	if c.NodeDown("storage-01") {
		t.Error("refused restart marked the node down")
	}
}

// TestEpochFencedZombieReplyRejected: a node that misses its own eviction (a
// zombie that keeps executing) stamps its replies with the stale epoch; the
// host-side fencing wrapper must reject them even though the payload decodes.
func TestEpochFencedZombieReplyRejected(t *testing.T) {
	c, err := NewCluster(Config{Mode: IronSafe, StorageNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Storage[1].DB().Execute(`CREATE TABLE fence (id INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Storage[1].DB().Execute(`INSERT INTO fence VALUES (1)`); err != nil {
		t.Fatal(err)
	}

	f := queryChannel(t, c, "storage-02")
	if _, _, err := f.Offload(`SELECT id FROM fence`); err != nil {
		t.Fatalf("pre-eviction offload: %v", err)
	}

	// Evict storage-02. The epoch bump is broadcast to survivors only; the
	// zombie keeps replying at the old epoch and betrays itself.
	c.KillStorage("storage-02")
	if _, _, err := f.Offload(`SELECT id FROM fence`); !errors.Is(err, ErrEpochFenced) {
		t.Fatalf("zombie reply = %v, want ErrEpochFenced", err)
	}

	// Readmission hands the node the current epoch; replies on a fresh
	// channel (the restart dropped the node's session keys) are accepted
	// again.
	if err := c.RestartStorage("storage-02", nil); err != nil {
		t.Fatal(err)
	}
	if err := c.ReattestStorage("storage-02"); err != nil {
		t.Fatal(err)
	}
	res, _, err := queryChannel(t, c, "storage-02").Offload(`SELECT id FROM fence`)
	if err != nil {
		t.Fatalf("post-readmission offload: %v", err)
	}
	if res.NumRows() != 1 {
		t.Errorf("post-readmission rows = %d, want 1", res.NumRows())
	}
}

// TestKillReattestMembershipRace hammers the kill/restart/reattest cycle from
// two goroutines (run under -race): the membership transitions must stay
// atomic and the cluster must end in a coherent, queryable state.
func TestKillReattestMembershipRace(t *testing.T) {
	c := newFlightCluster(t, IronSafe)
	const node = "storage-01"

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				c.KillStorage(node)
				// The peer goroutine may have readmitted (ErrNodeNotDown)
				// or be mid-cycle; only membership errors are tolerable.
				if err := c.RestartStorage(node, nil); err != nil && !errors.Is(err, ErrNodeNotDown) {
					t.Errorf("restart: %v", err)
				}
				if err := c.ReattestStorage(node); err != nil && !errors.Is(err, ErrNodeNotReadmitted) {
					t.Errorf("reattest: %v", err)
				}
				_ = c.Epoch()
				_ = c.NodeDown(node)
			}
		}()
	}
	wg.Wait()

	// Settle into the live state and prove the cluster still answers with a
	// verifiable, current-epoch proof.
	if c.NodeDown(node) {
		if err := c.RestartStorage(node, nil); err != nil {
			t.Fatal(err)
		}
		if err := c.ReattestStorage(node); err != nil {
			t.Fatal(err)
		}
	}
	qr, err := c.NewSession("Ka").Query(`SELECT pax FROM flights WHERE dest = 'PT' ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Result.Rows) != 2 {
		t.Errorf("rows = %v", qr.Result.Rows)
	}
	if !monitor.VerifyProof(c.MonitorPublicKey(), &qr.Proof) {
		t.Error("proof does not verify")
	}
	if qr.Proof.Epoch != c.Epoch() {
		t.Errorf("proof bound to epoch %d, cluster at %d", qr.Proof.Epoch, c.Epoch())
	}
}

// TestQuiesceSnapshotRestartUnderCommits: snapshots taken while commits race
// are cleanly stale — restarting from one is either accepted (latest state)
// or refused as a freshness violation, never admitted torn and never
// misclassified as corruption.
func TestQuiesceSnapshotRestartUnderCommits(t *testing.T) {
	c := newFlightCluster(t, IronSafe)
	const node = "storage-01"

	stop := make(chan struct{})
	var inserted atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Exec(fmt.Sprintf(`INSERT INTO flights VALUES (%d, 'w%d', 'FR', 1.00, '1995-08-01')`, 100+i, i)); err != nil {
				t.Errorf("concurrent insert: %v", err)
				return
			}
			inserted.Add(1)
		}
	}()

	var snaps []*MediumSnapshot
	for i := 0; i < 8; i++ {
		snap, err := c.SnapshotStorage(node)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap)
	}
	close(stop)
	wg.Wait()
	final, err := c.SnapshotStorage(node)
	if err != nil {
		t.Fatal(err)
	}

	c.KillStorage(node)
	for i, snap := range snaps {
		err := c.RestartStorage(node, snap)
		switch {
		case err == nil:
			// The snapshot happened to capture the latest commit; re-kill
			// so the next restore starts from quarantine.
			c.KillStorage(node)
		case errors.Is(err, ErrNodeNotReadmitted) && errors.Is(err, securestore.ErrFreshness):
			// Cleanly stale: refused as a rollback, exactly as required.
		default:
			t.Fatalf("snapshot %d restored torn (not cleanly stale): %v", i, err)
		}
	}

	// The post-quiesce snapshot is the anchored state: readmission succeeds
	// and every committed row survived.
	if err := c.RestartStorage(node, final); err != nil {
		t.Fatal(err)
	}
	if err := c.ReattestStorage(node); err != nil {
		t.Fatal(err)
	}
	qr, err := c.NewSession("Ka").Query(`SELECT id FROM flights`)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 + int(inserted.Load()); len(qr.Result.Rows) != want {
		t.Errorf("rows after readmission = %d, want %d", len(qr.Result.Rows), want)
	}
}

// TestRebuildReadmitsRolledBackNode is the acceptance path end to end: a
// replica rolled back to a stale snapshot is refused readmission, rebuilt
// from a live donor over the authenticated channel, and then passes
// re-attestation and serves offloads with the donor's full state.
func TestRebuildReadmitsRolledBackNode(t *testing.T) {
	c, err := NewCluster(Config{Mode: IronSafe, StorageNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	const donor, target = "storage-01", "storage-02"
	for _, srv := range c.Storage {
		if _, err := srv.DB().Execute(`CREATE TABLE replica (id INTEGER)`); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.DB().Execute(`INSERT INTO replica VALUES (1)`); err != nil {
			t.Fatal(err)
		}
	}
	stale, err := c.SnapshotStorage(target)
	if err != nil {
		t.Fatal(err)
	}
	// Both replicas advance past the snapshot.
	for _, srv := range c.Storage {
		if _, err := srv.DB().Execute(`INSERT INTO replica VALUES (2)`); err != nil {
			t.Fatal(err)
		}
	}

	c.KillStorage(target)
	if err := c.RestartStorage(target, stale); !errors.Is(err, ErrNodeNotReadmitted) {
		t.Fatalf("rolled-back restart = %v, want ErrNodeNotReadmitted", err)
	}
	if err := c.RebuildStorage(target, donor); err != nil {
		t.Fatalf("rebuild from donor: %v", err)
	}
	if err := c.ReattestStorage(target); err != nil {
		t.Fatalf("readmission after rebuild: %v", err)
	}

	res, _, err := queryChannel(t, c, target).Offload(`SELECT id FROM replica ORDER BY id`)
	if err != nil {
		t.Fatalf("offload after readmission: %v", err)
	}
	if res.NumRows() != 2 {
		t.Errorf("rebuilt replica rows = %d, want 2 (donor's full state)", res.NumRows())
	}
}
