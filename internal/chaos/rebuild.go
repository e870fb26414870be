// Rebuild sweep: the anti-entropy half of the chaos suite.
//
// RebuildStorage claims that a fault at ANY point of a replica rebuild —
// a channel fault on either leg, a power cut at any target block write,
// clean or torn — leaves the target either fully consistent with the donor
// or still quarantined (readmission refused), never half-admitted. The sweep
// proves it the same way the power-cut sweep does: a clean rebuild first
// counts every channel operation per leg and every target device write; then
// every fault point on that grid is replayed with exactly one fault armed.
// Channel faults must be absorbed by the retry path (fresh channels, resume
// from the committed prefix); device cuts must fail the rebuild with a typed
// error, leave readmission refused, and a subsequent clean rebuild must
// converge to the donor's exact byte state. The whole sweep folds into one
// digest that is byte-identical for a fixed seed.
package chaos

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"

	"ironsafe"
	"ironsafe/internal/faultinject"
	"ironsafe/internal/pager"
	"ironsafe/internal/storageengine"
	"ironsafe/internal/tpch"
)

// RebuildConfig scripts one rebuild sweep.
type RebuildConfig struct {
	// Seed drives fault decisions and torn-write cut offsets.
	Seed uint64
	// Stride sweeps every Stride-th fault point (0 means every point) —
	// the knob trading coverage for runtime.
	Stride int
}

// RebuildReport summarizes a sweep.
type RebuildReport struct {
	// Points is the number of fault points exercised across both sweeps.
	Points int
	// Absorbed counts channel-fault points the retry path absorbed
	// (must equal the channel point count).
	Absorbed int
	// Refused counts device-cut points where readmission correctly refused
	// the half-rebuilt node (must equal the device point count).
	Refused int
	// DonorReadOps / TargetWriteOps are the clean rebuild's channel
	// operation counts per leg — the channel sweep's k ranges.
	DonorReadOps, TargetWriteOps int
	// DeviceWrites is the clean rebuild's target device write count — the
	// device sweep's k range.
	DeviceWrites int
	// Digest commits to every (point, outcome) pair plus the reference
	// digests; byte-identical across runs with the same config.
	Digest string
	// Trace is the digest's preimage, one line per fault point — what to
	// diff when two same-seed sweeps disagree.
	Trace []string
}

// RunRebuildSweep executes the rebuild fault sweep and fails on the first
// point that violates the all-or-quarantined invariant.
func RunRebuildSweep(cfg RebuildConfig) (*RebuildReport, error) {
	cfg.Stride = max(cfg.Stride, 1)
	// The two-node IronSafe cluster under sweep: a PowerCut under every
	// storage medium (collected into cuts) for the device sweep, and
	// holder-driven fault wrapping on every channel — the sweep swaps fault
	// plans between rebuild cycles, the wrapper consults the holder at
	// channel-wrap time, so each cycle's fresh channels see that cycle's plan
	// (and a fresh per-site op stream).
	var holder atomic.Pointer[faultinject.Plan]
	cuts := map[string]*faultinject.PowerCut{}
	h := newHarness(ironsafe.IronSafe, 2)
	c, err := h.cluster(substrate{
		conn: func(node string, conn net.Conn) net.Conn {
			if p := holder.Load(); p != nil {
				return faultinject.WrapConn(conn, node, p)
			}
			return conn
		},
		device: func(node string, dev pager.BlockDevice) pager.BlockDevice {
			cut := faultinject.NewPowerCut(dev, node)
			cuts[node] = cut
			return cut
		},
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: rebuild cluster: %w", err)
	}
	ids := nodeIDs(2)
	donor, target := ids[0], ids[1]

	// Stale snapshot first, marker table second: restoring the snapshot
	// later rolls the target behind the donor, so every quarantine cycle
	// starts from the same genuinely-stale medium.
	stale, err := c.SnapshotStorage(target)
	if err != nil {
		return nil, err
	}
	if err := markMedia(c); err != nil {
		return nil, err
	}

	session := c.NewSession(clientKey)
	refRes, err := session.Query(tpch.Queries[6])
	if err != nil {
		return nil, fmt.Errorf("chaos: reference query: %w", err)
	}
	refDigest := digestRows(refRes.Result)
	donorDigest, err := sweepDigest(c.Storage[0].SecureStore())
	if err != nil {
		return nil, fmt.Errorf("chaos: donor digest: %w", err)
	}

	// quarantine kills the target and restarts it from the stale snapshot;
	// the secure store must refuse the rollback, leaving the node down with
	// a known medium — the sweep's repeatable starting state.
	quarantine := func() error {
		c.KillStorage(target)
		err := c.RestartStorage(target, stale)
		if !errors.Is(err, ironsafe.ErrNodeNotReadmitted) {
			return fmt.Errorf("chaos: stale restart of %s = %v, want ErrNodeNotReadmitted", target, err)
		}
		return nil
	}
	// checkConverged verifies the rebuilt target readmits and matches the
	// donor byte for byte.
	checkConverged := func(point string) error {
		if err := c.ReattestStorage(target); err != nil {
			return fmt.Errorf("chaos: %s: rebuilt node refused readmission: %w", point, err)
		}
		d, err := sweepDigest(c.Storage[1].SecureStore())
		if err != nil {
			return fmt.Errorf("chaos: %s: target digest: %w", point, err)
		}
		if d != donorDigest {
			return fmt.Errorf("chaos: %s: rebuilt state diverges from donor", point)
		}
		return nil
	}

	// The donor's page-level digest is a same-run quantity: data load is not
	// byte-stable across cluster instances (insertion order), so the
	// cross-run trace commits to the row-level reference and per-point
	// outcomes, while donorDigest anchors the within-run convergence checks.
	rep := &RebuildReport{}
	rep.Trace = append(rep.Trace, "ref="+refDigest)

	// Clean counting cycle: how many channel ops per leg and device writes
	// one rebuild costs — the fault grids.
	if err := quarantine(); err != nil {
		return nil, err
	}
	countPlan := faultinject.NewPlan(cfg.Seed)
	holder.Store(countPlan)
	cuts[target].Arm(0, false, 1)
	if err := c.RebuildStorage(target, donor); err != nil {
		return nil, fmt.Errorf("chaos: fault-free rebuild failed: %w", err)
	}
	rep.DeviceWrites = cuts[target].Writes()
	cuts[target].Disarm()
	holder.Store(nil)
	donorReadSite := "conn:" + storageengine.RebuildSessionPrefix + donor + ":read"
	targetWriteSite := "conn:" + storageengine.RebuildSessionPrefix + target + ":write"
	rep.DonorReadOps = countPlan.OpsAt(donorReadSite)
	rep.TargetWriteOps = countPlan.OpsAt(targetWriteSite)
	if err := checkConverged("clean"); err != nil {
		return nil, err
	}

	// Serve check: with the donor dead, the rebuilt replica alone must
	// answer correctly — rebuild transferred usable state, not just bytes.
	c.KillStorage(donor)
	servRes, err := session.Query(tpch.Queries[6])
	if err != nil {
		return nil, fmt.Errorf("chaos: rebuilt node failed to serve: %w", err)
	}
	if digestRows(servRes.Result) != refDigest {
		return nil, errors.New("chaos: rebuilt node served wrong rows")
	}
	if err := c.RestartStorage(donor, nil); err != nil {
		return nil, err
	}
	if err := c.ReattestStorage(donor); err != nil {
		return nil, fmt.Errorf("chaos: readmitting donor: %w", err)
	}
	rep.Trace = append(rep.Trace, "serve-ok")

	// Channel sweep: one fault on one leg at each k-th operation. Retry
	// re-handshakes fresh channels and resumes the import, so every point
	// must be absorbed and converge.
	connCases := []struct {
		name  string
		site  string
		class faultinject.Class
		ops   int
	}{
		{"donor-read-corrupt", donorReadSite, faultinject.Corrupt, rep.DonorReadOps},
		{"donor-read-truncate", donorReadSite, faultinject.Truncate, rep.DonorReadOps},
		{"target-write-reset", targetWriteSite, faultinject.Reset, rep.TargetWriteOps},
	}
	for _, cc := range connCases {
		for k := 1; k <= cc.ops; k += cfg.Stride {
			if err := quarantine(); err != nil {
				return nil, err
			}
			plan := faultinject.NewPlan(cfg.Seed,
				faultinject.Rule{Site: cc.site, Class: cc.class, Prob: 1, After: k - 1, MaxCount: 1})
			holder.Store(plan)
			err := c.RebuildStorage(target, donor)
			holder.Store(nil)
			if err != nil {
				return nil, fmt.Errorf("chaos: %s k=%d not absorbed: %w", cc.name, k, err)
			}
			if err := checkConverged(fmt.Sprintf("%s k=%d", cc.name, k)); err != nil {
				return nil, err
			}
			rep.Points++
			rep.Absorbed++
			rep.Trace = append(rep.Trace, fmt.Sprintf("%s k=%d absorbed", cc.name, k))
		}
	}

	// Device sweep: power cut (clean and torn) at every k-th target write.
	// The rebuild must fail typed, the half-rebuilt node must stay
	// quarantined, and a subsequent clean rebuild must converge.
	for _, tear := range []bool{false, true} {
		for k := 1; k <= rep.DeviceWrites; k += cfg.Stride {
			if err := quarantine(); err != nil {
				return nil, err
			}
			cuts[target].Arm(k, tear, cfg.Seed)
			rbErr := c.RebuildStorage(target, donor)
			cuts[target].Disarm()
			cuts[target].Revive()
			if rbErr == nil {
				return nil, fmt.Errorf("chaos: device cut k=%d tear=%t: rebuild succeeded despite the cut", k, tear)
			}
			rbClass := classify(rbErr)
			if rbClass == "untyped" {
				return nil, fmt.Errorf("chaos: device cut k=%d tear=%t: untyped rebuild failure: %w", k, tear, rbErr)
			}
			// Half-admission check: the interrupted node must be refused.
			raErr := c.ReattestStorage(target)
			if !errors.Is(raErr, ironsafe.ErrNodeNotReadmitted) {
				return nil, fmt.Errorf("chaos: device cut k=%d tear=%t: half-rebuilt node readmitted (err=%v)", k, tear, raErr)
			}
			// Recovery: a clean rebuild resumes (or restarts) and converges.
			if err := c.RebuildStorage(target, donor); err != nil {
				return nil, fmt.Errorf("chaos: device cut k=%d tear=%t: recovery rebuild failed: %w", k, tear, err)
			}
			if err := checkConverged(fmt.Sprintf("device k=%d tear=%t", k, tear)); err != nil {
				return nil, err
			}
			rep.Points++
			rep.Refused++
			rep.Trace = append(rep.Trace, fmt.Sprintf("device k=%d tear=%t rebuild=%s refused", k, tear, rbClass))
		}
	}

	rep.Digest = digestLines(rep.Trace)
	return rep, nil
}
