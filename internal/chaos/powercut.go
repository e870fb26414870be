// Power-cut sweep: the crash-consistency half of the chaos suite.
//
// The secure store's redo journal claims that a power cut at ANY block-write
// boundary leaves the medium recoverable to exactly the last or the next
// anchored transaction state — never a torn in-between, never a silent
// rollback. The sweep proves it exhaustively over a deterministic
// multi-transaction workload of raw store transactions (crashSweep is the
// driver); the whole sweep folds into one digest that is byte-identical for
// a fixed seed.
package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"

	"ironsafe/internal/faultinject"
	"ironsafe/internal/pager"
	"ironsafe/internal/securestore"
)

// SweepConfig scripts one power-cut sweep.
type SweepConfig struct {
	// Seed drives the workload contents (and torn-write cut offsets).
	Seed uint64
	// Txns is the number of group commits in the workload (0 means 4).
	Txns int
	// PagesPerTxn is the pages each transaction writes (0 means 3).
	PagesPerTxn int
	// Tear also sweeps every k with the k-th write torn mid-block, modeling
	// a cut inside the block transfer rather than between blocks.
	Tear bool
}

// SweepReport summarizes a sweep; its steps are the transactions.
type SweepReport struct {
	CrashPoints
	// Digest commits to every (k, torn, landed-state) triple plus the
	// boundary digests; byte-identical across runs with the same config.
	Digest string
}

func (c *SweepConfig) fill() {
	if c.Txns == 0 {
		c.Txns = 4
	}
	if c.PagesPerTxn == 0 {
		c.PagesPerTxn = 3
	}
}

// injectedDeath is the death of a step that runs on the cut medium itself.
func injectedDeath(err error) bool { return errors.Is(err, faultinject.ErrInjected) }

// sweepLandingDigest is the digest of the raw and the statement sweep: the
// sweep's outcome and nothing else.
func sweepLandingDigest(res *CrashPoints) string {
	acc := sha256.New()
	res.digestTo(acc, "")
	return hex.EncodeToString(acc.Sum(nil))
}

// RunSweep executes the power-cut sweep and fails on the first crash point
// whose recovery is not exactly-old-or-new.
func RunSweep(cfg SweepConfig) (*SweepReport, error) {
	cfg.fill()
	sw := crashSweep{
		node: "sweep", seed: cfg.Seed, tear: cfg.Tear, steps: cfg.Txns,
		died: injectedDeath,
		setUp: func(env *sweepEnv, dev pager.BlockDevice, slot uint16) (*securestore.Store, func(int) error, error) {
			s, err := securestore.Open(dev, env.nw, env.meter, securestore.Options{RPMBSlot: slot})
			if err != nil {
				return nil, nil, err
			}
			return s, func(t int) error { return sweepTxn(&cfg, s, t) }, nil
		},
	}
	res, err := sw.run()
	if err != nil {
		return nil, err
	}
	return &SweepReport{CrashPoints: *res, Digest: sweepLandingDigest(res)}, nil
}

// sweepTxn runs one transaction of the workload (t-th overwrite pass).
func sweepTxn(cfg *SweepConfig, s *securestore.Store, t int) error {
	txn := s.Begin()
	for p := 0; p < cfg.PagesPerTxn; p++ {
		idx := uint32(p)
		var err error
		if t == 0 {
			if idx, err = txn.Allocate(); err != nil {
				return err
			}
		}
		if err = txn.WritePage(idx, sweepPage(cfg.Seed, t, p)); err != nil {
			return err
		}
	}
	return txn.Commit()
}
