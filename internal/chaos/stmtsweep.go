// Statement-level power-cut sweep: the whole-statement-atomicity half of the
// crash suite. Where powercut.go sweeps raw store transactions, this sweep
// drives the full engine — INSERT appends, UPDATE/DELETE heap rewrites, and
// the catalog update each statement carries — and proves that a power cut at
// ANY device-write boundary (including inside a rewrite's zeroing pass and
// inside the catalog persist) recovers to a whole-statement boundary: the
// statement's pre-image or post-image, catalog included, never a mix.
package chaos

import (
	"encoding/hex"
	"fmt"

	"ironsafe/internal/engine"
	"ironsafe/internal/pager"
	"ironsafe/internal/securestore"
)

// StatementSweepConfig scripts one statement-level power-cut sweep.
type StatementSweepConfig struct {
	// Seed drives row payloads and torn-write cut offsets.
	Seed uint64
	// Tear also sweeps every k with the k-th write torn mid-block.
	Tear bool
}

// StatementSweepReport summarizes a statement sweep.
type StatementSweepReport struct {
	CrashPoints
	// Statements is how many DML statements — the steps — the workload runs.
	Statements int
	// Digest commits to every (k, torn, landing) plus the boundary digests.
	Digest string
}

// stmtSweepWorkload is the scripted DML sequence. Every shape that moves
// pages is covered: multi-row INSERT (append + catalog growth), UPDATE and
// DELETE (whole-heap rewrite: new pages written, old pages zeroed), and a
// trailing INSERT after a rewrite (appends into the rewritten page list).
func stmtSweepWorkload(seed uint64) []string {
	pay := func(i int) string {
		return hex.EncodeToString(sweepPage(seed, 100, i)[:8])
	}
	return []string{
		fmt.Sprintf("INSERT INTO ev (id, client, payload) VALUES (4, 'c1', '%s'), (5, 'c2', '%s'), (6, 'c1', '%s')", pay(0), pay(1), pay(2)),
		fmt.Sprintf("UPDATE ev SET payload = '%s' WHERE id <= 3", pay(3)),
		"DELETE FROM ev WHERE id = 2",
		fmt.Sprintf("INSERT INTO ev (id, client, payload) VALUES (7, 'c2', '%s')", pay(4)),
		fmt.Sprintf("UPDATE ev SET client = 'c3', payload = '%s' WHERE id = 5", pay(5)),
		"DELETE FROM ev WHERE id <= 4",
	}
}

// stmtSweepSetup opens a store+engine over the cut device and loads the
// fixed pre-workload state. Runs unarmed: setup writes are not swept.
func stmtSweepSetup(env *sweepEnv, dev pager.BlockDevice, slot uint16, seed uint64) (*securestore.Store, *engine.DB, error) {
	s, err := securestore.Open(dev, env.nw, env.meter, securestore.Options{RPMBSlot: slot})
	if err != nil {
		return nil, nil, err
	}
	db, err := engine.Open(s, env.meter)
	if err != nil {
		return nil, nil, err
	}
	if _, err := db.Execute("CREATE TABLE ev (id INTEGER, client TEXT, payload TEXT)"); err != nil {
		return nil, nil, err
	}
	seedStmt := fmt.Sprintf("INSERT INTO ev (id, client, payload) VALUES (1, 'c1', '%s'), (2, 'c2', '%s'), (3, 'c1', '%s')",
		hex.EncodeToString(sweepPage(seed, 99, 0)[:8]),
		hex.EncodeToString(sweepPage(seed, 99, 1)[:8]),
		hex.EncodeToString(sweepPage(seed, 99, 2)[:8]))
	if _, err := db.Execute(seedStmt); err != nil {
		return nil, nil, err
	}
	return s, db, nil
}

// stmtSweepRecovered checks what a digest cannot: the recovered catalog must
// load and the ev heap must scan cleanly, so a heap committed without its
// catalog (or vice versa) is caught here.
func stmtSweepRecovered(env *sweepEnv, s *securestore.Store) error {
	db, err := engine.Open(s, env.meter)
	if err != nil {
		return fmt.Errorf("recovered catalog failed to load: %w", err)
	}
	tab, err := db.Table("ev")
	if err != nil {
		return fmt.Errorf("recovered catalog lost table ev: %w", err)
	}
	if _, err := tab.Count(); err != nil {
		return fmt.Errorf("recovered heap does not scan: %w", err)
	}
	return nil
}

// RunStatementSweep executes the statement-level power-cut sweep and fails
// on the first crash point whose recovery is not a whole-statement boundary.
func RunStatementSweep(cfg StatementSweepConfig) (*StatementSweepReport, error) {
	stmts := stmtSweepWorkload(cfg.Seed)
	sw := crashSweep{
		node: "stmtsweep", seed: cfg.Seed, tear: cfg.Tear, steps: len(stmts),
		died:      injectedDeath,
		recovered: stmtSweepRecovered,
		setUp: func(env *sweepEnv, dev pager.BlockDevice, slot uint16) (*securestore.Store, func(int) error, error) {
			s, db, err := stmtSweepSetup(env, dev, slot, cfg.Seed)
			if err != nil {
				return nil, nil, err
			}
			return s, func(i int) error {
				_, err := db.Execute(stmts[i])
				return err
			}, nil
		},
	}
	res, err := sw.run()
	if err != nil {
		return nil, err
	}
	return &StatementSweepReport{CrashPoints: *res, Statements: len(stmts), Digest: sweepLandingDigest(res)}, nil
}
