// Package chaos is IronSafe's fault-injection test harness: it drives a
// multi-node cluster through a long sequence of policy-authorized queries
// while a deterministic fault plan attacks the channels beneath the AEAD
// boundary — connection resets, stalls, corrupted and truncated frames,
// slow peers, whole-node crashes, and restart-with-rollback — and checks the
// three resilience invariants the paper's deployment model needs:
//
//  1. no query ever hangs (deadlines + circuit breaking bound every path),
//  2. no query ever returns a wrong result (a faulted query either fails
//     over to a correct result or fails fast with a typed error), and
//  3. the whole run is byte-for-byte reproducible for a fixed seed.
package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"

	"ironsafe"
	"ironsafe/internal/ctl"
	"ironsafe/internal/faultinject"
	"ironsafe/internal/hostengine"
	"ironsafe/internal/ingest"
	"ironsafe/internal/monitor"
	"ironsafe/internal/resilience"
	"ironsafe/internal/securestore"
	"ironsafe/internal/sql/exec"
	"ironsafe/internal/transport"
)

// Config scripts one chaos run.
type Config struct {
	// Seed drives every fault decision; same seed, same run.
	Seed uint64
	// Queries is how many queries to submit (rotating through QueryMix).
	Queries int
	// Mode is the cluster configuration under attack.
	Mode ironsafe.Mode
	// RollbackAt scripts a kill + restart-with-stale-medium drill before
	// that query index; negative disables it.
	RollbackAt int
}

// QueryMix is the rotation of TPC-H queries the run submits — the subset the
// split executor supports end to end.
var QueryMix = []int{1, 3, 6, 13}

// clientKey identifies the chaos client; accessPolicy grants it reads —
// faults must not bypass the policy path, so every chaos query runs under a
// real authorization.
const (
	clientKey    = "chaosclient"
	accessPolicy = "read :- sessionKeyIs(chaosclient)"
)

// crashRestartAfter is how many queries after a crash the node is restarted
// and re-attested.
const crashRestartAfter = 3

// chaosRules arm every channel fault class at low, steady rates, letting
// handshakes mostly complete (After) so faults spread across the protocol
// rather than all landing on byte one.
func chaosRules() []faultinject.Rule {
	return []faultinject.Rule{
		{Site: ":read", Class: faultinject.Corrupt, Prob: 0.02},
		{Site: ":read", Class: faultinject.Truncate, Prob: 0.015},
		{Site: ":write", Class: faultinject.Reset, Prob: 0.02},
		{Site: ":read", Class: faultinject.Stall, Prob: 0.01, After: 4},
		{Site: ":read", Class: faultinject.Slow, Prob: 0.05},
		{Site: "storage-01", Class: faultinject.Crash, Prob: 0.004, After: 8, MaxCount: 1},
	}
}

// Outcome is one query's normalized result.
type Outcome struct {
	Query int
	SQL   int // index into QueryMix
	OK    bool
	// Class is the normalized failure class ("ok" on success) — typed, so
	// it is stable across runs.
	Class string
	// RowDigest is the canonical encoding digest of the result rows.
	RowDigest string
	Failovers int
	Fallback  bool
	// Hedges counts hedged offload races within the query (only the gray
	// sweep's digest covers it; the fail-stop digest predates the field).
	Hedges int
}

// Report is the full run record.
type Report struct {
	Outcomes []Outcome
	// Classes are the distinct fault classes actually injected.
	Classes []faultinject.Class
	// Digest commits to every outcome plus the fault trace: two runs with
	// the same Config must produce the same digest.
	Digest string
	// Tally partitions the outcomes and counts the broken invariants.
	Tally
}

// errorClasses maps typed errors to stable class tokens; classify returns the
// first match, so order is part of the contract.
var errorClasses = []struct {
	class string
	errs  []error
}{
	// Checked before ErrRebuilding: a readmission refusal may wrap the
	// store's rebuild-marker error and must keep its own class.
	{"not-readmitted", []error{ironsafe.ErrNodeNotReadmitted}},
	{"epoch-fenced", []error{ironsafe.ErrEpochFenced}},
	{"not-down", []error{ironsafe.ErrNodeNotDown}},
	{"rebuilding", []error{securestore.ErrRebuilding}},
	{"all-nodes-failed", []error{hostengine.ErrAllNodesFailed}},
	{"no-storage", []error{ironsafe.ErrNoStorage}},
	{"circuit-open", []error{resilience.ErrCircuitOpen}},
	{"node-down", []error{resilience.ErrNodeDown}},
	{"budget-exhausted", []error{resilience.ErrBudgetExhausted}},
	{"exhausted", []error{resilience.ErrExhausted}},
	{"channel-auth", []error{transport.ErrAuth}},
	{"channel-framing", []error{transport.ErrFrameTooLarge}},
	{"channel-malformed", []error{transport.ErrMalformed}},
	// A torn channel — the peer closed mid-exchange, typically because it
	// detected an attack on its side and failed closed. The tear itself is a
	// recognizable condition, not an untyped leak; retry and failover absorb
	// it like any connection loss.
	{"channel-torn", []error{io.EOF, io.ErrUnexpectedEOF, io.ErrClosedPipe, net.ErrClosed}},
	// Adversary-path classes: every way the secure store can refuse
	// tampered, stale, or rolled-back state must classify, so the adversary
	// sweep can assert no attack ever surfaces untyped.
	{"freshness", []error{securestore.ErrFreshness}},
	{"integrity", []error{securestore.ErrIntegrity}},
	{"journal-corrupt", []error{securestore.ErrJournalCorrupt}},
	{"rebuild-mismatch", []error{securestore.ErrRebuildMismatch}},
	{"injected", []error{faultinject.ErrInjected}},
	// Write-path classes: the ingest sweep demands that every refusal on the
	// streaming write path is as typed as the read path's.
	{"overloaded", []error{ctl.ErrOverloaded}},
	{"denied", []error{monitor.ErrDenied}},
	{"not-dml", []error{ingest.ErrNotDML}},
	{"ingest-closed", []error{ingest.ErrClosed}},
	{"ingest-diverged", []error{ingest.ErrDiverged}},
	// Last: a poisoning commit wraps its cause, which keeps its own class.
	{"store-failed", []error{securestore.ErrStoreFailed}},
}

// classify maps an error to its stable class token.
func classify(err error) string {
	if err == nil {
		return "ok"
	}
	for _, c := range errorClasses {
		for _, e := range c.errs {
			if errors.Is(err, e) {
				return c.class
			}
		}
	}
	return "untyped"
}

func digestRows(res *exec.Result) string {
	blob, err := exec.EncodeResult(res)
	if err != nil {
		return "encode-error"
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:8])
}

// faultyConns is the substrate of the accident sweeps: every storage channel
// wrapped in plan's faultinject.Conn.
func faultyConns(plan *faultinject.Plan) func(string, net.Conn) net.Conn {
	return func(node string, conn net.Conn) net.Conn {
		return faultinject.WrapConn(conn, node, plan)
	}
}

// Run executes one scripted chaos run and returns its report.
func Run(cfg Config) (*Report, error) {
	h := newHarness(cfg.Mode, 2)
	if err := h.reference(accessPolicy); err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}

	// Cluster under attack.
	plan := faultinject.NewPlan(cfg.Seed, chaosRules()...)
	c, err := h.cluster(substrate{conn: faultyConns(plan)})
	if err != nil {
		return nil, fmt.Errorf("chaos: cluster: %w", err)
	}

	// Snapshot the rollback drill's victim (the last node), then evolve the
	// secure media past load state so a rollback to the pre-marker snapshot
	// is genuinely stale (SELECT-only workloads would otherwise leave nothing
	// for the freshness check to catch). The marker is applied identically on
	// every node to keep replicas equivalent.
	victim := nodeIDs(h.nodes)[h.nodes-1]
	stale, err := c.SnapshotStorage(victim)
	if err != nil {
		return nil, err
	}
	if err := markMedia(c); err != nil {
		return nil, err
	}

	// Crash scheduling: the plan's crash callback downs the node; the run
	// loop restarts + re-attests it crashRestartAfter queries later.
	restartAt := map[string]int{}
	queryIdx := 0
	plan.OnCrash = func(node string) {
		c.KillStorage(node)
		if _, scheduled := restartAt[node]; !scheduled {
			restartAt[node] = queryIdx + crashRestartAfter
		}
	}

	rep := &Report{}
	session := c.NewSession(clientKey)
	for queryIdx = 0; queryIdx < cfg.Queries; queryIdx++ {
		// Scripted rollback drill: kill a node, restart it from the stale
		// snapshot, and require readmission to refuse it.
		if queryIdx == cfg.RollbackAt {
			if err := rollbackDrill(c, plan, victim, stale); err != nil {
				return nil, err
			}
		}
		// Due restarts: node comes back, but only re-enters the offload
		// candidate set after the integrity sweep and re-attestation pass.
		for node, due := range restartAt {
			if queryIdx >= due {
				delete(restartAt, node)
				if err := c.RestartStorage(node, nil); err != nil {
					return nil, err
				}
				if err := c.ReattestStorage(node); err != nil {
					return nil, fmt.Errorf("chaos: readmitting %s: %w", node, err)
				}
			}
		}
		out, _ := h.query(session, queryIdx, queryIdx%len(QueryMix), &rep.Tally)
		rep.Outcomes = append(rep.Outcomes, out)
	}

	rep.Classes = classesOf(plan.Stats())
	rep.Digest = digestRun(rep, plan)
	return rep, nil
}

// nodeIDs mirrors the cluster's deterministic node naming.
func nodeIDs(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("storage-%02d", i+1)
	}
	return out
}

// markMedia writes a marker table on every node so the media diverge from
// their load-time snapshots.
func markMedia(c *ironsafe.Cluster) error {
	for _, s := range c.Storage {
		if _, err := s.DB().Execute("CREATE TABLE chaos_epoch (n INTEGER)"); err != nil {
			return err
		}
		if _, err := s.DB().Execute("INSERT INTO chaos_epoch VALUES (1)"); err != nil {
			return err
		}
	}
	return nil
}

// rollbackDrill kills the victim, restarts it from its stale pre-marker
// snapshot, and verifies the cluster refuses it; the node then restarts from
// honest state and rejoins. On secure configurations the refusal now lands
// at RestartStorage itself: the reopen runs the secure store's journal
// recovery, which distinguishes a mid-commit crash (recoverable) from a
// rolled-back medium (ErrFreshness) before re-attestation even starts.
func rollbackDrill(c *ironsafe.Cluster, plan *faultinject.Plan, victim string, stale *ironsafe.MediumSnapshot) error {
	good, err := c.SnapshotStorage(victim)
	if err != nil {
		return err
	}
	c.KillStorage(victim)
	plan.Record(faultinject.Crash, "drill:"+victim)
	secureStore := c.Mode() == ironsafe.IronSafe || c.Mode() == ironsafe.StorageOnlySecure
	switch err := c.RestartStorage(victim, stale); {
	case errors.Is(err, ironsafe.ErrNodeNotReadmitted):
		if !secureStore {
			return fmt.Errorf("chaos: non-secure store refused a restart: %w", err)
		}
	case err != nil:
		return err
	default:
		// The reopen accepted the medium (non-secure stores cannot detect
		// rollback); readmission is the remaining gate.
		if err := c.ReattestStorage(victim); err == nil {
			if secureStore {
				return errors.New("chaos: rolled-back node was readmitted")
			}
		} else if !errors.Is(err, ironsafe.ErrNodeNotReadmitted) {
			return fmt.Errorf("chaos: rollback refusal had wrong type: %w", err)
		}
	}
	plan.Record(faultinject.Rollback, "drill:"+victim)
	// Honest restart: back to the current state, readmission must pass.
	if err := c.RestartStorage(victim, good); err != nil {
		return err
	}
	if err := c.ReattestStorage(victim); err != nil {
		return fmt.Errorf("chaos: honest restart refused: %w", err)
	}
	return nil
}

// classesOf lists the classes stats counted at least once, in class order —
// the acceptance gates ("≥ 6 fault classes", "every attack class mounted").
func classesOf(stats map[faultinject.Class]int) []faultinject.Class {
	var out []faultinject.Class
	for c, n := range stats {
		if n > 0 {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// digestLines commits to a sequence of lines, each newline-terminated.
func digestLines(lines []string) string {
	acc := sha256.New()
	for _, line := range lines {
		io.WriteString(acc, line)
		acc.Write([]byte{'\n'})
	}
	return hex.EncodeToString(acc.Sum(nil))
}

// digestRun commits to the run: every outcome line plus the fault trace.
func digestRun(rep *Report, plan *faultinject.Plan) string {
	var lines []string
	for _, o := range rep.Outcomes {
		lines = append(lines, fmt.Sprintf("q%03d mix=%d ok=%t class=%s rows=%s failovers=%d fallback=%t",
			o.Query, o.SQL, o.OK, o.Class, o.RowDigest, o.Failovers, o.Fallback))
	}
	return digestLines(append(lines, plan.Trace()...))
}
