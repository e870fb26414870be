// Ingest-under-chaos sweep: the acked-write half of the crash suite.
//
// RunIngest drives the durable streaming-ingest pipeline through three
// scripted phases and folds them into one per-seed byte-identical digest:
//
//   - Phase A (concurrency + brown-out): multiple clients stream policy-
//     authorized records into a two-node IronSafe cluster while TPC-H reads
//     run concurrently over brown-out-injected channels (Slow/Stall). Reads
//     must never hang, never return wrong rows, never fail untyped — and a
//     snapshot probe must never observe a torn multi-row insert.
//   - Phase B (power-cut sweep): a single submitter streams a DML workload
//     through the pipeline while a power cut is armed at EVERY device-write
//     boundary, clean and torn. Recovery must land on a record boundary:
//     every acked record survives, the interrupted record is all-or-nothing,
//     catalog included.
//   - Phase C (node kills mid-batch): the authority and then the replica are
//     power-cut mid-batch, restarted, and readmitted via NodeRecovered; the
//     pipeline must reconcile from its batch log and finish with every
//     record acked exactly once and both nodes logically identical.
package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"sort"
	"strings"
	"sync"

	"ironsafe"
	"ironsafe/internal/engine"
	"ironsafe/internal/faultinject"
	"ironsafe/internal/ingest"
	"ironsafe/internal/pager"
	"ironsafe/internal/securestore"
	"ironsafe/internal/simtime"
	"ironsafe/internal/sql/ast"
	"ironsafe/internal/sql/exec"
	"ironsafe/internal/storageengine"
	"ironsafe/internal/tee/trustzone"
)

// ingestClientKey gets the write rule in ingestAccessPolicy; the chaos read
// client keeps its read-only grant, so ingest runs under a real write
// authorization and the concurrent reads under a real read one.
const (
	ingestClientKey    = "ingestclient"
	ingestAccessPolicy = "read :- sessionKeyIs(chaosclient)\nwrite :- sessionKeyIs(ingestclient)"
)

// IngestConfig scripts one ingest-under-chaos sweep.
type IngestConfig struct {
	// Seed drives payloads, fault schedules, and torn-write offsets.
	Seed uint64
	// Tear also sweeps phase B with every k-th write torn mid-block.
	Tear bool
}

// IngestReport is the full sweep record.
type IngestReport struct {
	// Phase A: every submitted record must ack (Nacked must be 0), and the
	// snapshot probe must never observe a row count that is not a whole
	// number of atomic inserts (TornReads must be 0).
	Acked, Nacked                               int
	Batches, Coalesced                          uint64
	ReadsOK, ReadsFailed, WrongReads, TornReads int
	// Phase B: the power-cut sweep driven through the ingest write path; its
	// steps are the records.
	CrashPoints
	// Phase C: node kills ridden out via restart + NodeRecovered.
	Kills int
	// Invariant counters across all phases (must be zero).
	Hangs, Untyped int
	// Digest commits to every deterministic outcome of all three phases;
	// byte-identical across runs with the same config.
	Digest string
}

// The shape of phase A.
const (
	// ingestClients is the concurrent submitter count.
	ingestClients = 4
	// ingestRecords is how many records each client streams: all but the
	// last are three-row INSERTs, the last one whole-range UPDATE.
	ingestRecords = 6
	// ingestReads is how many TPC-H queries run concurrently.
	ingestReads = 12
)

// RunIngest executes the sweep, failing on the first broken invariant.
func RunIngest(cfg IngestConfig) (*IngestReport, error) {
	rep := &IngestReport{}
	acc := sha256.New()
	if err := runIngestPhaseA(&cfg, rep, acc); err != nil {
		return nil, err
	}
	if err := runIngestPhaseB(&cfg, rep, acc); err != nil {
		return nil, err
	}
	if err := runIngestPhaseC(&cfg, rep, acc); err != nil {
		return nil, err
	}
	rep.Digest = hex.EncodeToString(acc.Sum(nil))
	return rep, nil
}

// ingestPayload deterministically derives record payload text.
func ingestPayload(seed uint64, client, rec, row int) string {
	h := sha256.Sum256([]byte{
		byte(seed), byte(seed >> 8), byte(seed >> 16), byte(seed >> 24),
		byte(seed >> 32), byte(seed >> 40), byte(seed >> 48), byte(seed >> 56),
		byte(client), byte(rec), byte(row), 0xA7,
	})
	return hex.EncodeToString(h[:8])
}

// ingestTableDigest canonically hashes a node's ingest table: all rows,
// rendered and sorted, so two logically identical nodes digest identically
// regardless of heap layout or commit grouping.
func ingestTableDigest(db *engine.DB, table string) (string, error) {
	res, err := db.Execute("SELECT * FROM " + table)
	if err != nil {
		return "", err
	}
	lines := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		lines = append(lines, strings.Join(parts, "|"))
	}
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:]), nil
}

// ingestPipeline creates the ingest_ev table on every node of c — replicas
// apply the same batches — and opens the cluster's ingest pipeline.
func ingestPipeline(c *ironsafe.Cluster, cfg ingest.Config) (*ingest.Pipeline, error) {
	for _, s := range c.Storage {
		if _, err := s.DB().Execute("CREATE TABLE ingest_ev (id INTEGER, client TEXT, note TEXT)"); err != nil {
			return nil, err
		}
	}
	return c.IngestPipeline(cfg)
}

// replicasAgree digests ingest_ev on every node of c and demands they match:
// the replicas must agree byte-for-byte logically.
func replicasAgree(c *ironsafe.Cluster) (string, error) {
	var first string
	for i, s := range c.Storage {
		d, err := ingestTableDigest(s.DB(), "ingest_ev")
		if err != nil {
			return "", err
		}
		if i == 0 {
			first = d
		} else if d != first {
			return "", fmt.Errorf("replica %d diverged from the authority", i)
		}
	}
	return first, nil
}

// ingestBrownOutRules arm bounded Slow faults plus a couple of stalls on the
// primary's channel legs — the read path browns out while ingest (in-process)
// keeps committing. The sequential reader is the only consumer of these fault
// streams, so their schedule stays deterministic under concurrent ingest.
func ingestBrownOutRules() []faultinject.Rule {
	return []faultinject.Rule{
		{Site: "conn:storage-01:read", Class: faultinject.Slow, Prob: 0.5, MaxCount: 20},
		{Site: "conn:storage-01:write", Class: faultinject.Slow, Prob: 0.5, MaxCount: 20},
		{Site: "conn:storage-01:read", Class: faultinject.Stall, Prob: 0.05, After: 4, MaxCount: 2},
	}
}

// runIngestPhaseA: concurrent multi-client ingest + TPC-H reads + brown-out.
// Clients write disjoint id ranges, so the final table state is independent
// of commit interleaving and the phase digests deterministically.
func runIngestPhaseA(cfg *IngestConfig, rep *IngestReport, acc hash.Hash) error {
	h := newHarness(ironsafe.IronSafe, 2)
	if err := h.reference(ingestAccessPolicy); err != nil {
		return fmt.Errorf("ingest sweep: %w", err)
	}

	// Cluster under ingest + brown-out.
	plan := faultinject.NewPlan(cfg.Seed, ingestBrownOutRules()...)
	c, err := h.cluster(substrate{conn: faultyConns(plan), policy: ingestAccessPolicy})
	if err != nil {
		return fmt.Errorf("ingest sweep: cluster: %w", err)
	}
	pipe, err := ingestPipeline(c, ingest.Config{BatchMax: 8, QueueMax: 1024})
	if err != nil {
		return err
	}
	defer pipe.Close()

	// Writers: each client streams its records in order; ids are disjoint.
	type recOutcome struct {
		ok       bool
		class    string
		affected int
	}
	outcomes := make([][]recOutcome, ingestClients)
	var wg sync.WaitGroup
	for ci := 0; ci < ingestClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			name := fmt.Sprintf("c%02d", ci)
			for ri := 0; ri < ingestRecords; ri++ {
				var sql string
				if ri < ingestRecords-1 {
					b := ci*100000 + ri*10
					sql = fmt.Sprintf(
						"INSERT INTO ingest_ev (id, client, note) VALUES (%d, '%s', '%s'), (%d, '%s', '%s'), (%d, '%s', '%s')",
						b, name, ingestPayload(cfg.Seed, ci, ri, 0),
						b+1, name, ingestPayload(cfg.Seed, ci, ri, 1),
						b+2, name, ingestPayload(cfg.Seed, ci, ri, 2))
				} else {
					sql = fmt.Sprintf("UPDATE ingest_ev SET note = '%s' WHERE client = '%s'",
						ingestPayload(cfg.Seed, ci, ri, 0), name)
				}
				ack, err := pipe.Submit(ingest.Record{Client: ingestClientKey, SQL: sql})
				o := recOutcome{ok: err == nil, class: classify(err)}
				if err == nil {
					o.affected = ack.Affected
				}
				outcomes[ci] = append(outcomes[ci], o)
			}
		}(ci)
	}

	// Concurrent reader: the TPC-H mix under brown-out, with the hang
	// watchdog, plus the torn-batch snapshot probe between queries.
	var reads Tally
	session := c.NewSession(clientKey)
	for qi := 0; qi < ingestReads; qi++ {
		h.query(session, qi, qi%len(QueryMix), &reads)
		// Snapshot probe: mid-batch state must never be visible, so a torn
		// multi-row insert would betray itself as a count that is not a
		// multiple of 3 (the UPDATE records do not change counts).
		for _, s := range c.Storage {
			res, err := s.DB().Execute("SELECT count(*) FROM ingest_ev")
			if err != nil {
				return fmt.Errorf("ingest sweep: snapshot probe: %w", err)
			}
			if n := res.Rows[0][0].AsInt(); n%3 != 0 {
				rep.TornReads++
			}
		}
	}

	rep.ReadsOK, rep.ReadsFailed, rep.WrongReads = reads.Succeeded, reads.Failed, reads.WrongResults
	rep.Hangs += reads.Hangs
	rep.Untyped += reads.Untyped

	// Wait out the writers, watchdog-bounded: an acked-write pipeline that
	// hangs under brown-out is as broken as one that loses data.
	if _, ok := watch(func() struct{} { wg.Wait(); return struct{}{} }); !ok {
		rep.Hangs++
		return errors.New("ingest sweep: phase A writers hung")
	}

	// Per-client outcome digest (client-ordered, so concurrency-independent).
	for ci := range outcomes {
		for ri, o := range outcomes[ci] {
			if o.ok {
				rep.Acked++
			} else {
				rep.Nacked++
				if o.class == "untyped" {
					rep.Untyped++
				}
			}
			fmt.Fprintf(acc, "A c%02d r%02d ok=%t class=%s affected=%d\n", ci, ri, o.ok, o.class, o.affected)
		}
	}
	st := pipe.Stats()
	rep.Batches, rep.Coalesced = st.Batches, st.Coalesced

	// Acked-set == recovered-set: every acked insert's rows are present, on
	// every node, and the replicas agree byte-for-byte logically.
	wantRows := int64(ingestClients * 3 * (ingestRecords - 1))
	for i, s := range c.Storage {
		res, err := s.DB().Execute("SELECT count(*) FROM ingest_ev")
		if err != nil {
			return err
		}
		if n := res.Rows[0][0].AsInt(); n != wantRows {
			return fmt.Errorf("ingest sweep: node %d holds %d rows, want %d (acked writes lost or duplicated)", i, n, wantRows)
		}
	}
	final, err := replicasAgree(c)
	if err != nil {
		return fmt.Errorf("ingest sweep: %w", err)
	}
	fmt.Fprintf(acc, "A final %s\n", final)
	return nil
}

// ingestSweepNode adapts a raw store+engine pair to ingest.Node (phase B).
type ingestSweepNode struct {
	name string
	db   *engine.DB
	s    *securestore.Store
}

func (n *ingestSweepNode) Name() string { return n.name }
func (n *ingestSweepNode) Apply(stmts []ast.Statement) ([]*exec.Result, error) {
	return n.db.ExecuteBatch(stmts)
}
func (n *ingestSweepNode) Seq() uint64 { return n.s.Seq() }

// runIngestPhaseB sweeps a power cut over every device-write boundary of the
// pipeline's write path — one record per batch, covering appends, rewrites,
// and catalog persists — and checks every recovery against the acked-write
// contract: a single submitter streams the records through a fresh pipeline,
// and the cut models whole-process death — OnNodeDown closes the pipeline, so
// the interrupted record nacks with ErrClosed and no later record is
// accepted. Recovery must land on a record boundary, catalog loading and
// scanning included.
func runIngestPhaseB(cfg *IngestConfig, rep *IngestReport, acc hash.Hash) error {
	records := stmtSweepWorkload(cfg.Seed)
	sw := crashSweep{
		node: "ingestsweep", seed: cfg.Seed, tear: cfg.Tear, steps: len(records),
		died:      func(err error) bool { return errors.Is(err, ingest.ErrClosed) },
		recovered: stmtSweepRecovered,
		setUp: func(env *sweepEnv, dev pager.BlockDevice, slot uint16) (*securestore.Store, func(int) error, error) {
			s, db, err := stmtSweepSetup(env, dev, slot, cfg.Seed)
			if err != nil {
				return nil, nil, err
			}
			var pipe *ingest.Pipeline
			pipe, err = ingest.New(ingest.Config{
				Nodes:      []ingest.Node{&ingestSweepNode{"n0", db, s}},
				OnNodeDown: func(string, error) { pipe.Close() }, // power loss kills the process too
			})
			if err != nil {
				return nil, nil, err
			}
			baseSeq := s.Seq()
			return s, func(i int) error {
				ack, err := pipe.Submit(ingest.Record{Client: ingestClientKey, SQL: records[i]})
				if err == nil && ack.Seq != baseSeq+uint64(i)+1 {
					err = fmt.Errorf("record %d acked seq %d, want %d (ack does not name its anchor)",
						i, ack.Seq, baseSeq+uint64(i)+1)
				}
				return err
			}, nil
		},
	}
	res, err := sw.run()
	if err != nil {
		return fmt.Errorf("ingest sweep: phase B: %w", err)
	}
	rep.CrashPoints = *res
	res.digestTo(acc, "B")
	return nil
}

// runIngestPhaseC kills the authority mid-batch, then the replica mid-batch,
// restarting and readmitting each; the stream must finish with every record
// acked and both nodes logically identical.
func runIngestPhaseC(cfg *IngestConfig, rep *IngestReport, acc hash.Hash) error {
	type cnode struct {
		srv *storageengine.Server
		cut *faultinject.PowerCut
	}
	mk := func(name string) (*cnode, error) {
		vendor, err := trustzone.NewVendor("ingest-vendor")
		if err != nil {
			return nil, err
		}
		n := &cnode{}
		var m simtime.Meter
		n.srv, err = storageengine.New(storageengine.Config{
			DeviceID: name, Vendor: vendor, Location: "EU", FWVersion: "3.4",
			Secure: true, Meter: &m,
			MediumWrapper: func(node string, dev pager.BlockDevice) pager.BlockDevice {
				if n.cut == nil {
					n.cut = faultinject.NewPowerCut(dev, node)
				}
				return n.cut
			},
		})
		if err != nil {
			return nil, err
		}
		if _, err := n.srv.DB().Execute("CREATE TABLE ev (id INTEGER, client TEXT, note TEXT)"); err != nil {
			return nil, err
		}
		return n, nil
	}
	a, err := mk("storage-01")
	if err != nil {
		return err
	}
	b, err := mk("storage-02")
	if err != nil {
		return err
	}
	byName := map[string]*cnode{"storage-01": a, "storage-02": b}

	var pipe *ingest.Pipeline
	pipe, err = ingest.New(ingest.Config{
		Nodes: []ingest.Node{ingest.NewServerNode(a.srv), ingest.NewServerNode(b.srv)},
		OnNodeDown: func(name string, cause error) {
			rep.Kills++
			// The operator side: revive the medium, restart the node (journal
			// recovery on the way up), readmit it into the pipeline.
			n := byName[name]
			go func() {
				n.cut.Disarm()
				n.cut.Revive()
				if err := n.srv.Restart(); err == nil {
					pipe.NodeRecovered(name)
				}
			}()
		},
	})
	if err != nil {
		return err
	}
	defer pipe.Close()

	pay := func(r int) string { return ingestPayload(cfg.Seed, 99, r, 0) }
	records := []struct {
		arm string // node whose next device write dies mid-batch
		sql string
	}{
		{sql: fmt.Sprintf("INSERT INTO ev (id, client, note) VALUES (1, 'c1', '%s'), (2, 'c2', '%s')", pay(0), pay(1))},
		{sql: fmt.Sprintf("INSERT INTO ev (id, client, note) VALUES (3, 'c1', '%s'), (4, 'c2', '%s')", pay(2), pay(3))},
		{arm: "storage-01", sql: fmt.Sprintf("UPDATE ev SET note = '%s' WHERE id <= 2", pay(4))},
		{sql: fmt.Sprintf("INSERT INTO ev (id, client, note) VALUES (5, 'c1', '%s')", pay(5))},
		{arm: "storage-02", sql: "DELETE FROM ev WHERE id = 3"},
		{sql: fmt.Sprintf("INSERT INTO ev (id, client, note) VALUES (6, 'c2', '%s'), (7, 'c1', '%s')", pay(6), pay(7))},
	}
	for i, r := range records {
		if r.arm != "" {
			byName[r.arm].cut.Arm(1, false, cfg.Seed)
		}
		type sr struct {
			ack ingest.Ack
			err error
		}
		out, ok := watch(func() sr {
			ack, err := pipe.Submit(ingest.Record{Client: ingestClientKey, SQL: r.sql})
			return sr{ack, err}
		})
		if !ok {
			rep.Hangs++
			return fmt.Errorf("ingest sweep: phase C record %d hung across the node kill", i)
		}
		if out.err != nil {
			return fmt.Errorf("ingest sweep: phase C record %d nacked: %w", i, out.err)
		}
		fmt.Fprintf(acc, "C r%02d seq=%d affected=%d\n", i, out.ack.Seq, out.ack.Affected)
	}

	if got := pipe.Batches(); got != uint64(len(records)) {
		return fmt.Errorf("ingest sweep: phase C committed %d batches, want %d (a kill duplicated or dropped one)", got, len(records))
	}
	if sa, sb := a.srv.StoreSeq(), b.srv.StoreSeq(); sa != sb {
		return fmt.Errorf("ingest sweep: phase C commit seqs diverge after recovery: %d vs %d", sa, sb)
	}
	da, err := ingestTableDigest(a.srv.DB(), "ev")
	if err != nil {
		return err
	}
	dbg, err := ingestTableDigest(b.srv.DB(), "ev")
	if err != nil {
		return err
	}
	if da != dbg {
		return errors.New("ingest sweep: phase C replicas diverged after recovery")
	}
	fmt.Fprintf(acc, "C final %s kills=%d\n", da, rep.Kills)
	return nil
}
