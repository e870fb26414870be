package main

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ironsafe"
	"ironsafe/internal/hostengine"
	"ironsafe/internal/ingest"
	"ironsafe/internal/monitor"
	"ironsafe/internal/pager"
	"ironsafe/internal/partition"
	"ironsafe/internal/policy"
	"ironsafe/internal/schema"
	"ironsafe/internal/simtime"
	"ironsafe/internal/sql/ast"
	"ironsafe/internal/sql/exec"
	"ironsafe/internal/sql/parser"
	"ironsafe/internal/tpch"
	"ironsafe/internal/transport"
)

const database = "db" // the cluster's database name, as Session.Query passes it

// tracedOp is one op of the traced pass. Reads are the env's ops; the ingest
// workload adds inserts, which have no session and go through the write path.
type tracedOp struct {
	opSpec
	sess   *ironsafe.Session // nil for inserts
	insert bool
}

// tracedRun is the state the traced run's phases share.
type tracedRun struct {
	r      *runner
	e      *env
	ops    []tracedOp
	tr     *tracer
	vals   map[string]float64
	frags  [][]fragment // per op: captured fragments (first replay pass)
	tables [][]string   // per op: base tables it reads
	hostQ  []*ast.Select
	layers map[string]float64 // layer -> self ms per op, for the share table
	// rowBytes is the encoded size of the loaded rows (set by layerStack).
	rowBytes int64
}

// traced is the separate run that produces the per-layer metrics. Phase 1
// drives the public API for counts; phase 2 replays Session.Query boundary by
// boundary under spans; phase 3 replays the captured fragments on a
// driver-built device/securestore/engine stack; phase 4 times single layers
// on captured inputs.
func (r *runner) traced() (map[string]float64, *resultFile, error) {
	rf := r.newResultFile(true)
	rf.CalibMs[0] = calibrate()
	wire, dev := &wireCounts{}, &devCounts{}
	e, err := buildEnv(r.cfg.w, r.cfg.w.mode, r.cfg.seed, r.cfg.size, countingHooks(wire, dev))
	if err != nil {
		return nil, nil, err
	}
	if err := r.prepare(); err != nil {
		return nil, nil, err
	}
	t := &tracedRun{r: r, e: e, tr: newTracer(), vals: map[string]float64{}, layers: map[string]float64{}}
	for _, d := range perLayerMetrics {
		t.vals[d.name] = 0
	}
	for i, op := range e.ops {
		t.ops = append(t.ops, tracedOp{opSpec: op, sess: e.sess[i]})
	}
	if e.w.ingest {
		rg := newRNG(r.cfg.seed, "traced-inserts")
		for seq := 0; seq < 8; seq++ {
			sql, _ := eventInsert(rg, 97, seq)
			t.ops = append(t.ops, tracedOp{opSpec: opSpec{name: "insert", sql: sql, client: "writer"}, insert: true})
		}
	}
	t.frags = make([][]fragment, len(t.ops))
	t.tables = make([][]string, len(t.ops))
	t.hostQ = make([]*ast.Select, len(t.ops))

	t.vals["tpch.generate_ms"] = ms(e.genDur)
	t.vals["tpch.load_rows_per_s"] = div(float64(e.rows), e.loadDur.Seconds())
	t0 := now()
	for _, s := range e.c.Storage {
		if err := e.c.Monitor.RegisterStorage("ironsafe-vendor", attester{s}); err != nil {
			return nil, nil, fmt.Errorf("re-attestation: %w", err)
		}
	}
	t.vals["monitor.attest_ms"] = ms(since(t0))
	t.vals["simtime.model_drift"] = float64(modelDrift())

	baseWall, err := t.baseline(wire, dev, rf)
	if err != nil {
		return nil, nil, err
	}
	replayWall, err := t.clusterPath()
	if err != nil {
		return nil, nil, err
	}
	t.vals["client.trace_overhead_pct"] = 100 * div(replayWall-baseWall, baseWall)
	if err := t.layerStack(); err != nil {
		return nil, nil, err
	}
	if err := t.singleLayers(); err != nil {
		return nil, nil, err
	}
	if e.w.ingest {
		if err := t.ingestWindow(rf); err != nil {
			return nil, nil, err
		}
	}
	if err := t.tr.write(r.cfg.outDir, e.w.name); err != nil {
		return nil, nil, err
	}
	rf.CalibMs[1] = calibrate()
	t.vals["client.calib_ms"] = (rf.CalibMs[0] + rf.CalibMs[1]) / 2
	rf.LayerShares = t.shares()
	rf.Problems = r.problems
	return t.vals, rf, nil
}

// runPublic runs one op through the public API and checks its rows.
func (t *tracedRun) runPublic(op tracedOp, pipe *ingest.Pipeline) (*ironsafe.QueryResult, time.Duration, error) {
	start := now()
	if op.insert {
		_, err := pipe.Submit(ingest.Record{Client: op.client, SQL: op.sql})
		d := since(start)
		t.r.attempted++
		if err != nil {
			t.r.failed++
			t.r.problem("%s: %v", op.name, err)
		}
		return nil, d, err
	}
	qr, err := op.sess.Query(op.sql)
	d := since(start)
	t.r.checkQuery(op.name, qr, err)
	return qr, d, err
}

// baseline drives the public API — Session.Query, and the ingest pipeline
// for inserts — with only the counting hooks installed. It yields every
// count metric (meter, wire, device, audit and runtime deltas) and the wall
// time the replay's overhead is measured against.
func (t *tracedRun) baseline(wire *wireCounts, dev *devCounts, rf *resultFile) (float64, error) {
	c := t.e.c
	var pipe *ingest.Pipeline
	if t.e.w.ingest {
		var err error
		pipe, err = c.IngestPipeline(ingest.Config{BatchMax: 32, QueueMax: 4096})
		if err != nil {
			return 0, err
		}
		defer pipe.Close()
	}
	for _, op := range t.ops { // warm-up pass
		if !op.insert {
			if _, _, err := t.runPublic(op, pipe); err != nil {
				return 0, err
			}
		}
	}
	passes := t.r.cfg.size.tracedPasses(t.e.w)
	ops := float64(passes * len(t.ops))
	h0, s0 := c.HostMeter.Snapshot(), c.StorageMeter.Snapshot()
	w0, wb0, dr0, dw0, dbw0 := wire.frames.Load(), wire.bytes.Load(), dev.reads.Load(), dev.writes.Load(), dev.bytesWritten.Load()
	audit0 := c.Monitor.AuditLog().Len()
	p0 := sampleProc()
	var wall time.Duration
	var offloads, shipped, returned int64
	var userBytes int64
	cost := make([]simtime.QueryCost, len(t.ops))
	for p := 0; p < passes; p++ {
		for i, op := range t.ops {
			hb, sb := c.HostMeter.Snapshot(), c.StorageMeter.Snapshot()
			qr, d, err := t.runPublic(op, pipe)
			if err != nil {
				return 0, err
			}
			wall += d
			if qr == nil {
				userBytes += eventRowBytes
				cost[i] = c.PriceQuery(c.HostMeter.Snapshot().Sub(hb), c.StorageMeter.Snapshot().Sub(sb), 0)
				continue
			}
			offloads += int64(qr.Stats.Offloads)
			shipped += qr.Stats.RowsShipped
			returned += int64(len(qr.Result.Rows))
			cost[i] = qr.Stats.Cost
		}
	}
	p1 := sampleProc()
	host, stor := c.HostMeter.Snapshot().Sub(h0), c.StorageMeter.Snapshot().Sub(s0)
	both := host.Add(stor)
	v := t.vals
	v["client.mallocs_per_op"] = float64(p1.mem.Mallocs-p0.mem.Mallocs) / ops
	v["client.gc_cycles_per_op"] = float64(p1.mem.NumGC-p0.mem.NumGC) / ops
	v["client.gc_pause_ms_per_op"] = float64(p1.mem.PauseTotalNs-p0.mem.PauseTotalNs) / 1e6 / ops
	v["monitor.audit_entries_per_op"] = float64(c.Monitor.AuditLog().Len()-audit0) / ops
	v["partition.offloads_per_op"] = float64(offloads) / ops
	v["hostengine.tuples_per_op"] = float64(host.TuplesProcessed) / ops
	v["hostengine.batches_per_op"] = float64(host.Batches) / ops
	v["transport.bytes_per_op"] = float64(wire.bytes.Load()-wb0) / ops
	v["transport.frames_per_op"] = float64(wire.frames.Load()-w0) / ops
	v["storageengine.rows_shipped_per_op"] = float64(shipped) / ops
	v["exec.tuples_per_op"] = float64(both.TuplesProcessed) / ops
	v["exec.tuple_work_per_op"] = float64(both.TupleWork) / ops
	v["exec.batches_per_op"] = float64(both.Batches) / ops
	v["exec.rows_examined_per_row_returned"] = div(float64(both.TuplesProcessed), float64(returned))
	v["pager.pages_read_per_op"] = float64(both.PagesRead) / ops
	v["pager.device_reads_per_op"] = float64(dev.reads.Load()-dr0) / ops
	v["pager.device_writes_per_op"] = float64(dev.writes.Load()-dw0) / ops
	if t.e.w.mode == ironsafe.HostOnlySecure {
		// The host-only path fetches raw blocks from the storage server's
		// medium (hostengine.RemoteDevice), below the device hook: one block
		// per page the host's store reads.
		v["hostengine.block_fetches_per_op"] = float64(host.PagesRead) / ops
		v["pager.device_reads_per_op"] = float64(host.PagesRead) / ops
	}
	v["securestore.pages_decrypted_per_op"] = float64(both.PagesDecrypted) / ops
	v["securestore.merkle_hashes_per_op"] = float64(both.MerkleHashes) / ops
	v["securestore.merkle_hashes_saved_per_op"] = float64(both.MerkleHashesSaved) / ops
	v["securestore.scan_batches_per_op"] = float64(both.ScanBatches) / ops
	v["securestore.pages_encrypted_per_op"] = float64(both.PagesEncrypted) / ops
	v["securestore.rpmb_writes_per_op"] = float64(both.RPMBWrites) / ops
	v["securestore.rpmb_reads_per_op"] = float64(both.RPMBReads) / ops
	if userBytes > 0 {
		v["securestore.write_amp"] = float64(dev.bytesWritten.Load()-dbw0) / float64(userBytes)
	}
	v["tee.enclave_transitions_per_op"] = float64(both.EnclaveTransitions) / ops
	v["tee.epc_faults_per_op"] = float64(both.EPCFaults) / ops
	v["tee.world_switches_per_op"] = float64(both.WorldSwitches) / ops

	// QueryCost components of one pass. They must account for the whole
	// simulated pass: their sum, less the transfer time Total() overlaps with
	// the storage phase, is the pass's simulated latency.
	var total, overlap, parts time.Duration
	var q simtime.QueryCost
	for _, k := range cost {
		total += k.Total()
		if k.Transfer < k.Storage.Total() {
			overlap += k.Transfer
		} else {
			overlap += k.Storage.Total()
		}
		q.Host.Compute += k.Host.Compute
		q.Storage.Compute += k.Storage.Compute
		q.Host.PageIO += k.Host.PageIO + k.Storage.PageIO
		q.Host.Decrypt += k.Host.Decrypt + k.Storage.Decrypt
		q.Host.Freshness += k.Host.Freshness + k.Storage.Freshness
		q.Host.TEE += k.Host.TEE + k.Storage.TEE
		q.Transfer += k.Transfer
	}
	v["simtime.host_compute_ms_per_pass"] = ms(q.Host.Compute)
	v["simtime.storage_compute_ms_per_pass"] = ms(q.Storage.Compute)
	v["simtime.pageio_ms_per_pass"] = ms(q.Host.PageIO)
	v["simtime.decrypt_ms_per_pass"] = ms(q.Host.Decrypt)
	v["simtime.freshness_ms_per_pass"] = ms(q.Host.Freshness)
	v["simtime.tee_ms_per_pass"] = ms(q.Host.TEE)
	v["simtime.transfer_ms_per_pass"] = ms(q.Transfer)
	parts = q.Host.Compute + q.Storage.Compute + q.Host.PageIO + q.Host.Decrypt + q.Host.Freshness + q.Host.TEE + q.Transfer
	if parts-overlap != total {
		return 0, fmt.Errorf("simtime components %v less overlap %v do not sum to the pass's %v", parts, overlap, total)
	}
	rf.Passes, rf.Ops = passes, int(ops)
	rf.Extra = map[string]float64{
		"pass_sim_ms":                  ms(total),
		"transfer_overlap_ms_per_pass": ms(overlap),
		"baseline_wall_ms_per_op":      ms(wall) / ops,
	}
	return ms(wall) / ops, nil
}

// clusterPath replays what Session.Query does on the live cluster, one span
// per boundary: Authorize, VerifyProof, ParseSelect + SplitQuery (timed on
// their own; the host repeats them inside ExecuteSplit), ExecuteSplit over
// driver-owned storage nodes (ExecuteLocal on host-only modes), EndSession.
// Inserts replay what ingest.Pipeline.Submit does around one engine batch.
func (t *tracedRun) clusterPath() (float64, error) {
	c := t.e.c
	tr := t.tr
	passes := t.r.cfg.size.tracedPasses(t.e.w)
	from := len(tr.spans)
	tr.on = true
	defer func() { tr.on = false }()
	node := &tracedNode{srv: c.Storage[0], tr: tr}
	split := t.e.w.mode == ironsafe.IronSafe
	for p := 0; p < passes; p++ {
		for i, op := range t.ops {
			tr.op = p*len(t.ops) + i
			root := tr.begin("op."+op.name, "client")
			sp := tr.begin("monitor.Authorize", "monitor")
			req := monitor.AuthRequest{Database: database, ClientKey: op.client, SQL: op.sql, AccessDate: op.accessDate, HostID: "host-1", Epoch: c.Epoch()}
			if t.e.w.piiRows > 0 {
				req.ExecPolicy = gdprExecPolicy
			}
			auth, err := c.Monitor.Authorize(req)
			tr.end(sp, 1)
			if err != nil {
				return 0, fmt.Errorf("replay %s: %w", op.name, err)
			}
			var res *exec.Result
			if op.insert {
				sp = tr.begin("monitor.EndSession", "monitor")
				c.Monitor.EndSession(auth.SessionID)
				tr.end(sp, 1)
				sp = tr.begin("parser.Parse", "parser")
				stmt, err := parser.Parse(op.sql)
				tr.end(sp, 1)
				if err != nil {
					return 0, err
				}
				sp = tr.begin("ingest.Apply", "storageengine")
				_, err = ingest.NewServerNode(c.Storage[0]).Apply([]ast.Statement{stmt})
				tr.end(sp, 1)
				if err != nil {
					return 0, fmt.Errorf("replay %s: %w", op.name, err)
				}
				if p == 0 {
					t.frags[i] = []fragment{{table: "events", sql: op.sql}}
				}
				tr.end(root, 1)
				t.r.attempted++
				continue
			}
			sp = tr.begin("monitor.VerifyProof", "monitor")
			ok := monitor.VerifyProof(c.MonitorPublicKey(), &auth.Proof)
			tr.end(sp, 1)
			if !ok {
				return 0, fmt.Errorf("replay %s: proof failed verification", op.name)
			}
			sp = tr.begin("parser.ParseSelect", "parser")
			sel, err := parser.ParseSelect(auth.RewrittenSQL)
			tr.end(sp, 1)
			if err != nil {
				return 0, err
			}
			sp = tr.begin("partition.SplitQuery", "partition")
			sq, err := partition.SplitQuery(sel, c.Host.Schemas())
			tr.end(sp, 1)
			if err != nil {
				return 0, err
			}
			if split {
				node.captured = node.captured[:0]
				sp = tr.begin("hostengine.ExecuteSplit", "hostengine")
				res, _, err = c.Host.ExecuteSplit(auth.RewrittenSQL, []hostengine.StorageNode{node})
				tr.end(sp, 1)
			} else {
				sp = tr.begin("hostengine.ExecuteLocal", "hostengine")
				res, err = c.Host.ExecuteLocal(c.AuthoritativeDB(), auth.RewrittenSQL)
				tr.end(sp, 1)
			}
			t.r.check(op.name, res, err)
			if err != nil {
				return 0, fmt.Errorf("replay %s: %w", op.name, err)
			}
			sp = tr.begin("monitor.EndSession", "monitor")
			c.Monitor.EndSession(auth.SessionID)
			tr.end(sp, 1)
			tr.end(root, int64(len(res.Rows)))
			if p == 0 {
				t.hostQ[i] = sel
				for _, ship := range sq.Ships {
					t.tables[i] = append(t.tables[i], ship.Table)
				}
				if split {
					t.frags[i] = append([]fragment(nil), node.captured...)
					for k := range t.frags[i] {
						t.frags[i][k].table = sq.Ships[k].Table
					}
				} else {
					t.frags[i] = []fragment{{sql: auth.RewrittenSQL, res: res}}
				}
			}
		}
	}
	self, err := tr.selfTimes()
	if err != nil {
		return 0, err
	}
	ops := float64(passes * len(t.ops))
	perOp := func(name string, selfTime bool) float64 {
		v, _ := tr.sum(self, from, len(tr.spans), named(name), selfTime)
		return v / ops
	}
	v := t.vals
	v["monitor.authorize_us_per_op"] = 1e3 * perOp("monitor.Authorize", false)
	v["monitor.verify_proof_us_per_op"] = 1e3 * perOp("monitor.VerifyProof", false)
	v["monitor.end_session_us_per_op"] = 1e3 * perOp("monitor.EndSession", false)
	v["parser.parse_us_per_op"] = 1e3 * (perOp("parser.ParseSelect", false) + perOp("parser.Parse", false))
	v["partition.split_us_per_op"] = 1e3 * perOp("partition.SplitQuery", false)
	v["hostengine.self_ms_per_op"] = perOp("hostengine.ExecuteSplit", true) + perOp("hostengine.ExecuteLocal", true)
	v["storageengine.offload_ms_per_op"] = perOp("storageengine.ExecOffload", false) + perOp("ingest.Apply", false)

	var wall float64
	for i := from; i < len(tr.spans); i++ {
		if tr.spans[i].Parent < 0 {
			wall += float64(tr.spans[i].End-tr.spans[i].Start) / 1e6
		}
	}
	t.layers["monitor"] = (v["monitor.authorize_us_per_op"] + v["monitor.verify_proof_us_per_op"] + v["monitor.end_session_us_per_op"]) / 1e3
	t.layers["parser"] = v["parser.parse_us_per_op"] / 1e3
	t.layers["partition"] = v["partition.split_us_per_op"] / 1e3
	t.layers["hostengine"] = v["hostengine.self_ms_per_op"]
	t.layers["storage-side"] = v["storageengine.offload_ms_per_op"]
	return wall / ops, nil
}

// load puts the workload's data on the stack through the secure write path.
func (s *stack) load(data dataset) error {
	if data.tpch != nil {
		if err := tpch.Load(s.db, data.tpch); err != nil {
			return err
		}
	}
	for _, stmt := range data.stmts {
		if _, err := s.db.Execute(stmt); err != nil {
			return err
		}
	}
	return nil
}

// layerStack replays the captured fragment SQL with DB.Execute on the
// driver-built stack, so device, securestore and engine self times nest.
func (t *tracedRun) layerStack() error {
	tr := t.tr
	s, err := t.buildStack()
	if err != nil {
		return err
	}
	data := genDataset(t.e.w, t.r.cfg.seed, t.r.cfg.size)
	t.rowBytes = data.rowBytes()
	from := len(tr.spans)
	tr.on = true
	defer func() { tr.on = false }()
	tr.op = -1
	root := tr.begin("stack.load", "client")
	err = s.load(data)
	tr.end(root, int64(t.e.rows))
	if err != nil {
		return fmt.Errorf("layer stack load: %w", err)
	}
	loadEnd := len(tr.spans)
	written := s.dev.bytesWritten
	var mediumBytes int64
	for _, b := range s.medium.SnapshotBlocks() {
		mediumBytes += int64(len(b))
	}

	passes := t.r.cfg.size.tracedPasses(t.e.w)
	for p := 0; p < passes; p++ {
		for i, op := range t.ops {
			tr.op = p*len(t.ops) + i
			for _, f := range t.frags[i] {
				sp := tr.begin("engine.Execute", "engine")
				res, err := s.db.Execute(f.sql)
				if err != nil {
					tr.end(sp, 0)
					return fmt.Errorf("layer stack %s: %w", op.name, err)
				}
				tr.end(sp, int64(len(res.Rows)))
				if !t.e.w.ingest && len(res.Rows) != len(f.res.Rows) {
					t.r.failed++
					t.r.problem("layer stack %s: %d rows, cluster shipped %d", op.name, len(res.Rows), len(f.res.Rows))
				}
			}
		}
	}
	execEnd := len(tr.spans)
	// Heap decode with nothing above it: scan each op's tables into an
	// empty callback.
	for i := range t.ops {
		tr.op = i
		for _, name := range t.tables[i] {
			tab, err := s.db.Table(name)
			if err != nil {
				return err
			}
			sp := tr.begin("pager.ScanBatch", "pager")
			err = tab.ScanBatch(exec.DefaultBatchRows, func(*exec.Batch) error { return nil })
			tr.end(sp, 1)
			if err != nil {
				return err
			}
		}
	}
	self, err := tr.selfTimes()
	if err != nil {
		return err
	}
	isRead := func(s span) bool { return s.Name == "securestore.ReadPage" || s.Name == "securestore.ReadPages" }

	v := t.vals
	loadMs, _ := tr.sum(self, from, loadEnd, named("stack.load"), false)
	v["securestore.load_ms"] = loadMs
	v["securestore.space_amp"] = div(float64(mediumBytes), float64(t.rowBytes))
	commitLo, commitHi := from, loadEnd
	if t.e.w.ingest {
		commitLo, commitHi = loadEnd, execEnd
	} else if t.rowBytes > 0 {
		v["securestore.write_amp"] = float64(written) / float64(t.rowBytes)
	}
	commitMs, commits := tr.sum(self, commitLo, commitHi, named("securestore.Txn.Commit"), true)
	v["securestore.commit_self_us_per_txn"] = 1e3 * div(commitMs, float64(commits))

	ops := float64(passes * len(t.ops))
	engineMs, _ := tr.sum(self, loadEnd, execEnd, inLayer("engine"), true)
	storeMs, _ := tr.sum(self, loadEnd, execEnd, inLayer("securestore"), true)
	readMs, _ := tr.sum(self, loadEnd, execEnd, isRead, true)
	devMs, _ := tr.sum(self, loadEnd, execEnd, inLayer("device"), true)
	devReadMs, _ := tr.sum(self, loadEnd, execEnd, named("device.ReadBlock"), false)
	decodeMs, _ := tr.sum(self, execEnd, len(tr.spans), inLayer("pager"), true)
	v["engine.execute_self_ms_per_op"] = engineMs / ops
	v["securestore.read_self_ms_per_op"] = readMs / ops
	v["pager.device_read_us_per_op"] = 1e3 * devReadMs / ops
	v["pager.scan_decode_ms_per_op"] = decodeMs / float64(len(t.ops))

	// Split the cluster path's storage-side time (ExecOffload, or the whole
	// of ExecuteLocal on host-only modes) by the stack's proportions.
	side := t.layers["storage-side"]
	if t.e.w.mode == ironsafe.HostOnlySecure {
		side = t.layers["hostengine"]
		t.layers["hostengine"] = 0
	}
	delete(t.layers, "storage-side")
	total := engineMs + storeMs + devMs
	decode := min(decodeMs/float64(len(t.ops))*ops, engineMs)
	t.layers["device"] = side * div(devMs, total)
	t.layers["securestore"] = side * div(storeMs, total)
	t.layers["pager+schema"] = side * div(decode, total)
	t.layers["exec"] = side * div(engineMs-decode, total)
	return nil
}

type memCatalog map[string]*exec.MemRelation

func (c memCatalog) Relation(name string) (exec.Relation, error) {
	r, ok := c[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("benchmark: no relation %q", name)
	}
	return r, nil
}

// singleLayers times layers on captured inputs with nothing around them:
// policy parse+evaluate, the channel handshake, shipping the captured replies
// over a transport.Pipe, the result wire codec, the operators over in-memory
// relations, and row decode / column-vector build on captured pages.
func (t *tracedRun) singleLayers() error {
	if err := t.policyLayer(); err != nil {
		return err
	}
	if err := t.transportLayer(); err != nil {
		return err
	}
	base, err := t.execLayers()
	if err != nil {
		return err
	}
	t.layers["transport"] = t.vals["transport.handshake_us_per_op"]/1e3 + t.vals["transport.ship_ms_per_op"]
	return t.decodeLayers(base)
}

// policyLayer times what Authorize evaluates per op: the parsed access
// policy, and the exec policy parsed from source each time.
func (t *tracedRun) policyLayer() error {
	access, err := policy.Parse(accessPolicy(t.e.w))
	if err != nil {
		return err
	}
	const policyReps = 200
	start := now()
	for rep := 0; rep < policyReps; rep++ {
		for _, op := range t.ops {
			env := policy.Env{SessionKey: op.client, HostLoc: "EU", StorageLoc: "EU", HostFW: "2.1", StorageFW: "3.4",
				LatestHostFW: "2.1", LatestStorageFW: "3.4", AccessDate: op.accessDate, ServiceBit: reuserBit}
			perm := "read"
			if op.insert {
				perm = "write"
			}
			if ok, _, err := access.Evaluate(perm, env); err != nil || !ok {
				return fmt.Errorf("policy replay %s: allowed=%v err=%v", op.name, ok, err)
			}
			if t.e.w.piiRows > 0 {
				ep, err := policy.Parse(gdprExecPolicy)
				if err != nil {
					return err
				}
				if ok, _, err := ep.Evaluate("exec", env); err != nil || !ok {
					return fmt.Errorf("exec policy replay %s: allowed=%v err=%v", op.name, ok, err)
				}
			}
		}
	}
	t.vals["policy.parse_eval_us_per_op"] = us(since(start)) / policyReps / float64(len(t.ops))
	return nil
}

// transportLayer times the channel: split modes open one monitor-keyed
// channel per query and ship each fragment over it.
func (t *tracedRun) transportLayer() error {
	if t.e.w.mode != ironsafe.IronSafe {
		return nil
	}
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		return err
	}
	const handshakes = 100
	var reads float64
	for _, op := range t.ops {
		if !op.insert {
			reads++
		}
	}
	nOps := float64(len(t.ops))
	start := now()
	for i := 0; i < handshakes; i++ {
		a, b, err := transport.Pipe(key, nil, nil)
		if err != nil {
			return err
		}
		a.Close()
		b.Close()
	}
	t.vals["transport.handshake_us_per_op"] = us(since(start)) / handshakes * reads / nOps
	shipMs, err := t.ship(key)
	if err != nil {
		return err
	}
	t.vals["transport.ship_ms_per_op"] = shipMs / nOps
	return nil
}

// execLayers times the result wire codec on the captured replies and the
// operators over pre-decoded rows, and returns the in-memory base tables.
func (t *tracedRun) execLayers() (memCatalog, error) {
	v := t.vals
	nOps := float64(len(t.ops))
	reps := t.r.cfg.size.tracedPasses(t.e.w)
	start := now()
	for rep := 0; rep < reps; rep++ {
		for _, frs := range t.frags {
			for _, f := range frs {
				if f.blob == nil {
					continue
				}
				blob, err := exec.EncodeResult(f.res)
				if err != nil {
					return nil, err
				}
				if _, err := exec.DecodeResult(blob); err != nil {
					return nil, err
				}
			}
		}
	}
	v["exec.wire_codec_ms_per_op"] = ms(since(start)) / float64(reps) / nOps

	// Operators: base tables scanned once into memory, then each fragment
	// (and the host query over its shipped rows) runs with no storage under it.
	base := memCatalog{}
	db := t.e.c.AuthoritativeDB()
	for _, name := range db.TableNames() {
		tab, err := db.Table(name)
		if err != nil {
			return nil, err
		}
		rel := &exec.MemRelation{Sch: tab.Sch}
		if err := tab.Scan(func(r schema.Row) error { rel.Rows = append(rel.Rows, r); return nil }); err != nil {
			return nil, err
		}
		base[strings.ToLower(name)] = rel
	}
	var fragMs, hostMs float64
	for rep := 0; rep < reps; rep++ {
		for i, op := range t.ops {
			if op.insert {
				continue
			}
			shipped := memCatalog{}
			for _, f := range t.frags[i] {
				sel, err := parser.ParseSelect(f.sql)
				if err != nil {
					return nil, err
				}
				start = now()
				res, err := exec.RunBatched(sel, base, nil, 0)
				fragMs += ms(since(start))
				if err != nil {
					return nil, fmt.Errorf("operator replay %s: %w", op.name, err)
				}
				if f.table != "" {
					shipped[strings.ToLower(f.table)] = &exec.MemRelation{Sch: res.Sch, Rows: res.Rows}
				}
			}
			if len(shipped) > 0 {
				start = now()
				res, err := exec.RunBatched(t.hostQ[i], shipped, nil, 0)
				hostMs += ms(since(start))
				t.r.check(op.name, res, err)
			}
		}
	}
	fragMs, hostMs = fragMs/float64(reps)/nOps, hostMs/float64(reps)/nOps
	v["exec.operators_ms_per_op"] = fragMs + hostMs
	// The host phase's operators run inside ExecuteSplit; move their share
	// from hostengine to exec in the layer table.
	moved := min(hostMs, t.layers["hostengine"])
	t.layers["hostengine"] -= moved
	t.layers["exec"] += moved
	t.layers["exec"] += v["exec.wire_codec_ms_per_op"]
	return base, nil
}

// ship sends every captured fragment request and reply over one real AEAD
// channel per op and returns the total milliseconds.
func (t *tracedRun) ship(key []byte) (float64, error) {
	var total time.Duration
	for _, frs := range t.frags {
		var exchanges [][2][]byte
		for _, f := range frs {
			if f.blob == nil {
				continue
			}
			req := make([]byte, 8, 8+len(f.sql))
			binary.LittleEndian.PutUint64(req, ^uint64(0))
			exchanges = append(exchanges, [2][]byte{append(req, f.sql...), append(make([]byte, 8), f.blob...)})
		}
		if len(exchanges) == 0 {
			continue
		}
		host, stor, err := transport.Pipe(key, nil, nil)
		if err != nil {
			return 0, err
		}
		done := make(chan error, 1)
		go func() {
			for _, ex := range exchanges {
				if _, _, err := stor.Recv(); err != nil {
					done <- err
					return
				}
				if err := stor.Send("result", ex[1]); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		start := now()
		for _, ex := range exchanges {
			if err := host.Send("offload", ex[0]); err != nil {
				return 0, err
			}
			if _, _, err := host.Recv(); err != nil {
				return 0, err
			}
		}
		total += since(start)
		err = <-done
		host.Close()
		stor.Close()
		if err != nil {
			return 0, err
		}
	}
	return ms(total), nil
}

// decodeLayers times schema.DecodeRows on page-sized encoded row runs and
// schema.FromRows on the decoded rows, using the workload's largest table.
func (t *tracedRun) decodeLayers(base memCatalog) error {
	var names []string
	for n := range base {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return len(base[names[i]].Rows) > len(base[names[j]].Rows) })
	if len(names) == 0 || len(base[names[0]].Rows) == 0 {
		return nil
	}
	rel := base[names[0]]
	rows := rel.Rows
	if len(rows) > 20000 {
		rows = rows[:20000]
	}
	// Re-encode the rows in heap-page-sized runs: the same bytes the heap's
	// pages hold after decryption.
	var pages [][]byte
	for lo := 0; lo < len(rows); {
		hi, size := lo, 0
		for hi < len(rows) && size+schema.EncodedSize(rows[hi]) <= pager.PageSize-4 {
			size += schema.EncodedSize(rows[hi])
			hi++
		}
		if hi == lo {
			hi++ // a row the heap would have refused; keep the loop moving
		}
		pages = append(pages, schema.EncodeRows(rows[lo:hi]))
		lo = hi
	}
	start := now()
	decoded := 0
	for _, p := range pages {
		rs, err := schema.DecodeRows(p)
		if err != nil {
			return err
		}
		decoded += len(rs)
	}
	t.vals["schema.decode_ns_per_row"] = float64(since(start)) / float64(decoded)
	start = now()
	values := 0
	for lo := 0; lo < len(rows); lo += exec.DefaultBatchRows {
		hi := lo + exec.DefaultBatchRows
		if hi > len(rows) {
			hi = len(rows)
		}
		for col := 0; col < rel.Sch.Len(); col++ {
			values += schema.FromRows(rows[lo:hi], col).Len()
		}
	}
	t.vals["schema.fromrows_ns_per_value"] = float64(since(start)) / float64(values)
	return nil
}

// mixedWindow is what one writers-beside-reader window measured.
type mixedWindow struct {
	ack, q6, count []float64 // wall ms per op kind
	elapsed        time.Duration
}

// ingestWriters is the mixed window's writer count: every core but the
// reader's.
func ingestWriters() int { return max(1, runtime.NumCPU()-1) }

// runMixed runs the closed-loop writers beside one closed-loop reader for the
// given duration. The reader cycles q6, q6, events-count.
func (r *runner) runMixed(e *env, ir *ingestRun, dur time.Duration) mixedWindow {
	var mw mixedWindow
	var stop atomic.Bool
	var wg sync.WaitGroup
	var mu sync.Mutex // guards r's tallies and mw's slices across clients
	start := now()
	for w := 0; w < ingestWriters(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rg := newRNG(r.cfg.seed, fmt.Sprintf("writer-%d", w))
			var lat []float64
			var errs []error
			for seq := 0; !stop.Load(); seq++ {
				d, err := ir.submit(rg, w, seq)
				lat = append(lat, ms(d))
				if err != nil {
					errs = append(errs, err)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			mw.ack = append(mw.ack, lat...)
			r.attempted += len(lat)
			r.failed += len(errs)
			for _, err := range errs {
				r.problem("insert: %v", err)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var q6, count []float64
		var prev int64
		for i := 0; !stop.Load(); i++ {
			if i%3 == 2 {
				mu.Lock()
				c, d, _ := r.eventsState(e, ir, prev)
				mu.Unlock()
				prev = c
				count = append(count, ms(d))
				continue
			}
			t := now()
			qr, err := e.sess[0].Query(e.ops[0].sql)
			q6 = append(q6, ms(since(t)))
			mu.Lock()
			r.checkQuery("q6", qr, err)
			mu.Unlock()
		}
		mu.Lock()
		defer mu.Unlock()
		mw.q6, mw.count = q6, count
	}()
	time.Sleep(dur) //ironsafe:allow wallclock -- the mixed window is a fixed span of real time by definition
	stop.Store(true)
	wg.Wait()
	mw.elapsed = since(start)
	return mw
}

// ingestWindow runs a short writer-alone phase and then writers beside a
// reader, concurrently, for the ingest.* metrics: what engine.DB.execMu
// contention with a running scan does to the ack rate. It is the one place the
// benchmark runs clients side by side, so it takes every core for its span;
// its numbers follow the scheduler and carry no bound.
func (t *tracedRun) ingestWindow(rf *resultFile) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	r, sz := t.r, t.r.cfg.size
	pipe, err := t.e.c.IngestPipeline(ingest.Config{BatchMax: 32, QueueMax: 4096})
	if err != nil {
		return err
	}
	defer pipe.Close()
	ir := &ingestRun{pipe: pipe}
	// The table already holds the replay's inserts; the oracle's tallies
	// start from its current state.
	qr, err := t.e.sess[1].Query(eventsCountSQL)
	if err != nil {
		return err
	}
	have := qr.Result.Rows[0][0].AsInt()
	ir.submitted.Store(have)
	ir.acked.Store(have)
	rg := newRNG(r.cfg.seed, "alone")
	alone := sz.aloneRecs / 4
	start := now()
	for seq := 0; seq < alone; seq++ {
		r.attempted++
		if _, err := ir.submit(rg, 99, seq); err != nil {
			r.failed++
			r.problem("alone insert: %v", err)
		}
	}
	aloneS := since(start).Seconds()
	dur := 5 * time.Second
	if sz.tiny {
		dur = 300 * time.Millisecond
	}
	mw := r.runMixed(t.e, ir, dur)
	if len(mw.ack) == 0 || len(mw.q6) == 0 || len(mw.count) == 0 {
		return fmt.Errorf("mixed window too short: %d acks, %d q6, %d counts", len(mw.ack), len(mw.q6), len(mw.count))
	}
	final, _, qr := r.eventsState(t.e, ir, have)
	if qr != nil && final != ir.acked.Load() {
		r.failed++
		r.problem("events-count: final %d != acked %d", final, ir.acked.Load())
	}
	st := pipe.Stats()
	v := t.vals
	v["ingest.records_per_batch"] = div(float64(st.Acked), float64(st.Batches))
	v["ingest.ack_wall_us_p50"] = 1e3 * median(mw.ack)
	v["ingest.ack_wall_us_p90"] = 1e3 * percentile(mw.ack, 90)
	v["ingest.alone_ops_per_s"] = float64(alone) / aloneS
	v["ingest.mixed_ops_per_s"] = float64(len(mw.ack)) / mw.elapsed.Seconds()
	v["ingest.reader_ops_per_s"] = float64(len(mw.q6)+len(mw.count)) / mw.elapsed.Seconds()
	v["ingest.overloaded_share"] = div(float64(st.Overloaded), float64(st.Submitted+st.Overloaded))
	v["ingest.nacked_share"] = div(float64(st.Nacked), float64(st.Submitted))
	rf.Extra["mixed_writers"] = float64(ingestWriters())
	return nil
}

// shares turns the per-layer self times into percentages of their sum.
func (t *tracedRun) shares() map[string]float64 {
	var total float64
	for _, v := range t.layers {
		total += v
	}
	out := map[string]float64{}
	for k, v := range t.layers {
		out[k] = 100 * div(v, total)
	}
	return out
}
