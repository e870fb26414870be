// Adversary sweep: the active-attacker counterpart to the fault sweep. Where
// chaos.Run models accidents, RunAdversary mounts *semantic* protocol attacks
// — replay, duplication, reordering, cross-session splicing, forged frames,
// forged plaintext banners, stale medium reads, and whole-medium rollback —
// at every protocol step, and checks the fail-closed contract:
//
//  1. no attack ever yields wrong or stale rows (absorbed attacks fail over
//     to correct results),
//  2. no ack is ever surfaced for a write the replicas do not hold,
//  3. every surfaced failure is typed (classify never returns "untyped"),
//  4. nothing hangs, and
//  5. the whole run is byte-identical for a fixed seed.
package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"net"
	"strings"
	"sync"
	"time"

	"ironsafe"
	"ironsafe/internal/adversary"
	"ironsafe/internal/ctl"
	"ironsafe/internal/faultinject"
	"ironsafe/internal/ingest"
	"ironsafe/internal/pager"
	"ironsafe/internal/resilience"
)

// AdversaryConfig scripts one active-adversary conformance run.
type AdversaryConfig struct {
	// Seed drives every attack decision; same seed, same run.
	Seed uint64
	// Queries is the broad-phase query count (0 means 12).
	Queries int
	// MaxSteps bounds how deep into each frame stream the targeted grid
	// plants its per-step attacks (0 means 2: the key-confirmation frame and
	// the first data frame).
	MaxSteps int
	// IngestRecords is the ctl-ingest drill's record count (0 means 10).
	IngestRecords int
}

// AdversaryReport is the full run record.
type AdversaryReport struct {
	// Mounted lists the distinct attack classes actually mounted; Attacks is
	// their total count.
	Mounted []faultinject.Class
	Attacks int
	// Cells is how many targeted grid cells ran (one attack class at one
	// protocol step each).
	Cells int
	// Tally partitions the watchdogged queries and counts the broken
	// invariants; WrongResults == 0 is the core fail-closed one. Hangs and
	// Untyped also count guarded control operations and ctl dials.
	Tally
	// AckViolations counts ingest acks not backed by durable rows on every
	// replica (must be zero: a forged or replayed ack may never stand).
	AckViolations int
	// Digest commits to every outcome plus every engine's attack trace: two
	// runs with the same config must produce the same digest.
	Digest string
}

func (c *AdversaryConfig) fill() {
	if c.Queries == 0 {
		c.Queries = 12
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 2
	}
	if c.IngestRecords == 0 {
		c.IngestRecords = 10
	}
}

// adversaryHarness carries the state every phase shares: the harness with
// the attack-free reference digests, the running report, and the digest
// accumulator all phase outcomes and traces feed.
type adversaryHarness struct {
	*harness
	cfg     *AdversaryConfig
	rep     *AdversaryReport
	acc     hash.Hash
	mounted map[faultinject.Class]int
}

// RunAdversary executes one scripted adversary run and returns its report.
// The phases, in order: A broad randomized frame attacks under query load;
// B a targeted grid planting every frame-attack class at every early protocol
// step, plus identity-unit (preamble/public-key) replay and splice; C the
// ctl-ingest drill (forged banners, attacked acks, forged-ack durability
// audit); D the medium drills (stale reads at reopen, whole-medium rollback);
// E rebuild under replayed and spliced transfer legs.
func RunAdversary(cfg AdversaryConfig) (*AdversaryReport, error) {
	cfg.fill()
	h := &adversaryHarness{
		harness: newHarness(ironsafe.IronSafe, 2),
		cfg:     &cfg,
		rep:     &AdversaryReport{},
		acc:     sha256.New(),
		mounted: map[faultinject.Class]int{},
	}
	if err := h.reference(accessPolicy); err != nil {
		return nil, fmt.Errorf("adversary sweep: %w", err)
	}

	for _, phase := range []func() error{
		h.phaseBroad, h.phaseGrid, h.phaseIngest, h.phaseMedium, h.phaseRebuild,
	} {
		if err := phase(); err != nil {
			return nil, err
		}
	}

	h.rep.Mounted = classesOf(h.mounted)
	for _, n := range h.mounted {
		h.rep.Attacks += n
	}
	h.rep.Digest = hex.EncodeToString(h.acc.Sum(nil))
	return h.rep, nil
}

// mitm is the substrate of the channel phases: eng's protocol-aware
// man-in-the-middle on every storage channel (query and rebuild legs both
// dial through it).
func mitm(eng *adversary.Engine) substrate {
	return substrate{conn: func(site string, conn net.Conn) net.Conn {
		return adversary.WrapConn(conn, site, adversary.StorageProfile, eng)
	}}
}

// runQuery submits one query from the mix under the hang watchdog and folds
// the outcome into the report's invariant counters.
func (h *adversaryHarness) runQuery(session *ironsafe.Session, mix int) Outcome {
	o, _ := h.query(session, 0, mix, &h.rep.Tally)
	return o
}

// guard runs a cluster operation (rebuild, restart) under the hang watchdog:
// an attacked control operation that wedges is as broken as a wedged query.
func (h *adversaryHarness) guard(what string, f func() error) error {
	err, ok := watch(f)
	if !ok {
		h.rep.Hangs++
		return fmt.Errorf("adversary sweep: %s hung", what)
	}
	return err
}

// absorb folds an engine's attack trace into the digest and its per-class
// counts into the report.
func (h *adversaryHarness) absorb(tag string, eng *faultinject.Plan) {
	for _, line := range eng.Trace() {
		fmt.Fprintf(h.acc, "%s %s\n", tag, line)
	}
	for cls, n := range eng.Stats() {
		h.mounted[cls] += n
	}
}

// phaseBroad drives the query mix with every frame-attack class armed at low
// steady rates across all channel legs — the randomized soak that spreads
// attacks over whatever protocol states the run passes through.
func (h *adversaryHarness) phaseBroad() error {
	eng := adversary.NewEngine(h.cfg.Seed,
		faultinject.Rule{Site: ":read", Class: faultinject.Replay, Prob: 0.04, After: 2},
		faultinject.Rule{Site: ":read", Class: faultinject.Duplicate, Prob: 0.03, After: 2},
		faultinject.Rule{Site: ":read", Class: faultinject.Reorder, Prob: 0.02, After: 2},
		faultinject.Rule{Site: ":write", Class: faultinject.Inject, Prob: 0.03, After: 2},
		faultinject.Rule{Site: ":write", Class: faultinject.Splice, Prob: 0.02, After: 2},
	)
	c, err := h.cluster(mitm(eng))
	if err != nil {
		return fmt.Errorf("adversary sweep: broad cluster: %w", err)
	}
	session := c.NewSession(clientKey)
	for qi := 0; qi < h.cfg.Queries; qi++ {
		mix := qi % len(QueryMix)
		o := h.runQuery(session, mix)
		fmt.Fprintf(h.acc, "A q%02d mix=%d ok=%t class=%s rows-ok=%t failovers=%d\n",
			qi, mix, o.OK, o.Class, h.rowsOK(o), o.Failovers)
	}
	h.absorb("A", eng.Plan)
	return nil
}

// phaseGrid is the conformance grid: a rule-less probe run counts protocol
// units per leg, then every frame-attack class is planted at every early step
// of the most-trafficked node's read and write legs — one fresh cluster, one
// fresh engine, exactly one armed attack per cell — plus replay and splice of
// the identity units (preamble, handshake public keys). Step 0 of a frame leg
// is the key-confirmation frame, so the grid covers the handshake itself.
func (h *adversaryHarness) phaseGrid() error {
	const gridMix = 2 // QueryMix[2] == q6: the cheapest query in the mix

	probe := adversary.NewEngine(h.cfg.Seed)
	c, err := h.cluster(mitm(probe))
	if err != nil {
		return fmt.Errorf("adversary sweep: probe cluster: %w", err)
	}
	if o := h.runQuery(c.NewSession(clientKey), gridMix); !h.rowsOK(o) {
		return fmt.Errorf("adversary sweep: clean probe failed (class=%s)", o.Class)
	}
	ids := nodeIDs(h.nodes)
	gridNode := ids[0]
	for _, id := range ids {
		if probe.OpsAt(id+":read") > probe.OpsAt(gridNode+":read") {
			gridNode = id
		}
	}

	frameClasses := []faultinject.Class{
		faultinject.Replay, faultinject.Duplicate, faultinject.Reorder,
		faultinject.Splice, faultinject.Inject,
	}
	cell := 0
	for _, dir := range []string{":read", ":write"} {
		leg := gridNode + dir
		steps := probe.OpsAt(leg)
		if steps > h.cfg.MaxSteps {
			steps = h.cfg.MaxSteps
		}
		for _, cls := range frameClasses {
			for step := 0; step < steps; step++ {
				if err := h.gridCell(cell, gridMix, faultinject.Rule{
					Site: leg, Class: cls, Prob: 1, After: step, MaxCount: 1,
				}); err != nil {
					return err
				}
				cell++
			}
		}
	}
	// Identity steps: Replay mounts a unit recorded from a previous session,
	// Splice stitches a different session's unit into this connection setup.
	for _, sub := range []string{":read:pubkey", ":write:pubkey", ":write:preamble"} {
		for _, cls := range []faultinject.Class{faultinject.Replay, faultinject.Splice} {
			if err := h.gridCell(cell, gridMix, faultinject.Rule{
				Site: gridNode + sub, Class: cls, Prob: 1, MaxCount: 1,
			}); err != nil {
				return err
			}
			cell++
		}
	}
	h.rep.Cells = cell
	return nil
}

func (h *adversaryHarness) gridCell(idx, mix int, rule faultinject.Rule) error {
	eng := adversary.NewEngine(h.cfg.Seed^(uint64(idx+1)*0x9e3779b97f4a7c15), rule)
	seedIdentityMaterial(eng, rule)
	c, err := h.cluster(mitm(eng))
	if err != nil {
		return fmt.Errorf("adversary sweep: cell %d cluster: %w", idx, err)
	}
	o := h.runQuery(c.NewSession(clientKey), mix)
	fmt.Fprintf(h.acc, "B cell=%02d %s@%s+%d ok=%t class=%s rows-ok=%t failovers=%d\n",
		idx, rule.Class, rule.Site, rule.After, o.OK, o.Class, h.rowsOK(o), o.Failovers)
	h.absorb(fmt.Sprintf("B%02d", idx), eng.Plan)
	return nil
}

// seedIdentityMaterial stocks the adversary's library with previous-session
// identity units so identity-step Replay/Splice cells have real-shaped
// material to mount: a stale session's preamble, a stale session's 32-byte
// public key. Frame cells need nothing — the engine records live frames.
func seedIdentityMaterial(eng *adversary.Engine, rule faultinject.Rule) {
	switch {
	case strings.HasSuffix(rule.Site, ":pubkey"):
		old := make([]byte, 32)
		for i := range old {
			old[i] = byte(i*37 + 11)
		}
		eng.Remember(rule.Site, old)
		eng.Remember("previous-session:pubkey", old)
	case strings.HasSuffix(rule.Site, ":preamble"):
		// Shaped exactly like a live query-session preamble: 1-byte length +
		// "sess-NNNNNN-hhhhhhhh" (20 bytes).
		sid := "sess-999999-deadbeef"
		pre := append([]byte{byte(len(sid))}, sid...)
		eng.Remember(rule.Site, pre)
		eng.Remember("previous-session:preamble", pre)
	}
}

// advListener adapts a channel of pipe ends to net.Listener so a real
// ctl.Server serves MITM-wrapped in-memory connections. The phase that owns
// it dials only while it is open and closes it once.
type advListener struct {
	ch chan net.Conn
	// served counts server-side pipe ends the ctl server has not closed yet;
	// a handler still applying a record keeps its connection open.
	served sync.WaitGroup
}

// servedConn reports the ctl server's Close of one accepted connection.
type servedConn struct {
	net.Conn
	once sync.Once
	done func()
}

func (c *servedConn) Close() error {
	c.once.Do(c.done)
	return c.Conn.Close()
}

func (l *advListener) Accept() (net.Conn, error) {
	c, ok := <-l.ch
	if !ok {
		return nil, net.ErrClosed
	}
	return c, nil
}

func (l *advListener) Close() error {
	close(l.ch)
	return nil
}

func (l *advListener) Addr() net.Addr { return advAddr{} }

// dial hands the server half of a fresh pipe to the accept loop and returns
// the client half.
func (l *advListener) dial() net.Conn {
	a, b := net.Pipe()
	l.served.Add(1)
	l.ch <- &servedConn{Conn: b, done: l.served.Done}
	return a
}

type advAddr struct{}

func (advAddr) Network() string { return "adv-pipe" }
func (advAddr) String() string  { return "adv-pipe" }

// phaseIngest attacks the client→cluster control link under streaming ingest:
// forged plaintext overload banners on dial, replayed and duplicated ack
// frames, forged request frames. The data plane stays honest — the drill's
// subject is the ack contract: after the run, every OK-acked record must be
// durable on every replica. A forged ack toward the client can only manifest
// as an acked-but-absent record, which this audit catches.
func (h *adversaryHarness) phaseIngest() error {
	eng := adversary.NewEngine(h.cfg.Seed^0xA5A5A5A5A5A5A5A5,
		faultinject.Rule{Site: "ctl:ingest:read:banner", Class: faultinject.Banner, Prob: 1, MaxCount: 1},
		faultinject.Rule{Site: "ctl:ingest:read", Class: faultinject.Replay, Prob: 0.12, After: 3, MaxCount: 2},
		faultinject.Rule{Site: "ctl:ingest:read", Class: faultinject.Duplicate, Prob: 0.10, After: 3, MaxCount: 2},
		faultinject.Rule{Site: "ctl:ingest:write", Class: faultinject.Inject, Prob: 0.10, After: 3, MaxCount: 2},
	)
	c, err := h.cluster(substrate{policy: ingestAccessPolicy})
	if err != nil {
		return fmt.Errorf("adversary sweep: ingest cluster: %w", err)
	}
	pipe, err := ingestPipeline(c, ingest.Config{BatchMax: 4, QueueMax: 256})
	if err != nil {
		return err
	}
	defer pipe.Close()

	psk := []byte("adversary-ctl-psk")
	srv := ctl.NewServer(psk)
	srv.HandshakeTimeout = 2 * time.Second
	ingest.RegisterCtl(srv, pipe)
	ln := &advListener{ch: make(chan net.Conn)}
	defer ln.Close()
	go srv.Serve(ln)

	// Generous I/O bounds: the attacks fail fast via AEAD rejection; the
	// deadlines only exist to bound a truly wedged pipe.
	rcfg := resilience.Config{IOTimeout: 5 * time.Second}.WithDefaults()
	dials := 0
	dial := func() (*ctl.Client, error) {
		for attempt := 0; attempt < 6; attempt++ {
			wrapped := adversary.WrapConn(ln.dial(), "ctl:ingest", adversary.CtlProfile, eng)
			cli, err := ctl.ClientConn(wrapped, psk, rcfg)
			class := classify(err)
			fmt.Fprintf(h.acc, "C dial%02d class=%s\n", dials, class)
			dials++
			if err == nil {
				return cli, nil
			}
			wrapped.Close()
			if class == "untyped" {
				h.rep.Untyped++
			}
		}
		return nil, errors.New("adversary sweep: ctl dial attempts exhausted")
	}

	cli, err := dial()
	if err != nil {
		return err
	}
	acked := make([]bool, h.cfg.IngestRecords)
	for ri := 0; ri < h.cfg.IngestRecords; ri++ {
		sql := fmt.Sprintf("INSERT INTO ingest_ev (id, client, note) VALUES (%d, 'adv', '%s')",
			9000+ri, ingestPayload(h.cfg.Seed, 99, ri, 0))
		ack, err := ingest.SubmitCtl(cli, ingest.Record{Client: ingestClientKey, SQL: sql})
		class := classify(err)
		affected := -1
		if err == nil {
			acked[ri] = true
			affected = ack.Affected
			if affected != 1 {
				h.rep.AckViolations++
			}
		}
		fmt.Fprintf(h.acc, "C r%02d ok=%t class=%s affected=%d\n", ri, err == nil, class, affected)
		if err != nil {
			if class == "untyped" {
				h.rep.Untyped++
			}
			// The channel is torn or poisoned; re-dial. The record is NOT
			// retried — its fate is unknown, and only the ack contract below
			// judges it: errored-but-applied is legal, acked-but-absent never.
			cli.Close()
			if cli, err = dial(); err != nil {
				return err
			}
		}
	}
	cli.Close()

	// Quiesce: a client that gave up on an attacked reply leaves the server
	// still applying that record. Whether an unacked record lands is legal
	// either way, but the audit below must not race it — every client end is
	// closed, so each handler finishes its record and closes its connection.
	if err := h.guard("ctl quiesce", func() error { ln.served.Wait(); return nil }); err != nil {
		return err
	}

	// The forged-ack audit: every acked insert is durable on every replica.
	ackedCount := 0
	for ri, ok := range acked {
		if !ok {
			continue
		}
		ackedCount++
		for _, s := range c.Storage {
			res, err := s.DB().Execute(fmt.Sprintf("SELECT count(*) FROM ingest_ev WHERE id = %d", 9000+ri))
			if err != nil {
				return err
			}
			if res.Rows[0][0].AsInt() != 1 {
				h.rep.AckViolations++
			}
		}
	}
	first, err := replicasAgree(c)
	if err != nil {
		return fmt.Errorf("adversary sweep: ingest: %w", err)
	}
	fmt.Fprintf(h.acc, "C final %s acked=%d violations=%d\n", first, ackedCount, h.rep.AckViolations)
	h.absorb("C", eng.Plan)
	return nil
}

// phaseMedium drives the valid-old-state medium attacks against one node:
// first a reopen whose every read of a since-changed block serves the
// captured stale image (the store's recovery or integrity sweep must refuse
// readmission), then a whole-medium rollback to the captured state (same
// refusal), then an honest restore that must readmit cleanly.
func (h *adversaryHarness) phaseMedium() error {
	plan := faultinject.NewPlan(h.cfg.Seed ^ 0x5D5D5D5D5D5D5D5D)
	devs := map[string]*adversary.Device{}
	c, err := h.cluster(substrate{device: func(node string, dev pager.BlockDevice) pager.BlockDevice {
		devs[node] = adversary.WrapDevice(dev, "medium:"+node, plan)
		return devs[node]
	}})
	if err != nil {
		return fmt.Errorf("adversary sweep: medium cluster: %w", err)
	}
	ids := nodeIDs(h.nodes)
	victim := ids[len(ids)-1]
	dev := devs[victim]

	// Capture now, then evolve the media past this point so the captured
	// images are genuinely stale valid states — mirroring chaos.Run.
	dev.Capture()
	if err := markMedia(c); err != nil {
		return err
	}
	good, err := c.SnapshotStorage(victim)
	if err != nil {
		return err
	}
	session := c.NewSession(clientKey)

	// Stale-read reopen: recovery and the integrity sweep read the medium,
	// and every shadowed block serves its captured old image. The node must
	// be refused — at reopen (journal recovery detects the stale anchor) or
	// at readmission (the full sweep does) — and the refusal must be typed.
	c.KillStorage(victim)
	dev.ArmStaleReads(1 << 20)
	refusal, err := h.mustRefuse(c, victim, "stale-read")
	if err != nil {
		return err
	}
	if refusal != nil {
		fmt.Fprintf(h.acc, "D stale-read refused at reopen\n")
	} else {
		fmt.Fprintf(h.acc, "D stale-read refused at readmission\n")
	}

	// Disarm; the medium underneath was never altered, so an honest reopen
	// readmits and serves correct rows.
	dev.ArmStaleReads(0)
	if err := h.guard("honest restart", func() error { return c.RestartStorage(victim, nil) }); err != nil {
		return fmt.Errorf("adversary sweep: honest restart after stale reads: %w", err)
	}
	if err := c.ReattestStorage(victim); err != nil {
		return fmt.Errorf("adversary sweep: honest readmission after stale reads: %w", err)
	}
	o := h.runQuery(session, 0)
	fmt.Fprintf(h.acc, "D post-stale ok=%t class=%s rows-ok=%t\n", o.OK, o.Class, h.rowsOK(o))
	if !h.rowsOK(o) {
		return fmt.Errorf("adversary sweep: post-stale query wrong (class=%s)", o.Class)
	}

	// Whole-medium rollback to the captured valid old state.
	c.KillStorage(victim)
	if err := dev.Rollback(); err != nil {
		return err
	}
	if refusal, err = h.mustRefuse(c, victim, "rollback"); err != nil {
		return err
	}
	if refusal != nil {
		fmt.Fprintf(h.acc, "D rollback refused at reopen class=%s\n", classify(refusal))
	} else {
		fmt.Fprintf(h.acc, "D rollback refused at readmission\n")
	}

	// Honest restore: current state back, readmission passes, rows correct.
	if err := h.guard("restore restart", func() error { return c.RestartStorage(victim, good) }); err != nil {
		return err
	}
	if err := c.ReattestStorage(victim); err != nil {
		return fmt.Errorf("adversary sweep: honest restore refused: %w", err)
	}
	o = h.runQuery(session, 0)
	fmt.Fprintf(h.acc, "D restored ok=%t class=%s rows-ok=%t\n", o.OK, o.Class, h.rowsOK(o))
	if !h.rowsOK(o) {
		return fmt.Errorf("adversary sweep: post-restore query wrong (class=%s)", o.Class)
	}
	h.absorb("D", plan)
	return nil
}

// mustRefuse restarts the killed victim over its attacked medium — a valid
// old state — and demands the typed refusal: at reopen (journal recovery
// detects the stale anchor; the refusal is returned) or, the reopen having
// accepted the medium, at readmission (the full integrity sweep does).
func (h *adversaryHarness) mustRefuse(c *ironsafe.Cluster, victim, attack string) (reopenRefusal, err error) {
	err = h.guard(attack+" restart", func() error { return c.RestartStorage(victim, nil) })
	if errors.Is(err, ironsafe.ErrNodeNotReadmitted) {
		return err, nil
	}
	if err != nil {
		return nil, fmt.Errorf("adversary sweep: %s restart refusal had wrong type: %w", attack, err)
	}
	if err = c.ReattestStorage(victim); err == nil {
		return nil, fmt.Errorf("adversary sweep: node under %s was readmitted", attack)
	}
	if !errors.Is(err, ironsafe.ErrNodeNotReadmitted) {
		return nil, fmt.Errorf("adversary sweep: %s refusal had wrong type: %w", attack, err)
	}
	return nil, nil
}

// phaseRebuild attacks the rebuild transfer itself: the import leg toward the
// rebuilt node replays stale chunks, the export leg from the donor splices in
// other-session material (the malicious-donor shape). Attacked attempts must
// fail typed with the node still quarantined; the bounded attack budget then
// lets a clean attempt through, after which readmission and correct rows are
// required.
func (h *adversaryHarness) phaseRebuild() error {
	eng := adversary.NewEngine(h.cfg.Seed ^ 0xEBEBEBEBEBEBEBEB)
	c, err := h.cluster(mitm(eng))
	if err != nil {
		return fmt.Errorf("adversary sweep: rebuild cluster: %w", err)
	}
	ids := nodeIDs(h.nodes)
	victim, donor := ids[len(ids)-1], ids[0]
	c.KillStorage(victim)

	// Each rebuild attempt dials fresh legs with fresh keys, so a replayed
	// unit is cross-session material by construction.
	eng.Arm(faultinject.Rule{Site: "rebuild:" + victim, Class: faultinject.Replay, Prob: 1, MaxCount: 2})
	eng.Arm(faultinject.Rule{Site: "rebuild:" + donor, Class: faultinject.Splice, Prob: 1, MaxCount: 2})

	var rbErr error
	for attempt := 0; attempt < 6; attempt++ {
		rbErr = h.guard("rebuild", func() error { return c.RebuildStorage(victim, donor) })
		class := classify(rbErr)
		fmt.Fprintf(h.acc, "E rebuild attempt=%d ok=%t class=%s\n", attempt, rbErr == nil, class)
		if rbErr == nil {
			break
		}
		if class == "untyped" {
			h.rep.Untyped++
		}
		if !c.NodeDown(victim) {
			return errors.New("adversary sweep: failed rebuild left the node admitted")
		}
	}
	if rbErr != nil {
		return fmt.Errorf("adversary sweep: rebuild never recovered: %w", rbErr)
	}
	if err := c.ReattestStorage(victim); err != nil {
		return fmt.Errorf("adversary sweep: rebuilt node refused: %w", err)
	}
	o := h.runQuery(c.NewSession(clientKey), 0)
	fmt.Fprintf(h.acc, "E rebuilt ok=%t class=%s rows-ok=%t\n", o.OK, o.Class, h.rowsOK(o))
	if !h.rowsOK(o) {
		return fmt.Errorf("adversary sweep: post-rebuild query wrong (class=%s)", o.Class)
	}
	h.absorb("E", eng.Plan)
	return nil
}
