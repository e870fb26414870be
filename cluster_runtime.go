package ironsafe

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"ironsafe/internal/engine"
	"ironsafe/internal/hostengine"
	"ironsafe/internal/monitor"
	"ironsafe/internal/pager"
	"ironsafe/internal/resilience"
	"ironsafe/internal/securestore"
	"ironsafe/internal/sql/exec"
	"ironsafe/internal/storageengine"
	"ironsafe/internal/transport"
)

// This file is the cluster's resilient runtime: per-session node providers
// with health-tracked failover, the storage-node failure/restart lifecycle
// (crash, restart, rollback detection, re-attestation), and the host's
// block-fetch fallback for when every storage channel is gone.

// ErrNodeNotReadmitted reports a restarted node that failed the readmission
// checks (integrity sweep or re-attestation) and stays quarantined.
var ErrNodeNotReadmitted = errors.New("ironsafe: storage node failed readmission")

// ErrNodeNotDown reports a restart/rebuild request for a node that was never
// killed — restarting a live node would silently reopen its store underneath
// in-flight offloads.
var ErrNodeNotDown = errors.New("ironsafe: storage node is not down")

// ErrEpochFenced reports an offload reply stamped with a stale membership
// epoch: the node served the request from before its eviction (a zombie) and
// the reply must not be trusted, fresh as its channel may look.
var ErrEpochFenced = errors.New("ironsafe: offload reply from a fenced epoch")

// Epoch reports the current cluster membership epoch. It advances on every
// eviction (KillStorage); surviving nodes learn the new value and stamp it on
// their replies, so a fenced node's replies betray their staleness.
func (c *Cluster) Epoch() uint64 {
	c.nodeMu.Lock()
	defer c.nodeMu.Unlock()
	return c.epoch
}

// Health exposes the cluster's per-node health tracker (circuit state, down
// set) for operators and tests.
func (c *Cluster) Health() *resilience.Tracker { return c.health }

// maxHedges caps the cluster's in-flight hedged races, so hedging cannot
// amplify an overload.
const maxHedges = 2

// tailTolerant reports whether the gray-failure machinery (latency EWMA,
// soft-ejection, hedging) is active: only with an injected virtual latency
// clock. When off, latency reports, candidate reprioritization, and hedging
// are all no-ops, so nothing the machine's speed decides reaches candidate
// order or the fail-stop sweeps' digests.
func (c *Cluster) tailTolerant() bool {
	return c.res.LatencyClock != nil
}

// NodeDown reports whether a storage node is currently failed/quarantined.
func (c *Cluster) NodeDown(id string) bool {
	c.nodeMu.Lock()
	defer c.nodeMu.Unlock()
	return c.down[id]
}

// KillStorage models a node crash: the node stops accepting offloads, its
// monitor registration is revoked (so new authorizations exclude it), the
// health tracker marks it down, and the membership epoch advances. The down
// set and the health tracker move together under nodeMu, so no concurrent
// ReattestStorage can observe the node half-killed (down but healthy, or
// vice versa). The new epoch is broadcast to the surviving nodes only — the
// killed node keeps serving its stale epoch, which is exactly how the host
// unmasks it if it keeps answering. Queries in flight fail over. The host
// forgets the node's resumption ticket here and at every later step of its
// way back (RestartStorage, ReattestStorage): the first channel to a node
// whose membership changed is a full exchange.
func (c *Cluster) KillStorage(id string) {
	c.tickets.Forget(id)
	c.nodeMu.Lock()
	already := c.down[id]
	c.down[id] = true
	var epoch uint64
	var live []*storageengine.Server
	if !already {
		c.epoch++
		epoch = c.epoch
		c.health.MarkDown(id)
		for _, srv := range c.Storage {
			sid, _, _ := srv.Info()
			if sid != id && !c.down[sid] {
				live = append(live, srv)
			}
		}
	}
	c.nodeMu.Unlock()
	if already {
		return
	}
	for _, srv := range live {
		srv.SetEpoch(epoch)
	}
	c.Monitor.RevokeStorage(id)
}

// MediumSnapshot captures a storage node's raw medium for later rollback
// simulation (an attacker or a botched restore putting stale bytes back).
type MediumSnapshot struct {
	node   string
	blocks map[uint32][]byte
}

// SnapshotStorage captures the node's current medium state. On secure
// configurations the capture is quiesced inside the store's commit lock, so
// it always lands on a transaction boundary: restoring the snapshot later
// yields a cleanly-stale medium (refused by the freshness check), never a
// torn one (refused as corruption — a different, misleading failure).
func (c *Cluster) SnapshotStorage(id string) (*MediumSnapshot, error) {
	srv := c.storageByID(id)
	if srv == nil {
		return nil, fmt.Errorf("ironsafe: unknown storage node %q", id)
	}
	return &MediumSnapshot{node: id, blocks: srv.SnapshotMedium()}, nil
}

// RestartStorage brings a killed node back up. If rollback is non-nil the
// node restarts from that (stale) medium snapshot — modeling a restore from
// an old backup or a rollback attack. The restart reopens the node's store
// and engine from the medium, which on secure configurations runs the redo
// journal's recovery: a node that merely crashed mid-commit comes back at a
// consistent anchored state and may proceed to ReattestStorage, while a
// rolled-back medium fails recovery with securestore.ErrFreshness and is
// refused on the spot with ErrNodeNotReadmitted — the node stays down.
// Even on success the node is NOT readmitted here: ReattestStorage must pass
// first.
func (c *Cluster) RestartStorage(id string, rollback *MediumSnapshot) error {
	srv := c.storageByID(id)
	if srv == nil {
		return fmt.Errorf("ironsafe: unknown storage node %q", id)
	}
	c.nodeMu.Lock()
	down, inRebuild := c.down[id], c.rebuilding[id]
	c.nodeMu.Unlock()
	if !down {
		return fmt.Errorf("%w: %s: restart refused", ErrNodeNotDown, id)
	}
	if inRebuild {
		return fmt.Errorf("ironsafe: %s: rebuild in flight; restart refused", id)
	}
	c.tickets.Forget(id)
	if rollback != nil {
		if rollback.node != id {
			return fmt.Errorf("ironsafe: snapshot of %q cannot restore %q", rollback.node, id)
		}
		srv.Medium().RestoreBlocks(rollback.blocks)
	}
	if err := srv.Restart(); err != nil {
		if errors.Is(err, securestore.ErrFreshness) {
			return fmt.Errorf("%w: %s: reopen: %w", ErrNodeNotReadmitted, id, err)
		}
		return fmt.Errorf("ironsafe: restarting %s: %w", id, err)
	}
	return nil
}

// ReattestStorage runs the readmission protocol for a restarted node: the
// secure store's full integrity sweep (which catches a rolled-back medium
// against the RPMB anchor), then a fresh monitor attestation (challenge-
// response over the trusted-boot chain). Only when both pass does the node
// rejoin the offload candidate set. On failure the node stays down.
func (c *Cluster) ReattestStorage(id string) error {
	srv := c.storageByID(id)
	if srv == nil {
		return fmt.Errorf("ironsafe: unknown storage node %q", id)
	}
	c.tickets.Forget(id)
	// Integrity/freshness sweep first: a node restarted with stale state —
	// or still carrying a rebuild marker — must be refused before it can
	// serve a single offload.
	if err := srv.VerifyStore(); err != nil {
		return fmt.Errorf("%w: %s: integrity sweep: %w", ErrNodeNotReadmitted, id, err)
	}
	if err := c.Monitor.RegisterStorage("ironsafe-vendor", &storageAdapter{srv}); err != nil {
		return fmt.Errorf("%w: %s: attestation: %w", ErrNodeNotReadmitted, id, err)
	}
	// The down-set removal and the health MarkUp happen together under
	// nodeMu: a concurrent KillStorage serializes before or after the whole
	// readmission, never between its two halves.
	c.nodeMu.Lock()
	if c.rebuilding[id] {
		c.nodeMu.Unlock()
		return fmt.Errorf("%w: %s: rebuild in flight", ErrNodeNotReadmitted, id)
	}
	//ironsafe:allow readmit -- sole legitimate readmission site: sweep and attestation passed above
	delete(c.down, id)
	//ironsafe:allow readmit -- paired with the down-set removal under nodeMu
	c.health.MarkUp(id)
	epoch := c.epoch
	c.nodeMu.Unlock()
	// Catch the node up to the membership epoch so its replies are accepted.
	srv.SetEpoch(epoch)
	return nil
}

// sessionProvider hands the host engine live storage nodes for one query,
// with health gating and fresh channels per attempt. It implements
// hostengine.NodeProvider.
type sessionProvider struct {
	c          *Cluster
	authorized []string // monitor-authorized node IDs, in proof order
	sessionID  string
	sessionKey []byte

	// budget is the query's deadline budget; attached to every channel this
	// provider dials so attempts, retries, and hedges all draw on one pool.
	budget *resilience.Budget

	// cached live channels, replaced on failure (an AEAD channel that saw
	// a fault is desynchronized and must be rebuilt, not reused). cacheMu
	// guards the map: hedged races dial two legs concurrently.
	cacheMu sync.Mutex
	cached  map[string]*fencedNode
}

func (c *Cluster) newSessionProvider(authorized []string, sessionID string, sessionKey []byte) *sessionProvider {
	return &sessionProvider{
		c:          c,
		authorized: authorized,
		sessionID:  sessionID,
		sessionKey: sessionKey,
		budget:     c.res.NewQueryBudget(),
		cached:     map[string]*fencedNode{},
	}
}

// CandidateIDs implements hostengine.NodeProvider: the authorized nodes not
// currently down, in the monitor's (deterministic) proof order, with
// latency-ejected nodes deprioritized to the tail (the tracker periodically
// leaves one in place as a probe so recovery is observed).
func (p *sessionProvider) CandidateIDs() []string {
	out := make([]string, 0, len(p.authorized))
	for _, id := range p.authorized {
		if !p.c.NodeDown(id) {
			out = append(out, id)
		}
	}
	if !p.c.tailTolerant() {
		return out
	}
	return p.c.health.Prioritize(out)
}

// QueryBudget implements hostengine.NodeProvider.
func (p *sessionProvider) QueryBudget() *resilience.Budget { return p.budget }

// NodeNow implements hostengine.NodeProvider: the per-node clock offload
// legs are timed on — the virtual, deterministic LatencyClock when one is
// configured (the gray sweep), 0 otherwise.
func (p *sessionProvider) NodeNow(id string) time.Duration {
	if clock := p.c.res.LatencyClock; clock != nil {
		return clock(id)
	}
	return 0
}

// ReportLatency implements hostengine.NodeProvider, feeding the health
// tracker's EWMA and its cohort-median ejection logic. A no-op unless tail
// tolerance is on.
func (p *sessionProvider) ReportLatency(id string, d time.Duration) {
	if !p.c.tailTolerant() {
		return
	}
	p.c.health.ReportLatency(id, d)
}

// PlanHedge implements hostengine.NodeProvider. It hedges only a primary the
// latency estimator has ejected (it is already known to be slow), on the
// first alternate that is neither down nor ejected, and only when a
// cluster-wide hedge slot is free.
func (p *sessionProvider) PlanHedge(primary string, candidates []string) (string, bool) {
	c := p.c
	if !c.tailTolerant() || !c.health.Ejected(primary) {
		return "", false
	}
	for _, id := range candidates {
		if c.NodeDown(id) || c.health.Ejected(id) {
			continue
		}
		select {
		case c.hedgeSem <- struct{}{}:
			return id, true
		default:
			return "", false
		}
	}
	return "", false
}

// HedgeDone implements hostengine.NodeProvider, releasing the slot.
func (p *sessionProvider) HedgeDone() { <-p.c.hedgeSem }

// Connect implements hostengine.NodeProvider.
func (p *sessionProvider) Connect(id string) (hostengine.StorageNode, error) {
	if p.c.NodeDown(id) {
		return nil, fmt.Errorf("%w: %s", resilience.ErrNodeDown, id)
	}
	if !p.c.health.Allow(id) {
		return nil, fmt.Errorf("%w: %s", resilience.ErrCircuitOpen, id)
	}
	p.cacheMu.Lock()
	n, ok := p.cached[id]
	p.cacheMu.Unlock()
	if ok {
		return n, nil
	}
	srv := p.c.storageByID(id)
	if srv == nil {
		return nil, fmt.Errorf("ironsafe: unknown storage node %q", id)
	}
	inner, err := p.c.dialNodeChannel(srv, id, p.sessionID, p.sessionKey, p.budget, p.c.tickets)
	if err != nil {
		p.c.health.Report(id, false)
		return nil, err
	}
	node := &fencedNode{RemoteNode: inner, c: p.c}
	p.cacheMu.Lock()
	p.cached[id] = node
	p.cacheMu.Unlock()
	return node, nil
}

// fencedNode enforces membership-epoch fencing on every offload reply: a
// reply stamped with anything but the current epoch came from a node that
// missed an eviction, and is rejected with ErrEpochFenced. The failure flows
// through the ordinary failover path, so the host simply retries elsewhere.
type fencedNode struct {
	*hostengine.RemoteNode
	c *Cluster
}

func (f *fencedNode) Offload(sql string) (*exec.Result, int64, error) {
	res, wire, err := f.RemoteNode.Offload(sql)
	if err != nil {
		return nil, wire, err
	}
	if got, want := f.ReplyEpoch(), f.c.Epoch(); got != want {
		return nil, wire, fmt.Errorf("%w: %s replied at epoch %d, cluster at %d",
			ErrEpochFenced, f.NodeID(), got, want)
	}
	return res, wire, nil
}

// Report implements hostengine.NodeProvider. A failure drops the cached
// channel so the next attempt handshakes a fresh one.
func (p *sessionProvider) Report(id string, ok bool) {
	p.c.health.Report(id, ok)
	if !ok {
		p.cacheMu.Lock()
		n, cached := p.cached[id]
		delete(p.cached, id)
		p.cacheMu.Unlock()
		if cached {
			n.Close()
		}
	}
}

// close tears down the provider's live channels at end of query.
func (p *sessionProvider) close() {
	p.cacheMu.Lock()
	defer p.cacheMu.Unlock()
	for id, n := range p.cached {
		n.Close()
		delete(p.cached, id)
	}
}

// dialNodeChannel opens a monitor-keyed secure channel to srv over an
// in-process pipe speaking the full wire protocol, optionally wrapped by the
// fault-injection hook — the one path every split-mode offload and every
// rebuild leg takes. site is the name the fault hook sees — node id for query
// channels, "rebuild:<id>" for rebuild control channels, so faults can target
// one leg of a rebuild without touching queries. The handshake itself draws on
// bud, so a query that has burned its budget on failovers cannot keep paying
// full handshake timeouts against a stalled peer. With tickets the handshake
// resumes the node's last channel when it can (query channels: one per query
// per node); nil is always the full exchange (rebuild legs, whose failed
// passes are retried whole with no health tracker to tell). Either way a
// failed handshake is returned, never dialled again here.
func (c *Cluster) dialNodeChannel(srv *storageengine.Server, site, sessionID string, sessionKey []byte, bud *resilience.Budget, tickets *transport.TicketStore) (*hostengine.RemoteNode, error) {
	hostSide, storageSide := net.Pipe()
	served := make(chan struct{}) // closed when the serving goroutine returns; the node's Close waits for it
	go func() {
		defer close(served)
		//ironsafe:allow policypath -- ServeConn only executes fragments arriving over the monitor-keyed channel; the session key it requires is minted by Authorize, so the policy decision dominates at runtime one hop upstream
		srv.ServeConn(storageSide)
	}()
	var conn net.Conn = hostSide
	if c.cfg.ConnWrapper != nil {
		conn = c.cfg.ConnWrapper(site, hostSide)
	}
	node, err := hostengine.NewRemoteNode(conn, site, sessionID, sessionKey, c.HostMeter, tickets, bud, c.res)
	if err != nil {
		storageSide.Close()
		return nil, err
	}
	node.ServedBy(served)
	return node, nil
}

// hostFallbackExecute is graceful degradation for VanillaCS: when every
// storage channel is gone, the host mounts a surviving node's medium over
// the block-fetch path (the hons access path) and runs the whole query
// locally. IronSafe (scs) mode has no such fallback — its medium is
// encrypted under storage-node keys the host by design does not hold, so
// scs survives node loss only through surviving replicas.
//
// The fallback takes the full authorization, not just the rewritten SQL,
// and re-verifies the monitor's proof before mounting anything: the
// degraded path bypasses the per-node session-key machinery, so it must
// not also bypass the evidence that the monitor approved this exact query.
func (c *Cluster) hostFallbackExecute(auth *monitor.Authorization) (*exec.Result, error) {
	if !monitor.VerifyProof(c.MonitorPublicKey(), &auth.Proof) {
		return nil, fmt.Errorf("ironsafe: host fallback refused: monitor proof failed verification")
	}
	var srv *storageengine.Server
	for _, s := range c.Storage {
		id, _, _ := s.Info()
		if !c.NodeDown(id) {
			srv = s
			break
		}
	}
	if srv == nil {
		return nil, fmt.Errorf("%w: no surviving storage medium for host fallback", ErrNoStorage)
	}
	remote := &hostengine.RemoteDevice{Fetcher: srv, HostMeter: c.HostMeter}
	store := pager.NewPager(remote, c.HostMeter, 256)
	db, err := engine.Open(store, c.HostMeter)
	if err != nil {
		return nil, fmt.Errorf("ironsafe: host fallback mount: %w", err)
	}
	return c.Host.ExecuteLocal(db, auth.RewrittenSQL)
}
