// Package hostengine implements IronSafe's host engine: the SGX-shielded
// query processor that receives client queries, partitions them with the
// query partitioner, offloads per-table fragments to storage nodes, and runs
// the compute-intensive remainder (joins, group-bys, aggregations) over the
// shipped rows inside the enclave.
package hostengine

import (
	"crypto/rand"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"ironsafe/internal/engine"
	"ironsafe/internal/partition"
	"ironsafe/internal/resilience"
	"ironsafe/internal/simtime"
	"ironsafe/internal/sql/exec"
	"ironsafe/internal/sql/parser"
	"ironsafe/internal/tee/sgx"
)

// Config configures a host engine.
type Config struct {
	ID        string
	Location  string
	FWVersion string
	// Platform is the SGX platform; required when Secure.
	Platform *sgx.Platform
	// Image is the host engine code identity measured into the enclave.
	Image []byte
	// Secure runs query processing inside an enclave (hos/scs); false is
	// the non-secure baseline (hons/vcs).
	Secure bool
	// EPCLimitBytes overrides the enclave page cache size (default 96 MiB).
	EPCLimitBytes int64
	// Meter receives the host's work counters. Required.
	Meter *simtime.Meter
	// ExecBatchRows is the executor batch size for the host phase
	// (0 = exec.DefaultBatchRows, 1 = row-at-a-time).
	ExecBatchRows int
}

// Host is one host engine instance.
type Host struct {
	cfg          Config
	enclave      *sgx.Enclave
	transportPub []byte
	schemas      partition.SchemaMap
}

// New creates a host engine, loading its enclave when Secure.
func New(cfg Config) (*Host, error) {
	if cfg.Meter == nil {
		return nil, errors.New("hostengine: meter required")
	}
	h := &Host{cfg: cfg, schemas: partition.SchemaMap{}}
	h.transportPub = make([]byte, 32)
	if _, err := rand.Read(h.transportPub); err != nil {
		return nil, err
	}
	if cfg.Secure {
		if cfg.Platform == nil {
			return nil, errors.New("hostengine: secure host requires an SGX platform")
		}
		img := cfg.Image
		if len(img) == 0 {
			img = []byte("ironsafe host engine " + cfg.FWVersion)
		}
		enc, err := cfg.Platform.CreateEnclave(img, sgx.Config{Meter: cfg.Meter, EPCLimitBytes: cfg.EPCLimitBytes})
		if err != nil {
			return nil, err
		}
		h.enclave = enc
	}
	return h, nil
}

// TransportPub is the host's channel identity, bound into its quote.
func (h *Host) TransportPub() []byte { return h.transportPub }

// Enclave returns the host enclave (nil when non-secure).
func (h *Host) Enclave() *sgx.Enclave { return h.enclave }

// Quote produces the attestation quote binding the transport key.
func (h *Host) Quote(reportData [64]byte) (sgx.Quote, error) {
	if h.enclave == nil {
		return sgx.Quote{}, errors.New("hostengine: non-secure host cannot attest")
	}
	return h.enclave.GetQuote(reportData), nil
}

// SetSchemas installs the storage catalog's table schemas (needed by the
// partitioner).
func (h *Host) SetSchemas(m partition.SchemaMap) { h.schemas = m }

// Schemas returns the installed schema map.
func (h *Host) Schemas() partition.SchemaMap { return h.schemas }

// StorageNode is the host's view of one storage system: a channel to submit
// offloaded fragments on.
type StorageNode interface {
	NodeID() string
	// Offload runs sql near the data and returns the filtered rows plus
	// the number of wire bytes the shipped result occupied.
	Offload(sql string) (*exec.Result, int64, error)
}

// SplitOutcome reports what a split execution did (feeds Figures 6-8).
type SplitOutcome struct {
	Split        *partition.Split
	RowsShipped  int64
	BytesShipped int64
	Offloads     int
	// Failovers counts offload attempts that failed and were re-routed to
	// another node (provider-based execution only).
	Failovers int
	// Hedges counts offload attempts that were raced against a second
	// replica; HedgeWins counts races the hedge leg won.
	Hedges    int
	HedgeWins int
	// BudgetExhausted is set when the query's deadline budget ran dry
	// mid-execution (the returned error wraps resilience.ErrBudgetExhausted).
	BudgetExhausted bool
}

// ExecuteSplit partitions sql, offloads the per-table fragments across
// nodes (round-robin), and runs the host query over the shipped tables
// inside the enclave.
func (h *Host) ExecuteSplit(sqlText string, nodes []StorageNode) (*exec.Result, *SplitOutcome, error) {
	if len(nodes) == 0 {
		return nil, nil, errors.New("hostengine: no storage nodes")
	}
	sel, err := parser.ParseSelect(sqlText)
	if err != nil {
		return nil, nil, err
	}
	split, err := partition.SplitQuery(sel, h.schemas)
	if err != nil {
		return nil, nil, err
	}
	outcome := &SplitOutcome{Split: split}
	cat := shippedCatalog{}
	for i, ship := range split.Ships {
		node := nodes[i%len(nodes)]
		res, bytes, err := node.Offload(ship.SQL)
		if err != nil {
			return nil, nil, fmt.Errorf("hostengine: offload %q to %s: %w", ship.Table, node.NodeID(), err)
		}
		// Shipped rows enter the enclave through OCall buffers and stay
		// resident as the host-side temp table.
		h.absorbShipped(cat, outcome, ship.Table, res, bytes)
	}
	res, err := h.runHostPhase(split, cat)
	if err != nil {
		return nil, nil, err
	}
	return res, outcome, nil
}

// NodeProvider supplies storage nodes for failover-aware split execution and
// carries the tail-tolerance policy that goes with them: the query's deadline
// budget, the latency feed, hedge planning, and quarantine of an abandoned
// hedge leg. Unlike a static []StorageNode, a provider can hand out a FRESH
// channel per attempt — essential after a fault, because an AEAD channel that
// saw a corrupted or dropped frame is unrecoverably desynchronized and must
// be replaced, not retried. A provider without tail tolerance returns a nil
// budget, ignores latencies, never grants a hedge, and has nothing to detach.
type NodeProvider interface {
	// CandidateIDs returns the node IDs currently eligible for offloads, in
	// a deterministic order (the chaos suite's reproducibility depends on
	// deterministic candidate ordering).
	CandidateIDs() []string
	// Connect returns a live StorageNode for id, establishing a fresh
	// channel if the previous one failed. A node that is down or circuit-
	// broken returns an error immediately.
	Connect(id string) (StorageNode, error)
	// Report records an offload outcome for health tracking.
	Report(id string, ok bool)

	// QueryBudget is the per-query deadline budget (nil = unbounded): each
	// offload attempt (including hedge legs) charges it, and execution fails
	// typed — wrapping resilience.ErrBudgetExhausted — the moment it runs
	// dry, so a gray-failing node cannot drag a query through unbounded
	// failovers.
	QueryBudget() *resilience.Budget

	// NodeNow is the per-node clock offload latency is measured on (real
	// monotonic in production, the fault plan's virtual clock in the chaos
	// suite), so the executor itself never reads time; ReportLatency receives
	// each leg's latency for the gray-failure estimator.
	NodeNow(id string) time.Duration
	ReportLatency(id string, d time.Duration)

	// PlanHedge decides whether the attempt on primary should be raced
	// against a replica drawn from candidates. It returns the hedge node, a
	// delay before the hedge leg launches (0 = race immediately — the
	// deterministic pre-hedge used when primary is already marked slow;
	// >0 = launch only if primary is still outstanding after delay), and
	// whether a hedge slot was granted. Implementations enforce the
	// cluster-wide concurrency cap and brown-out shedding here.
	PlanHedge(primary string, candidates []string) (hedge string, delay time.Duration, ok bool)
	// HedgeDone releases the slot granted by PlanHedge. Called exactly once
	// per granted hedge, after both legs resolved or the loser was handed
	// to a background drain.
	HedgeDone()
	// JoinLoser reports whether the race must wait for the losing leg
	// instead of abandoning it in the background. Joining keeps outcome
	// counters and health reports deterministic (the chaos-sweep mode);
	// production abandons the loser for latency.
	JoinLoser() bool

	// DetachLeg matters to providers that cache live channels across Connect
	// calls. When a hedged race abandons its losing leg, that leg's Offload
	// is still in flight on the loser's channel — if the provider kept the
	// channel cached, the next Connect to the same node would hand the main
	// loop a channel with a foreign request outstanding, and the new offload
	// could consume the loser's in-order reply (wrong fragment's rows).
	// DetachLeg quarantines node — the exact channel the abandoned loser leg
	// holds — BEFORE the race returns, and registers an outstanding
	// background drain. The provider must drop node from its cache only if
	// it is still the cached channel for id (identity compare: a failure
	// report may already have evicted it and cached a replacement that is
	// NOT the loser's). The returned settle MUST be called exactly once,
	// when the loser leg lands: it feeds the breaker (when reportable — a
	// leg that never connected was already reported by Connect), closes the
	// quarantined channel, and deregisters the drain. Settle deliberately
	// bypasses the provider's Report path: a failure report there would drop
	// — and close, possibly mid-use — whatever fresh channel the main loop
	// has cached for id since the detach. A provider that hands out a fresh
	// node per Connect returns nil: the loser is then reported through
	// Report when it lands.
	DetachLeg(id string, node StorageNode) (settle func(ok, reportable bool))
}

// ErrAllNodesFailed reports that every candidate node failed an offload.
var ErrAllNodesFailed = errors.New("hostengine: offload failed on all storage nodes")

// legState is the handshake between one race leg and the race loop that may
// abandon it. The leg publishes its connected node before sending; an
// abandoning winner sets abandoned and reads the node. The mutex leaves only
// two interleavings: the winner sees the loser's exact channel (and
// quarantines it via DetachLeg), or the loser sees abandoned while it has
// sent nothing yet and bows out without offloading at all. Without the
// handshake there is a window — the loser still inside Connect when the race
// returns — where DetachLeg finds nothing to detach and the loser then parks
// its channel in the provider's cache with a foreign request about to go out
// on it.
type legState struct {
	mu        sync.Mutex
	node      StorageNode
	abandoned bool
}

// legResult is one leg of a (possibly hedged) offload attempt.
type legResult struct {
	id        string
	res       *exec.Result
	wire      int64
	err       error
	lat       time.Duration
	connected bool // Connect succeeded, so the outcome is reportable
	// aborted marks a leg that connected but bowed out before sending
	// because the race had already been abandoned: nothing to report.
	aborted bool
}

// ExecuteSplitProvider is ExecuteSplit with per-ship node failover: each
// shipped fragment is offloaded to its round-robin node, and on failure is
// re-offloaded to the next surviving candidate over a fresh channel. Only
// when every candidate fails does the query fail — with a typed error, never
// a hang. The provider's budget bounds the attempts, its latency feed sees
// every leg, and its hedge plan may race a slow fragment on a second replica
// (first epoch-valid reply wins).
func (h *Host) ExecuteSplitProvider(sqlText string, prov NodeProvider) (*exec.Result, *SplitOutcome, error) {
	sel, err := parser.ParseSelect(sqlText)
	if err != nil {
		return nil, nil, err
	}
	split, err := partition.SplitQuery(sel, h.schemas)
	if err != nil {
		return nil, nil, err
	}
	bud := prov.QueryBudget()

	outcome := &SplitOutcome{Split: split}
	cat := shippedCatalog{}
	for i, ship := range split.Ships {
		ids := prov.CandidateIDs()
		if len(ids) == 0 {
			return nil, outcome, fmt.Errorf("%w: no candidates for %q", ErrAllNodesFailed, ship.Table)
		}
		var res *exec.Result
		var wire int64
		var lastErr error
		done := false
		for j := 0; j < len(ids) && !done; j++ {
			id := ids[(i+j)%len(ids)]
			if !bud.SpendAttempt() {
				outcome.BudgetExhausted = true
				return nil, outcome, fmt.Errorf("hostengine: ship %q: %w", ship.Table, resilience.ErrBudgetExhausted)
			}
			var hedgeID string
			var hedgeDelay time.Duration
			doHedge := false
			if len(ids) > 1 {
				rest := make([]string, 0, len(ids)-1)
				for k := 1; k < len(ids); k++ {
					rest = append(rest, ids[(i+j+k)%len(ids)])
				}
				hedgeID, hedgeDelay, doHedge = prov.PlanHedge(id, rest)
			}
			var win legResult
			if doHedge {
				var hedged bool
				win, hedged = h.raceOffload(prov, bud, ship.SQL, id, hedgeID, hedgeDelay)
				if hedged {
					outcome.Hedges++
					if win.err == nil && win.id == hedgeID {
						outcome.HedgeWins++
					}
				}
			} else {
				win = h.offloadLeg(prov, ship.SQL, id, nil)
				reportLeg(prov, win)
			}
			if win.err != nil {
				lastErr = win.err
				outcome.Failovers++
				continue
			}
			res, wire = win.res, win.wire
			done = true
		}
		if !done {
			if errors.Is(lastErr, resilience.ErrBudgetExhausted) {
				outcome.BudgetExhausted = true
			}
			return nil, outcome, fmt.Errorf("%w: %q: %w", ErrAllNodesFailed, ship.Table, lastErr)
		}
		h.absorbShipped(cat, outcome, ship.Table, res, wire)
	}
	res, err := h.runHostPhase(split, cat)
	if err != nil {
		return nil, outcome, err
	}
	return res, outcome, nil
}

// offloadLeg runs one offload attempt against id, measuring its latency on
// the provider's per-node clock. st (nil outside hedged races) is the
// abandonment handshake: the leg publishes its node before sending and bows
// out — before creating an in-flight request anyone would have to quarantine
// — if the race was decided while it was still connecting.
func (h *Host) offloadLeg(prov NodeProvider, sql, id string, st *legState) legResult {
	start := prov.NodeNow(id)
	node, err := prov.Connect(id)
	if err != nil {
		return legResult{id: id, err: fmt.Errorf("connect %s: %w", id, err)}
	}
	if st != nil {
		st.mu.Lock()
		st.node = node
		abandoned := st.abandoned
		st.mu.Unlock()
		if abandoned {
			// Nothing has gone out on the channel: leave it be (cached or
			// not, it carries no foreign request) and report nothing — an
			// unsent attempt has no outcome or latency worth feeding back.
			return legResult{id: id, connected: true, aborted: true}
		}
	}
	res, wire, err := node.Offload(sql)
	leg := legResult{id: id, res: res, wire: wire, err: err, connected: true}
	if err != nil {
		leg.err = fmt.Errorf("offload to %s: %w", id, err)
	}
	leg.lat = prov.NodeNow(id) - start
	return leg
}

// reportLeg feeds one completed leg back into health tracking: the breaker
// outcome and, when the leg got far enough to measure, its latency.
func reportLeg(prov NodeProvider, leg legResult) {
	if !leg.connected {
		return
	}
	prov.Report(leg.id, leg.err == nil)
	if leg.lat >= 0 {
		prov.ReportLatency(leg.id, leg.lat)
	}
}

// raceOffload races the fragment on primary against a hedge replica. The
// first successful (epoch-valid — fencing happens inside the provider's node
// wrapper, so a stale reply surfaces as an error and can never win) leg's
// result is returned. The hedge leg launches after delay, or immediately
// when delay is zero; if primary resolves first the hedge is never launched.
// The hedge leg charges the budget only when it actually launches. In
// JoinLoser mode both legs are awaited and reported in fixed primary-then-
// hedge order (deterministic health state); otherwise the loser is drained
// in the background. Returns the winning (or least-bad) leg and whether the
// hedge leg actually launched.
func (h *Host) raceOffload(prov NodeProvider, bud *resilience.Budget, sql, primary, hedge string, delay time.Duration) (legResult, bool) {
	ch := make(chan legResult, 2)
	states := map[string]*legState{primary: {}, hedge: {}}
	go func() { ch <- h.offloadLeg(prov, sql, primary, states[primary]) }()

	hedgeLaunched := false
	launchHedge := func() {
		if !bud.SpendAttempt() {
			return // budget dry: the race degrades to a plain attempt
		}
		hedgeLaunched = true
		go func() { ch <- h.offloadLeg(prov, sql, hedge, states[hedge]) }()
	}
	var timer <-chan time.Time
	if delay <= 0 {
		launchHedge()
	} else {
		timer = time.After(delay) //ironsafe:allow wallclock -- genuinely real-time hedge trigger; latency accounting stays on the observer's clock
	}

	pending := 1
	if hedgeLaunched {
		pending = 2
	}
	var legs []legResult
	var winner legResult
	haveWinner := false
	for pending > 0 {
		select {
		case leg := <-ch:
			pending--
			legs = append(legs, leg)
			if leg.err == nil && !haveWinner {
				winner, haveWinner = leg, true
			}
			if timer != nil {
				// Primary resolved before the hedge trigger: on success the
				// hedge is moot; on failure the outer failover loop handles
				// the next candidate without burning a hedge slot.
				timer = nil
			}
			if haveWinner && pending > 0 && !prov.JoinLoser() {
				// Abandon the loser: drain and report it off the query path,
				// releasing the hedge slot when it lands. The handshake below
				// runs BEFORE the race returns — before the main loop can
				// Connect to that node again — and leaves exactly two cases:
				// the loser already published its channel (quarantine that
				// exact channel, so its in-flight offload finishes privately
				// and can never share a Send/Recv stream with a later
				// fragment), or it has not connected yet (it will see
				// abandoned and bow out without sending, so there is nothing
				// to quarantine).
				loser := hedge
				if winner.id == hedge {
					loser = primary
				}
				st := states[loser]
				st.mu.Lock()
				st.abandoned = true
				loserNode := st.node
				st.mu.Unlock()
				var settle func(ok, reportable bool)
				if loserNode != nil {
					settle = prov.DetachLeg(loser, loserNode)
				}
				go func() {
					leg := <-ch
					switch {
					case settle != nil:
						if leg.connected && leg.lat >= 0 {
							prov.ReportLatency(leg.id, leg.lat)
						}
						settle(leg.err == nil, leg.connected)
					case !leg.aborted:
						reportLeg(prov, leg)
					}
					prov.HedgeDone()
				}()
				for _, l := range legs {
					reportLeg(prov, l)
				}
				return winner, hedgeLaunched
			}
		case <-timer:
			timer = nil
			launchHedge()
			if hedgeLaunched {
				pending++
			}
		}
	}
	// Both legs (or the only leg) resolved. Order primary-then-hedge, report
	// deterministically, and prefer the primary's success when both legs
	// succeeded — between two valid replies, "which landed first" is a
	// scheduling artifact the joined mode must not leak into outcomes.
	if len(legs) == 2 && legs[0].id != primary {
		legs[0], legs[1] = legs[1], legs[0]
	}
	for _, l := range legs {
		reportLeg(prov, l)
	}
	prov.HedgeDone()
	for i := range legs {
		if legs[i].err == nil {
			return legs[i], hedgeLaunched
		}
	}
	// Every leg failed: surface the primary's error for the failover loop.
	return legs[0], hedgeLaunched
}

// absorbShipped registers one offload result in the shipped catalog with
// enclave and accounting bookkeeping.
func (h *Host) absorbShipped(cat shippedCatalog, outcome *SplitOutcome, table string, res *exec.Result, wire int64) {
	cat[table] = res
	outcome.RowsShipped += int64(res.NumRows())
	outcome.BytesShipped += wire
	outcome.Offloads++
	if h.enclave != nil {
		h.enclave.OCall(func() error { return nil })
		h.enclave.Alloc("shipped-"+table, wire)
	}
}

// runHostPhase executes the host-side remainder over the shipped catalog and
// wipes the session temp tables.
func (h *Host) runHostPhase(split *partition.Split, cat shippedCatalog) (*exec.Result, error) {
	var res *exec.Result
	run := func() error {
		var err error
		res, err = exec.RunBatched(split.Host, cat, h.cfg.Meter, h.cfg.ExecBatchRows)
		return err
	}
	var err error
	if h.enclave != nil {
		err = h.enclave.ECall(run)
	} else {
		err = run()
	}
	if err != nil {
		return nil, err
	}
	if h.enclave != nil {
		for _, ship := range split.Ships {
			h.enclave.Alloc("shipped-"+ship.Table, 0)
		}
	}
	return res, nil
}

// ExecuteLocal runs sql on a locally attached database (the host-only and
// storage-only configurations), inside the enclave when secure.
func (h *Host) ExecuteLocal(db *engine.DB, sqlText string) (*exec.Result, error) {
	var res *exec.Result
	run := func() error {
		var err error
		res, err = db.Execute(sqlText)
		return err
	}
	var err error
	if h.enclave != nil {
		err = h.enclave.ECall(run)
	} else {
		err = run()
	}
	return res, err
}

// shippedCatalog holds the offload replies as the host query's base tables,
// each in the form it arrived in.
type shippedCatalog map[string]exec.Relation

func (c shippedCatalog) Relation(name string) (exec.Relation, error) {
	r, ok := c[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("hostengine: table %q was not shipped", name)
	}
	return r, nil
}

// Meter returns the host's meter.
func (h *Host) Meter() *simtime.Meter { return h.cfg.Meter }

// Info returns (id, location, fw).
func (h *Host) Info() (string, string, string) {
	return h.cfg.ID, h.cfg.Location, h.cfg.FWVersion
}
