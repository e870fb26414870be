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
// budget, the latency feed and hedge planning. Unlike a static []StorageNode,
// a provider can hand out a FRESH channel per attempt — essential after a
// fault, because an AEAD channel that saw a corrupted or dropped frame is
// unrecoverably desynchronized and must be replaced, not retried. A provider
// without tail tolerance returns a nil budget, ignores latencies and never
// grants a hedge.
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

	// NodeNow is the per-node clock offload latency is measured on (the
	// fault plan's virtual clock in the gray sweep, 0 without one), so the
	// executor itself never reads time; ReportLatency receives each leg's
	// latency for the gray-failure estimator.
	NodeNow(id string) time.Duration
	ReportLatency(id string, d time.Duration)

	// PlanHedge decides whether the attempt on primary should be raced
	// against a replica drawn from candidates, returning the hedge node and
	// whether a hedge slot was granted. Implementations enforce the
	// cluster-wide concurrency cap here.
	PlanHedge(primary string, candidates []string) (hedge string, ok bool)
	// HedgeDone releases the slot granted by PlanHedge. Called exactly once
	// per granted hedge, after both legs resolved.
	HedgeDone()
}

// ErrAllNodesFailed reports that every candidate node failed an offload.
var ErrAllNodesFailed = errors.New("hostengine: offload failed on all storage nodes")

// legResult is one leg of a (possibly hedged) offload attempt.
type legResult struct {
	id        string
	res       *exec.Result
	wire      int64
	err       error
	lat       time.Duration
	connected bool // Connect succeeded, so the outcome is reportable
}

// ExecuteSplitProvider is ExecuteSplit with per-ship node failover: each
// shipped fragment is offloaded to its round-robin node, and on failure is
// re-offloaded to the next surviving candidate over a fresh channel. Only
// when every candidate fails does the query fail — with a typed error, never
// a hang. The provider's budget bounds the attempts, its latency feed sees
// every leg, and its hedge plan may race a fragment on a second replica
// (the primary's epoch-valid reply is preferred, the hedge's taken when the
// primary failed).
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
			doHedge := false
			if len(ids) > 1 {
				rest := make([]string, 0, len(ids)-1)
				for k := 1; k < len(ids); k++ {
					rest = append(rest, ids[(i+j+k)%len(ids)])
				}
				hedgeID, doHedge = prov.PlanHedge(id, rest)
			}
			var win legResult
			if doHedge {
				var hedged bool
				win, hedged = h.raceOffload(prov, bud, ship.SQL, id, hedgeID)
				if hedged {
					outcome.Hedges++
					if win.err == nil && win.id == hedgeID {
						outcome.HedgeWins++
					}
				}
			} else {
				win = h.offloadLeg(prov, ship.SQL, id)
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
// the provider's per-node clock.
func (h *Host) offloadLeg(prov NodeProvider, sql, id string) legResult {
	start := prov.NodeNow(id)
	node, err := prov.Connect(id)
	if err != nil {
		return legResult{id: id, err: fmt.Errorf("connect %s: %w", id, err)}
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
// hedge leg first charges the budget; a dry budget degrades the race to a
// plain attempt on primary. Otherwise both legs run concurrently and both are
// awaited, then reported in fixed primary-then-hedge order so health state
// never depends on which leg landed first. The primary's success is
// preferred, the hedge's taken when the primary failed (fencing happens
// inside the provider's node wrapper, so a stale reply is an error and can
// never be taken), and with both failed the primary's error surfaces for the
// failover loop. Returns that leg and whether the hedge leg ran.
func (h *Host) raceOffload(prov NodeProvider, bud *resilience.Budget, sql, primary, hedge string) (legResult, bool) {
	defer prov.HedgeDone()
	if !bud.SpendAttempt() {
		leg := h.offloadLeg(prov, sql, primary)
		reportLeg(prov, leg)
		return leg, false
	}
	hedged := make(chan legResult, 1)
	go func() { hedged <- h.offloadLeg(prov, sql, hedge) }()
	legs := [2]legResult{h.offloadLeg(prov, sql, primary), <-hedged}
	for _, l := range legs {
		reportLeg(prov, l)
	}
	if legs[0].err != nil && legs[1].err == nil {
		return legs[1], true
	}
	return legs[0], true
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
