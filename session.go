package ironsafe

import (
	"errors"
	"fmt"
	"time"

	"ironsafe/internal/hostengine"
	"ironsafe/internal/monitor"
	"ironsafe/internal/simtime"
	"ironsafe/internal/sql/exec"
	"ironsafe/internal/storageengine"
)

// Session is a client's handle to the cluster: each query is authorized by
// the trusted monitor under the client's identity key, rewritten for policy
// compliance, executed according to the cluster mode, and returned with a
// verified proof of compliance.
type Session struct {
	cluster    *Cluster
	clientKey  string
	accessDate string
	execPolicy string
}

// NewSession opens a client session under the given identity key.
func (c *Cluster) NewSession(clientKey string) *Session {
	return &Session{cluster: c, clientKey: clientKey}
}

// WithAccessDate sets the access time used by timely-deletion policies
// ('YYYY-MM-DD').
func (s *Session) WithAccessDate(date string) *Session {
	s.accessDate = date
	return s
}

// WithExecPolicy attaches a client execution policy to subsequent queries.
func (s *Session) WithExecPolicy(policySource string) *Session {
	s.execPolicy = policySource
	return s
}

// QueryStats reports what one query execution did and what it would cost on
// the paper's hardware.
type QueryStats struct {
	Host     simtime.Snapshot
	Storage  simtime.Snapshot
	Cost     simtime.QueryCost
	Wall     time.Duration
	Offloads int
	// RowsShipped / BytesShipped measure host<->storage data movement.
	RowsShipped  int64
	BytesShipped int64
	// Failovers counts offload attempts re-routed to another node after a
	// failure.
	Failovers int
	// Hedges counts offload attempts raced against a second replica;
	// HedgeWins counts races the hedge leg won.
	Hedges    int
	HedgeWins int
	// BudgetExhausted is set when the query's deadline budget ran dry (the
	// query's error wraps resilience.ErrBudgetExhausted).
	BudgetExhausted bool
	// HostFallback is set when every storage channel failed and the query
	// completed over the host's block-fetch path (VanillaCS degradation).
	HostFallback bool
	// RewrittenSQL is what actually executed after policy rewriting.
	RewrittenSQL string
}

// QueryResult is a query's rows plus its compliance evidence.
type QueryResult struct {
	Result  *exec.Result
	Proof   monitor.Proof
	Session string
	Stats   QueryStats
}

// Query submits one SQL query through the full IronSafe workflow (§3.1
// steps 1-5): authorization and policy check at the monitor, partitioning
// and offloading per the cluster mode, execution, proof verification, and
// session cleanup.
func (s *Session) Query(sql string) (*QueryResult, error) {
	c := s.cluster
	auth, err := c.Monitor.Authorize(monitor.AuthRequest{
		Database:   c.database,
		ClientKey:  s.clientKey,
		SQL:        sql,
		ExecPolicy: s.execPolicy,
		AccessDate: s.accessDate,
		HostID:     "host-1",
		Epoch:      c.Epoch(),
	})
	if err != nil {
		return nil, err
	}
	defer c.Monitor.EndSession(auth.SessionID)

	// Clients verify the proof before trusting any result.
	if !monitor.VerifyProof(c.MonitorPublicKey(), &auth.Proof) {
		return nil, fmt.Errorf("ironsafe: monitor proof failed verification")
	}

	hostBase := c.HostMeter.Snapshot()
	storageBase := c.StorageMeter.Snapshot()
	// Wall latency is reported to clients alongside the simulated cost so
	// the two can be compared; it never feeds the cost model.
	start := time.Now() //ironsafe:allow wallclock -- genuinely real-time latency reporting

	var res *exec.Result
	var outcome *hostengine.SplitOutcome
	hostFallback := false
	switch c.cfg.Mode {
	case VanillaCS, IronSafe:
		if len(auth.StorageIDs) == 0 {
			return nil, ErrNoStorage
		}
		for _, id := range auth.StorageIDs {
			srv := c.storageByID(id)
			if srv == nil {
				return nil, fmt.Errorf("ironsafe: unknown storage node %q", id)
			}
			srv.InstallSessionKey(auth.SessionID, auth.SessionKey)
			defer srv.RevokeSessionKey(auth.SessionID)
		}
		prov := c.newSessionProvider(auth.StorageIDs, auth.SessionID, auth.SessionKey)
		defer prov.close()
		res, outcome, err = c.Host.ExecuteSplitProvider(auth.RewrittenSQL, prov)
		if err != nil && errors.Is(err, hostengine.ErrAllNodesFailed) && c.cfg.Mode == VanillaCS {
			// Graceful degradation: the host mounts a surviving medium over
			// the block-fetch path and runs the whole query locally.
			fbRes, fbErr := c.hostFallbackExecute(auth)
			if fbErr != nil {
				err = errors.Join(err, fbErr)
			} else {
				res, err, hostFallback = fbRes, nil, true
			}
		}
	case HostOnlyNonSecure, HostOnlySecure:
		res, err = c.Host.ExecuteLocal(c.hostDB, auth.RewrittenSQL)
	case StorageOnlySecure:
		res, err = c.Storage[0].ExecOffload(auth.RewrittenSQL)
	default:
		err = fmt.Errorf("ironsafe: unknown mode %v", c.cfg.Mode)
	}
	if err != nil {
		return nil, err
	}

	wall := time.Since(start) //ironsafe:allow wallclock -- genuinely real-time latency reporting
	hostDelta := c.HostMeter.Snapshot().Sub(hostBase)
	storageDelta := c.StorageMeter.Snapshot().Sub(storageBase)
	stats := QueryStats{
		Host:         hostDelta,
		Storage:      storageDelta,
		Wall:         wall,
		RewrittenSQL: auth.RewrittenSQL,
	}
	stats.HostFallback = hostFallback
	if outcome != nil {
		stats.Offloads = outcome.Offloads
		stats.RowsShipped = outcome.RowsShipped
		stats.BytesShipped = outcome.BytesShipped
		stats.Failovers = outcome.Failovers
		stats.Hedges = outcome.Hedges
		stats.HedgeWins = outcome.HedgeWins
		stats.BudgetExhausted = outcome.BudgetExhausted
	}
	stats.Cost = c.PriceQuery(hostDelta, storageDelta, stats.Offloads)
	return &QueryResult{Result: res, Proof: auth.Proof, Session: auth.SessionID, Stats: stats}, nil
}

// storageByID finds a storage server by node id.
func (c *Cluster) storageByID(id string) *storageengine.Server {
	for _, s := range c.Storage {
		sid, _, _ := s.Info()
		if sid == id {
			return s
		}
	}
	return nil
}

// PriceQuery converts meter deltas into the simulated end-to-end latency
// using the cluster's cost model and configuration (storage core count).
func (c *Cluster) PriceQuery(host, storage simtime.Snapshot, offloads int) simtime.QueryCost {
	m := *c.cfg.CostModel
	cores := c.cfg.StorageCores
	q := simtime.QueryCost{}
	q.Host = m.PriceCPU(host, m.Host, 1) // host query section is single-threaded, as in SQLite
	q.Host.TEE = m.PriceTEE(host)
	q.Storage = m.PriceCPU(storage, m.Storage, cores)
	q.Storage.TEE = m.PriceTEE(storage)
	// Operator-batch boundaries cost enclave working-set shuffling only on
	// the sides that actually run inside a TEE; non-secure modes dispatch
	// batches for free beyond the CPU-side BatchDispatch term.
	if c.cfg.Mode == HostOnlySecure || c.cfg.Mode == IronSafe {
		q.Host.TEE += m.PriceBatchTransitions(host)
	}
	if c.cfg.Mode == IronSafe || c.cfg.Mode == StorageOnlySecure {
		q.Storage.TEE += m.PriceBatchTransitions(storage)
	}
	messages := int64(offloads * 2)
	q.Transfer = m.PriceLink(host.BytesSent+host.BytesReceived, messages)
	return q
}
