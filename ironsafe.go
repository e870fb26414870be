// Package ironsafe is a reproduction of "Secure and Policy-Compliant Query
// Processing on Heterogeneous Computational Storage Architectures"
// (SIGMOD 2022): a query processing system that splits SQL execution between
// an SGX-protected x86 host and a TrustZone-protected ARM storage server,
// with end-to-end confidentiality/integrity/freshness for data at rest, in
// transit, and at runtime, plus declarative policy compliance (GDPR).
//
// The entry point is Cluster, which assembles the trusted monitor, the host
// engine, and one or more storage servers in any of the paper's five
// configurations (Table 2), and Session, the client-side handle that submits
// queries with execution policies and receives results with signed proofs of
// compliance. All hardware security mechanisms (SGX, TrustZone, RPMB) are
// high-fidelity simulations — see DESIGN.md for the substitution table.
package ironsafe

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"

	"ironsafe/internal/engine"
	"ironsafe/internal/hostengine"
	"ironsafe/internal/monitor"
	"ironsafe/internal/pager"
	"ironsafe/internal/partition"
	"ironsafe/internal/policy"
	"ironsafe/internal/resilience"
	"ironsafe/internal/securestore"
	"ironsafe/internal/simtime"
	"ironsafe/internal/sql/exec"
	"ironsafe/internal/sql/parser"
	"ironsafe/internal/storageengine"
	"ironsafe/internal/tee/sgx"
	"ironsafe/internal/tee/trustzone"
	"ironsafe/internal/tpch"
	"ironsafe/internal/transport"
)

// Mode selects one of the paper's five system configurations (Table 2).
type Mode int

// The five configurations of Table 2.
const (
	// HostOnlyNonSecure (hons): everything on the host, remote pages, no
	// protection.
	HostOnlyNonSecure Mode = iota
	// HostOnlySecure (hos): everything on the host inside SGX, with
	// encrypted+freshness-protected remote pages.
	HostOnlySecure
	// VanillaCS (vcs): split execution, no protection.
	VanillaCS
	// IronSafe (scs): split execution with full protection — the paper's
	// system.
	IronSafe
	// StorageOnlySecure (sos): everything on the TrustZone storage node
	// with the secure store.
	StorageOnlySecure
)

// String returns the paper's abbreviation for the mode.
func (m Mode) String() string {
	switch m {
	case HostOnlyNonSecure:
		return "hons"
	case HostOnlySecure:
		return "hos"
	case VanillaCS:
		return "vcs"
	case IronSafe:
		return "scs"
	case StorageOnlySecure:
		return "sos"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Config configures a Cluster. The zero value plus a Mode gives the paper's
// defaults (one EU storage node, 96 MiB EPC, binary Merkle tree) with the
// repo's pipelined scan path on top (32-page batched reads with two batches
// of read-ahead); set ScanBatchPages to 1 to restore the paper's strictly
// sequential per-page scans.
type Config struct {
	Mode Mode
	// StorageNodes is how many storage servers to run (Fig 12); 0 means 1.
	StorageNodes int
	// StorageCores is the CPU count exposed per storage node (Fig 10);
	// 0 means the cost model default (16).
	StorageCores int
	// StorageMemoryBudget bounds offloaded-query memory in bytes (Fig 11);
	// 0 means unlimited.
	StorageMemoryBudget int64
	// EPCLimitBytes overrides the host enclave page cache (default 96 MiB).
	EPCLimitBytes int64
	// CacheVerifiedSubtrees tunes the secure store (a DESIGN.md ablation).
	CacheVerifiedSubtrees bool
	// ScanBatchPages is how many pages each batched secure read covers
	// during table scans; 0 means 32, 1 restores the paper's sequential
	// per-page path (one Merkle walk per page). The scan pipeline holds
	// scanPrefetchBatches fetched batches ahead of row processing.
	ScanBatchPages int
	// ExecBatchRows is the executor batch size on both engines: operators
	// exchange columnar batches of up to this many rows. 0 means the default
	// (exec.DefaultBatchRows, 4096); 1 restores the row-at-a-time pipeline.
	ExecBatchRows int
	// Locations and firmware versions, checked by execution policies.
	HostLocation    string
	StorageLocation string
	HostFW          string
	StorageFW       string
	// CostModel prices meters into simulated time; nil means the default.
	CostModel *simtime.CostModel
	// ChannelTransport routes split-mode offloads over real monitor-keyed
	// secure channels (in-process pipes speaking the full wire protocol)
	// instead of direct in-process calls — the substrate the chaos suite
	// injects faults into.
	ChannelTransport bool
	// ConnWrapper, when set with ChannelTransport, wraps the host side of
	// each storage channel (fault injection hook). node is the storage ID.
	ConnWrapper func(node string, conn net.Conn) net.Conn
	// StorageDeviceWrapper, when set, wraps each storage node's raw medium
	// before the page store opens over it (block-level fault injection —
	// the crash-consistency sweep's power-cut hook). node is the storage ID.
	StorageDeviceWrapper func(node string, dev pager.BlockDevice) pager.BlockDevice
	// Resilience tunes deadlines, retries, and circuit breaking for the
	// cluster's distributed paths; nil means defaults with virtual backoff
	// (no real sleeping — appropriate for tests and simulation).
	Resilience *resilience.Config
}

func (c *Config) fill() {
	if c.StorageNodes == 0 {
		c.StorageNodes = 1
	}
	if c.HostLocation == "" {
		c.HostLocation = "EU"
	}
	if c.StorageLocation == "" {
		c.StorageLocation = "EU"
	}
	if c.HostFW == "" {
		c.HostFW = "2.1"
	}
	if c.StorageFW == "" {
		c.StorageFW = "3.4"
	}
	if c.CostModel == nil {
		m := simtime.DefaultModel()
		c.CostModel = &m
	}
	if c.ScanBatchPages == 0 {
		c.ScanBatchPages = 32
	}
}

// scanPrefetchBatches is how many fetched batches the scan pipeline may hold
// ahead of row processing.
const scanPrefetchBatches = 2

// scanConfig translates the cluster knobs into the pager's pipeline config.
func (c *Config) scanConfig() pager.ScanConfig {
	return pager.ScanConfig{BatchPages: c.ScanBatchPages, Prefetch: scanPrefetchBatches}
}

// Cluster is a running IronSafe deployment: monitor + host + storage.
type Cluster struct {
	cfg Config

	Monitor *monitor.Monitor
	Host    *hostengine.Host
	Storage []*storageengine.Server

	HostMeter    *simtime.Meter
	StorageMeter *simtime.Meter

	vendor   *trustzone.Vendor
	ias      *sgx.AttestationService
	hostDB   *engine.DB // host-local database (host-only modes)
	secure   bool
	database string

	res    resilience.Config
	health *resilience.Tracker
	// tickets holds the host's channel-resumption ticket for each storage
	// node (cluster_runtime.go, dialNodeChannel).
	tickets *transport.TicketStore

	// hedgeSem is the cluster-wide hedge concurrency gate: PlanHedge takes
	// a slot non-blockingly and HedgeDone returns it, so hedging can never
	// fan out past maxHedges and amplify an overload.
	hedgeSem chan struct{}

	nodeMu sync.Mutex
	down   map[string]bool // nodes killed and not yet readmitted
	// epoch is the cluster membership epoch: KillStorage bumps it and
	// broadcasts the new value to the surviving nodes, whose offload replies
	// carry it. A fenced node still serving from a stale epoch betrays
	// itself on its first reply (cluster_runtime.go, fencedNode).
	epoch uint64
	// rebuilding marks nodes with a RebuildStorage in flight: they can
	// neither donate, be rebuilt again, nor be readmitted until it resolves.
	rebuilding map[string]bool
}

// secureMode reports whether the mode runs with protection enabled.
func (m Mode) secureMode() bool {
	return m == HostOnlySecure || m == IronSafe || m == StorageOnlySecure
}

// splitMode reports whether the mode offloads to storage.
func (m Mode) splitMode() bool { return m == VanillaCS || m == IronSafe }

// NewCluster assembles and attests a deployment in the given configuration.
func NewCluster(cfg Config) (*Cluster, error) {
	cfg.fill()
	c := &Cluster{
		cfg:          cfg,
		HostMeter:    &simtime.Meter{},
		StorageMeter: &simtime.Meter{},
		secure:       cfg.Mode.secureMode(),
		database:     "db",
		down:         map[string]bool{},
		rebuilding:   map[string]bool{},
		tickets:      transport.NewTicketStore(),
	}
	if cfg.Resilience != nil {
		c.res = cfg.Resilience.WithDefaults()
	} else {
		c.res = resilience.Config{}.WithDefaults()
	}
	c.health = resilience.NewTracker(c.res)
	c.hedgeSem = make(chan struct{}, maxHedges)
	var err error
	c.vendor, err = trustzone.NewVendor("ironsafe-vendor")
	if err != nil {
		return nil, err
	}
	c.ias = sgx.NewAttestationService()

	// Storage servers.
	secureStore := cfg.Mode == IronSafe || cfg.Mode == StorageOnlySecure
	for i := 0; i < cfg.StorageNodes; i++ {
		srv, err := storageengine.New(storageengine.Config{
			DeviceID:      fmt.Sprintf("storage-%02d", i+1),
			Vendor:        c.vendor,
			Location:      cfg.StorageLocation,
			FWVersion:     cfg.StorageFW,
			Secure:        secureStore,
			StoreOptions:  securestore.Options{CacheVerifiedSubtrees: cfg.CacheVerifiedSubtrees},
			MemoryBudget:  cfg.StorageMemoryBudget,
			Cores:         cfg.StorageCores,
			Meter:         c.StorageMeter,
			MediumWrapper: cfg.StorageDeviceWrapper,
			ScanConfig:    cfg.scanConfig(),
			ExecBatchRows: cfg.ExecBatchRows,
		})
		if err != nil {
			return nil, err
		}
		c.Storage = append(c.Storage, srv)
	}

	// Host engine.
	platform, err := sgx.NewPlatform("host-platform", c.ias)
	if err != nil {
		return nil, err
	}
	hostSecure := cfg.Mode == HostOnlySecure || cfg.Mode == IronSafe
	c.Host, err = hostengine.New(hostengine.Config{
		ID: "host-1", Location: cfg.HostLocation, FWVersion: cfg.HostFW,
		Platform: platform, Secure: hostSecure,
		EPCLimitBytes: cfg.EPCLimitBytes,
		Meter:         c.HostMeter,
		ExecBatchRows: cfg.ExecBatchRows,
	})
	if err != nil {
		return nil, err
	}

	// The host's attestation identity: its own enclave when secure; for
	// the non-secure baselines a synthetic identity keeps the monitor's
	// authorization path uniform (the baselines still need access checks,
	// just not runtime shielding).
	var hostQuote sgx.Quote
	if hostSecure {
		hostQuote, err = c.Host.Quote(monitor.HostKeyDigest(c.Host.TransportPub()))
		if err != nil {
			return nil, err
		}
	} else {
		baseline, err := platform.CreateEnclave([]byte("baseline host"), sgx.Config{Meter: &simtime.Meter{}})
		if err != nil {
			return nil, err
		}
		hostQuote = baseline.GetQuote(monitor.HostKeyDigest(c.Host.TransportPub()))
	}

	// Trusted monitor with the whitelisted measurements.
	expectedStorage := []trustzone.Measurement{}
	for _, s := range c.Storage {
		expectedStorage = append(expectedStorage, s.NormalWorldMeasurement())
	}
	c.Monitor, err = monitor.New(monitor.Config{
		IAS:                         c.ias,
		ROTPKs:                      map[string]ed25519.PublicKey{"ironsafe-vendor": c.vendor.ROTPK},
		ExpectedHostMeasurements:    []sgx.Measurement{hostQuote.Measurement},
		ExpectedStorageMeasurements: expectedStorage,
		LatestHostFW:                cfg.HostFW,
		LatestStorageFW:             cfg.StorageFW,
	})
	if err != nil {
		return nil, err
	}

	// Attestation of host and every storage node.
	if _, err := c.Monitor.RegisterHost(monitor.NodeInfo{ID: "host-1", Location: cfg.HostLocation, FW: cfg.HostFW}, hostQuote, c.Host.TransportPub()); err != nil {
		return nil, err
	}
	for _, s := range c.Storage {
		if err := c.Monitor.RegisterStorage("ironsafe-vendor", &storageAdapter{s}); err != nil {
			return nil, err
		}
	}

	// Host-local database for host-only modes, over the remote medium.
	if cfg.Mode == HostOnlyNonSecure || cfg.Mode == HostOnlySecure {
		if err := c.initHostDB(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// storageAdapter bridges storageengine.Server to monitor.StorageAttester.
type storageAdapter struct{ s *storageengine.Server }

func (a *storageAdapter) Attest(challenge []byte) (*trustzone.AttestationReport, error) {
	return a.s.Attest(challenge)
}

func (a *storageAdapter) Info() monitor.NodeInfo {
	id, loc, fw := a.s.Info()
	return monitor.NodeInfo{ID: id, Location: loc, FW: fw}
}

// initHostDB builds the host-side database over the storage node's medium
// (the NFS-like remote mount of the host-only configurations).
func (c *Cluster) initHostDB() error {
	remote := &hostengine.RemoteDevice{Fetcher: c.Storage[0], HostMeter: c.HostMeter}
	var store pager.PageStore
	if c.cfg.Mode == HostOnlySecure {
		keys := enclaveKeySource{enclave: c.Host.Enclave()}
		anchor := &enclaveAnchor{}
		inner, err := securestore.OpenWith(remote, keys, anchor, c.HostMeter, securestore.Options{CacheVerifiedSubtrees: c.cfg.CacheVerifiedSubtrees})
		if err != nil {
			return err
		}
		// The Merkle tree lives inside the enclave, so it counts toward the
		// EPC working set (Fig 9a).
		store = &hostengine.EnclavePageStore{
			Inner:     inner,
			Enclave:   c.Host.Enclave(),
			TreeBytes: inner.TreeBytes,
		}
	} else {
		store = pager.NewPager(remote, c.HostMeter, 256)
	}
	db, err := engine.Open(store, c.HostMeter)
	if err != nil {
		return err
	}
	db.SetScanConfig(c.cfg.scanConfig())
	db.SetExecBatchRows(c.cfg.ExecBatchRows)
	c.hostDB = db
	return nil
}

// enclaveKeySource derives the host-only secure store's keys from an
// enclave-sealed secret.
type enclaveKeySource struct{ enclave *sgx.Enclave }

func (k enclaveKeySource) DeriveKey(label string) ([]byte, error) {
	return k.enclave.DeriveSealedKey(label)
}

// enclaveAnchor keeps the Merkle root tag in enclave-protected memory.
type enclaveAnchor struct{ tag []byte }

// StoreRoot implements securestore.RootAnchor.
func (a *enclaveAnchor) StoreRoot(tag []byte) error {
	a.tag = append([]byte(nil), tag...)
	return nil
}

// LoadRoot implements securestore.RootAnchor.
func (a *enclaveAnchor) LoadRoot(nonce []byte) ([]byte, error) {
	return append([]byte(nil), a.tag...), nil
}

// AuthoritativeDB returns the database instance that owns the data in this
// configuration (for loading and administration).
func (c *Cluster) AuthoritativeDB() *engine.DB {
	if c.hostDB != nil {
		return c.hostDB
	}
	return c.Storage[0].DB()
}

// Exec runs an administrative SQL statement directly on the authoritative
// database (bypassing policy — used for setup/loading, like the paper's
// database initialization by the data producer).
func (c *Cluster) Exec(sql string) (*exec.Result, error) {
	res, err := c.AuthoritativeDB().Execute(sql)
	if err != nil {
		return nil, err
	}
	c.refreshSchemas()
	return res, nil
}

// LoadTPCH generates and loads the TPC-H database at the given scale factor
// into every data-owning node.
func (c *Cluster) LoadTPCH(sf float64) error {
	data := tpch.Generate(sf)
	return c.LoadTPCHData(data)
}

// LoadTPCHData loads pre-generated TPC-H data (lets benchmarks reuse one
// generation across configurations).
func (c *Cluster) LoadTPCHData(data *tpch.Data) error {
	if c.hostDB != nil {
		if err := tpch.Load(c.hostDB, data); err != nil {
			return err
		}
	} else {
		for _, s := range c.Storage {
			if err := tpch.Load(s.DB(), data); err != nil {
				return err
			}
		}
	}
	c.refreshSchemas()
	return nil
}

// refreshSchemas pushes the current catalog to the host partitioner.
func (c *Cluster) refreshSchemas() {
	db := c.AuthoritativeDB()
	m := partition.SchemaMap{}
	for _, name := range db.TableNames() {
		tab, err := db.Table(name)
		if err == nil {
			m[strings.ToLower(name)] = tab.Sch
		}
	}
	c.Host.SetSchemas(m)
}

// SetAccessPolicy installs the data producer's access policy.
func (c *Cluster) SetAccessPolicy(policySource string) error {
	p, err := policy.Parse(policySource)
	if err != nil {
		return err
	}
	c.Monitor.SetAccessPolicy(c.database, p)
	return nil
}

// RegisterService assigns a client key its reuse-bitmap position.
func (c *Cluster) RegisterService(clientKey string, bit int) {
	c.Monitor.RegisterService(clientKey, bit)
}

// PublishScanTelemetry pushes the host's and storage side's current
// scan-pipeline counters to the monitor, where ScanTelemetryReport exposes
// them (batches issued, Merkle hashes saved, plaintext-cache hit rates).
func (c *Cluster) PublishScanTelemetry() {
	c.Monitor.ReportScanTelemetry("host-1", c.HostMeter.Snapshot())
	c.Monitor.ReportScanTelemetry("storage", c.StorageMeter.Snapshot())
}

// MonitorPublicKey is what clients pin to verify proofs and audit trails.
func (c *Cluster) MonitorPublicKey() ed25519.PublicKey { return c.Monitor.PublicKey() }

// Mode reports the cluster's configuration.
func (c *Cluster) Mode() Mode { return c.cfg.Mode }

// CostModel returns the pricing model in use.
func (c *Cluster) CostModel() *simtime.CostModel { return c.cfg.CostModel }

// ErrNoStorage indicates a split-mode query found no compliant storage node.
var ErrNoStorage = errors.New("ironsafe: no compliant storage node")

// Explain executes sql directly on the authoritative database and returns
// the result plus the physical execution trace (EXPLAIN ANALYZE) — a
// development aid outside the policy path.
func (c *Cluster) Explain(sql string) (*exec.Result, string, error) {
	sel, err := parser.ParseSelect(sql)
	if err != nil {
		return nil, "", err
	}
	res, tr, err := exec.Explain(sel, c.AuthoritativeDB(), nil)
	if err != nil {
		return nil, "", err
	}
	return res, tr.String(), nil
}
