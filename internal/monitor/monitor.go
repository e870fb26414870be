// Package monitor implements IronSafe's trusted monitor (§4.2): the unified
// service for remote attestation of the heterogeneous host (SGX) and storage
// (TrustZone) nodes, policy-compliant query authorization and rewriting,
// session key management, per-query proofs of compliance, and the
// tamper-evident audit trail regulators can request.
package monitor

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"ironsafe/internal/audit"
	"ironsafe/internal/policy"
	"ironsafe/internal/simtime"
	"ironsafe/internal/sql/ast"
	"ironsafe/internal/sql/parser"
	"ironsafe/internal/tee/sgx"
	"ironsafe/internal/tee/trustzone"
	"ironsafe/internal/value"
)

// NodeInfo is the deployment metadata of a node.
type NodeInfo struct {
	ID       string
	Location string
	FW       string
}

// StorageAttester is how the monitor reaches a storage node's attestation TA
// (directly in-process, or over the network in a distributed deployment).
type StorageAttester interface {
	Attest(challenge []byte) (*trustzone.AttestationReport, error)
	Info() NodeInfo
}

// storageRecord is a registered, attested storage node.
type storageRecord struct {
	info        NodeInfo
	measurement trustzone.Measurement
}

// hostRecord is a registered, attested host node.
type hostRecord struct {
	info        NodeInfo
	measurement sgx.Measurement
}

// Config configures a Monitor.
type Config struct {
	// IAS verifies SGX quotes (the simulated Intel Attestation Service).
	IAS *sgx.AttestationService
	// ROTPKs maps vendor names to root-of-trust public keys for storage
	// attestation.
	ROTPKs map[string]ed25519.PublicKey
	// ExpectedHostMeasurements whitelists host engine enclave builds.
	ExpectedHostMeasurements []sgx.Measurement
	// ExpectedStorageMeasurements whitelists storage normal-world builds.
	ExpectedStorageMeasurements []trustzone.Measurement
	// LatestHostFW / LatestStorageFW resolve the policy 'latest' argument.
	LatestHostFW    string
	LatestStorageFW string
	// Clock supplies timestamps for the audit log.
	Clock func() int64
	// Meter records the monitor's work (may be nil).
	Meter *simtime.Meter
}

// Monitor is the trusted monitor service. In a real deployment it runs
// inside its own SGX enclave; the enclave identity is the signing key pair
// whose public half clients pin.
type Monitor struct {
	cfg     Config
	signKey ed25519.PrivateKey
	pubKey  ed25519.PublicKey
	log     *audit.Log

	mu          sync.Mutex
	hosts       map[string]*hostRecord
	storage     map[string]*storageRecord
	policies    map[string]*policy.Policy // database -> access policy
	serviceBits map[string]int            // client key -> reuse bitmap position
	sessions    map[string]*Session
	seq         uint64
}

// Session is an active authorized query session.
type Session struct {
	ID         string
	Key        []byte
	ClientKey  string
	Database   string
	StorageIDs []string
}

// New creates a monitor with a fresh signing identity.
func New(cfg Config) (*Monitor, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("monitor: keygen: %w", err)
	}
	if cfg.Clock == nil {
		var counter atomic.Int64
		cfg.Clock = func() int64 { return counter.Add(1) }
	}
	return &Monitor{
		cfg:         cfg,
		signKey:     priv,
		pubKey:      pub,
		log:         audit.NewLog(priv),
		hosts:       map[string]*hostRecord{},
		storage:     map[string]*storageRecord{},
		policies:    map[string]*policy.Policy{},
		serviceBits: map[string]int{},
		sessions:    map[string]*Session{},
	}, nil
}

// PublicKey returns the monitor's verification key (pinned by clients).
func (m *Monitor) PublicKey() ed25519.PublicKey { return m.pubKey }

// AllowHostMeasurement whitelists an additional host enclave build (used by
// deployments that provision measurements after the monitor starts).
func (m *Monitor) AllowHostMeasurement(mm sgx.Measurement) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cfg.ExpectedHostMeasurements = append(m.cfg.ExpectedHostMeasurements, mm)
}

// AllowStorageMeasurement whitelists an additional storage normal-world build.
func (m *Monitor) AllowStorageMeasurement(mm trustzone.Measurement) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cfg.ExpectedStorageMeasurements = append(m.cfg.ExpectedStorageMeasurements, mm)
}

// AddROTPK registers an additional vendor root of trust.
func (m *Monitor) AddROTPK(vendor string, pk ed25519.PublicKey) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cfg.ROTPKs == nil {
		m.cfg.ROTPKs = map[string]ed25519.PublicKey{}
	}
	m.cfg.ROTPKs[vendor] = pk
}

// AuditLog exposes the tamper-evident trail (read side).
func (m *Monitor) AuditLog() *audit.Log { return m.log }

// RegisterHost attests a host engine enclave (Fig 4a): the quote must verify
// at the IAS, carry a whitelisted measurement, and bind the host's transport
// public key in its report data. On success the monitor certifies that key.
func (m *Monitor) RegisterHost(info NodeInfo, quote sgx.Quote, hostTransportPub []byte) ([]byte, error) {
	if m.cfg.IAS == nil {
		return nil, errors.New("monitor: no attestation service configured")
	}
	if err := m.cfg.IAS.Verify(quote); err != nil {
		m.log.Append(m.cfg.Clock(), info.ID, "attestation-failure", "host quote: "+err.Error())
		return nil, fmt.Errorf("monitor: host attestation: %w", err)
	}
	m.mu.Lock()
	allowed := false
	for _, want := range m.cfg.ExpectedHostMeasurements {
		if quote.Measurement == want {
			allowed = true
		}
	}
	m.mu.Unlock()
	if !allowed {
		m.log.Append(m.cfg.Clock(), info.ID, "attestation-failure", "host measurement "+quote.Measurement.String()+" not whitelisted")
		return nil, fmt.Errorf("monitor: host measurement %s not whitelisted", quote.Measurement)
	}
	want := sha256.Sum256(hostTransportPub)
	if quote.ReportData != sha256To64(want) {
		m.log.Append(m.cfg.Clock(), info.ID, "attestation-failure", "host key binding mismatch")
		return nil, errors.New("monitor: quote does not bind the host transport key")
	}
	m.mu.Lock()
	m.hosts[info.ID] = &hostRecord{info: info, measurement: quote.Measurement}
	m.mu.Unlock()
	m.log.Append(m.cfg.Clock(), info.ID, "attestation", "host attested, measurement "+quote.Measurement.String())
	cert := ed25519.Sign(m.signKey, hostCertDigest(info.ID, hostTransportPub))
	return cert, nil
}

// sha256To64 widens a 32-byte hash into SGX 64-byte report data.
func sha256To64(h [32]byte) [64]byte {
	var out [64]byte
	copy(out[:], h[:])
	return out
}

// HostKeyDigest computes the report data a host must bind in its quote.
func HostKeyDigest(hostTransportPub []byte) [64]byte {
	return sha256To64(sha256.Sum256(hostTransportPub))
}

func hostCertDigest(id string, pub []byte) []byte {
	h := sha256.New()
	h.Write([]byte("ironsafe-hostcert-v1|"))
	h.Write([]byte(id))
	h.Write([]byte{'|'})
	h.Write(pub)
	return h.Sum(nil)
}

// VerifyHostCert lets a client check the monitor-issued host certificate.
func VerifyHostCert(monitorPub ed25519.PublicKey, id string, hostTransportPub, cert []byte) bool {
	return ed25519.Verify(monitorPub, hostCertDigest(id, hostTransportPub), cert)
}

// RegisterStorage runs the Fig 4b protocol: challenge, attestation report,
// ROTPK-rooted verification, measurement whitelist check.
func (m *Monitor) RegisterStorage(vendor string, node StorageAttester) error {
	m.mu.Lock()
	rotpk, ok := m.cfg.ROTPKs[vendor]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("monitor: unknown vendor %q", vendor)
	}
	challenge := make([]byte, 32)
	if _, err := rand.Read(challenge); err != nil {
		return err
	}
	report, err := node.Attest(challenge)
	if err != nil {
		return fmt.Errorf("monitor: storage attestation: %w", err)
	}
	info := node.Info()
	if err := trustzone.VerifyReport(report, rotpk, challenge); err != nil {
		m.log.Append(m.cfg.Clock(), info.ID, "attestation-failure", "storage report: "+err.Error())
		return fmt.Errorf("monitor: storage attestation: %w", err)
	}
	m.mu.Lock()
	allowed := false
	for _, want := range m.cfg.ExpectedStorageMeasurements {
		if report.NormalWorld == want {
			allowed = true
		}
	}
	m.mu.Unlock()
	if !allowed {
		m.log.Append(m.cfg.Clock(), info.ID, "attestation-failure", "storage normal world "+report.NormalWorld.String()+" not whitelisted")
		return fmt.Errorf("monitor: storage normal world %s not whitelisted", report.NormalWorld)
	}
	m.mu.Lock()
	m.storage[info.ID] = &storageRecord{info: info, measurement: report.NormalWorld}
	m.mu.Unlock()
	m.log.Append(m.cfg.Clock(), info.ID, "attestation", "storage attested, normal world "+report.NormalWorld.String())
	return nil
}

// SetAccessPolicy installs the data producer's access policy for a database.
func (m *Monitor) SetAccessPolicy(database string, p *policy.Policy) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.policies[database] = p
}

// RegisterService assigns a client identity its reuse-bitmap position
// (anti-pattern #2).
func (m *Monitor) RegisterService(clientKey string, bit int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.serviceBits[clientKey] = bit
}

// AuthRequest asks the monitor to authorize one client query.
type AuthRequest struct {
	Database   string
	ClientKey  string
	SQL        string
	ExecPolicy string // client's execution policy source ("" = none)
	AccessDate string // YYYY-MM-DD, for timely-deletion filters
	HostID     string
	// Epoch is the cluster membership epoch at authorization time. Binding
	// it into the signed proof pins the query to the membership view it was
	// authorized under: a proof minted before an eviction cannot vouch for
	// execution after it.
	Epoch uint64
}

// Authorization is the monitor's approval: session credentials, the
// policy-rewritten query, the compliant storage nodes, and a signed proof.
type Authorization struct {
	SessionID    string
	SessionKey   []byte
	RewrittenSQL string
	StorageIDs   []string
	Proof        Proof
}

// Proof is the per-query proof of integrity/authenticity (§4.2): the monitor
// signs the environment that will execute the query and, in QueryHash, the
// SHA-256 of the statement it runs (Authorization.RewrittenSQL).
type Proof struct {
	SessionID  string
	ClientKey  string
	QueryHash  []byte
	PolicyHash []byte
	HostID     string
	StorageIDs []string
	Epoch      uint64 // cluster membership epoch the authorization is bound to
	Signature  []byte
}

func proofDigest(p *Proof) []byte {
	h := sha256.New()
	h.Write([]byte("ironsafe-proof-v2|"))
	var e [8]byte
	binary.BigEndian.PutUint64(e[:], p.Epoch)
	h.Write(e[:])
	h.Write([]byte(p.SessionID))
	h.Write([]byte{'|'})
	h.Write([]byte(p.ClientKey))
	h.Write([]byte{'|'})
	h.Write(p.QueryHash)
	h.Write(p.PolicyHash)
	h.Write([]byte(p.HostID))
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(p.StorageIDs)))
	h.Write(n[:])
	for _, id := range p.StorageIDs {
		h.Write([]byte(id))
		h.Write([]byte{'|'})
	}
	return h.Sum(nil)
}

// VerifyProof checks a proof against the monitor public key.
func VerifyProof(monitorPub ed25519.PublicKey, p *Proof) bool {
	return ed25519.Verify(monitorPub, proofDigest(p), p.Signature)
}

// ErrDenied reports a policy denial.
var ErrDenied = errors.New("monitor: policy denied")

// Authorize validates the client's permissions and execution policy, rewrites
// the query for compliance, selects compliant storage nodes, and issues
// session credentials (Fig 5).
func (m *Monitor) Authorize(req AuthRequest) (*Authorization, error) {
	stmt, err := parser.Parse(req.SQL)
	if err != nil {
		return nil, fmt.Errorf("monitor: parsing query: %w", err)
	}
	perm := permissionFor(stmt)

	m.mu.Lock()
	accessPolicy := m.policies[req.Database]
	host := m.hosts[req.HostID]
	bit := m.serviceBits[req.ClientKey]
	storageNodes := make([]*storageRecord, 0, len(m.storage))
	for _, s := range m.storage {
		storageNodes = append(storageNodes, s)
	}
	m.mu.Unlock()
	// Deterministic node order: map iteration order must not leak into the
	// authorization (offload placement, and with it every downstream byte,
	// would become nondeterministic across runs).
	sort.Slice(storageNodes, func(i, j int) bool { return storageNodes[i].info.ID < storageNodes[j].info.ID })

	if host == nil {
		return nil, fmt.Errorf("monitor: host %q not attested", req.HostID)
	}
	if accessPolicy == nil {
		return nil, fmt.Errorf("monitor: no access policy for database %q", req.Database)
	}

	baseEnv := policy.Env{
		SessionKey:      req.ClientKey,
		HostLoc:         host.info.Location,
		HostFW:          host.info.FW,
		LatestHostFW:    m.cfg.LatestHostFW,
		LatestStorageFW: m.cfg.LatestStorageFW,
		AccessDate:      req.AccessDate,
		ServiceBit:      bit,
	}

	// Access check (producer policy).
	allowed, effects, err := accessPolicy.Evaluate(perm, baseEnv)
	if err != nil {
		return nil, err
	}
	if !allowed {
		m.log.Append(m.cfg.Clock(), req.ClientKey, "denial", perm+" denied on "+req.Database)
		return nil, fmt.Errorf("%w: %s on %q for client %s", ErrDenied, perm, req.Database, req.ClientKey)
	}

	// Execution policy (client constraints on the environment).
	var execPol *policy.Policy
	policySrc := req.ExecPolicy
	if policySrc != "" {
		execPol, err = policy.Parse(policySrc)
		if err != nil {
			return nil, fmt.Errorf("monitor: execution policy: %w", err)
		}
	}
	var compliantStorage []string
	if execPol != nil {
		for _, s := range storageNodes {
			env := baseEnv
			env.StorageLoc = s.info.Location
			env.StorageFW = s.info.FW
			ok, _, err := execPol.Evaluate("exec", env)
			if err != nil {
				return nil, err
			}
			if ok {
				compliantStorage = append(compliantStorage, s.info.ID)
			}
		}
		// If the policy has an exec rule and no storage node satisfies it
		// even together with the host, check whether host-only execution
		// satisfies it (empty storage attributes).
		if _, has := execPol.Rules["exec"]; has && len(compliantStorage) == 0 {
			env := baseEnv
			ok, _, err := execPol.Evaluate("exec", env)
			if err != nil {
				return nil, err
			}
			if !ok {
				m.log.Append(m.cfg.Clock(), req.ClientKey, "denial", "no compliant execution environment")
				return nil, fmt.Errorf("%w: no compliant execution environment", ErrDenied)
			}
		}
	} else {
		for _, s := range storageNodes {
			compliantStorage = append(compliantStorage, s.info.ID)
		}
	}

	// Policy-compliant query rewriting: AND the access-policy row filters
	// into the parsed SELECT's WHERE and print the tree. The filters name
	// their columns unqualified, so they bind only the base tables of a
	// SELECT's top-level FROM: any other statement is denied.
	rewritten := req.SQL
	if len(effects.RowFilters) > 0 {
		sel, ok := stmt.(*ast.Select)
		if !ok || readsAround(sel) {
			m.log.Append(m.cfg.Clock(), req.ClientKey, "denial", perm+" on "+req.Database+": row filters cannot bind the statement")
			return nil, fmt.Errorf("%w: row filters bind no write, derived table or subquery", ErrDenied)
		}
		sel.Where = ast.JoinConjuncts(append([]ast.Expr{sel.Where}, effects.RowFilters...))
		rewritten = sel.String()
	}
	// Data-creation compliance (§4.3 anti-patterns #1/#2): inserts into a
	// database whose policy keys on an expiry or reuse column must supply
	// that column — records without their compliance metadata are rejected.
	if ins, ok := stmt.(*ast.Insert); ok {
		if err := checkInsertCompliance(ins, accessPolicy, req.AccessDate); err != nil {
			m.log.Append(m.cfg.Clock(), req.ClientKey, "denial", err.Error())
			return nil, fmt.Errorf("%w: %v", ErrDenied, err)
		}
	}

	// Session issue.
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.seq++
	// The ID tag derives from non-secret request content, never from the key:
	// session IDs circulate in plaintext (audit trail, storage control plane),
	// and the audit trail of two identical runs must be byte-identical.
	tag := sha256.Sum256([]byte(fmt.Sprintf("%d|%s|%s", m.seq, req.ClientKey, req.Database)))
	id := fmt.Sprintf("sess-%06d-%s", m.seq, hex.EncodeToString(tag[:4]))
	sess := &Session{ID: id, Key: key, ClientKey: req.ClientKey, Database: req.Database, StorageIDs: compliantStorage}
	m.sessions[id] = sess
	m.mu.Unlock()

	// Obligations: logUpdate effects plus the always-on query record, which
	// like the proof binds the statement that runs.
	qh := sha256.Sum256([]byte(rewritten))
	for _, la := range effects.LogActions {
		m.log.Append(m.cfg.Clock(), req.ClientKey, "sharing:"+la.Log,
			fmt.Sprintf("fields=%s query=%s", strings.Join(la.Fields, ","), req.SQL))
	}
	m.log.Append(m.cfg.Clock(), req.ClientKey, "query",
		fmt.Sprintf("db=%s perm=%s hash=%x", req.Database, perm, qh[:8]))

	ph := sha256.Sum256([]byte(policySrc + "\x00" + accessPolicy.String()))
	proof := Proof{
		SessionID:  id,
		ClientKey:  req.ClientKey,
		QueryHash:  qh[:],
		PolicyHash: ph[:],
		HostID:     req.HostID,
		StorageIDs: compliantStorage,
		Epoch:      req.Epoch,
	}
	proof.Signature = ed25519.Sign(m.signKey, proofDigest(&proof))

	return &Authorization{
		SessionID:    id,
		SessionKey:   key,
		RewrittenSQL: rewritten,
		StorageIDs:   compliantStorage,
		Proof:        proof,
	}, nil
}

// SessionKeyFor returns the key for an active session (used by storage nodes
// fetching keys over the monitor control channel).
func (m *Monitor) SessionKeyFor(id string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	if !ok {
		return nil, fmt.Errorf("monitor: no session %q", id)
	}
	return s.Key, nil
}

// EndSession revokes the session key and records cleanup (§4.2's session
// cleanup protocol). Idempotent.
func (m *Monitor) EndSession(id string) {
	m.mu.Lock()
	s, ok := m.sessions[id]
	if ok {
		delete(m.sessions, id)
	}
	m.mu.Unlock()
	if ok {
		m.log.Append(m.cfg.Clock(), s.ClientKey, "cleanup", "session "+id+" closed, key revoked")
	}
}

// ActiveSessions reports the number of live sessions.
func (m *Monitor) ActiveSessions() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// permissionFor maps a statement to the policy permission it needs.
func permissionFor(stmt ast.Statement) string {
	switch stmt.(type) {
	case *ast.Select:
		return "read"
	default:
		return "write"
	}
}

// checkInsertCompliance rejects INSERTs that omit columns the access policy
// keys on (le's expiry column, reuseMap's consent bitmap). An INSERT without
// a column list into such a database is rejected too: the monitor has no
// catalog to tell which value lands in which column. When the caller supplies
// an access date, records whose literal expiry value is already in the past
// are rejected as well (timely-deletion at ingest: a record born expired would
// be unreadable under the policy yet still occupy — and leak through —
// storage).
func checkInsertCompliance(ins *ast.Insert, p *policy.Policy, accessDate string) error {
	have := map[string]int{}
	for i, c := range ins.Columns {
		have[strings.ToLower(c)] = i + 1
	}
	for _, pred := range p.Predicates() {
		var col string
		expiry := false
		switch pred.Name {
		case "le":
			if pred.Args[0] == "T" {
				col = pred.Args[1]
				expiry = true
			}
		case "reuseMap":
			col = pred.Args[0]
		}
		if col == "" {
			continue
		}
		if len(ins.Columns) == 0 {
			return fmt.Errorf("monitor: positional insert: name the columns, the policy keys on %q", col)
		}
		pos := have[strings.ToLower(col)]
		if pos == 0 {
			return fmt.Errorf("monitor: insert omits policy column %q (records need their compliance metadata)", col)
		}
		if !expiry || accessDate == "" {
			continue
		}
		access, err := value.ParseDate(accessDate)
		if err != nil {
			return fmt.Errorf("monitor: access date: %v", err)
		}
		for ri, row := range ins.Rows {
			if pos-1 >= len(row) {
				continue
			}
			lit, ok := row[pos-1].(*ast.Literal)
			if !ok {
				continue // non-literal expiry: checked at read time by the row filter
			}
			var exp value.Value
			switch lit.Value.Kind() {
			case value.KindDate:
				exp = lit.Value
			case value.KindString:
				exp, err = value.ParseDate(lit.Value.AsString())
				if err != nil {
					return fmt.Errorf("monitor: row %d: expiry column %q: %v", ri, col, err)
				}
			default:
				continue
			}
			if exp.AsInt() < access.AsInt() {
				return fmt.Errorf("monitor: row %d is born expired (%s expires %s, access date %s)",
					ri, col, lit.String(), accessDate)
			}
		}
	}
	return nil
}

// readsAround reports whether sel reads through a derived table or a
// subquery, which row filters ANDed into its WHERE would not bind.
func readsAround(sel *ast.Select) bool {
	nested := false
	for _, ref := range sel.From {
		nested = nested || ref.Subquery != nil
	}
	ast.EachExpr(sel, func(x ast.Expr) bool {
		nested = nested || ast.SubqueryOf(x) != nil
		return !nested
	})
	return nested
}

// RevokeStorage removes a storage node from the attested set (operator
// response to a compromise report); subsequent authorizations exclude it.
func (m *Monitor) RevokeStorage(id string) {
	m.mu.Lock()
	_, ok := m.storage[id]
	delete(m.storage, id)
	m.mu.Unlock()
	if ok {
		m.log.Append(m.cfg.Clock(), id, "revocation", "storage node revoked")
	}
}

// RevokeHost removes a host from the attested set.
func (m *Monitor) RevokeHost(id string) {
	m.mu.Lock()
	_, ok := m.hosts[id]
	delete(m.hosts, id)
	m.mu.Unlock()
	if ok {
		m.log.Append(m.cfg.Clock(), id, "revocation", "host revoked")
	}
}
