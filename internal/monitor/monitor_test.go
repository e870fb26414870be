package monitor

import (
	"crypto/ed25519"
	"errors"
	"strings"
	"testing"

	"ironsafe/internal/audit"
	"ironsafe/internal/policy"
	"ironsafe/internal/simtime"
	"ironsafe/internal/sql/parser"
	"ironsafe/internal/tee/sgx"
	"ironsafe/internal/tee/trustzone"
)

// testRig wires a monitor, one genuine host enclave, and one genuine booted
// storage device.
type testRig struct {
	mon       *Monitor
	ias       *sgx.AttestationService
	vendor    *trustzone.Vendor
	hostEnc   *sgx.Enclave
	hostPub   []byte
	storageNW *trustzone.NormalWorld
	meter     *simtime.Meter
}

const hostImage = "ironsafe host engine v2.1"
const storageImage = "ironsafe storage stack v3.4"

func newRig(t *testing.T) *testRig {
	t.Helper()
	ias := sgx.NewAttestationService()
	platform, err := sgx.NewPlatform("host-platform", ias)
	if err != nil {
		t.Fatal(err)
	}
	var m simtime.Meter
	enc, err := platform.CreateEnclave([]byte(hostImage), sgx.Config{Meter: &m})
	if err != nil {
		t.Fatal(err)
	}
	vendor, err := trustzone.NewVendor("acme")
	if err != nil {
		t.Fatal(err)
	}
	dev, err := trustzone.NewDevice("storage-01", vendor)
	if err != nil {
		t.Fatal(err)
	}
	atf := vendor.SignImage("atf", "2.4", []byte("atf"))
	tos := vendor.SignImage("optee", "3.4", []byte("optee"))
	nwImg := trustzone.FirmwareImage{Name: "nw", Version: "3.4", Code: []byte(storageImage)}
	_, nw, err := dev.Boot(atf, tos, nwImg, &m)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := New(Config{
		IAS:                         ias,
		ROTPKs:                      map[string]ed25519.PublicKey{"acme": vendor.ROTPK},
		ExpectedHostMeasurements:    []sgx.Measurement{sgx.MeasureCode([]byte(hostImage))},
		ExpectedStorageMeasurements: []trustzone.Measurement{trustzone.MeasureImage([]byte(storageImage))},
		LatestHostFW:                "2.1",
		LatestStorageFW:             "3.4",
		Meter:                       &m,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{mon: mon, ias: ias, vendor: vendor, hostEnc: enc, hostPub: []byte("host-transport-pub"), storageNW: nw, meter: &m}
}

// attestHost registers the rig's host with the monitor.
func (r *testRig) attestHost(t *testing.T) []byte {
	t.Helper()
	quote := r.hostEnc.GetQuote(HostKeyDigest(r.hostPub))
	cert, err := r.mon.RegisterHost(NodeInfo{ID: "host-1", Location: "EU", FW: "2.1"}, quote, r.hostPub)
	if err != nil {
		t.Fatal(err)
	}
	return cert
}

// storageNode adapts the rig's normal world to StorageAttester.
type storageNode struct {
	nw   *trustzone.NormalWorld
	info NodeInfo
}

func (s *storageNode) Attest(challenge []byte) (*trustzone.AttestationReport, error) {
	return s.nw.Attest(challenge)
}
func (s *storageNode) Info() NodeInfo { return s.info }

func (r *testRig) attestStorage(t *testing.T) {
	t.Helper()
	node := &storageNode{nw: r.storageNW, info: NodeInfo{ID: "storage-01", Location: "EU", FW: "3.4"}}
	if err := r.mon.RegisterStorage("acme", node); err != nil {
		t.Fatal(err)
	}
}

func (r *testRig) setup(t *testing.T) {
	t.Helper()
	r.attestHost(t)
	r.attestStorage(t)
	r.mon.SetAccessPolicy("flightdb", policy.MustParse(
		"read :- sessionKeyIs(Ka) | sessionKeyIs(Kb)\nwrite :- sessionKeyIs(Ka)"))
}

func TestHostAttestationSuccess(t *testing.T) {
	r := newRig(t)
	cert := r.attestHost(t)
	if !VerifyHostCert(r.mon.PublicKey(), "host-1", r.hostPub, cert) {
		t.Error("host cert does not verify")
	}
	if VerifyHostCert(r.mon.PublicKey(), "host-2", r.hostPub, cert) {
		t.Error("cert valid for wrong host id")
	}
}

func TestHostAttestationRejectsWrongMeasurement(t *testing.T) {
	r := newRig(t)
	platform, _ := sgx.NewPlatform("evil-platform", r.ias)
	var m simtime.Meter
	evil, _ := platform.CreateEnclave([]byte("backdoored engine"), sgx.Config{Meter: &m})
	quote := evil.GetQuote(HostKeyDigest(r.hostPub))
	if _, err := r.mon.RegisterHost(NodeInfo{ID: "host-x"}, quote, r.hostPub); err == nil {
		t.Error("wrong measurement accepted")
	}
}

func TestHostAttestationRejectsKeySubstitution(t *testing.T) {
	r := newRig(t)
	quote := r.hostEnc.GetQuote(HostKeyDigest([]byte("attacker-key")))
	if _, err := r.mon.RegisterHost(NodeInfo{ID: "host-1"}, quote, r.hostPub); err == nil {
		t.Error("key substitution accepted")
	}
}

func TestStorageAttestationSuccess(t *testing.T) {
	r := newRig(t)
	r.attestStorage(t)
}

func TestStorageAttestationRejectsImpersonation(t *testing.T) {
	r := newRig(t)
	evilVendor, _ := trustzone.NewVendor("evil")
	dev, _ := trustzone.NewDevice("storage-01", evilVendor)
	atf := evilVendor.SignImage("atf", "1", []byte("atf"))
	tos := evilVendor.SignImage("optee", "1", []byte("optee"))
	var m simtime.Meter
	_, nw, _ := dev.Boot(atf, tos, trustzone.FirmwareImage{Name: "nw", Version: "1", Code: []byte(storageImage)}, &m)
	node := &storageNode{nw: nw, info: NodeInfo{ID: "storage-01"}}
	if err := r.mon.RegisterStorage("acme", node); err == nil {
		t.Error("impersonating device accepted")
	}
	if err := r.mon.RegisterStorage("unknown-vendor", node); err == nil {
		t.Error("unknown vendor accepted")
	}
}

func TestStorageAttestationRejectsModifiedNormalWorld(t *testing.T) {
	r := newRig(t)
	dev, _ := trustzone.NewDevice("storage-02", r.vendor)
	atf := r.vendor.SignImage("atf", "2.4", []byte("atf"))
	tos := r.vendor.SignImage("optee", "3.4", []byte("optee"))
	var m simtime.Meter
	_, nw, _ := dev.Boot(atf, tos, trustzone.FirmwareImage{Name: "nw", Version: "3.4", Code: []byte("rootkit storage stack")}, &m)
	node := &storageNode{nw: nw, info: NodeInfo{ID: "storage-02"}}
	if err := r.mon.RegisterStorage("acme", node); err == nil {
		t.Error("modified normal world accepted")
	}
}

func TestAuthorizeGrantsAndSignsProof(t *testing.T) {
	r := newRig(t)
	r.setup(t)
	auth, err := r.mon.Authorize(AuthRequest{
		Database: "flightdb", ClientKey: "Ka", HostID: "host-1",
		SQL: "SELECT * FROM flights",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(auth.SessionKey) != 32 || auth.SessionID == "" {
		t.Errorf("session = %+v", auth.SessionID)
	}
	if len(auth.StorageIDs) != 1 || auth.StorageIDs[0] != "storage-01" {
		t.Errorf("storage ids = %v", auth.StorageIDs)
	}
	if !VerifyProof(r.mon.PublicKey(), &auth.Proof) {
		t.Error("proof does not verify")
	}
	bad := auth.Proof
	bad.ClientKey = "Kb"
	if VerifyProof(r.mon.PublicKey(), &bad) {
		t.Error("tampered proof verifies")
	}
}

func TestAuthorizeDeniesWrongClient(t *testing.T) {
	r := newRig(t)
	r.setup(t)
	_, err := r.mon.Authorize(AuthRequest{
		Database: "flightdb", ClientKey: "Kb", HostID: "host-1",
		SQL: "INSERT INTO flights VALUES (1)",
	})
	if !errors.Is(err, ErrDenied) {
		t.Errorf("Kb write = %v, want ErrDenied", err)
	}
	// Reads are fine for Kb.
	if _, err := r.mon.Authorize(AuthRequest{
		Database: "flightdb", ClientKey: "Kb", HostID: "host-1",
		SQL: "SELECT * FROM flights",
	}); err != nil {
		t.Errorf("Kb read denied: %v", err)
	}
	// Unknown client denied entirely.
	if _, err := r.mon.Authorize(AuthRequest{
		Database: "flightdb", ClientKey: "Mallory", HostID: "host-1",
		SQL: "SELECT * FROM flights",
	}); !errors.Is(err, ErrDenied) {
		t.Errorf("Mallory = %v", err)
	}
}

func TestAuthorizeRequiresAttestedHost(t *testing.T) {
	r := newRig(t)
	r.setup(t)
	_, err := r.mon.Authorize(AuthRequest{
		Database: "flightdb", ClientKey: "Ka", HostID: "rogue-host",
		SQL: "SELECT * FROM flights",
	})
	if err == nil {
		t.Error("unattested host accepted")
	}
}

func TestExecutionPolicyFiltersStorageNodes(t *testing.T) {
	r := newRig(t)
	r.setup(t)
	// Storage in EU with fw 3.4 complies.
	auth, err := r.mon.Authorize(AuthRequest{
		Database: "flightdb", ClientKey: "Ka", HostID: "host-1",
		SQL:        "SELECT * FROM flights",
		ExecPolicy: "exec :- storageLocIs(EU) & fwVersionStorage(latest)",
	})
	if err != nil || len(auth.StorageIDs) != 1 {
		t.Errorf("compliant storage filtered out: %v, %v", auth, err)
	}
	// Requiring US location: no storage node complies and host-only
	// cannot satisfy a storage predicate -> denial.
	_, err = r.mon.Authorize(AuthRequest{
		Database: "flightdb", ClientKey: "Ka", HostID: "host-1",
		SQL:        "SELECT * FROM flights",
		ExecPolicy: "exec :- storageLocIs(US)",
	})
	if !errors.Is(err, ErrDenied) {
		t.Errorf("non-compliant exec = %v", err)
	}
	// Host-only-satisfiable policy with no compliant storage: allowed,
	// but with no storage nodes (query runs host-only). The negated
	// predicate rejects the EU node yet holds with no storage at all.
	auth, err = r.mon.Authorize(AuthRequest{
		Database: "flightdb", ClientKey: "Ka", HostID: "host-1",
		SQL:        "SELECT * FROM flights",
		ExecPolicy: "exec :- hostLocIs(EU) & !storageLocIs(EU)",
	})
	if err != nil {
		t.Fatalf("host-only fallback: %v", err)
	}
	if len(auth.StorageIDs) != 0 {
		t.Errorf("expected host-only execution, got storage %v", auth.StorageIDs)
	}
}

func TestTimelyDeletionRewrite(t *testing.T) {
	r := newRig(t)
	r.attestHost(t)
	r.attestStorage(t)
	r.mon.SetAccessPolicy("flightdb", policy.MustParse("read :- sessionKeyIs(Kb) & le(T, expiry)"))
	auth, err := r.mon.Authorize(AuthRequest{
		Database: "flightdb", ClientKey: "Kb", HostID: "host-1",
		SQL:        "SELECT pax FROM flights WHERE dest = 'PT' ORDER BY pax",
		AccessDate: "1995-06-17",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "SELECT pax FROM flights WHERE (dest = 'PT') AND expiry >= date '1995-06-17' ORDER BY pax"
	if auth.RewrittenSQL != want {
		t.Errorf("rewrite = %q\nwant %q", auth.RewrittenSQL, want)
	}
}

func TestRewriteWithoutWhere(t *testing.T) {
	r := newRig(t)
	r.attestHost(t)
	r.attestStorage(t)
	r.mon.SetAccessPolicy("db", policy.MustParse("read :- sessionKeyIs(K) & le(T, expiry)"))
	auth, err := r.mon.Authorize(AuthRequest{
		Database: "db", ClientKey: "K", HostID: "host-1",
		SQL: "SELECT pax FROM flights LIMIT 5", AccessDate: "1995-01-01",
	})
	if err != nil {
		t.Fatal(err)
	}
	if auth.RewrittenSQL != "SELECT pax FROM flights WHERE expiry >= date '1995-01-01' LIMIT 5" {
		t.Errorf("rewrite = %q", auth.RewrittenSQL)
	}
}

func TestRewritePreservesSubqueryWhere(t *testing.T) {
	r := newRig(t)
	r.attestHost(t)
	r.attestStorage(t)
	r.mon.SetAccessPolicy("db", policy.MustParse("read :- sessionKeyIs(K) & le(T, expiry)"))
	sql := "SELECT pax FROM flights WHERE id IN (SELECT fid FROM legs WHERE dist > 100)"
	auth, err := r.mon.Authorize(AuthRequest{
		Database: "db", ClientKey: "K", HostID: "host-1",
		SQL: sql, AccessDate: "1995-01-01",
	})
	if err != nil {
		t.Fatal(err)
	}
	// The inner WHERE must not be touched; the filter wraps the outer one.
	if !strings.Contains(auth.RewrittenSQL, "(SELECT fid FROM legs WHERE dist > 100)") {
		t.Errorf("inner query mangled: %q", auth.RewrittenSQL)
	}
	if !strings.Contains(auth.RewrittenSQL, "AND expiry >= date '1995-01-01'") {
		t.Errorf("filter missing: %q", auth.RewrittenSQL)
	}
}

func TestReuseMapRewrite(t *testing.T) {
	r := newRig(t)
	r.attestHost(t)
	r.attestStorage(t)
	r.mon.SetAccessPolicy("db", policy.MustParse("read :- reuseMap(reuse_map)"))
	r.mon.RegisterService("svc-B", 2)
	auth, err := r.mon.Authorize(AuthRequest{
		Database: "db", ClientKey: "svc-B", HostID: "host-1",
		SQL: "SELECT pax FROM flights",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(auth.RewrittenSQL, "(reuse_map % 8) >= 4") {
		t.Errorf("reuse rewrite = %q", auth.RewrittenSQL)
	}
}

func TestLogUpdateObligation(t *testing.T) {
	r := newRig(t)
	r.attestHost(t)
	r.attestStorage(t)
	r.mon.SetAccessPolicy("db", policy.MustParse("read :- logUpdate(sharing, K, Q)"))
	before := r.mon.AuditLog().Len()
	if _, err := r.mon.Authorize(AuthRequest{
		Database: "db", ClientKey: "consumer-B", HostID: "host-1",
		SQL: "SELECT pax FROM flights",
	}); err != nil {
		t.Fatal(err)
	}
	entries := r.mon.AuditLog().Entries()[before:]
	foundSharing := false
	for _, e := range entries {
		if e.Kind == "sharing:sharing" && e.Actor == "consumer-B" {
			foundSharing = true
		}
	}
	if !foundSharing {
		t.Errorf("sharing log entry missing: %+v", entries)
	}
	// The trail itself must verify.
	if err := audit.Verify(r.mon.AuditLog().Entries(), r.mon.PublicKey()); err != nil {
		t.Errorf("audit trail: %v", err)
	}
}

func TestSessionLifecycle(t *testing.T) {
	r := newRig(t)
	r.setup(t)
	auth, err := r.mon.Authorize(AuthRequest{
		Database: "flightdb", ClientKey: "Ka", HostID: "host-1",
		SQL: "SELECT * FROM flights",
	})
	if err != nil {
		t.Fatal(err)
	}
	key, err := r.mon.SessionKeyFor(auth.SessionID)
	if err != nil || len(key) != 32 {
		t.Fatalf("session key: %v", err)
	}
	if r.mon.ActiveSessions() != 1 {
		t.Errorf("active = %d", r.mon.ActiveSessions())
	}
	r.mon.EndSession(auth.SessionID)
	if r.mon.ActiveSessions() != 0 {
		t.Error("session not revoked")
	}
	if _, err := r.mon.SessionKeyFor(auth.SessionID); err == nil {
		t.Error("revoked session key still served")
	}
	r.mon.EndSession(auth.SessionID) // idempotent
}

func TestDenialsAreAudited(t *testing.T) {
	r := newRig(t)
	r.setup(t)
	r.mon.Authorize(AuthRequest{Database: "flightdb", ClientKey: "Mallory", HostID: "host-1", SQL: "SELECT * FROM flights"})
	found := false
	for _, e := range r.mon.AuditLog().Entries() {
		if e.Kind == "denial" && e.Actor == "Mallory" {
			found = true
		}
	}
	if !found {
		t.Error("denial not audited")
	}
}

func TestAuthorizeBadSQL(t *testing.T) {
	r := newRig(t)
	r.setup(t)
	if _, err := r.mon.Authorize(AuthRequest{Database: "flightdb", ClientKey: "Ka", HostID: "host-1", SQL: "NOT SQL"}); err == nil {
		t.Error("bad SQL accepted")
	}
	if _, err := r.mon.Authorize(AuthRequest{Database: "nodb", ClientKey: "Ka", HostID: "host-1", SQL: "SELECT 1"}); err == nil {
		t.Error("missing access policy accepted")
	}
	if _, err := r.mon.Authorize(AuthRequest{Database: "flightdb", ClientKey: "Ka", HostID: "host-1", SQL: "SELECT 1", ExecPolicy: "exec :- bogus()"}); err == nil {
		t.Error("bad exec policy accepted")
	}
}

func TestIndexTopLevel(t *testing.T) {
	if i, _ := indexTopLevel("SELECT A FROM T WHERE X", "WHERE"); i < 0 {
		t.Error("top-level WHERE not found")
	}
	if i, _ := indexTopLevel("SELECT (SELECT B FROM U WHERE Y) FROM T", "WHERE"); i >= 0 {
		t.Error("nested WHERE treated as top-level")
	}
	if i, _ := indexTopLevel("SELECT ' WHERE ' FROM T", "WHERE"); i >= 0 {
		t.Error("string-literal WHERE treated as top-level")
	}
	if i, _ := indexTopLevel("SELECT SOMEWHERE FROM T GROUP BYE", "WHERE"); i >= 0 {
		t.Error("a keyword inside an identifier treated as the keyword")
	}
	// Any run of whitespace separates: start is the character before the
	// keyword, end the position past the one after it.
	for _, tc := range []struct {
		s          string
		words      []string
		start, end int
	}{
		{"A WHERE X", []string{"WHERE"}, 1, 8},
		{"A\nWHERE\tX", []string{"WHERE"}, 1, 8},
		{"A \r\n  WHERE  X", []string{"WHERE"}, 5, 12},
		{"A GROUP BY X", []string{"GROUP", "BY"}, 1, 11},
		{"A\tGROUP \n BY\nX", []string{"GROUP", "BY"}, 1, 13},
		{"A GROUP BY", []string{"GROUP", "BY"}, -1, -1},
		{"A GROUPBY X", []string{"GROUP", "BY"}, -1, -1},
		{"A LIMIT", []string{"LIMIT"}, -1, -1},
	} {
		if start, end := indexTopLevel(tc.s, tc.words...); start != tc.start || end != tc.end {
			t.Errorf("indexTopLevel(%q, %v) = %d, %d, want %d, %d", tc.s, tc.words, start, end, tc.start, tc.end)
		}
	}
}

// TestRewriteAcrossWhitespace: the policy filter is spliced into the same
// place whatever whitespace sets the statement's keywords off — a newline or
// tab before WHERE used to get a second WHERE appended, which does not parse.
func TestRewriteAcrossWhitespace(t *testing.T) {
	r := newRig(t)
	r.attestHost(t)
	r.attestStorage(t)
	r.mon.SetAccessPolicy("db", policy.MustParse("read :- sessionKeyIs(K) & le(T, expiry)"))
	const filter = "expiry >= date '1995-01-01'"
	for sql, want := range map[string]string{
		"SELECT pax\nFROM flights\nWHERE dest = 'PT'\nORDER BY pax":  "SELECT pax\nFROM flights WHERE (dest = 'PT') AND " + filter + "\nORDER BY pax",
		"SELECT pax FROM flights\tWHERE\tdest = 'PT'":                "SELECT pax FROM flights WHERE (dest = 'PT') AND " + filter,
		"SELECT pax FROM flights  WHERE  dest = 'PT'  GROUP  BY pax": "SELECT pax FROM flights  WHERE ( dest = 'PT' ) AND " + filter + " GROUP  BY pax",
		"SELECT pax FROM flights\nGROUP\n\tBY pax\nLIMIT 5":          "SELECT pax FROM flights WHERE " + filter + "\nGROUP\n\tBY pax\nLIMIT 5",
		"select pax from flights\r\nlimit 5":                         "select pax from flights\r WHERE " + filter + "\nlimit 5",
	} {
		auth, err := r.mon.Authorize(AuthRequest{Database: "db", ClientKey: "K", HostID: "host-1", SQL: sql, AccessDate: "1995-01-01"})
		if err != nil {
			t.Errorf("%q: %v", sql, err)
			continue
		}
		if auth.RewrittenSQL != want {
			t.Errorf("%q rewritten to\n%q, want\n%q", sql, auth.RewrittenSQL, want)
		}
		if _, err := parser.Parse(auth.RewrittenSQL); err != nil {
			t.Errorf("%q: the rewrite does not parse: %v", sql, err)
		}
	}
}

func TestInsertComplianceChecks(t *testing.T) {
	r := newRig(t)
	r.attestHost(t)
	r.attestStorage(t)
	r.mon.SetAccessPolicy("db", policy.MustParse(
		"read :- sessionKeyIs(K) & le(T, expiry) & reuseMap(reuse_map)\nwrite :- sessionKeyIs(K)"))

	// Insert naming columns but omitting the expiry column: denied.
	if _, err := r.mon.Authorize(AuthRequest{
		Database: "db", ClientKey: "K", HostID: "host-1",
		SQL: "INSERT INTO pii (id, name) VALUES (1, 'a')",
	}); !errors.Is(err, ErrDenied) {
		t.Errorf("expiry-less insert = %v, want ErrDenied", err)
	}
	// Insert carrying both policy columns: allowed.
	if _, err := r.mon.Authorize(AuthRequest{
		Database: "db", ClientKey: "K", HostID: "host-1",
		SQL: "INSERT INTO pii (id, name, expiry, reuse_map) VALUES (1, 'a', '1999-01-01', 3)",
	}); err != nil {
		t.Errorf("compliant insert denied: %v", err)
	}
	// Positional insert (no column list) targets every column: allowed.
	if _, err := r.mon.Authorize(AuthRequest{
		Database: "db", ClientKey: "K", HostID: "host-1",
		SQL: "INSERT INTO pii VALUES (1, 'a', '1999-01-01', 3)",
	}); err != nil {
		t.Errorf("positional insert denied: %v", err)
	}
}

// TestInsertBornExpired: with an access date supplied, the monitor rejects
// records whose literal expiry value is already in the past — timely-deletion
// enforced at ingest, not just at read time.
func TestInsertBornExpired(t *testing.T) {
	r := newRig(t)
	r.attestHost(t)
	r.attestStorage(t)
	r.mon.SetAccessPolicy("db", policy.MustParse(
		"read :- sessionKeyIs(K) & le(T, expiry)\nwrite :- sessionKeyIs(K)"))

	// Expiry after the access date: allowed.
	if _, err := r.mon.Authorize(AuthRequest{
		Database: "db", ClientKey: "K", HostID: "host-1", AccessDate: "1995-01-01",
		SQL: "INSERT INTO pii (id, expiry) VALUES (1, '1999-01-01')",
	}); err != nil {
		t.Errorf("future-expiry insert denied: %v", err)
	}
	// Expiry before the access date: born expired, denied.
	if _, err := r.mon.Authorize(AuthRequest{
		Database: "db", ClientKey: "K", HostID: "host-1", AccessDate: "1995-01-01",
		SQL: "INSERT INTO pii (id, expiry) VALUES (1, '1994-12-31')",
	}); !errors.Is(err, ErrDenied) {
		t.Errorf("born-expired insert = %v, want ErrDenied", err)
	}
	// One bad row poisons the whole multi-row insert.
	if _, err := r.mon.Authorize(AuthRequest{
		Database: "db", ClientKey: "K", HostID: "host-1", AccessDate: "1995-01-01",
		SQL: "INSERT INTO pii (id, expiry) VALUES (1, '1999-01-01'), (2, '1990-01-01')",
	}); !errors.Is(err, ErrDenied) {
		t.Errorf("multi-row insert with one born-expired row = %v, want ErrDenied", err)
	}
	// The denial is audited.
	found := false
	for _, e := range r.mon.AuditLog().Entries() {
		if e.Kind == "denial" && strings.Contains(e.Detail, "born expired") {
			found = true
		}
	}
	if !found {
		t.Error("born-expired denial not audited")
	}
	// No access date (non-deterministic deployments): the check is skipped.
	if _, err := r.mon.Authorize(AuthRequest{
		Database: "db", ClientKey: "K", HostID: "host-1",
		SQL: "INSERT INTO pii (id, expiry) VALUES (1, '1990-01-01')",
	}); err != nil {
		t.Errorf("insert without access date denied: %v", err)
	}
}

func TestRevocation(t *testing.T) {
	r := newRig(t)
	r.setup(t)
	// Pre-revocation: the storage node is offered.
	auth, err := r.mon.Authorize(AuthRequest{Database: "flightdb", ClientKey: "Ka", HostID: "host-1", SQL: "SELECT 1"})
	if err != nil || len(auth.StorageIDs) != 1 {
		t.Fatalf("pre-revocation: %v %v", auth, err)
	}
	r.mon.RevokeStorage("storage-01")
	auth, err = r.mon.Authorize(AuthRequest{Database: "flightdb", ClientKey: "Ka", HostID: "host-1", SQL: "SELECT 1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(auth.StorageIDs) != 0 {
		t.Errorf("revoked storage still offered: %v", auth.StorageIDs)
	}
	r.mon.RevokeHost("host-1")
	if _, err := r.mon.Authorize(AuthRequest{Database: "flightdb", ClientKey: "Ka", HostID: "host-1", SQL: "SELECT 1"}); err == nil {
		t.Error("revoked host still authorized")
	}
	// Revocations are audited.
	found := 0
	for _, e := range r.mon.AuditLog().Entries() {
		if e.Kind == "revocation" {
			found++
		}
	}
	if found != 2 {
		t.Errorf("revocation audit entries = %d", found)
	}
}
