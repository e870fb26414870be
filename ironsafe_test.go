package ironsafe

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"ironsafe/internal/audit"
	"ironsafe/internal/monitor"
	"ironsafe/internal/tpch"
	"ironsafe/internal/value"
)

// newFlightCluster builds a cluster with the paper's running example: an
// airline (A) sharing flight data with a hotel chain (B).
func newFlightCluster(t *testing.T, mode Mode) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetAccessPolicy("read :- sessionKeyIs(Ka) | sessionKeyIs(Kb)\nwrite :- sessionKeyIs(Ka)"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, c, `CREATE TABLE flights (id INTEGER, pax VARCHAR(32), dest VARCHAR(2), price DECIMAL(10,2), arrival DATE)`)
	mustExec(t, c, `INSERT INTO flights VALUES
		(1, 'alice', 'PT', 120.50, '1995-06-01'),
		(2, 'bob', 'DE', 89.00, '1995-06-02'),
		(3, 'carol', 'PT', 240.00, '1995-07-01')`)
	return c
}

func mustExec(t *testing.T, c *Cluster, sql string) {
	t.Helper()
	if _, err := c.Exec(sql); err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
}

func TestAllModesAnswerQueries(t *testing.T) {
	for _, mode := range []Mode{HostOnlyNonSecure, HostOnlySecure, VanillaCS, IronSafe, StorageOnlySecure} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newFlightCluster(t, mode)
			sess := c.NewSession("Ka")
			qr, err := sess.Query("SELECT pax FROM flights WHERE dest = 'PT' ORDER BY id")
			if err != nil {
				t.Fatal(err)
			}
			if len(qr.Result.Rows) != 2 || qr.Result.Rows[0][0].AsString() != "alice" {
				t.Errorf("rows = %v", qr.Result.Rows)
			}
			if !monitor.VerifyProof(c.MonitorPublicKey(), &qr.Proof) {
				t.Error("proof does not verify")
			}
			if qr.Stats.Wall <= 0 {
				t.Error("no wall time measured")
			}
		})
	}
}

func TestModeString(t *testing.T) {
	want := map[Mode]string{
		HostOnlyNonSecure: "hons", HostOnlySecure: "hos",
		VanillaCS: "vcs", IronSafe: "scs", StorageOnlySecure: "sos",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), s)
		}
	}
}

func TestAccessControlEnforced(t *testing.T) {
	c := newFlightCluster(t, IronSafe)
	// B can read but not write.
	b := c.NewSession("Kb")
	if _, err := b.Query("SELECT pax FROM flights"); err != nil {
		t.Errorf("Kb read: %v", err)
	}
	if _, err := b.Query("INSERT INTO flights VALUES (4, 'mallory', 'XX', 0, '1995-01-01')"); err == nil {
		t.Error("Kb write allowed")
	}
	// Unknown identity denied.
	m := c.NewSession("Mallory")
	if _, err := m.Query("SELECT pax FROM flights"); err == nil {
		t.Error("unknown client allowed")
	}
}

func TestIronSafeShipsFilteredRows(t *testing.T) {
	c := newFlightCluster(t, IronSafe)
	sess := c.NewSession("Ka")
	qr, err := sess.Query("SELECT pax FROM flights WHERE dest = 'PT'")
	if err != nil {
		t.Fatal(err)
	}
	if qr.Stats.Offloads == 0 || qr.Stats.RowsShipped == 0 || qr.Stats.BytesShipped == 0 {
		t.Errorf("no offload stats: %+v", qr.Stats)
	}
	if qr.Stats.Storage.PagesDecrypted == 0 {
		t.Error("scs did not exercise the secure store")
	}
	if qr.Stats.Host.EnclaveTransitions == 0 {
		t.Error("scs did not run inside the enclave")
	}
	// Only PT rows shipped (filter pushed down).
	if qr.Stats.RowsShipped != 2 {
		t.Errorf("rows shipped = %d, want 2 (pushdown)", qr.Stats.RowsShipped)
	}
}

func TestVanillaCSSkipsCrypto(t *testing.T) {
	c := newFlightCluster(t, VanillaCS)
	sess := c.NewSession("Ka")
	qr, err := sess.Query("SELECT pax FROM flights")
	if err != nil {
		t.Fatal(err)
	}
	if qr.Stats.Storage.PagesDecrypted != 0 || qr.Stats.Host.EnclaveTransitions != 0 {
		t.Errorf("vcs paid security costs: %+v", qr.Stats)
	}
}

func TestTimelyDeletionEndToEnd(t *testing.T) {
	// GDPR anti-pattern #1: records past their expiry date are invisible.
	c, err := NewCluster(Config{Mode: IronSafe})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, c, "CREATE TABLE pii (id INTEGER, name VARCHAR(16), expiry DATE)")
	mustExec(t, c, `INSERT INTO pii VALUES
		(1, 'fresh', '1999-01-01'),
		(2, 'stale', '1994-01-01')`)
	if err := c.SetAccessPolicy("read :- sessionKeyIs(Kb) & le(T, expiry)"); err != nil {
		t.Fatal(err)
	}
	sess := c.NewSession("Kb").WithAccessDate("1995-06-17")
	qr, err := sess.Query("SELECT name FROM pii ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Result.Rows) != 1 || qr.Result.Rows[0][0].AsString() != "fresh" {
		t.Errorf("expired record visible: %v", qr.Result.Rows)
	}
	if !strings.Contains(qr.Stats.RewrittenSQL, "expiry >= date '1995-06-17'") {
		t.Errorf("rewrite = %q", qr.Stats.RewrittenSQL)
	}
}

func TestReuseMapEndToEnd(t *testing.T) {
	// GDPR anti-pattern #2: rows opt in to services via a bitmap.
	c, err := NewCluster(Config{Mode: IronSafe})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, c, "CREATE TABLE pii (id INTEGER, name VARCHAR(16), reuse_map INTEGER)")
	mustExec(t, c, `INSERT INTO pii VALUES
		(1, 'optin-both', 3),
		(2, 'optin-svc0', 1),
		(3, 'optin-svc1', 2)`)
	if err := c.SetAccessPolicy("read :- reuseMap(reuse_map)"); err != nil {
		t.Fatal(err)
	}
	c.RegisterService("svc-zero", 0)
	c.RegisterService("svc-one", 1)

	qr, err := c.NewSession("svc-zero").Query("SELECT name FROM pii ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Result.Rows) != 2 {
		t.Errorf("svc-zero sees %v", qr.Result.Rows)
	}
	qr, err = c.NewSession("svc-one").Query("SELECT name FROM pii ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Result.Rows) != 2 || qr.Result.Rows[1][0].AsString() != "optin-svc1" {
		t.Errorf("svc-one sees %v", qr.Result.Rows)
	}
}

// TestPolicyFiltersAcrossWhitespace runs the examples/gdpr-sharing scenario
// with its consumer queries laid out over lines, tabs and double spaces: the
// hotel must see exactly the rows the single-space form returns (alice and
// dave: bob opted out, carol expired). A newline or tab before a keyword used
// to be refused with `unexpected trailing input "WHERE"`.
func TestPolicyFiltersAcrossWhitespace(t *testing.T) {
	c, err := NewCluster(Config{Mode: IronSafe})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, c, `CREATE TABLE passengers (
		id INTEGER, name VARCHAR(32), flight VARCHAR(8),
		arrival DATE, expiry DATE, reuse_map INTEGER)`)
	mustExec(t, c, `INSERT INTO passengers VALUES
		(1, 'alice', 'IS101', '1995-06-20', '1999-01-01', 3),
		(2, 'bob',   'IS101', '1995-06-20', '1999-01-01', 1),
		(3, 'carol', 'IS202', '1995-06-21', '1994-01-01', 3),
		(4, 'dave',  'IS202', '1995-06-21', '1999-01-01', 2)`)
	if err := c.SetAccessPolicy(`
		read  :- sessionKeyIs(Ka) | sessionKeyIs(Kb) & le(T, expiry) & reuseMap(reuse_map) & logUpdate(sharing, K, Q)
		write :- sessionKeyIs(Ka)`); err != nil {
		t.Fatal(err)
	}
	c.RegisterService("Kb", 1)
	hotel := c.NewSession("Kb").WithAccessDate("1995-06-17")
	for _, forms := range [][]string{
		{
			"SELECT name, flight, arrival FROM passengers ORDER BY id",
			"SELECT name, flight, arrival\nFROM passengers\nORDER BY id",
			"SELECT name, flight, arrival FROM passengers\tORDER\tBY\tid",
			"SELECT name, flight, arrival FROM passengers  ORDER  BY  id",
		},
		{
			"SELECT name FROM passengers WHERE flight = 'IS101' OR id > 2 ORDER BY id LIMIT 3",
			"SELECT name\nFROM passengers\nWHERE flight = 'IS101' OR id > 2\nORDER BY id\nLIMIT 3",
			"SELECT name FROM passengers\tWHERE\tflight = 'IS101' OR id > 2\tORDER BY id\tLIMIT 3",
			"SELECT name FROM passengers  WHERE  flight = 'IS101' OR id > 2  ORDER  BY id  LIMIT  3",
		},
		{
			"SELECT flight, count(*) FROM passengers GROUP BY flight ORDER BY flight",
			"SELECT flight, count(*)\r\nFROM passengers\r\nGROUP BY flight\r\nORDER BY flight",
			"SELECT flight, count(*) FROM passengers\n\tGROUP\n\tBY flight\n\tORDER BY flight",
		},
	} {
		want, err := hotel.Query(forms[0])
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Result.Rows) != 2 {
			t.Fatalf("%q: the hotel sees %v", forms[0], want.Result.Rows)
		}
		for _, sql := range forms[1:] {
			got, err := hotel.Query(sql)
			if err != nil {
				t.Errorf("%q: %v", sql, err)
				continue
			}
			if !reflect.DeepEqual(got.Result.Rows, want.Result.Rows) {
				t.Errorf("%q returns %v, the single-space form %v", sql, got.Result.Rows, want.Result.Rows)
			}
		}
	}
}

func TestSharingLogEndToEnd(t *testing.T) {
	// GDPR anti-pattern #3: consumer queries are logged and auditable.
	c := newFlightCluster(t, IronSafe)
	if err := c.SetAccessPolicy("read :- sessionKeyIs(Kb) & logUpdate(sharing, K, Q)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.NewSession("Kb").Query("SELECT pax FROM flights"); err != nil {
		t.Fatal(err)
	}
	trail := c.Monitor.AuditLog().EntriesByActor("Kb")
	found := false
	for _, e := range trail {
		if e.Kind == "sharing:sharing" {
			found = true
		}
	}
	if !found {
		t.Errorf("no sharing entry: %+v", trail)
	}
	// The regulatory authority can verify the exported trail.
	blob, err := c.Monitor.AuditLog().Export()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := audit.VerifyImport(blob, c.MonitorPublicKey()); err != nil {
		t.Errorf("audit export fails verification: %v", err)
	}
}

func TestExecutionPolicyEndToEnd(t *testing.T) {
	c := newFlightCluster(t, IronSafe)
	sess := c.NewSession("Ka").WithExecPolicy("exec :- storageLocIs(EU) & fwVersionStorage(latest) & fwVersionHost(latest)")
	if _, err := sess.Query("SELECT pax FROM flights"); err != nil {
		t.Errorf("compliant exec policy rejected: %v", err)
	}
	sess = c.NewSession("Ka").WithExecPolicy("exec :- storageLocIs(MARS)")
	if _, err := sess.Query("SELECT pax FROM flights"); err == nil {
		t.Error("non-compliant exec policy accepted")
	}
}

func TestSessionCleanupRevokesKeys(t *testing.T) {
	c := newFlightCluster(t, IronSafe)
	if _, err := c.NewSession("Ka").Query("SELECT pax FROM flights"); err != nil {
		t.Fatal(err)
	}
	if c.Monitor.ActiveSessions() != 0 {
		t.Errorf("sessions leaked: %d", c.Monitor.ActiveSessions())
	}
}

func TestTPCHOnCluster(t *testing.T) {
	data := tpch.Generate(0.001)
	c, err := NewCluster(Config{Mode: IronSafe})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.LoadTPCHData(data); err != nil {
		t.Fatal(err)
	}
	if err := c.SetAccessPolicy("read :- sessionKeyIs(analyst)"); err != nil {
		t.Fatal(err)
	}
	sess := c.NewSession("analyst")
	for _, qn := range []int{1, 6, 14} {
		qr, err := sess.Query(tpch.Queries[qn])
		if err != nil {
			t.Fatalf("q%d: %v", qn, err)
		}
		if len(qr.Result.Rows) == 0 {
			t.Errorf("q%d empty", qn)
		}
	}
}

func TestSplitAndHostOnlyAgree(t *testing.T) {
	data := tpch.Generate(0.001)
	results := map[Mode]value.Value{}
	for _, mode := range []Mode{HostOnlyNonSecure, IronSafe, StorageOnlySecure} {
		c, err := NewCluster(Config{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.LoadTPCHData(data); err != nil {
			t.Fatal(err)
		}
		c.SetAccessPolicy("read :- sessionKeyIs(k)")
		qr, err := c.NewSession("k").Query(tpch.Queries[6])
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		results[mode] = qr.Result.Rows[0][0]
	}
	for m, v := range results {
		if !value.Equal(v, results[IronSafe]) {
			t.Errorf("mode %s disagrees: %v vs %v", m, v, results[IronSafe])
		}
	}
}

func TestNoStorageError(t *testing.T) {
	c := newFlightCluster(t, IronSafe)
	sess := c.NewSession("Ka").WithExecPolicy("exec :- hostLocIs(EU) & !storageLocIs(EU)")
	_, err := sess.Query("SELECT pax FROM flights")
	if !errors.Is(err, ErrNoStorage) {
		t.Errorf("err = %v, want ErrNoStorage", err)
	}
}

func TestPriceQueryProducesCosts(t *testing.T) {
	c := newFlightCluster(t, IronSafe)
	qr, err := c.NewSession("Ka").Query("SELECT count(*) FROM flights")
	if err != nil {
		t.Fatal(err)
	}
	if qr.Stats.Cost.Total() <= 0 {
		t.Errorf("cost = %+v", qr.Stats.Cost)
	}
}

func TestMediumTamperDetectedDuringOperation(t *testing.T) {
	// An attacker with access to the storage medium corrupts a block while
	// the cluster is live: the next query touching it fails closed with an
	// integrity error, and the audit sweep pinpoints the violation.
	c := newFlightCluster(t, IronSafe)
	if _, err := c.NewSession("Ka").Query("SELECT count(*) FROM flights"); err != nil {
		t.Fatal(err)
	}
	medium := c.Storage[0].Medium()
	// Corrupt every data block (page indices are small numbers).
	for i := uint32(0); i < medium.NumBlocks() && i < 64; i++ {
		medium.Corrupt(i, 40)
	}
	if _, err := c.NewSession("Ka").Query("SELECT count(*) FROM flights"); err == nil {
		t.Error("query over tampered medium succeeded")
	}
	if err := c.Storage[0].VerifyStore(); err == nil {
		t.Error("audit sweep missed the tampering")
	}
}

func TestVerifyStoreCleanPasses(t *testing.T) {
	c := newFlightCluster(t, IronSafe)
	if err := c.Storage[0].VerifyStore(); err != nil {
		t.Errorf("clean store failed audit: %v", err)
	}
	// Non-secure configuration: sweep is a no-op.
	v := newFlightCluster(t, VanillaCS)
	if err := v.Storage[0].VerifyStore(); err != nil {
		t.Errorf("vanilla store sweep: %v", err)
	}
}

func TestHostOnlySecureDetectsRemoteTamper(t *testing.T) {
	// hos: the host's secure store over the remote medium detects storage-
	// side tampering even though all verification happens in the host
	// enclave.
	c := newFlightCluster(t, HostOnlySecure)
	if _, err := c.NewSession("Ka").Query("SELECT count(*) FROM flights"); err != nil {
		t.Fatal(err)
	}
	medium := c.Storage[0].Medium()
	for i := uint32(0); i < medium.NumBlocks() && i < 64; i++ {
		medium.Corrupt(i, 40)
	}
	if _, err := c.NewSession("Ka").Query("SELECT count(*) FROM flights"); err == nil {
		t.Error("hos query over tampered remote medium succeeded")
	}
}

func TestConcurrentSessions(t *testing.T) {
	c := newFlightCluster(t, IronSafe)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := c.NewSession("Ka")
			for j := 0; j < 5; j++ {
				qr, err := sess.Query("SELECT count(*) FROM flights")
				if err != nil {
					errs <- err
					return
				}
				if qr.Result.Rows[0][0].AsInt() != 3 {
					errs <- errors.New("wrong count under concurrency")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if c.Monitor.ActiveSessions() != 0 {
		t.Errorf("leaked sessions: %d", c.Monitor.ActiveSessions())
	}
}

func TestExplainOnCluster(t *testing.T) {
	c := newFlightCluster(t, IronSafe)
	res, plan, err := c.Explain("SELECT pax FROM flights WHERE dest = 'PT'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("rows = %d", len(res.Rows))
	}
	if !strings.Contains(plan, "scan flights") || !strings.Contains(plan, "filter") {
		t.Errorf("plan = %q", plan)
	}
}

// TestScanTelemetryPublished pins the monitor surfacing of the scan-pipeline
// counters: after a scan under the default (batched) configuration, the
// storage node reports batches issued and Merkle hashes saved.
func TestScanTelemetryPublished(t *testing.T) {
	c := newFlightCluster(t, IronSafe)
	// The scan pipeline only batches multi-page heaps; grow the table past
	// one page before scanning.
	var ins strings.Builder
	ins.WriteString("INSERT INTO flights VALUES")
	for i := 0; i < 400; i++ {
		if i > 0 {
			ins.WriteString(",")
		}
		fmt.Fprintf(&ins, " (%d, 'pax-%04d', 'PT', 99.00, '1995-06-01')", 100+i, i)
	}
	mustExec(t, c, ins.String())
	sess := c.NewSession("Ka")
	if _, err := sess.Query("SELECT count(*) FROM flights"); err != nil {
		t.Fatal(err)
	}
	c.PublishScanTelemetry()
	report := c.Monitor.ScanTelemetryReport()
	if len(report) != 2 {
		t.Fatalf("telemetry from %d nodes, want host-1 and storage", len(report))
	}
	var storage *monitor.ScanTelemetry
	for i := range report {
		if report[i].Node == "storage" {
			storage = &report[i]
		}
	}
	if storage == nil {
		t.Fatal("no storage-node telemetry")
	}
	if storage.ScanBatches == 0 {
		t.Error("storage reported zero scan batches under the batched default")
	}
}

// TestSplitInvarianceOverLeftJoin: where the query is split (vcs, scs) or run
// on the storage node (sos) it returns what the host alone returns (hons, hos)
// for WHERE conjuncts over the NULL-supplying side of a LEFT OUTER JOIN — one
// that accepts the NULL extension, one that accepts it in one branch of an OR,
// and a NULL-rejecting one that must still return the inner join's rows. The
// partitioner used to push such a conjunct into that side's offload: `b.id IS
// NULL` then shipped no row of b, and every row of a came back NULL-extended.
func TestSplitInvarianceOverLeftJoin(t *testing.T) {
	queries := map[string]int{ // rows expected
		"SELECT a.id, a.id + b.id FROM a LEFT OUTER JOIN b ON a.id = b.id WHERE b.id IS NULL":          2,
		"SELECT a.id, b.y FROM a LEFT OUTER JOIN b ON a.id = b.id WHERE b.id IS NULL OR b.y > 5":       4,
		"SELECT a.id, b.y FROM a LEFT OUTER JOIN b ON a.id = b.id WHERE b.y > 5":                       2,
		"SELECT a.id, b.y FROM a LEFT OUTER JOIN b ON a.id = b.id AND b.y > 5 WHERE a.y < 40":          3,
		"SELECT count(*) FROM a LEFT OUTER JOIN b ON a.id = b.id WHERE b.y IS NULL AND a.y >= 20":      1,
		"SELECT a.id FROM a LEFT OUTER JOIN b ON a.id = b.id WHERE b.id IS NULL AND a.id IN (2, 3, 4)": 2,
	}
	rows := map[string]map[Mode]string{}
	for _, mode := range []Mode{HostOnlyNonSecure, HostOnlySecure, VanillaCS, IronSafe, StorageOnlySecure} {
		c, err := NewCluster(Config{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SetAccessPolicy("read :- sessionKeyIs(k)\nwrite :- sessionKeyIs(k)"); err != nil {
			t.Fatal(err)
		}
		mustExec(t, c, "CREATE TABLE a (id INTEGER, y INTEGER)")
		mustExec(t, c, "CREATE TABLE b (id INTEGER, y INTEGER)")
		mustExec(t, c, "INSERT INTO a VALUES (1, 10), (2, 20), (3, 30), (4, 40)")
		mustExec(t, c, "INSERT INTO b VALUES (1, 3), (1, 7), (3, 9), (5, 11)")
		for sql, want := range queries {
			qr, err := c.NewSession("k").Query(sql)
			if err != nil {
				t.Fatalf("%s: %s: %v", mode, sql, err)
			}
			if sql[:12] != "SELECT count" && len(qr.Result.Rows) != want {
				t.Errorf("%s: %s returns %d rows, want %d: %v", mode, sql, len(qr.Result.Rows), want, qr.Result.Rows)
			}
			lines := make([]string, len(qr.Result.Rows))
			for i, r := range qr.Result.Rows {
				lines[i] = fmt.Sprint(r)
			}
			sort.Strings(lines)
			if rows[sql] == nil {
				rows[sql] = map[Mode]string{}
			}
			rows[sql][mode] = strings.Join(lines, "\n")
		}
	}
	for sql, byMode := range rows {
		for mode, got := range byMode {
			if want := byMode[HostOnlyNonSecure]; got != want {
				t.Errorf("%s: %s returns\n%s\nhons returns\n%s", mode, sql, got, want)
			}
		}
	}
}
