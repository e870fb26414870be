package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"ironsafe"
	"ironsafe/internal/schema"
	"ironsafe/internal/sql/exec"
	"ironsafe/internal/tpch"
)

// opSpec is one operation of a workload's pass: the SQL the program sees and
// the client identity it is submitted under.
type opSpec struct {
	name       string
	sql        string
	client     string
	accessDate string
}

// workload is one benchmark workload. README.md records why each exists.
type workload struct {
	name    string
	mode    ironsafe.Mode
	sf      float64 // TPC-H scale factor; 0 loads no TPC-H data
	epc     int64   // host EPC limit (hos only); 0 keeps the default
	queries []int   // TPC-H query numbers, in pass order
	piiRows int     // > 0 selects the GDPR workload
	ingest  bool    // writers beside a reader over an events table
	warmup  int     // discarded warm-up passes before the measured ones
	traced  int     // passes per phase of the traced run
}

var workloads = []workload{
	{name: "scs-scan", mode: ironsafe.IronSafe, sf: 0.01, queries: []int{6, 12, 14, 19}, warmup: 1, traced: 3},
	{name: "scs-subquery", mode: ironsafe.IronSafe, sf: 0.01, queries: []int{2, 4, 13, 16, 18, 21}, warmup: 1, traced: 3},
	{name: "hos-join", mode: ironsafe.HostOnlySecure, sf: 0.01, epc: 4 << 20, queries: []int{3, 5, 7, 8, 9, 10}, warmup: 1, traced: 3},
	{name: "scs-gdpr-short", mode: ironsafe.IronSafe, piiRows: 128, warmup: 200, traced: 100},
	{name: "scs-ingest-mixed", mode: ironsafe.IronSafe, sf: 0.005, ingest: true, traced: 20},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// sizing holds what -scale changes: "full" is the benchmark, "tiny" is the
// smoke test's one-pass shape.
type sizing struct {
	tiny        bool
	sfFactor    float64
	aloneRecs   int // writer-alone records before the ingest passes
	probeRecs   int // sequential inserts priced for the simulated metrics
	passInserts int // inserts per ingest pass, half before q6 and half before events-count
	setups      int // least number of complete set-ups per run (median reported)
}

var (
	fullSize = sizing{sfFactor: 1, aloneRecs: 2000, probeRecs: 32, passInserts: 48, setups: 5}
	tinySize = sizing{tiny: true, sfFactor: 0.1, aloneRecs: 40, probeRecs: 8, passInserts: 8, setups: 1}
)

func (s sizing) sf(w *workload) float64 { return w.sf * s.sfFactor }

// tracedPasses is how many passes each phase of the traced run makes.
func (s sizing) tracedPasses(w *workload) int {
	if s.tiny {
		return 1
	}
	return w.traced
}

// hooks installs the traced run's counting wrappers through the cluster's
// public fault-injection hooks (wrappers.go); the timed run passes nil.
type hooks func(cfg *ironsafe.Config)

// dataset is a workload's generated inputs: the TPC-H tables and, in order,
// the DDL and INSERT statements for everything else.
type dataset struct {
	tpch  *tpch.Data
	stmts []string
	rows  int
	pii   int
}

func genDataset(w *workload, seed int64, sz sizing) dataset {
	d := dataset{pii: w.piiRows, rows: w.piiRows}
	if w.sf > 0 {
		d.tpch = tpch.Generate(sz.sf(w))
		d.rows += d.tpch.TotalRows()
	}
	if w.piiRows > 0 {
		d.stmts = append([]string{piiDDL}, piiInserts(genPII(seed, w.piiRows))...)
	}
	if w.ingest {
		d.stmts = append(d.stmts, eventsDDL)
	}
	return d
}

// rowBytes is the encoded size of the rows: the user payload the
// amplification metrics divide by.
func (d dataset) rowBytes() int64 {
	n := int64(d.pii) * piiRowBytes
	if d.tpch != nil {
		for _, t := range tpch.TableNames {
			for _, r := range d.tpch.Rows(t) {
				n += int64(schema.EncodedSize(r))
			}
		}
	}
	return n
}

// accessPolicy is the producer policy the workload's cluster enforces.
func accessPolicy(w *workload) string {
	switch {
	case w.piiRows > 0:
		return gdprAccessPolicy
	case w.ingest:
		return ingestPolicy
	}
	return "read :- sessionKeyIs(" + tpchClient + ")"
}

// env is one set-up system: a loaded cluster plus the ops to run on it.
type env struct {
	w       *workload
	c       *ironsafe.Cluster
	ops     []opSpec
	sess    []*ironsafe.Session
	rows    int           // rows loaded
	genDur  time.Duration // TPC-H / PII generation
	loadDur time.Duration // load through the (secure) write path + policy
}

const tpchClient = "bench"

// buildEnv performs one complete set-up of w in the given mode: generate the
// inputs from the seed, assemble and attest the cluster, load through the
// write path, install policies. The reference oracle calls it with
// HostOnlyNonSecure on the same inputs.
func buildEnv(w *workload, mode ironsafe.Mode, seed int64, sz sizing, h hooks) (*env, error) {
	e := &env{w: w}
	model := pinnedModel()
	cfg := ironsafe.Config{
		Mode:             mode,
		CostModel:        &model,
		ChannelTransport: mode == ironsafe.IronSafe,
	}
	if mode == ironsafe.HostOnlySecure {
		cfg.EPCLimitBytes = w.epc
	}
	if h != nil {
		h(&cfg)
	}

	t0 := now()
	data := genDataset(w, seed, sz)
	e.genDur = since(t0)

	c, err := ironsafe.NewCluster(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: new cluster: %w", w.name, err)
	}
	e.c = c

	t1 := now()
	if data.tpch != nil {
		if err := c.LoadTPCHData(data.tpch); err != nil {
			return nil, fmt.Errorf("%s: load: %w", w.name, err)
		}
	}
	for _, stmt := range data.stmts {
		if _, err := c.Exec(stmt); err != nil {
			return nil, fmt.Errorf("%s: load: %w", w.name, err)
		}
	}
	if w.piiRows > 0 {
		c.RegisterService("reuser", reuserBit)
	}
	if err := c.SetAccessPolicy(accessPolicy(w)); err != nil {
		return nil, err
	}
	e.loadDur = since(t1)
	e.rows = data.rows

	switch {
	case w.piiRows > 0:
		e.ops = gdprOps(seed, w.piiRows)
	case w.ingest:
		e.ops = []opSpec{
			{name: "q6", sql: tpch.Queries[6], client: "reader"},
			{name: "events-count", sql: eventsCountSQL, client: "reader"},
		}
	default:
		for _, q := range w.queries {
			e.ops = append(e.ops, opSpec{name: fmt.Sprintf("q%d", q), sql: tpch.Queries[q], client: tpchClient})
		}
		// The seed rotates the pass: the cycle of ops — and so every op's
		// predecessor state after the warm-up pass — is unchanged.
		k := newRNG(seed, "rotate").intn(len(e.ops))
		e.ops = append(e.ops[k:], e.ops[:k]...)
	}
	for _, op := range e.ops {
		s := c.NewSession(op.client)
		if op.accessDate != "" {
			s = s.WithAccessDate(op.accessDate)
		}
		if w.piiRows > 0 {
			s = s.WithExecPolicy(gdprExecPolicy)
		}
		e.sess = append(e.sess, s)
	}
	return e, nil
}

// digest is the correctness oracle's fingerprint of a result: column names
// and the binary row encoding, in result order.
func digest(res *exec.Result) string {
	h := sha256.New()
	for _, c := range res.Sch.Columns {
		h.Write([]byte(c.Name))
		h.Write([]byte{0})
	}
	var buf []byte
	for _, r := range res.Rows {
		buf = schema.EncodeRow(buf[:0], r)
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// reference runs every op once on a non-secure, non-split (hons) cluster
// built from the same inputs and returns the digests the measured system must
// reproduce. TPC-H digests are additionally pinned by the committed golden
// file; mismatches there are returned as problems.
func reference(w *workload, seed int64, sz sizing, gold *goldenSet) (map[string]string, []string, error) {
	ref, err := buildEnv(w, ironsafe.HostOnlyNonSecure, seed, sz, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("reference: %w", err)
	}
	want := map[string]string{}
	var problems []string
	for i, op := range ref.ops {
		if w.ingest && op.name == "events-count" {
			continue // checked by invariants, not by digest
		}
		qr, err := ref.sess[i].Query(op.sql)
		if err != nil {
			return nil, nil, fmt.Errorf("reference %s: %w", op.name, err)
		}
		d := digest(qr.Result)
		want[op.name] = d
		if p := gold.check(goldenKey(w, seed, sz, op.name), d); p != "" {
			problems = append(problems, p)
		}
	}
	return want, problems, nil
}
