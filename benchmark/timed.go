package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"ironsafe"
	"ironsafe/internal/ingest"
	"ironsafe/internal/simtime"
	"ironsafe/internal/sql/exec"
)

type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	size    sizing
	outDir  string
}

// runner carries one run's oracle state: the reference digests and the
// attempted/failed tally the contract reports.
type runner struct {
	cfg       runConfig
	gold      *goldenSet
	want      map[string]string
	attempted int
	failed    int
	problems  []string
	// setups are the seconds each complete set-up of the timed run took: the
	// group before the passes and the ones spread between them.
	setups []float64
}

func (r *runner) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted op and fails it on an error or on rows whose
// digest differs from the reference.
func (r *runner) check(op string, res *exec.Result, err error) {
	r.attempted++
	switch {
	case err != nil:
		r.failed++
		r.problem("%s: %v", op, err)
	case r.want[op] != "" && digest(res) != r.want[op]:
		r.failed++
		r.problem("%s: rows differ from the hons reference", op)
	}
}

// checkQuery is check for a Session.Query outcome.
func (r *runner) checkQuery(op string, qr *ironsafe.QueryResult, err error) {
	var res *exec.Result
	if qr != nil {
		res = qr.Result
	}
	r.check(op, res, err)
}

// discardAttempts ends a warm-up phase: its ops are not measured ops, but any
// failure among them stays on the tally.
func (r *runner) discardAttempts() { r.attempted = r.failed }

// prepare builds the reference oracle for the run's inputs.
func (r *runner) prepare() error {
	want, problems, err := reference(r.cfg.w, r.cfg.seed, r.cfg.size, r.gold)
	if err != nil {
		return err
	}
	r.want = want
	for _, p := range problems {
		r.failed++
		r.attempted++
		r.problem("%s", p)
	}
	return nil
}

// oneSetUp performs one complete set-up and files the seconds it took.
func (r *runner) oneSetUp() (*env, error) {
	t := now()
	e, err := buildEnv(r.cfg.w, r.cfg.w.mode, r.cfg.seed, r.cfg.size, nil)
	if err != nil {
		return nil, err
	}
	r.setups = append(r.setups, since(t).Seconds())
	return e, nil
}

// setUp performs the run's first group of complete set-ups and returns the
// last system: at least size.setups of them, and as many more (up to
// maxSetups) as fit into setupBudget. measurePasses spreads further set-ups
// over the measured window.
func (r *runner) setUp() (*env, error) {
	const (
		maxSetups   = 100
		setupBudget = 1500 * time.Millisecond
	)
	var e *env
	start := now()
	for len(r.setups) < r.cfg.size.setups || (!r.cfg.size.tiny && len(r.setups) < maxSetups && since(start) < setupBudget) {
		var err error
		if e, err = r.oneSetUp(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// kindRecord is what the results file stores per op kind: both clocks and
// the raw work counters the simulated time was priced from.
type kindRecord struct {
	Name         string           `json:"name"`
	Samples      int              `json:"samples"`
	WallMsFast   float64          `json:"wall_ms_fastest"`
	WallMsMedian float64          `json:"wall_ms_median"`
	WallMs       []float64        `json:"wall_ms,omitempty"`
	SimMs        float64          `json:"sim_ms"`
	Host         simtime.Snapshot `json:"host_counters"`
	Storage      simtime.Snapshot `json:"storage_counters"`
}

type resultFile struct {
	Workload     string                 `json:"workload"`
	Seed         int64                  `json:"seed"`
	Seconds      float64                `json:"seconds"`
	Traced       bool                   `json:"traced"`
	ModelVersion string                 `json:"model_version"`
	GoVersion    string                 `json:"go_version"`
	NumCPU       int                    `json:"num_cpu"`
	Procs        int                    `json:"gomaxprocs"`
	Passes       int                    `json:"passes"`
	Ops          int                    `json:"ops"`
	MeasuredS    float64                `json:"measured_s"`
	SetupS       []float64              `json:"setup_s_samples,omitempty"`
	PassWallMs   []float64              `json:"pass_wall_ms,omitempty"`
	CalibMs      [2]float64             `json:"calib_ms_before_after"`
	Note         string                 `json:"note"`
	Metrics      map[string]metricValue `json:"metrics"`
	Kinds        []kindRecord           `json:"kinds,omitempty"`
	Extra        map[string]float64     `json:"extra,omitempty"`
	LayerShares  map[string]float64     `json:"layer_self_time_share_pct,omitempty"`
	Problems     []string               `json:"problems,omitempty"`
}

const simNote = "wall metrics are this sandbox's (in-memory medium, shared cores), not a device's; " +
	"sim_ms metrics are work counters priced by the pinned cost model, which is unvalidated against real SGX/TrustZone hardware"

func (r *runner) newResultFile(traced bool) *resultFile {
	return &resultFile{
		Workload: r.cfg.w.name, Seed: r.cfg.seed, Seconds: r.cfg.seconds, Traced: traced,
		ModelVersion: modelVersion(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), Procs: runtime.GOMAXPROCS(0), Note: simNote,
	}
}

func (rf *resultFile) write(dir, suffix string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, rf.Workload+suffix), append(blob, '\n'), 0o644)
}

// timed is the tracing-off run that produces the end-to-end metrics.
func (r *runner) timed() (map[string]float64, *resultFile, error) {
	rf := r.newResultFile(false)
	rf.CalibMs[0] = calibrate()
	// The reference first: it is a complete set-up in another mode, so the
	// timed set-ups that follow all run in a warm process.
	if err := r.prepare(); err != nil {
		return nil, nil, err
	}
	e, err := r.setUp()
	if err != nil {
		return nil, nil, err
	}
	var vals map[string]float64
	if r.cfg.w.ingest {
		vals, err = r.timedIngest(e, rf)
	} else {
		vals, err = r.timedQueries(e, rf)
	}
	if err != nil {
		return nil, nil, err
	}
	vals["setup_s"] = fastest(r.setups)
	rf.SetupS = r.setups
	vals["ok_ops_share"] = 1 - div(float64(r.failed), float64(r.attempted))
	rf.CalibMs[1] = calibrate()
	rf.Problems = r.problems
	return vals, rf, nil
}

// passStats is what a run of closed-loop passes measured: every op's wall
// time by kind, and every pass's wall and CPU time.
type passStats struct {
	wall              [][]float64 // ms, per op kind
	passWall, passCPU []float64   // ms, per pass
	measured          time.Duration
	setupAlloc        uint64 // bytes the set-ups between the passes allocated
}

// setupShare is the share of the measured window spent on the set-ups spread
// between the passes.
const setupShare = 0.03

// measurePasses runs whole passes, one client, closed loop, until the run's
// seconds have elapsed (one pass at tiny scale). pass performs the pass's ops
// in order and hands each op's kind and wall time to record. Between passes it
// performs further complete set-ups (on systems it discards), as many as keep
// their total under setupShare of the window so far: a 3 ms set-up is sampled
// every tenth of a second, a 0.3 s one twice, and setup_s sees the whole
// window's weather rather than the half second before it.
func (r *runner) measurePasses(kinds int, pass func(record func(kind int, d time.Duration))) (*passStats, error) {
	ps := &passStats{wall: make([][]float64, kinds)}
	record := func(kind int, d time.Duration) { ps.wall[kind] = append(ps.wall[kind], ms(d)) }
	budget := time.Duration(r.cfg.seconds * float64(time.Second))
	var settingUp time.Duration
	start := now()
	for len(ps.passWall) == 0 || (!r.cfg.size.tiny && since(start) < budget) {
		t0, c0 := now(), cpuNow()
		pass(record)
		ps.passWall = append(ps.passWall, ms(since(t0)))
		ps.passCPU = append(ps.passCPU, ms(cpuNow()-c0))
		if !r.cfg.size.tiny && float64(settingUp) < setupShare*float64(since(start)) {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t := now()
			if _, err := r.oneSetUp(); err != nil {
				return nil, err
			}
			settingUp += since(t)
			runtime.ReadMemStats(&m1)
			ps.setupAlloc += m1.TotalAlloc - m0.TotalAlloc
		}
	}
	ps.measured = since(start)
	return ps, nil
}

// report turns the passes into the wall-clock metrics and files the raw
// samples. Every timed metric is read at the fastest percentile of its samples
// (see fastest), not the median: on a shared sandbox interference comes in
// bursts that only ever add time, the share of ops a burst touches changes
// from minute to minute, and the fastest samples are what the program costs
// when nothing else is in the way. The medians and the p90 are filed beside
// them.
func (ps *passStats) report(rf *resultFile, kinds []kindRecord) map[string]float64 {
	var fast, med, all []float64
	opsPerPass := 0
	for i := range kinds {
		k := &kinds[i]
		k.Samples, k.WallMs = len(ps.wall[i]), ps.wall[i]
		k.WallMsFast, k.WallMsMedian = fastest(ps.wall[i]), median(ps.wall[i])
		fast, med = append(fast, k.WallMsFast), append(med, k.WallMsMedian)
		all = append(all, ps.wall[i]...)
		opsPerPass += len(ps.wall[i]) / len(ps.passWall)
	}
	n := float64(opsPerPass)
	rf.Kinds, rf.PassWallMs = kinds, ps.passWall
	rf.Passes, rf.Ops, rf.MeasuredS = len(ps.passWall), len(all), ps.measured.Seconds()
	rf.Extra = map[string]float64{
		"ops_per_pass":                  n,
		"ops_per_s_at_median_pass":      n / (median(ps.passWall) / 1e3),
		"op_wall_ms_geomean_of_medians": geomean(med),
		"op_wall_ms_p90":                percentile(all, 90),
		"cpu_ms_per_op_at_median_pass":  median(ps.passCPU) / n,
	}
	return map[string]float64{
		"ops_per_s":          n / (fastest(ps.passWall) / 1e3),
		"op_wall_ms_geomean": geomean(fast),
		"cpu_ms_per_op":      fastest(ps.passCPU) / n,
	}
}

// timedQueries runs the op list in closed-loop, single-client passes after
// the discarded warm-up passes.
func (r *runner) timedQueries(e *env, rf *resultFile) (map[string]float64, error) {
	n := len(e.ops)
	sim := make([][]float64, n)
	last := make([]*ironsafe.QueryResult, n)
	var passSim []float64
	pass := func(record func(int, time.Duration)) {
		var total float64
		for i, op := range e.ops {
			t := now()
			qr, err := e.sess[i].Query(op.sql)
			record(i, since(t))
			r.checkQuery(op.name, qr, err)
			if qr != nil {
				s := ms(qr.Stats.Cost.Total())
				sim[i] = append(sim[i], s)
				total += s
				last[i] = qr
			}
		}
		passSim = append(passSim, total)
	}
	warmup := e.w.warmup
	if r.cfg.size.tiny {
		warmup = 1
	}
	for p := 0; p < warmup; p++ {
		pass(func(int, time.Duration) {})
	}
	r.discardAttempts()
	for i := range sim {
		sim[i] = nil
	}
	passSim = nil
	liveHeap := liveHeapMB()

	start := sampleProc()
	ps, err := r.measurePasses(n, pass)
	if err != nil {
		return nil, err
	}
	end := sampleProc()

	var simMed []float64
	kinds := make([]kindRecord, n)
	for i, op := range e.ops {
		simMed = append(simMed, median(sim[i]))
		kinds[i] = kindRecord{Name: op.name, SimMs: median(sim[i])}
		if last[i] != nil {
			kinds[i].Host, kinds[i].Storage = last[i].Stats.Host, last[i].Stats.Storage
		}
	}
	vals := ps.report(rf, kinds)
	vals["op_sim_ms_geomean"] = geomean(simMed)
	vals["pass_sim_ms"] = median(passSim)
	vals["alloc_mb_per_op"] = float64(end.mem.TotalAlloc-start.mem.TotalAlloc-ps.setupAlloc) / 1e6 / float64(rf.Ops)
	vals["live_heap_mb"] = liveHeap
	return vals, nil
}

// ingestRun is the shared state of the ingest workload's clients.
type ingestRun struct {
	pipe      *ingest.Pipeline
	submitted atomic.Int64 // records handed to Submit (incremented before the call)
	acked     atomic.Int64 // records acked (incremented after the call)
	amount    atomic.Int64 // sum of acked amounts
}

// submit streams one record and keeps the oracle's tallies.
func (ir *ingestRun) submit(r *rng, w, seq int) (time.Duration, error) {
	sql, amount := eventInsert(r, w, seq)
	ir.submitted.Add(1)
	t := now()
	_, err := ir.pipe.Submit(ingest.Record{Client: "writer", SQL: sql})
	d := since(t)
	if err == nil {
		ir.amount.Add(int64(amount))
		ir.acked.Add(1)
	}
	return d, err
}

// eventsState reads the events table through the reader session and checks
// the count against the bounds the caller observed around the query. With one
// client the bounds coincide: the count must equal the records acked.
func (r *runner) eventsState(e *env, ir *ingestRun, prev int64) (count int64, d time.Duration, qr *ironsafe.QueryResult) {
	ackedBefore := ir.acked.Load()
	t := now()
	qr, err := e.sess[1].Query(eventsCountSQL)
	d = since(t)
	r.attempted++
	if err != nil {
		r.failed++
		r.problem("events-count: %v", err)
		return prev, d, nil
	}
	count = qr.Result.Rows[0][0].AsInt()
	if count < prev || count < ackedBefore || count > ir.submitted.Load() {
		r.failed++
		r.problem("events-count: %d outside [max(prev %d, acked %d), submitted %d]", count, prev, ackedBefore, ir.submitted.Load())
	}
	return count, d, qr
}

// Op kinds of the ingest workload, in the order the result file lists them.
const (
	kindQ6 = iota
	kindCount
	kindInsert
)

// timedIngest is the scs-ingest-mixed run: a writer-alone phase, a probe that
// prices each op kind from its own meter delta, and closed-loop passes of one
// client that writes and reads the same store in turn.
func (r *runner) timedIngest(e *env, rf *resultFile) (map[string]float64, error) {
	pipe, err := e.c.IngestPipeline(ingest.Config{BatchMax: 32, QueueMax: 4096})
	if err != nil {
		return nil, err
	}
	defer pipe.Close()
	ir := &ingestRun{pipe: pipe}
	sz := r.cfg.size
	insert := func(rg *rng, w, seq int) time.Duration {
		r.attempted++
		d, err := ir.submit(rg, w, seq)
		if err != nil {
			r.failed++
			r.problem("insert: %v", err)
		}
		return d
	}

	// Writer alone: the write path with no reads between the commits.
	rg := newRNG(r.cfg.seed, "alone")
	aloneStart := now()
	for seq := 0; seq < sz.aloneRecs; seq++ {
		insert(rg, 99, seq)
	}
	aloneS := since(aloneStart).Seconds()

	// Probe: one op kind at a time, so the shared meters' delta belongs to
	// exactly one kind and the simulated metrics are exact.
	var probeAlloc []float64 // MB allocated per op, by kind
	price := func(ops int, fn func() int) (float64, simtime.Snapshot, simtime.Snapshot) {
		h0, s0 := e.c.HostMeter.Snapshot(), e.c.StorageMeter.Snapshot()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		offloads := fn()
		runtime.ReadMemStats(&m1)
		probeAlloc = append(probeAlloc, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/float64(ops))
		h, s := e.c.HostMeter.Snapshot().Sub(h0), e.c.StorageMeter.Snapshot().Sub(s0)
		return ms(e.c.PriceQuery(h, s, offloads).Total()) / float64(ops), h, s
	}
	kinds := make([]kindRecord, 3)
	q6Sim, h, s := price(1, func() int {
		qr, err := e.sess[0].Query(e.ops[0].sql)
		r.checkQuery("q6", qr, err)
		if err != nil {
			return 0
		}
		return qr.Stats.Offloads
	})
	kinds[kindQ6] = kindRecord{Name: "q6", SimMs: q6Sim, Host: h, Storage: s}
	var prev int64
	countSim, h, s := price(1, func() int {
		c, _, qr := r.eventsState(e, ir, 0)
		prev = c
		if qr == nil {
			return 0
		}
		return qr.Stats.Offloads
	})
	kinds[kindCount] = kindRecord{Name: "events-count", SimMs: countSim, Host: h, Storage: s}
	insSim, h, s := price(sz.probeRecs, func() int {
		for seq := 0; seq < sz.probeRecs; seq++ {
			insert(rg, 98, seq)
		}
		return 0
	})
	kinds[kindInsert] = kindRecord{Name: "insert-ack", SimMs: insSim, Host: h, Storage: s}

	// A pass: inserts, q6, inserts, events-count. Every count must see exactly
	// the records acked so far.
	rg = newRNG(r.cfg.seed, "writer")
	seq := 0
	pass := func(record func(int, time.Duration)) {
		for half := 0; half < 2; half++ {
			for i := 0; i < sz.passInserts/2; i++ {
				record(kindInsert, insert(rg, 0, seq))
				seq++
			}
			if half == 0 {
				t := now()
				qr, err := e.sess[0].Query(e.ops[0].sql)
				record(kindQ6, since(t))
				r.checkQuery("q6", qr, err)
				continue
			}
			c, d, _ := r.eventsState(e, ir, prev)
			record(kindCount, d)
			prev = c
		}
	}
	pass(func(int, time.Duration) {}) // warm-up
	r.discardAttempts()
	liveHeap := liveHeapMB()

	ps, err := r.measurePasses(len(kinds), pass)
	if err != nil {
		return nil, err
	}

	// Final state: every acked record, and nothing else, is in the table.
	final, _, qr := r.eventsState(e, ir, prev)
	if qr != nil {
		if final != ir.acked.Load() {
			r.failed++
			r.problem("events-count: final %d != acked %d", final, ir.acked.Load())
		}
		if got := qr.Result.Rows[0][1].AsFloat(); got != float64(ir.amount.Load()) {
			r.failed++
			r.problem("events sum: %v != acked amounts %d", got, ir.amount.Load())
		}
	}
	st := pipe.Stats()
	if st.Nacked > 0 || st.Overloaded > 0 {
		r.problem("pipeline nacked %d, refused %d", st.Nacked, st.Overloaded)
	}

	vals := ps.report(rf, kinds)
	rf.Extra["alone_ops_per_s"] = float64(sz.aloneRecs) / aloneS
	rf.Extra["records_per_batch"] = div(float64(st.Acked), float64(st.Batches))
	vals["op_sim_ms_geomean"] = geomean([]float64{insSim, q6Sim, countSim})
	vals["pass_sim_ms"] = insSim + q6Sim + countSim
	vals["alloc_mb_per_op"] = sum(probeAlloc) / float64(len(probeAlloc))
	vals["live_heap_mb"] = liveHeap
	return vals, nil
}
