package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
)

// now and since are the benchmark's only wall-clock reads: measuring the
// system's real cost from outside is what this package is for. Simulated
// metrics never pass through them.
func now() time.Time { return time.Now() } //ironsafe:allow wallclock -- the benchmark measures wall-clock cost from outside the system; simulated metrics come from meters only

func since(t time.Time) time.Duration { return time.Since(t) } //ironsafe:allow wallclock -- the benchmark measures wall-clock cost from outside the system; simulated metrics come from meters only

type metricDef struct{ name, unit string }

// endToEndMetrics and perLayerMetrics are the names BENCHMARK.json lists, in
// the same order; smoke_test.go holds the two in agreement.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_wall_ms_geomean", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"op_sim_ms_geomean", "sim_ms"},
	{"pass_sim_ms", "sim_ms"},
	{"alloc_mb_per_op", "MB"},
	{"live_heap_mb", "MB"},
	{"ok_ops_share", "ratio"},
}

var perLayerMetrics = []metricDef{
	{"client.trace_overhead_pct", "%"},
	{"client.mallocs_per_op", "count"},
	{"client.gc_cycles_per_op", "count"},
	{"client.gc_pause_ms_per_op", "ms"},
	{"client.calib_ms", "ms"},
	{"tpch.generate_ms", "ms"},
	{"tpch.load_rows_per_s", "1/s"},
	{"parser.parse_us_per_op", "us"},
	{"policy.parse_eval_us_per_op", "us"},
	{"monitor.authorize_us_per_op", "us"},
	{"monitor.verify_proof_us_per_op", "us"},
	{"monitor.end_session_us_per_op", "us"},
	{"monitor.audit_entries_per_op", "count"},
	{"monitor.attest_ms", "ms"},
	{"partition.split_us_per_op", "us"},
	{"partition.offloads_per_op", "count"},
	{"hostengine.self_ms_per_op", "ms"},
	{"hostengine.tuples_per_op", "count"},
	{"hostengine.batches_per_op", "count"},
	{"hostengine.block_fetches_per_op", "count"},
	{"transport.handshake_us_per_op", "us"},
	{"transport.ship_ms_per_op", "ms"},
	{"transport.bytes_per_op", "count"},
	{"transport.frames_per_op", "count"},
	{"storageengine.offload_ms_per_op", "ms"},
	{"storageengine.rows_shipped_per_op", "count"},
	{"exec.operators_ms_per_op", "ms"},
	{"exec.wire_codec_ms_per_op", "ms"},
	{"exec.tuples_per_op", "count"},
	{"exec.tuple_work_per_op", "count"},
	{"exec.batches_per_op", "count"},
	{"exec.rows_examined_per_row_returned", "ratio"},
	{"engine.execute_self_ms_per_op", "ms"},
	{"pager.scan_decode_ms_per_op", "ms"},
	{"pager.pages_read_per_op", "count"},
	{"pager.device_reads_per_op", "count"},
	{"pager.device_read_us_per_op", "us"},
	{"pager.device_writes_per_op", "count"},
	{"schema.decode_ns_per_row", "ns"},
	{"schema.fromrows_ns_per_value", "ns"},
	{"securestore.read_self_ms_per_op", "ms"},
	{"securestore.pages_decrypted_per_op", "count"},
	{"securestore.merkle_hashes_per_op", "count"},
	{"securestore.merkle_hashes_saved_per_op", "count"},
	{"securestore.scan_batches_per_op", "count"},
	{"securestore.commit_self_us_per_txn", "us"},
	{"securestore.pages_encrypted_per_op", "count"},
	{"securestore.rpmb_writes_per_op", "count"},
	{"securestore.rpmb_reads_per_op", "count"},
	{"securestore.write_amp", "ratio"},
	{"securestore.load_ms", "ms"},
	{"securestore.space_amp", "ratio"},
	{"ingest.records_per_batch", "ratio"},
	{"ingest.ack_wall_us_p50", "us"},
	{"ingest.ack_wall_us_p90", "us"},
	{"ingest.alone_ops_per_s", "1/s"},
	{"ingest.mixed_ops_per_s", "1/s"},
	{"ingest.reader_ops_per_s", "1/s"},
	{"ingest.overloaded_share", "ratio"},
	{"ingest.nacked_share", "ratio"},
	{"tee.enclave_transitions_per_op", "count"},
	{"tee.epc_faults_per_op", "count"},
	{"tee.world_switches_per_op", "count"},
	{"simtime.host_compute_ms_per_pass", "sim_ms"},
	{"simtime.storage_compute_ms_per_pass", "sim_ms"},
	{"simtime.pageio_ms_per_pass", "sim_ms"},
	{"simtime.decrypt_ms_per_pass", "sim_ms"},
	{"simtime.freshness_ms_per_pass", "sim_ms"},
	{"simtime.tee_ms_per_pass", "sim_ms"},
	{"simtime.transfer_ms_per_pass", "sim_ms"},
	{"simtime.model_drift", "count"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the one-line JSON result the contract asks for.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fillMetrics builds the metric map from defs, failing on a missing or non-finite
// value so a broken metric can never be reported as a number.
func fillMetrics(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(vals) != len(defs) {
		return nil, fmt.Errorf("%d metrics measured, %d defined", len(vals), len(defs))
	}
	return out, nil
}

// procSample is a reading of the process-wide clocks and counters.
type procSample struct {
	t   time.Time
	cpu time.Duration
	mem runtime.MemStats
}

func sampleProc() procSample {
	var s procSample
	runtime.ReadMemStats(&s.mem)
	s.cpu = cpuNow()
	s.t = now()
	return s
}

// cpuNow is the process's user+system CPU time so far: it includes the
// garbage collector and every helper goroutine, so a wall-clock gain bought
// with a second core shows.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB forces a collection and reads what is still reachable. The
// short pause first lets the last op's channel goroutines finish, so their
// buffers are not counted on some runs and missed on others.
func liveHeapMB() float64 {
	time.Sleep(20 * time.Millisecond) //ironsafe:allow wallclock -- lets per-query serving goroutines exit before the heap is read; outside every timed section
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// calibrate times a fixed SHA-256 loop: a machine-speed reading taken before
// and after each run so drift between two runs is visible.
func calibrate() float64 {
	buf := make([]byte, 4096)
	t := now()
	for i := 0; i < 20000; i++ {
		s := sha256.Sum256(buf)
		copy(buf, s[:])
	}
	return ms(since(t))
}
