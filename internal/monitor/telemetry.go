package monitor

import (
	"sort"
	"time"

	"ironsafe/internal/simtime"
)

// ScanTelemetry is one node's scan-pipeline health report: how much work the
// batched secure read path saved. The monitor collects these so operators
// (and cmd/ironsafe-bench) can watch the freshness-verification amortization
// across the fleet without scraping per-node meters.
type ScanTelemetry struct {
	Node              string
	ScanBatches       int64
	MerkleHashes      int64
	MerkleHashesSaved int64
}

// ReportScanTelemetry records a node's current scan-pipeline counters,
// replacing any earlier report from the same node.
func (m *Monitor) ReportScanTelemetry(node string, snap simtime.Snapshot) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.scanStats == nil {
		m.scanStats = map[string]ScanTelemetry{}
	}
	m.scanStats[node] = ScanTelemetry{
		Node:              node,
		ScanBatches:       snap.ScanBatches,
		MerkleHashes:      snap.MerkleHashes,
		MerkleHashesSaved: snap.MerkleHashesSaved,
	}
}

// ScanTelemetryReport returns the latest report of every node, sorted by
// node ID.
func (m *Monitor) ScanTelemetryReport() []ScanTelemetry {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]ScanTelemetry, 0, len(m.scanStats))
	for _, t := range m.scanStats {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// TailTelemetry is one query class's tail-latency summary: exact
// nearest-rank percentiles over the class's simulated end-to-end latencies
// (the cost model's deterministic output, so the report is reproducible),
// plus its hedging activity. Queries counts every query ever reported for
// the class; the percentiles cover the most recent tailSampleCap of them
// (the retention window), so a long-running cluster's report tracks current
// tail behavior instead of averaging over its whole life.
type TailTelemetry struct {
	Class     string
	Queries   int
	P50       time.Duration
	P95       time.Duration
	P99       time.Duration
	Hedges    int
	HedgeWins int
}

// tailSampleCap bounds each query class's retained latency samples: a ring
// buffer keeps the newest tailSampleCap observations and overwrites the
// oldest, so per-class memory is fixed no matter how long the cluster
// serves. Large enough that every deterministic sweep (tens of queries) is
// covered exactly.
const tailSampleCap = 4096

// TailReport is the fleet-wide tail health report: per-class latency
// distributions plus the gray-failure event counters.
type TailReport struct {
	Classes []TailTelemetry
	// Ejections / Readmissions count latency-outlier soft-ejection events
	// from the cluster's health tracker (cumulative).
	Ejections    int
	Readmissions int
}

// tailClass accumulates one class's raw observations. latencies is a ring
// buffer capped at tailSampleCap; next is the overwrite cursor once full.
type tailClass struct {
	latencies []time.Duration
	next      int
	queries   int
	hedges    int
	hedgeWins int
}

// ReportQueryTail records one completed query's simulated latency and hedge
// activity under its query class.
func (m *Monitor) ReportQueryTail(class string, latency time.Duration, hedges, hedgeWins int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.tailStats == nil {
		m.tailStats = map[string]*tailClass{}
	}
	tc := m.tailStats[class]
	if tc == nil {
		tc = &tailClass{}
		m.tailStats[class] = tc
	}
	if len(tc.latencies) < tailSampleCap {
		tc.latencies = append(tc.latencies, latency)
	} else {
		tc.latencies[tc.next] = latency
		tc.next = (tc.next + 1) % tailSampleCap
	}
	tc.queries++
	tc.hedges += hedges
	tc.hedgeWins += hedgeWins
}

// ReportTailEvents replaces the cumulative soft-ejection counters (the
// caller reads them off the health tracker, which already accumulates).
func (m *Monitor) ReportTailEvents(ejections, readmissions int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tailEjections = ejections
	m.tailReadmissions = readmissions
}

// nearestRank is the exact nearest-rank percentile over sorted (ascending)
// samples: the smallest value with at least p% of the samples at or below
// it. No interpolation — small chaos-sweep populations stay exact and
// deterministic.
func nearestRank(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100 // ceil(p*n/100)
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// TailReportNow summarizes everything reported so far, classes sorted by
// name.
func (m *Monitor) TailReportNow() TailReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	rep := TailReport{Ejections: m.tailEjections, Readmissions: m.tailReadmissions}
	for class, tc := range m.tailStats {
		sorted := append([]time.Duration(nil), tc.latencies...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		rep.Classes = append(rep.Classes, TailTelemetry{
			Class:     class,
			Queries:   tc.queries,
			P50:       nearestRank(sorted, 50),
			P95:       nearestRank(sorted, 95),
			P99:       nearestRank(sorted, 99),
			Hedges:    tc.hedges,
			HedgeWins: tc.hedgeWins,
		})
	}
	sort.Slice(rep.Classes, func(i, j int) bool { return rep.Classes[i].Class < rep.Classes[j].Class })
	return rep
}
