package monitor

import (
	"testing"
	"time"

	"ironsafe/internal/simtime"
)

func TestScanTelemetryReport(t *testing.T) {
	m, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.ScanTelemetryReport(); len(got) != 0 {
		t.Fatalf("fresh monitor has %d reports", len(got))
	}

	var meter simtime.Meter
	meter.ScanBatches.Add(7)
	meter.MerkleHashes.Add(100)
	meter.MerkleHashesSaved.Add(42)
	m.ReportScanTelemetry("storage-02", meter.Snapshot())
	m.ReportScanTelemetry("storage-01", simtime.Snapshot{})

	got := m.ScanTelemetryReport()
	if len(got) != 2 {
		t.Fatalf("reports = %d, want 2", len(got))
	}
	if got[0].Node != "storage-01" || got[1].Node != "storage-02" {
		t.Fatalf("reports not sorted by node: %v, %v", got[0].Node, got[1].Node)
	}
	r := got[1]
	if r.ScanBatches != 7 || r.MerkleHashes != 100 || r.MerkleHashesSaved != 42 {
		t.Fatalf("telemetry mismatch: %+v", r)
	}

	// A later report from the same node replaces the earlier one.
	meter.MerkleHashesSaved.Add(8)
	m.ReportScanTelemetry("storage-02", meter.Snapshot())
	got = m.ScanTelemetryReport()
	if got[1].MerkleHashesSaved != 50 {
		t.Fatalf("replacement report lost: %+v", got[1])
	}
}

func TestNearestRankExactness(t *testing.T) {
	// Nearest-rank over 1..100 is the identity: pN = N.
	pop := make([]time.Duration, 100)
	for i := range pop {
		pop[i] = time.Duration(i+1) * time.Millisecond
	}
	for _, p := range []int{50, 95, 99} {
		if got := nearestRank(pop, p); got != time.Duration(p)*time.Millisecond {
			t.Errorf("p%d over 1..100 = %v, want %dms", p, got, p)
		}
	}
	// Small populations: ceil(p*n/100) picks an actual sample, no interpolation.
	small := []time.Duration{10, 20, 30}
	if got := nearestRank(small, 50); got != 20 {
		t.Errorf("p50 over 3 samples = %v, want 20", got)
	}
	if got := nearestRank(small, 99); got != 30 {
		t.Errorf("p99 over 3 samples = %v, want 30", got)
	}
	if got := nearestRank([]time.Duration{7}, 99); got != 7 {
		t.Errorf("p99 over 1 sample = %v, want 7", got)
	}
	if got := nearestRank(nil, 50); got != 0 {
		t.Errorf("empty population = %v, want 0", got)
	}
}

func TestTailReportAggregation(t *testing.T) {
	m, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep := m.TailReportNow(); len(rep.Classes) != 0 || rep.Ejections != 0 {
		t.Fatalf("fresh monitor tail report not empty: %+v", rep)
	}

	// Out-of-order latencies within a class, two classes reported interleaved.
	m.ReportQueryTail("scan", 30*time.Millisecond, 0, 0)
	m.ReportQueryTail("join-agg", 5*time.Millisecond, 1, 1)
	m.ReportQueryTail("scan", 10*time.Millisecond, 1, 0)
	m.ReportQueryTail("scan", 20*time.Millisecond, 2, 1)
	m.ReportTailEvents(3, 2)

	rep := m.TailReportNow()
	if len(rep.Classes) != 2 {
		t.Fatalf("classes = %d, want 2", len(rep.Classes))
	}
	if rep.Classes[0].Class != "join-agg" || rep.Classes[1].Class != "scan" {
		t.Fatalf("classes not sorted by name: %v, %v", rep.Classes[0].Class, rep.Classes[1].Class)
	}
	scan := rep.Classes[1]
	if scan.Queries != 3 || scan.P50 != 20*time.Millisecond || scan.P99 != 30*time.Millisecond {
		t.Fatalf("scan class tail mismatch: %+v", scan)
	}
	if scan.Hedges != 3 || scan.HedgeWins != 1 {
		t.Fatalf("scan hedge totals = %d/%d, want 3/1", scan.Hedges, scan.HedgeWins)
	}
	if rep.Ejections != 3 || rep.Readmissions != 2 {
		t.Fatalf("tail events = %d/%d, want 3/2", rep.Ejections, rep.Readmissions)
	}

	// ReportTailEvents replaces (callers pass cumulative tracker counters).
	m.ReportTailEvents(4, 4)
	if rep := m.TailReportNow(); rep.Ejections != 4 || rep.Readmissions != 4 {
		t.Fatalf("tail events not replaced: %+v", rep)
	}
}

func TestTailSamplesBoundedByRingBuffer(t *testing.T) {
	// A long-running cluster reports every query: retention must stay fixed
	// at tailSampleCap, with percentiles covering the newest window and the
	// cumulative query count intact.
	m, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	total := tailSampleCap + 500
	for i := 0; i < total; i++ {
		// First 500 reports are slow (1s), the rest fast (1ms): once the
		// ring wraps, the slow prefix has been overwritten.
		d := time.Millisecond
		if i < 500 {
			d = time.Second
		}
		m.ReportQueryTail("scan", d, 0, 0)
	}
	tc := m.tailStats["scan"]
	if len(tc.latencies) != tailSampleCap {
		t.Fatalf("retained samples = %d, want cap %d", len(tc.latencies), tailSampleCap)
	}
	rep := m.TailReportNow()
	scan := rep.Classes[0]
	if scan.Queries != total {
		t.Errorf("Queries = %d, want cumulative %d", scan.Queries, total)
	}
	if scan.P99 != time.Millisecond {
		t.Errorf("p99 = %v, want 1ms — the overwritten slow prefix leaked into the window", scan.P99)
	}
}
