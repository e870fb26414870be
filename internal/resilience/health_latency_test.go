package resilience

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestEWMAIntegerDeterministic(t *testing.T) {
	// The estimator is pure integer arithmetic: the same report sequence
	// must produce bit-identical EWMAs on every run.
	run := func() time.Duration {
		tr := NewTracker()
		for _, d := range []time.Duration{10, 20, 40, 30, 50} {
			tr.ReportLatency("n", d*time.Millisecond)
		}
		return tr.EWMA("n")
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("EWMA nondeterministic: %v vs %v", a, b)
	}
	// First report seeds the estimate exactly.
	tr := NewTracker()
	tr.ReportLatency("n", 8*time.Millisecond)
	if got := tr.EWMA("n"); got != 8*time.Millisecond {
		t.Fatalf("first report must seed EWMA, got %v", got)
	}
	// alpha=1/4: 8ms then 16ms -> 8 + (16-8)/4 = 10ms.
	tr.ReportLatency("n", 16*time.Millisecond)
	if got := tr.EWMA("n"); got != 10*time.Millisecond {
		t.Fatalf("EWMA after 8,16 = %v, want 10ms", got)
	}
}

func TestEjectionAndReadmission(t *testing.T) {
	tr := NewTracker()
	// Two fast cohort members, one gray node 10× slower.
	for i := 0; i < 4; i++ {
		tr.ReportLatency("fast-1", 2*time.Millisecond)
		tr.ReportLatency("fast-2", 2*time.Millisecond)
		tr.ReportLatency("slow-1", 20*time.Millisecond)
	}
	if !tr.Ejected("slow-1") {
		t.Fatalf("slow node 10× over median must be ejected (ewma=%v)", tr.EWMA("slow-1"))
	}
	if tr.Ejected("fast-1") || tr.Ejected("fast-2") {
		t.Fatal("fast cohort must not be ejected")
	}
	if got := tr.EjectedNodes(); !reflect.DeepEqual(got, []string{"slow-1"}) {
		t.Fatalf("EjectedNodes = %v", got)
	}
	// Soft ejection must not touch the fail-stop machinery.
	if open, down := tr.Snapshot(); len(open) != 0 || len(down) != 0 {
		t.Fatalf("ejection leaked into breaker state: open=%v down=%v", open, down)
	}
	if !tr.Allow("slow-1") {
		t.Fatal("ejected node must still pass Allow (deprioritized, not blocked)")
	}

	// Recovery: fast reports pull the EWMA back under readmitFactor×median.
	for i := 0; i < 12 && tr.Ejected("slow-1"); i++ {
		tr.ReportLatency("slow-1", 2*time.Millisecond)
	}
	if tr.Ejected("slow-1") {
		t.Fatalf("recovered node must be readmitted, ewma=%v", tr.EWMA("slow-1"))
	}
	ej, re := tr.TailEvents()
	if ej != 1 || re != 1 {
		t.Fatalf("TailEvents = (%d,%d), want (1,1)", ej, re)
	}
}

func TestEjectionTwoNodeCohort(t *testing.T) {
	// Regression: the candidate's own EWMA must not inflate its comparison
	// median. With an inclusive median a 2-node cohort could never eject —
	// slow > ejectFactor×(fast+slow)/2 is unsatisfiable for any factor ≥ 2 —
	// so a gray node in a 2-replica deployment would drag queries forever.
	tr := NewTracker()
	for i := 0; i < 4; i++ {
		tr.ReportLatency("fast-1", 2*time.Millisecond)
		tr.ReportLatency("slow-1", 20*time.Millisecond)
	}
	if !tr.Ejected("slow-1") {
		t.Fatalf("2-node cohort: slow node 10× over its peer must be ejected (ewma=%v)", tr.EWMA("slow-1"))
	}
	if tr.Ejected("fast-1") {
		t.Fatal("fast peer must not be ejected (its comparison median is the slow node)")
	}
	for i := 0; i < 12 && tr.Ejected("slow-1"); i++ {
		tr.ReportLatency("slow-1", 2*time.Millisecond)
	}
	if tr.Ejected("slow-1") {
		t.Fatalf("recovered node must be readmitted, ewma=%v", tr.EWMA("slow-1"))
	}
}

func TestEjectionEvenCohortMedianExcludesSelf(t *testing.T) {
	// 4-node cohort, one outlier: the inclusive even-count median would be
	// (fast+slow)/2 = 11ms, putting the 20ms outlier under 4×median and
	// hiding it. Against the median of the other three (2ms) it ejects.
	tr := NewTracker()
	for i := 0; i < 4; i++ {
		tr.ReportLatency("fast-1", 2*time.Millisecond)
		tr.ReportLatency("fast-2", 2*time.Millisecond)
		tr.ReportLatency("fast-3", 2*time.Millisecond)
		tr.ReportLatency("slow-1", 20*time.Millisecond)
	}
	if !tr.Ejected("slow-1") {
		t.Fatalf("even cohort: outlier must not drag its own comparison median (ewma=%v)", tr.EWMA("slow-1"))
	}
	if tr.Ejected("fast-1") || tr.Ejected("fast-2") || tr.Ejected("fast-3") {
		t.Fatal("fast cohort must not be ejected")
	}
}

func TestEjectionHysteresis(t *testing.T) {
	// A node hovering between readmitFactor× and ejectFactor× the median
	// keeps its current state — no flapping at the boundary.
	tr := NewTracker()
	for i := 0; i < 4; i++ {
		tr.ReportLatency("fast-1", 4*time.Millisecond)
		tr.ReportLatency("fast-2", 4*time.Millisecond)
		tr.ReportLatency("mid-1", 12*time.Millisecond) // 3× median: between 2× and 4×
	}
	if tr.Ejected("mid-1") {
		t.Fatal("3× median is under ejectFactor=4 — must not eject")
	}
}

func TestEjectionFloor(t *testing.T) {
	// An all-fast cohort has harmless multiplicative spread: 100µs vs 10µs
	// is 10× the median but under the absolute 1ms floor.
	tr := NewTracker()
	for i := 0; i < 4; i++ {
		tr.ReportLatency("a", 10*time.Microsecond)
		tr.ReportLatency("b", 10*time.Microsecond)
		tr.ReportLatency("c", 100*time.Microsecond)
	}
	if tr.Ejected("c") {
		t.Fatal("sub-floor latencies must never eject")
	}
}

func TestEjectionNeedsMinSamples(t *testing.T) {
	tr := NewTracker()
	tr.ReportLatency("fast-1", 2*time.Millisecond)
	tr.ReportLatency("fast-2", 2*time.Millisecond)
	tr.ReportLatency("slow-1", time.Second) // one outlier sample
	if tr.Ejected("slow-1") {
		t.Fatal("one sample must not eject (ejectMinSamples=3)")
	}
}

func TestPrioritizeDemotesEjectedWithProbes(t *testing.T) {
	tr := NewTracker()
	for i := 0; i < 4; i++ {
		tr.ReportLatency("a", 2*time.Millisecond)
		tr.ReportLatency("b", 2*time.Millisecond)
		tr.ReportLatency("c", 40*time.Millisecond)
	}
	if !tr.Ejected("c") {
		t.Fatal("setup: c must be ejected")
	}
	ids := []string{"c", "a", "b"}
	// Demotions 1..3 push c last (stable partition), the 4th (probeEvery=4)
	// keeps its slot as a probe.
	for i := 0; i < 3; i++ {
		got := tr.Prioritize(ids)
		if !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
			t.Fatalf("demotion %d: Prioritize = %v, want [a b c]", i+1, got)
		}
	}
	if got := tr.Prioritize(ids); !reflect.DeepEqual(got, []string{"c", "a", "b"}) {
		t.Fatalf("probe round: Prioritize = %v, want original order [c a b]", got)
	}
	// Healthy cohort passes through untouched.
	if got := tr.Prioritize([]string{"b", "a"}); !reflect.DeepEqual(got, []string{"b", "a"}) {
		t.Fatalf("healthy Prioritize reordered: %v", got)
	}
}

func TestTrackerConcurrentAllowReportAndLatency(t *testing.T) {
	// Race coverage: half-open probing, latency reports, and snapshots all
	// concurrently. Run with -race; correctness assertion is just "no panic,
	// snapshot stays sorted".
	tr := NewTracker()
	ids := []string{"n1", "n2", "n3"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := ids[(g+i)%len(ids)]
				if tr.Allow(id) {
					tr.Report(id, i%7 != 0)
				}
				tr.ReportLatency(id, time.Duration(1+i%5)*time.Millisecond)
				if i%50 == 0 {
					tr.Snapshot()
					tr.EjectedNodes()
					tr.Prioritize(ids)
				}
			}
		}(g)
	}
	wg.Wait()
	open, down := tr.Snapshot()
	if !sortedStrings(open) || !sortedStrings(down) {
		t.Fatalf("Snapshot not sorted: open=%v down=%v", open, down)
	}
}

func TestSnapshotOrderingStableAcrossRuns(t *testing.T) {
	// Determinism: identical report sequences produce identical snapshots,
	// and the ordering is sorted regardless of map iteration order.
	run := func() ([]string, []string) {
		tr := NewTracker()
		for _, id := range []string{"z-node", "a-node", "m-node"} {
			for i := 0; i < 3; i++ {
				tr.Report(id, false)
			}
		}
		tr.MarkDown("q-node")
		return tr.Snapshot()
	}
	o1, d1 := run()
	o2, d2 := run()
	if !reflect.DeepEqual(o1, o2) || !reflect.DeepEqual(d1, d2) {
		t.Fatalf("snapshot unstable: (%v,%v) vs (%v,%v)", o1, d1, o2, d2)
	}
	if !reflect.DeepEqual(o1, []string{"a-node", "m-node", "z-node"}) {
		t.Fatalf("open not sorted: %v", o1)
	}
}

func TestHalfOpenProbeUnderInterleavedAllow(t *testing.T) {
	// Deterministic probing: with probeEvery=4, an open circuit admits
	// exactly every 4th blocked attempt.
	tr := NewTracker()
	for i := 0; i < 3; i++ {
		tr.Report("n", false)
	}
	if !tr.Open("n") {
		t.Fatal("circuit must open after failureThreshold failures")
	}
	var admitted []int
	for i := 1; i <= 12; i++ {
		if tr.Allow("n") {
			admitted = append(admitted, i)
		}
	}
	if !reflect.DeepEqual(admitted, []int{4, 8, 12}) {
		t.Fatalf("probe cadence = %v, want every 4th", admitted)
	}
	// A successful probe closes the circuit and resets latency-independent
	// state; subsequent attempts all pass.
	tr.Report("n", true)
	if tr.Open("n") || !tr.Allow("n") {
		t.Fatal("successful probe must close the circuit")
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] > s[i] {
			return false
		}
	}
	return true
}
