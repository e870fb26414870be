package resilience

import (
	"sort"
	"sync"
	"time"
)

// nodeState is one node's health record.
type nodeState struct {
	consecFails int
	open        bool
	blocked     int // attempts rejected since the circuit opened
	down        bool

	// Latency estimator state (gray-failure detection). ewma is an integer
	// fixed-point exponentially weighted moving average of reported offload
	// latencies (alpha = 1/4, computed as ewma += (d-ewma)>>2 — pure
	// integer arithmetic, so identical inputs give bit-identical estimates
	// on every platform). ejected marks the node soft-ejected: alive and in
	// the membership, but persistently slower than the cohort, so it is
	// deprioritized rather than circuit-broken. demotions counts how many
	// times Prioritize pushed the node back, driving count-based probes.
	ewma      int64 // nanoseconds, fixed-point EWMA
	samples   int
	ejected   bool
	demotions int
}

// Tracker is a per-node health tracker with count-based circuit breaking.
// A node's circuit opens after FailureThreshold consecutive failures; while
// open, Allow rejects attempts except one deterministic probe every
// ProbeEvery rejections (count-based half-open, so the breaker needs no
// clock and stays reproducible under the chaos suite). A successful probe
// closes the circuit; a failed one re-opens it.
type Tracker struct {
	mu    sync.Mutex
	cfg   Config
	nodes map[string]*nodeState

	// Gray-failure event counters (telemetry: how often the latency
	// estimator soft-ejected a node and how often one recovered).
	ejections    int
	readmissions int
}

// NewTracker creates a Tracker with cfg's breaker settings.
func NewTracker(cfg Config) *Tracker {
	return &Tracker{cfg: cfg.WithDefaults(), nodes: map[string]*nodeState{}}
}

func (t *Tracker) state(id string) *nodeState {
	s, ok := t.nodes[id]
	if !ok {
		s = &nodeState{}
		t.nodes[id] = s
	}
	return s
}

// Allow reports whether an attempt against id should proceed.
func (t *Tracker) Allow(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.state(id)
	if s.down {
		return false
	}
	if !s.open {
		return true
	}
	s.blocked++
	if s.blocked >= t.cfg.ProbeEvery {
		s.blocked = 0
		return true // half-open probe
	}
	return false
}

// Report records one attempt's outcome for id.
func (t *Tracker) Report(id string, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.state(id)
	if ok {
		s.consecFails = 0
		s.open = false
		s.blocked = 0
		return
	}
	s.consecFails++
	if s.consecFails >= t.cfg.FailureThreshold {
		s.open = true
	}
}

// MarkDown administratively removes id (crash, revocation): Allow rejects
// every attempt until MarkUp.
func (t *Tracker) MarkDown(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.state(id)
	s.down = true
	s.open = true
}

// MarkUp readmits id with a clean slate (post-restart, after the node
// re-attested).
func (t *Tracker) MarkUp(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nodes[id] = &nodeState{}
}

// Down reports whether id is administratively down.
func (t *Tracker) Down(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state(id).down
}

// Open reports whether id's circuit is currently open.
func (t *Tracker) Open(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.state(id)
	return s.open || s.down
}

// Snapshot returns the ids with open circuits or down flags, sorted — a
// deterministic view for logs and tests.
func (t *Tracker) Snapshot() (open, down []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, s := range t.nodes {
		if s.down {
			down = append(down, id)
		} else if s.open {
			open = append(open, id)
		}
	}
	sort.Strings(open)
	sort.Strings(down)
	return open, down
}

// ReportLatency feeds one offload latency into id's EWMA estimator and
// re-evaluates soft-ejection for the whole cohort. Latencies come from the
// caller's clock (Config.LatencyClock: the fault plan's virtual clock in the
// gray sweep), so the estimator itself never reads time.
func (t *Tracker) ReportLatency(id string, d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.state(id)
	if s.samples == 0 {
		s.ewma = int64(d)
	} else {
		s.ewma += (int64(d) - s.ewma) >> 2
	}
	s.samples++
	t.evaluateEjectionLocked()
}

// EWMA reports id's current latency estimate (0 until the first report).
func (t *Tracker) EWMA(id string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return time.Duration(t.state(id).ewma)
}

// evaluateEjectionLocked re-runs the cohort outlier rule: a node with enough
// samples whose EWMA exceeds EjectFactor× the median of the REST of the
// cohort (and the absolute EjectFloor) is soft-ejected; an ejected node
// whose EWMA falls back under ReadmitFactor× that median (hysteresis) is
// readmitted. Each candidate is excluded from its own comparison median —
// including it would let a slow node inflate the very benchmark it is judged
// against (in a 2-node cohort the inclusive median (fast+slow)/2 makes
// ewma > EjectFactor×median unsatisfiable for any factor ≥ 2, so gray
// failures would never eject; even larger even-sized cohorts get their
// median dragged toward the outlier). Down nodes are outside the cohort —
// fail-stop handling owns them.
func (t *Tracker) evaluateEjectionLocked() {
	var cohort []int64
	for _, s := range t.nodes {
		if s.down || s.samples == 0 {
			continue
		}
		cohort = append(cohort, s.ewma)
	}
	if len(cohort) < 2 {
		return // nothing to compare against
	}
	sort.Slice(cohort, func(i, j int) bool { return cohort[i] < cohort[j] })
	floor := int64(t.cfg.EjectFloor)
	for _, s := range t.nodes {
		if s.down || s.samples == 0 {
			continue
		}
		median := medianExcluding(cohort, s.ewma)
		if !s.ejected {
			if s.samples >= t.cfg.EjectMinSamples &&
				s.ewma > floor &&
				s.ewma > median*int64(t.cfg.EjectFactor) {
				s.ejected = true
				s.demotions = 0
				t.ejections++
			}
		} else {
			if s.ewma <= floor || s.ewma <= median*int64(t.cfg.ReadmitFactor) {
				s.ejected = false
				t.readmissions++
			}
		}
	}
}

// medianExcluding computes the median of sorted (ascending) with one
// occurrence of v — the candidate's own EWMA, guaranteed present — removed.
func medianExcluding(sorted []int64, v int64) int64 {
	i := sort.Search(len(sorted), func(j int) bool { return sorted[j] >= v })
	at := func(k int) int64 {
		if k >= i {
			k++
		}
		return sorted[k]
	}
	n := len(sorted) - 1
	if n%2 == 1 {
		return at(n / 2)
	}
	return (at(n/2-1) + at(n/2)) / 2
}

// Ejected reports whether id is currently soft-ejected by the latency
// estimator.
func (t *Tracker) Ejected(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state(id).ejected
}

// EjectedNodes returns the currently soft-ejected ids, sorted.
func (t *Tracker) EjectedNodes() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []string
	for id, s := range t.nodes {
		if s.ejected && !s.down {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// TailEvents reports the cumulative soft-ejection and readmission counts.
func (t *Tracker) TailEvents() (ejections, readmissions int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ejections, t.readmissions
}

// Prioritize stably partitions ids so soft-ejected nodes come last — the
// failover and hedge orderings consult it so traffic prefers the healthy
// cohort. Every ProbeEvery-th demotion of a node instead leaves it in place
// as a count-based probe: the ejected node keeps receiving a trickle of
// offloads, so its EWMA can recover and trigger readmission. Down/open
// breaker state is untouched — this orders candidates, Allow gates them.
func (t *Tracker) Prioritize(ids []string) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(ids))
	var demoted []string
	for _, id := range ids {
		s := t.state(id)
		if !s.ejected || s.down {
			out = append(out, id)
			continue
		}
		s.demotions++
		if t.cfg.ProbeEvery > 0 && s.demotions%t.cfg.ProbeEvery == 0 {
			out = append(out, id) // probe: keep its slot this round
			continue
		}
		demoted = append(demoted, id)
	}
	return append(out, demoted...)
}
