package chaos

import (
	"fmt"
	"net"
	"sync"
	"time"

	"ironsafe"
	"ironsafe/internal/pager"
	"ironsafe/internal/resilience"
	"ironsafe/internal/tpch"
)

// The constants every sweep runs at. No caller ever set the per-sweep knobs
// these replace, and each sweep's pinned digest is taken at these values.
const (
	// ioTimeout bounds each channel Send/Recv so stalled peers fail fast.
	ioTimeout = 250 * time.Millisecond
	// hangTimeout is the hang watchdog's patience per operation.
	hangTimeout = 30 * time.Second
	// scaleFactor is the TPC-H volume.
	scaleFactor = 0.001
)

// harness is what every cluster-driving sweep shares: the shape of the
// cluster under test, the generated TPC-H data, and the fault-free reference
// rows of the query mix. Each sweep brings its own rules, invariants and
// digest lines.
type harness struct {
	mode  ironsafe.Mode
	nodes int
	data  *tpch.Data
	// expected holds the reference row digests, indexed like QueryMix.
	expected []string
}

// sweepData is the TPC-H data every harness loads: generated once per
// process, read-only afterwards.
var sweepData = sync.OnceValue(func() *tpch.Data { return tpch.Generate(scaleFactor) })

func newHarness(mode ironsafe.Mode, nodes int) *harness {
	return &harness{mode: mode, nodes: nodes, data: sweepData()}
}

// substrate is what a sweep interposes beneath one cluster. The zero value is
// the fault-free cluster: in-process offloads, raw media.
type substrate struct {
	// conn wraps every storage channel (query and rebuild legs both);
	// setting it switches the cluster to channel transport.
	conn func(site string, conn net.Conn) net.Conn
	// device wraps every node's raw medium.
	device func(node string, dev pager.BlockDevice) pager.BlockDevice
	// latencyClock, when set, runs the resilience layer in full
	// tail-tolerance mode on that per-node clock.
	latencyClock func(node string) time.Duration
	// policy is the access policy ("" means accessPolicy).
	policy string
}

// cluster builds a cluster over sub, loads the TPC-H data and sets the access
// policy — the state every sweep starts from.
func (h *harness) cluster(sub substrate) (*ironsafe.Cluster, error) {
	rc := resilience.Config{
		HandshakeTimeout: 500 * time.Millisecond,
		IOTimeout:        ioTimeout,
		LatencyClock:     sub.latencyClock,
		// Sleep stays nil: retries back off virtually, so a sweep's pacing
		// never depends on the wall clock.
	}
	c, err := ironsafe.NewCluster(ironsafe.Config{
		Mode:                 h.mode,
		StorageNodes:         h.nodes,
		Resilience:           &rc,
		ChannelTransport:     sub.conn != nil,
		ConnWrapper:          sub.conn,
		StorageDeviceWrapper: sub.device,
	})
	if err != nil {
		return nil, err
	}
	if err := c.LoadTPCHData(h.data); err != nil {
		return nil, err
	}
	policy := sub.policy
	if policy == "" {
		policy = accessPolicy
	}
	return c, c.SetAccessPolicy(policy)
}

// references memoizes reference runs by cluster shape and policy: the rows
// are a pure function of those and the constant data, so the sweeps of one
// process share them.
var references sync.Map

// reference runs the query mix on a fault-free cluster of the same shape and
// data: its rows define the correct answer to every query in the mix.
func (h *harness) reference(policy string) error {
	key := fmt.Sprint(h.mode, h.nodes, policy)
	if rows, ok := references.Load(key); ok {
		h.expected = rows.([]string)
		return nil
	}
	ref, err := h.cluster(substrate{policy: policy})
	if err != nil {
		return fmt.Errorf("reference cluster: %w", err)
	}
	session := ref.NewSession(clientKey)
	h.expected = make([]string, len(QueryMix))
	for i, qn := range QueryMix {
		r, err := session.Query(tpch.Queries[qn])
		if err != nil {
			return fmt.Errorf("reference q%d: %w", qn, err)
		}
		h.expected[i] = digestRows(r.Result)
	}
	references.Store(key, h.expected)
	return nil
}

// watch runs f under the hang watchdog: ok is false when f is still running
// after hangTimeout ("no operation ever hangs" is an invariant under test, so
// every sweep operation that crosses a faulted substrate goes through here).
// An f that outlives the watchdog keeps its result to itself.
func watch[T any](f func() T) (result T, ok bool) {
	ch := make(chan T, 1)
	go func() { ch <- f() }()
	select {
	case result = <-ch:
		return result, true
	case <-time.After(hangTimeout): //ironsafe:allow wallclock -- hang watchdog, the invariant under test
		return result, false
	}
}

// Tally is the invariant counters of a sweep's watchdogged queries.
type Tally struct {
	// Succeeded / Failed partition the queries that returned.
	Succeeded, Failed int
	// WrongResults counts successful queries whose rows differed from the
	// fault-free reference (must be zero).
	WrongResults int
	// Hangs counts watchdog firings (must be zero).
	Hangs int
	// Untyped counts failures that did not map to a known error class
	// (must be zero: every failure is fail-fast AND typed).
	Untyped int
}

// query submits query idx of a run — QueryMix[mix] — on session under the
// watchdog, checks its rows against the reference, and folds the outcome
// into t. The result is nil unless the query succeeded.
func (h *harness) query(session *ironsafe.Session, idx, mix int, t *Tally) (Outcome, *ironsafe.QueryResult) {
	type reply struct {
		res *ironsafe.QueryResult
		err error
	}
	out := Outcome{Query: idx, SQL: mix}
	r, ok := watch(func() reply {
		res, err := session.Query(tpch.Queries[QueryMix[mix]])
		return reply{res, err}
	})
	if !ok {
		out.Class = "hang"
		t.Hangs++
		return out, nil
	}
	out.Class = classify(r.err)
	if r.err != nil {
		t.Failed++
		if out.Class == "untyped" {
			t.Untyped++
		}
		return out, nil
	}
	out.OK = true
	out.RowDigest = digestRows(r.res.Result)
	out.Failovers = r.res.Stats.Failovers
	out.Fallback = r.res.Stats.HostFallback
	out.Hedges = r.res.Stats.Hedges
	t.Succeeded++
	if !h.rowsOK(out) {
		t.WrongResults++
	}
	return out, r.res
}

// rowsOK reports whether a successful outcome returned the reference rows.
func (h *harness) rowsOK(o Outcome) bool { return o.OK && o.RowDigest == h.expected[o.SQL] }
