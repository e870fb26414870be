// Package ingest implements IronSafe's durable streaming-ingest pipeline:
// clients stream INSERT/UPDATE/DELETE records in, the pipeline coalesces
// concurrent records into shared engine batches (one store commit — one
// journal record, one RPMB anchor advance — per batch), and acks each record
// only after the group commit that contains it is durable on the authority
// node.
//
// The acked-write contract: an acked record survives any crash (the ack names
// the commit seq that anchors it); an unacked record is atomically
// all-or-nothing — recovery either holds the whole record or none of it,
// never a torn prefix. Backpressure is explicit: a full submission queue
// refuses with ctl.OverloadedError (retry-after) instead of queueing
// unboundedly, and an exhausted deadline budget refuses before any work.
package ingest

import (
	"errors"
	"fmt"
	"time"

	"sync"

	"ironsafe/internal/ctl"
	"ironsafe/internal/monitor"
	"ironsafe/internal/resilience"
	"ironsafe/internal/securestore"
	"ironsafe/internal/sql/ast"
	"ironsafe/internal/sql/exec"
	"ironsafe/internal/sql/parser"
)

var (
	// ErrNotDML rejects stream records that are not INSERT/UPDATE/DELETE.
	ErrNotDML = errors.New("ingest: only INSERT, UPDATE, and DELETE are accepted")
	// ErrClosed reports submission to (or interruption by) a closed pipeline.
	ErrClosed = errors.New("ingest: pipeline closed")
	// ErrDiverged is pipeline-fatal: a replica's state contradicts the
	// authority's batch log, so replication can no longer be trusted.
	ErrDiverged = errors.New("ingest: replica diverged from the authority")
)

// Node is one storage node the pipeline replicates batches onto. Nodes[0] is
// the authority: it decides batch semantics and its commit seq anchors acks.
type Node interface {
	Name() string
	// Apply executes the batch atomically (one store commit). A semantic
	// error means the batch is rejected with the store untouched; an error
	// matching securestore.ErrStoreFailed means the NODE failed mid-batch and
	// must be restarted.
	Apply(stmts []ast.Statement) ([]*exec.Result, error)
	// Seq is the node's durable commit sequence (0 on non-secure stores).
	Seq() uint64
}

// Authorizer is the policy gate every record passes before it may enqueue
// (satisfied by *monitor.Monitor). Nil disables policy checks (admin ingest).
type Authorizer interface {
	Authorize(req monitor.AuthRequest) (*monitor.Authorization, error)
	EndSession(id string)
}

// Config assembles a Pipeline.
type Config struct {
	// Nodes receive every batch in order; Nodes[0] is the authority.
	Nodes []Node
	// Authorizer, Database, HostID, Epoch parameterize the per-record policy
	// check. Nil Authorizer skips it.
	Authorizer Authorizer
	Database   string
	HostID     string
	Epoch      func() uint64
	// BatchMax caps how many records one group commit coalesces (default 16).
	BatchMax int
	// QueueMax bounds the submission queue; a full queue refuses with
	// ctl.OverloadedError instead of growing (default 64).
	QueueMax int
	// RetryAfter is the backoff hint refused submissions carry (default 25ms).
	RetryAfter time.Duration
	// Budget, when set, is charged one attempt per submission; an exhausted
	// budget refuses before any parsing or policy work.
	Budget *resilience.Budget
	// OnNodeDown fires once per node failure; the pipeline then blocks the
	// affected batch until NodeRecovered(name) is called.
	OnNodeDown func(name string, cause error)
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// Record is one client write in the stream.
type Record struct {
	// Client is the submitting client's key (policy identity).
	Client string
	// SQL is the DML statement.
	SQL string
	// Date is the access date (YYYY-MM-DD) for timely-deletion checks; empty
	// skips them.
	Date string
}

// Ack is the durable receipt for one record.
type Ack struct {
	// Seq is the authority's commit seq after the group commit containing
	// this record: the record is anchored at-or-before Seq forever.
	Seq uint64
	// Batch is the 1-based batch number within this pipeline.
	Batch uint64
	// Affected is the statement's affected-row count; -1 when the batch
	// committed durably but the node crashed before reporting counts
	// (in-doubt recovery on a replica-less deployment).
	Affected int
}

// Stats counts pipeline activity.
type Stats struct {
	// Submitted/Acked/Nacked are records admitted past the queue and their
	// outcomes; Overloaded counts refused submissions.
	Submitted, Acked, Nacked, Overloaded uint64
	// Batches is group commits on the authority; Coalesced counts records
	// that shared their batch with at least one other record.
	Batches, Coalesced uint64
}

// outcome is what a waiting submitter receives: an ack or a rejection.
type outcome struct {
	ack Ack
	err error
}

// pending is one queued record awaiting its group commit.
type pending struct {
	stmt ast.Statement
	ch   chan outcome
}

// deliver acks the record. Must only be called after the batch containing it
// committed durably on the authority (the earlyack analyzer enforces this).
func (pd *pending) deliver(a Ack) { pd.ch <- outcome{ack: a} }

// fail nacks the record.
func (pd *pending) fail(err error) { pd.ch <- outcome{err: err} }

// Pipeline is the durable ingest coalescer. Submissions are safe from any
// number of goroutines; one submitter at a time acts as the group-commit
// leader and drains the queue in BatchMax-sized batches.
type Pipeline struct {
	cfg Config

	mu      sync.Mutex
	cond    *sync.Cond // node-recovery and shutdown wakeups
	queue   []*pending
	leading bool
	closed  bool
	fatal   error
	down    map[int]bool

	// batches is the applied-batch log; base is each node's commit seq at
	// pipeline start, so node i holds batches [0, Seq()-base[i]).
	batches [][]ast.Statement
	base    []uint64

	stats Stats
}

// New validates the config and builds a pipeline over the given nodes.
func New(cfg Config) (*Pipeline, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("ingest: pipeline needs at least one node")
	}
	if cfg.BatchMax <= 0 {
		cfg.BatchMax = 16
	}
	if cfg.QueueMax <= 0 {
		cfg.QueueMax = 64
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 25 * time.Millisecond
	}
	p := &Pipeline{cfg: cfg, down: map[int]bool{}}
	p.cond = sync.NewCond(&p.mu)
	for _, n := range cfg.Nodes {
		p.base = append(p.base, n.Seq())
	}
	return p, nil
}

func (p *Pipeline) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

// Submit streams one record in and blocks until its group commit is durable
// (ack) or it is rejected (typed error): resilience.ErrBudgetExhausted when
// the deadline budget is dry, ctl.ErrOverloaded (with retry-after) when the
// queue is full, monitor.ErrDenied on policy violations, ErrNotDML for
// non-DML, ErrClosed after Close.
func (p *Pipeline) Submit(rec Record) (Ack, error) {
	// Admission: budget and overload refuse before any parsing or policy
	// work, so a saturated pipeline sheds load at the door.
	if p.cfg.Budget != nil && !p.cfg.Budget.SpendAttempt() {
		return Ack{}, resilience.ErrBudget("ingest admission")
	}
	stmt, err := parser.Parse(rec.SQL)
	if err != nil {
		return Ack{}, fmt.Errorf("ingest: %w", err)
	}
	switch stmt.(type) {
	case *ast.Insert, *ast.Update, *ast.Delete:
	default:
		return Ack{}, fmt.Errorf("%w (got %T)", ErrNotDML, stmt)
	}
	if p.cfg.Authorizer != nil {
		var epoch uint64
		if p.cfg.Epoch != nil {
			epoch = p.cfg.Epoch()
		}
		auth, err := p.cfg.Authorizer.Authorize(monitor.AuthRequest{
			Database:   p.cfg.Database,
			ClientKey:  rec.Client,
			SQL:        rec.SQL,
			AccessDate: rec.Date,
			HostID:     p.cfg.HostID,
			Epoch:      epoch,
		})
		if err != nil {
			return Ack{}, err
		}
		// Write sessions are one-shot: the authorization is consumed by this
		// record, so revoke the session key immediately.
		p.cfg.Authorizer.EndSession(auth.SessionID)
	}

	pd := &pending{stmt: stmt, ch: make(chan outcome, 1)}
	p.mu.Lock()
	if p.fatal != nil {
		err := p.fatal
		p.mu.Unlock()
		return Ack{}, err
	}
	if p.closed {
		p.mu.Unlock()
		return Ack{}, ErrClosed
	}
	if len(p.queue) >= p.cfg.QueueMax {
		p.stats.Overloaded++
		p.mu.Unlock()
		return Ack{}, &ctl.OverloadedError{RetryAfter: p.cfg.RetryAfter}
	}
	p.stats.Submitted++
	p.queue = append(p.queue, pd)
	lead := !p.leading
	if lead {
		p.leading = true
	}
	p.mu.Unlock()

	if lead {
		p.runLeader()
	}
	out := <-pd.ch
	p.mu.Lock()
	if out.err != nil {
		p.stats.Nacked++
	} else {
		p.stats.Acked++
	}
	p.mu.Unlock()
	return out.ack, out.err
}

// runLeader drains the queue in batches until it is empty, then steps down.
// The step-down check and enqueue share p.mu, so a record enqueued while a
// leader exists is always drained by that leader.
func (p *Pipeline) runLeader() {
	for {
		p.mu.Lock()
		if p.fatal != nil {
			for _, pd := range p.queue {
				pd.fail(p.fatal)
			}
			p.queue = nil
		}
		if len(p.queue) == 0 {
			p.leading = false
			p.mu.Unlock()
			return
		}
		n := len(p.queue)
		if n > p.cfg.BatchMax {
			n = p.cfg.BatchMax
		}
		group := p.queue[:n:n]
		p.queue = p.queue[n:]
		if n > 1 {
			p.stats.Coalesced += uint64(n)
		}
		p.mu.Unlock()
		p.commitGroup(group)
	}
}

// commitGroup applies one coalesced batch and settles every record in it. A
// semantic rejection of a multi-record group falls back to singleton batches,
// so one offending record cannot nack its innocent batch-mates.
func (p *Pipeline) commitGroup(group []*pending) {
	stmts := make([]ast.Statement, len(group))
	for i, pd := range group {
		stmts[i] = pd.stmt
	}
	results, err := p.applyBatch(stmts)
	if err == nil {
		seq := p.cfg.Nodes[0].Seq()
		p.mu.Lock()
		p.stats.Batches++
		p.mu.Unlock()
		for i, pd := range group {
			pd.deliver(Ack{Seq: seq, Batch: seq - p.base[0], Affected: affectedOf(results, i)})
		}
		return
	}
	p.mu.Lock()
	fatal := p.fatal
	p.mu.Unlock()
	if fatal != nil {
		for _, pd := range group {
			pd.fail(fatal)
		}
		return
	}
	if errors.Is(err, ErrClosed) {
		for _, pd := range group {
			pd.fail(err)
		}
		return
	}
	if len(group) == 1 {
		group[0].fail(err)
		return
	}
	// Semantically-rejected batches touch no device state (staging is
	// memory-only), so re-running each record alone is safe and isolates the
	// offender.
	p.logf("ingest: batch of %d rejected (%v); retrying as singletons", len(group), err)
	for _, pd := range group {
		p.commitGroup([]*pending{pd})
	}
}

// applyBatch applies one batch to the authority, appends it to the batch log,
// then replicates it. Only semantic rejections surface as errors; node
// crashes are ridden out via nodeDownAndWait + seq-based reconciliation.
func (p *Pipeline) applyBatch(stmts []ast.Statement) ([]*exec.Result, error) {
	p.mu.Lock()
	idx := len(p.batches)
	p.mu.Unlock()

	results, err := p.applyNode(0, idx, stmts)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.batches = append(p.batches, stmts)
	p.mu.Unlock()

	for i := 1; i < len(p.cfg.Nodes); i++ {
		res, err := p.applyNode(i, idx, stmts)
		if err != nil {
			if errors.Is(err, ErrClosed) || errors.Is(err, ErrDiverged) {
				return nil, err
			}
			// The authority committed this batch; a replica rejecting it can
			// only mean divergent state. Replication is no longer sound.
			return nil, p.fail(fmt.Errorf("%w: node %s rejected batch %d the authority committed: %v",
				ErrDiverged, p.cfg.Nodes[i].Name(), idx, err))
		}
		if results == nil {
			// The authority crashed after committing but before reporting
			// counts; a replica's deterministic re-execution restores them.
			results = res
		}
	}
	return results, nil
}

// applyNode applies batch idx to node i, riding out node crashes: a crashed
// node is reported down, waited on, and reconciled from the batch log once
// recovered. Returns only semantic rejections, ErrClosed, or divergence.
func (p *Pipeline) applyNode(i, idx int, stmts []ast.Statement) ([]*exec.Result, error) {
	n := p.cfg.Nodes[i]
	for {
		res, err := n.Apply(stmts)
		if err == nil {
			return res, nil
		}
		if !isNodeFailure(err) {
			return nil, err
		}
		if werr := p.nodeDownAndWait(i, err); werr != nil {
			return nil, werr
		}
		// Recovered: seq arithmetic against the batch log says where the
		// node landed. The batch either committed before the crash (durable,
		// results lost) or rolled back whole (reapply).
		have := int(n.Seq() - p.base[i])
		if have > idx+1 {
			return nil, p.fail(fmt.Errorf("%w: node %s recovered ahead of the batch log (holds %d batches, applying batch %d)",
				ErrDiverged, n.Name(), have, idx))
		}
		if have == idx+1 {
			p.logf("ingest: node %s recovered with batch %d already durable", n.Name(), idx)
			return nil, nil
		}
		// Catch up batches the restart may have interrupted earlier, then
		// loop to retry the current one.
		for have < idx {
			p.logf("ingest: node %s catching up batch %d", n.Name(), have)
			if _, err := n.Apply(p.batchAt(have)); err != nil {
				if !isNodeFailure(err) {
					return nil, p.fail(fmt.Errorf("%w: node %s rejected logged batch %d during catch-up: %v",
						ErrDiverged, n.Name(), have, err))
				}
				if werr := p.nodeDownAndWait(i, err); werr != nil {
					return nil, werr
				}
			}
			have = int(n.Seq() - p.base[i])
		}
	}
}

// nodeDownAndWait marks node i down (reporting it once) and blocks until
// NodeRecovered, Close, or pipeline failure.
func (p *Pipeline) nodeDownAndWait(i int, cause error) error {
	n := p.cfg.Nodes[i]
	p.mu.Lock()
	if !p.down[i] && !p.closed && p.fatal == nil {
		p.down[i] = true
		p.mu.Unlock()
		p.logf("ingest: node %s down: %v", n.Name(), cause)
		if p.cfg.OnNodeDown != nil {
			p.cfg.OnNodeDown(n.Name(), cause)
		}
		p.mu.Lock()
	}
	defer p.mu.Unlock()
	for p.down[i] && !p.closed && p.fatal == nil {
		p.cond.Wait()
	}
	if p.fatal != nil {
		return p.fatal
	}
	if p.closed {
		return ErrClosed
	}
	return nil
}

// NodeRecovered readmits a node after the operator restarted (and
// re-attested) it; the blocked batch resumes with seq-based reconciliation.
func (p *Pipeline) NodeRecovered(name string) {
	p.mu.Lock()
	for i, n := range p.cfg.Nodes {
		if n.Name() == name {
			//ironsafe:allow readmit -- pipeline-local liveness, not cluster membership: the caller readmits only after restart, and the stalled batch re-verifies the node's store via seq reconciliation before trusting it
			delete(p.down, i)
		}
	}
	p.mu.Unlock()
	p.cond.Broadcast()
}

// fail poisons the pipeline: in-flight and future submissions settle with
// the first fatal error.
func (p *Pipeline) fail(err error) error {
	p.mu.Lock()
	if p.fatal == nil {
		p.fatal = err
	}
	err = p.fatal
	p.mu.Unlock()
	p.cond.Broadcast()
	return err
}

// Close shuts the pipeline: queued and blocked records nack with ErrClosed,
// later submissions refuse.
func (p *Pipeline) Close() {
	p.mu.Lock()
	p.closed = true
	queued := p.queue
	p.queue = nil
	p.mu.Unlock()
	p.cond.Broadcast()
	for _, pd := range queued {
		pd.fail(ErrClosed)
	}
}

// Batches returns how many batches the pipeline has committed.
func (p *Pipeline) Batches() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return uint64(len(p.batches))
}

// Stats returns a snapshot of the pipeline counters.
func (p *Pipeline) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

func (p *Pipeline) batchAt(i int) []ast.Statement {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.batches[i]
}

// isNodeFailure distinguishes node crashes (a store poisoned by a commit
// that died on its medium) from semantic rejections of the batch itself.
func isNodeFailure(err error) bool {
	return errors.Is(err, securestore.ErrStoreFailed)
}

// affectedOf extracts one statement's affected-row count from batch results;
// -1 when the counts were lost to an in-doubt recovery.
func affectedOf(results []*exec.Result, i int) int {
	if i >= len(results) || results[i] == nil || len(results[i].Rows) == 0 {
		return -1
	}
	return int(results[i].Rows[0][0].AsInt())
}
