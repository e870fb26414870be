package resilience

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrBudgetExhausted reports that a query's deadline budget ran out: the
// remaining work (retries, failovers, hedges) would exceed the slice of time
// the query was admitted with, so it fails fast with a typed error instead of
// dragging the client through more attempts that cannot finish in time.
var ErrBudgetExhausted = errors.New("resilience: deadline budget exhausted")

// Budget is a per-query deadline budget: a fixed slice of time the query's
// distributed path (offload attempts, retries, failovers, hedges) may consume
// in total, decremented as attempts spend it. It is the global cap the
// per-attempt I/O deadline lacks — ten 250 ms attempts against a gray-failing
// node each individually respect their deadline while together stalling the
// query for 2.5 s; a budget caps the sum.
//
// Accounting is deliberately deterministic: callers charge explicit durations
// (the deterministic attempt cost per attempt, or a virtual-clock-measured
// latency), never the wall clock directly, so a seeded chaos run consumes
// byte-identical budget in every execution. Real-time enforcement rides on
// the charges indirectly: each attempt arms its connection deadline to
// min(per-attempt timeout, Remaining()), so the real time a query can burn is
// bounded by the (deterministic) schedule of armed slices.
//
// Safe for concurrent use — hedged attempts spend from the same budget.
type Budget struct {
	mu          sync.Mutex
	total       time.Duration
	remaining   time.Duration
	attemptCost time.Duration
	spends      int
}

// NewBudget creates a budget of total, charging attemptCost for attempts
// whose real duration is unknown. A nil *Budget is valid everywhere and means
// "unlimited" — every Spend succeeds and Remaining reports zero.
func NewBudget(total, attemptCost time.Duration) *Budget {
	if total <= 0 {
		return nil
	}
	if attemptCost <= 0 {
		attemptCost = total / 8
	}
	return &Budget{total: total, remaining: total, attemptCost: attemptCost}
}

// Total reports the budget's original allowance (0 for nil = unlimited).
func (b *Budget) Total() time.Duration {
	if b == nil {
		return 0
	}
	return b.total
}

// Remaining reports the unspent allowance (0 for nil = unlimited; callers
// distinguish via b == nil or Total() == 0).
func (b *Budget) Remaining() time.Duration {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.remaining
}

// Exhausted reports whether the budget has nothing left to spend. A nil
// budget is never exhausted.
func (b *Budget) Exhausted() bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.remaining <= 0
}

// Spend charges d against the budget, flooring at zero. It reports whether
// there was any allowance left BEFORE the charge: a true return admits the
// attempt the charge pays for (the final attempt may overdraw by at most one
// charge — the bounded overrun the gray sweep asserts); false means the
// attempt must not run. A nil budget admits everything.
func (b *Budget) Spend(d time.Duration) bool {
	if b == nil {
		return true
	}
	if d < 0 {
		d = 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.remaining <= 0 {
		return false
	}
	b.spends++
	b.remaining -= d
	if b.remaining < 0 {
		b.remaining = 0
	}
	return true
}

// SpendAttempt charges one attempt at the budget's deterministic per-attempt
// cost and reports admission like Spend.
func (b *Budget) SpendAttempt() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	cost := b.attemptCost
	b.mu.Unlock()
	return b.Spend(cost)
}

// Refund returns unspent charge (an attempt that finished well under its
// attempt cost), capped at the original total so refunds cannot mint budget.
func (b *Budget) Refund(d time.Duration) {
	if b == nil || d <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.remaining += d
	if b.remaining > b.total {
		b.remaining = b.total
	}
}

// Slice bounds a per-attempt deadline by the remaining budget: it returns
// min(d, Remaining()) for a live budget, d unchanged for a nil one, and d
// unchanged when d is zero (unguarded callers stay unguarded — the budget
// check itself still gates the attempt).
func (b *Budget) Slice(d time.Duration) time.Duration {
	if b == nil {
		return d
	}
	rem := b.Remaining()
	if rem <= 0 {
		return d
	}
	if d <= 0 || rem < d {
		return rem
	}
	return d
}

// Spends reports how many charges the budget has admitted (attempt
// accounting for tests and telemetry).
func (b *Budget) Spends() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.spends
}

// ErrBudget wraps err so it also reports ErrBudgetExhausted, preserving the
// underlying failure for logs.
func ErrBudget(context string) error {
	return fmt.Errorf("%w: %s", ErrBudgetExhausted, context)
}
