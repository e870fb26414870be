package resilience

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"
)

func TestBudgetSpendAndSlice(t *testing.T) {
	b := NewBudget(100*time.Millisecond, 25*time.Millisecond)
	if b.Total() != 100*time.Millisecond || b.Remaining() != 100*time.Millisecond {
		t.Fatalf("fresh budget: total=%v remaining=%v", b.Total(), b.Remaining())
	}
	// Slice clips to the remaining allowance.
	if got := b.Slice(250 * time.Millisecond); got != 100*time.Millisecond {
		t.Fatalf("Slice over remaining = %v, want 100ms", got)
	}
	if got := b.Slice(10 * time.Millisecond); got != 10*time.Millisecond {
		t.Fatalf("Slice under remaining = %v, want 10ms", got)
	}
	// Zero d stays unguarded (Slice passes it through).
	if got := b.Slice(0); got != 100*time.Millisecond {
		t.Fatalf("Slice(0) = %v, want remaining", got)
	}
	for i := 0; i < 4; i++ {
		if !b.SpendAttempt() {
			t.Fatalf("attempt %d refused with budget remaining", i)
		}
	}
	if !b.Exhausted() {
		t.Fatalf("budget should be exhausted after 4×25ms, remaining=%v", b.Remaining())
	}
	if b.SpendAttempt() {
		t.Fatal("exhausted budget admitted an attempt")
	}
	if b.Spends() != 4 {
		t.Fatalf("Spends = %d, want 4", b.Spends())
	}
}

func TestBudgetOverdrawBoundedByOneCharge(t *testing.T) {
	// The last admitted charge may overdraw by at most one charge: a budget
	// of 10ms admits one 30ms spend (there was allowance before it) and
	// nothing after.
	b := NewBudget(10*time.Millisecond, 5*time.Millisecond)
	if !b.Spend(30 * time.Millisecond) {
		t.Fatal("first spend with allowance left must be admitted")
	}
	if b.Remaining() != 0 {
		t.Fatalf("remaining floors at zero, got %v", b.Remaining())
	}
	if b.Spend(time.Nanosecond) {
		t.Fatal("spend after exhaustion must be refused")
	}
}

func TestBudgetRefundCappedAtTotal(t *testing.T) {
	b := NewBudget(50*time.Millisecond, 10*time.Millisecond)
	b.Spend(20 * time.Millisecond)
	b.Refund(5 * time.Millisecond)
	if got := b.Remaining(); got != 35*time.Millisecond {
		t.Fatalf("remaining after refund = %v, want 35ms", got)
	}
	b.Refund(time.Hour)
	if got := b.Remaining(); got != 50*time.Millisecond {
		t.Fatalf("refund minted budget: remaining = %v, want total 50ms", got)
	}
}

func TestNilBudgetIsUnlimited(t *testing.T) {
	var b *Budget
	if !b.Spend(time.Hour) || !b.SpendAttempt() || b.Exhausted() {
		t.Fatal("nil budget must admit everything")
	}
	if got := b.Slice(7 * time.Millisecond); got != 7*time.Millisecond {
		t.Fatalf("nil budget Slice = %v, want d unchanged", got)
	}
	if NewBudget(0, time.Millisecond) != nil {
		t.Fatal("zero total must yield a nil (unlimited) budget")
	}
}

func TestRetryNoSleepAfterFinalFailedAttempt(t *testing.T) {
	// Regression: the backoff must be computed/slept only BETWEEN attempts —
	// a failed final attempt returns immediately instead of wasting one more
	// backoff interval of the caller's deadline budget.
	var sleeps int
	cfg := Config{Sleep: func(time.Duration) { sleeps++ }}
	err := Retry(cfg, 3, func(int) error { return fmt.Errorf("boom") })
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("want ErrExhausted, got %v", err)
	}
	if sleeps != 2 {
		t.Fatalf("3 attempts must sleep exactly 2 backoffs (between attempts), got %d", sleeps)
	}
}

func TestExhaustedErrorCarriesPerAttemptElapsed(t *testing.T) {
	cfg := Config{IOTimeout: 40 * time.Millisecond}
	boom := fmt.Errorf("boom")
	err := Retry(cfg, 3, func(int) error { return boom })
	var exh *ExhaustedError
	if !errors.As(err, &exh) {
		t.Fatalf("want *ExhaustedError, got %T: %v", err, err)
	}
	if exh.Attempts != 3 || len(exh.PerAttempt) != 3 {
		t.Fatalf("Attempts=%d PerAttempt=%v, want 3 entries", exh.Attempts, exh.PerAttempt)
	}
	for i, d := range exh.PerAttempt {
		if d != 40*time.Millisecond {
			t.Fatalf("PerAttempt[%d] = %v, want the deterministic attempt cost, IOTimeout 40ms", i, d)
		}
	}
	if exh.Elapsed() != 120*time.Millisecond {
		t.Fatalf("Elapsed = %v, want 120ms", exh.Elapsed())
	}
	if !errors.Is(err, ErrExhausted) || !errors.Is(err, boom) {
		t.Fatal("ExhaustedError must unwrap to both ErrExhausted and the last failure")
	}
}

func TestRetryBudgetedStopsWhenBudgetDry(t *testing.T) {
	cfg := Config{IOTimeout: 10 * time.Millisecond}
	bud := NewBudget(25*time.Millisecond, cfg.attemptCost())
	var calls int
	err := RetryBudgeted(cfg, 10, bud, func(int) error { calls++; return fmt.Errorf("boom") })
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
	// 25ms budget at 10ms/attempt admits attempts 1..3 (the third overdraws
	// by its bounded single charge), refuses the fourth.
	if calls != 3 {
		t.Fatalf("budget admitted %d attempts, want 3", calls)
	}
	if !errors.Is(err, ErrExhausted) {
		t.Fatal("budget-cut retry should still report the attempts it burned via ErrExhausted")
	}
}

func TestRetryBudgetedSuccessUnderBudget(t *testing.T) {
	cfg := Config{IOTimeout: 10 * time.Millisecond}
	bud := NewBudget(100*time.Millisecond, cfg.attemptCost())
	attempts := 0
	err := RetryBudgeted(cfg, 5, bud, func(i int) error {
		attempts++
		if i < 2 {
			return fmt.Errorf("transient")
		}
		return nil
	})
	if err != nil || attempts != 3 {
		t.Fatalf("err=%v attempts=%d, want success on attempt 3", err, attempts)
	}
	if got := bud.Remaining(); got != 70*time.Millisecond {
		t.Fatalf("remaining = %v, want 70ms (3 charged attempts)", got)
	}
}

func TestWithBudgetedConnDeadline(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	bud := NewBudget(20*time.Millisecond, 10*time.Millisecond)
	ran := false
	err := WithBudgetedConnDeadline(client, bud, time.Hour, func() error {
		ran = true
		return nil
	})
	if err != nil || !ran {
		t.Fatalf("budgeted deadline with allowance: err=%v ran=%v", err, ran)
	}
	// The charge is one deterministic attempt cost, never the armed slice —
	// an hour-long timeout must not drain a 20ms budget.
	if got := bud.Remaining(); got != 10*time.Millisecond {
		t.Fatalf("remaining = %v, want 10ms (charged one attempt cost)", got)
	}

	// Drain and verify refusal.
	bud.Spend(time.Hour)
	err = WithBudgetedConnDeadline(client, bud, 5*time.Millisecond, func() error {
		t.Fatal("fn must not run on a dry budget")
		return nil
	})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}

	// A stalled peer is cut by the armed (budget-clipped) deadline.
	bud2 := NewBudget(30*time.Millisecond, 10*time.Millisecond)
	buf := make([]byte, 1)
	err = WithBudgetedConnDeadline(client, bud2, time.Second, func() error {
		_, rerr := client.Read(buf) // nothing ever written: must hit the deadline
		return rerr
	})
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("want deadline timeout from clipped slice, got %v", err)
	}
}

func TestNewQueryBudgetDefaults(t *testing.T) {
	cfg := Config{IOTimeout: 250 * time.Millisecond}.WithDefaults()
	if got := cfg.attemptCost(); got != 250*time.Millisecond {
		t.Fatalf("attempt cost is IOTimeout when set, got %v", got)
	}
	b := cfg.NewQueryBudget()
	if b == nil || b.Total() != 8*time.Second {
		t.Fatalf("NewQueryBudget total = %v, want 32× the attempt cost", b.Total())
	}
	if got := (Config{}).NewQueryBudget().Total(); got != 32*100*time.Millisecond {
		t.Fatalf("NewQueryBudget without IOTimeout = %v, want 32×100ms", got)
	}
}
