package resilience

import (
	"errors"
	"net"
	"testing"
	"time"
)

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	var delays []time.Duration
	cfg := Config{Sleep: func(d time.Duration) { delays = append(delays, d) }}.WithDefaults()
	calls := 0
	err := Retry(cfg, 5, func(int) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if len(delays) != 2 {
		t.Fatalf("delays = %v, want 2 entries", delays)
	}
	if delays[1] <= delays[0]/2 {
		t.Errorf("backoff not growing: %v", delays)
	}
}

func TestRetryExhaustionIsTyped(t *testing.T) {
	cfg := Config{}.WithDefaults()
	boom := errors.New("boom")
	err := Retry(cfg, 3, func(int) error { return boom })
	if !errors.Is(err, ErrExhausted) {
		t.Errorf("err = %v, want ErrExhausted", err)
	}
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, should wrap the last failure", err)
	}
}

func TestRetryStopsOnPermanent(t *testing.T) {
	cfg := Config{}.WithDefaults()
	calls := 0
	denied := errors.New("denied")
	err := Retry(cfg, 5, func(int) error {
		calls++
		return Permanent(denied)
	})
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (permanent errors must not retry)", calls)
	}
	if !errors.Is(err, denied) {
		t.Errorf("err = %v, want wrapped denied", err)
	}
	if !IsPermanent(err) {
		t.Errorf("permanence lost through the retry wrapper")
	}
}

func TestBackoffDeterministicPerSeed(t *testing.T) {
	a, b := jitterStream(3), jitterStream(3)
	for i := 0; i < 8; i++ {
		if da, db := backoff(i, a), backoff(i, b); da != db {
			t.Fatalf("attempt %d: %v != %v (same seed must give same schedule)", i, da, db)
		}
	}
	other, again := jitterStream(4), jitterStream(3)
	same := true
	for i := 0; i < 8; i++ {
		if backoff(i, again) != backoff(i, other) {
			same = false
		}
	}
	if same {
		t.Errorf("different seeds produced identical jitter")
	}
}

// TestBackoffCapped: the envelope starts at 20 ms and doubles per attempt up
// to the 2 s cap, and each delay is the envelope scaled by 1 ± 0.1 drawn from
// the call site's fixed jitter stream.
func TestBackoffCapped(t *testing.T) {
	b := jitterStream(0)
	jitter := newRNG(1) // jitterStream(0)'s stream
	for i, env := range []time.Duration{
		20 * time.Millisecond, 40 * time.Millisecond, 80 * time.Millisecond, 160 * time.Millisecond,
		320 * time.Millisecond, 640 * time.Millisecond, 1280 * time.Millisecond,
		2 * time.Second, 2 * time.Second, 2 * time.Second,
	} {
		want := time.Duration(float64(env) * (1 + 0.2*(jitter.float64()-0.5)))
		got := backoff(i, b)
		if got != want {
			t.Fatalf("Next(%d) = %v, want %v (envelope %v)", i, got, want, env)
		}
		if got < env*9/10 || got > env*11/10 {
			t.Fatalf("Next(%d) = %v, outside %v ± 10%%", i, got, env)
		}
	}
	if d := backoff(40, b); d > 2200*time.Millisecond {
		t.Errorf("Next(40) = %v, want capped at 2s ± 10%%", d)
	}
}

func TestTrackerCircuitBreaking(t *testing.T) {
	tr := NewTracker()
	for i := 0; i < 3; i++ {
		if !tr.Allow("n1") {
			t.Fatalf("attempt %d blocked before threshold", i)
		}
		tr.Report("n1", false)
	}
	if !tr.Open("n1") {
		t.Fatal("circuit should be open after 3 consecutive failures")
	}
	allowed := 0
	for i := 0; i < 8; i++ {
		if tr.Allow("n1") {
			allowed++
		}
	}
	if allowed != 2 {
		t.Errorf("open circuit allowed %d of 8 attempts, want exactly 2 probes", allowed)
	}
	tr.Report("n1", true)
	if tr.Open("n1") {
		t.Error("successful probe should close the circuit")
	}
	if !tr.Allow("n1") {
		t.Error("closed circuit should allow")
	}
}

func TestTrackerMarkDownBlocksUntilMarkUp(t *testing.T) {
	tr := NewTracker()
	tr.MarkDown("n2")
	for i := 0; i < 20; i++ {
		if tr.Allow("n2") {
			t.Fatal("down node allowed an attempt (probes must not bypass MarkDown)")
		}
	}
	_, down := tr.Snapshot()
	if len(down) != 1 || down[0] != "n2" {
		t.Errorf("Snapshot down = %v, want [n2]", down)
	}
	tr.MarkUp("n2")
	if !tr.Allow("n2") {
		t.Error("MarkUp should readmit the node")
	}
}

func TestDialTCPRetriesAndTypes(t *testing.T) {
	// Nothing listens on this port: dial must fail fast with a typed
	// exhaustion error, not hang.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // free the port so dials are refused

	if _, err := DialTCP(addr, Config{}); !errors.Is(err, ErrExhausted) {
		t.Errorf("dial to dead port: %v, want ErrExhausted", err)
	}
}

func TestWithConnDeadlineUnblocksHungRead(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	err := WithConnDeadline(a, 50*time.Millisecond, func() error {
		buf := make([]byte, 1)
		_, err := a.Read(buf)
		return err
	})
	if err == nil {
		t.Fatal("read from silent peer returned nil, want deadline error")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("err = %v, want a timeout net.Error", err)
	}
}
