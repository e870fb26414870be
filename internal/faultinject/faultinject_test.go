package faultinject

import (
	"bytes"
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"ironsafe/internal/pager"
)

// decisions drains n decisions from a fresh plan at site.
func decisions(seed uint64, site string, n int, rules ...Rule) []Class {
	p := NewPlan(seed, rules...)
	out := make([]Class, n)
	for i := range out {
		out[i] = p.Decide(site).Class
	}
	return out
}

func TestPlanDeterministicPerSeed(t *testing.T) {
	rules := []Rule{{Class: Reset, Prob: 0.3}, {Class: Corrupt, Prob: 0.2}}
	a := decisions(99, "conn:n1:read", 200, rules...)
	b := decisions(99, "conn:n1:read", 200, rules...)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d: %v != %v (same seed must inject identically)", i, a[i], b[i])
		}
	}
	c := decisions(100, "conn:n1:read", 200, rules...)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical fault sequences")
	}
}

func TestPlanSitesIndependent(t *testing.T) {
	p := NewPlan(7, Rule{Class: Reset, Prob: 0.5})
	a := make([]Class, 100)
	b := make([]Class, 100)
	for i := range a {
		a[i] = p.Decide("conn:n1:read").Class
		b[i] = p.Decide("conn:n2:read").Class
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("distinct sites share a decision stream")
	}
}

func TestRuleAfterAndMaxCount(t *testing.T) {
	got := decisions(1, "s", 50, Rule{Class: Reset, Prob: 1, After: 10, MaxCount: 3})
	for i := 0; i < 10; i++ {
		if got[i] != None {
			t.Fatalf("op %d faulted before After", i)
		}
	}
	n := 0
	for _, c := range got {
		if c == Reset {
			n++
		}
	}
	if n != 3 {
		t.Errorf("injected %d resets, want MaxCount=3", n)
	}
}

func TestRuleSiteFilter(t *testing.T) {
	p := NewPlan(3, Rule{Site: "storage-02", Class: Reset, Prob: 1})
	if f := p.Decide("conn:storage-01:read"); f.Class != None {
		t.Errorf("rule for storage-02 fired on storage-01")
	}
	if f := p.Decide("conn:storage-02:read"); f.Class != Reset {
		t.Errorf("rule did not fire on matching site")
	}
}

func TestConnResetPoisons(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	fc := WrapConn(a, "n1", NewPlan(1, Rule{Class: Reset, Prob: 1}))
	buf := make([]byte, 4)
	_, err := fc.Read(buf)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("read: %v, want injected", err)
	}
	if _, err := fc.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Errorf("write after reset: %v, want poisoned", err)
	}
}

func TestConnStallHonorsDeadline(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	fc := WrapConn(a, "n1", NewPlan(1, Rule{Class: Stall, Prob: 1}))
	fc.SetReadDeadline(time.Now().Add(30 * time.Millisecond)) //ironsafe:allow wallclock -- test arms a real I/O deadline
	_, err := fc.Read(make([]byte, 1))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("stalled read: %v, want deadline exceeded", err)
	}
}

func TestConnStallUnblocksOnClose(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	fc := WrapConn(a, "n1", NewPlan(1, Rule{Class: Stall, Prob: 1}))
	done := make(chan error, 1)
	go func() {
		_, err := fc.Read(make([]byte, 1))
		done <- err
	}()
	fc.Close()
	select {
	case err := <-done:
		if !errors.Is(err, net.ErrClosed) {
			t.Errorf("stalled read after close: %v, want net.ErrClosed", err)
		}
	case <-time.After(2 * time.Second): //ironsafe:allow wallclock -- test watchdog
		t.Fatal("stalled read did not unblock on Close")
	}
}

func TestConnCorruptFlipsOneBit(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	fc := WrapConn(a, "n1", NewPlan(1, Rule{Class: Corrupt, Prob: 1}))
	payload := []byte("hello, world")
	go b.Write(payload)
	buf := make([]byte, len(payload))
	n, err := fc.Read(buf)
	if err != nil || n != len(payload) {
		t.Fatalf("read: n=%d err=%v", n, err)
	}
	bits := 0
	for i := range payload {
		x := buf[i] ^ payload[i]
		for x != 0 {
			bits += int(x & 1)
			x >>= 1
		}
	}
	if bits != 1 {
		t.Errorf("corrupt flipped %d bits, want exactly 1", bits)
	}
}

func TestConnCrashCallback(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	plan := NewPlan(1, Rule{Class: Crash, Prob: 1})
	var crashed string
	plan.OnCrash = func(node string) { crashed = node }
	fc := WrapConn(a, "storage-07", plan)
	if _, err := fc.Read(make([]byte, 1)); !errors.Is(err, ErrInjected) {
		t.Fatalf("read: %v", err)
	}
	if crashed != "storage-07" {
		t.Errorf("OnCrash got %q, want storage-07", crashed)
	}
}

func TestDeviceCorruptDetectedAsSingleBit(t *testing.T) {
	dev := pager.NewMemDevice()
	orig := bytes.Repeat([]byte{0xAA}, 64)
	if err := dev.WriteBlock(0, orig); err != nil {
		t.Fatal(err)
	}
	fd := WrapDevice(dev, "n1", NewPlan(5, Rule{Site: ":read", Class: Corrupt, Prob: 1}))
	got, err := fd.ReadBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	bits := 0
	for i := range got {
		x := got[i] ^ orig[i]
		for x != 0 {
			bits += int(x & 1)
			x >>= 1
		}
	}
	if bits != 1 {
		t.Errorf("device corrupt flipped %d bits, want 1", bits)
	}
}

func TestStatsAndTrace(t *testing.T) {
	p := NewPlan(2, Rule{Class: Reset, Prob: 1, MaxCount: 2})
	p.Decide("s")
	p.Decide("s")
	p.Decide("s")
	p.Record(Rollback, "storage-01")
	stats := p.Stats()
	if stats[Reset] != 2 || stats[Rollback] != 1 {
		t.Errorf("stats = %v", stats)
	}
	if len(stats) != 2 {
		t.Errorf("classes = %v", stats)
	}
	if tr := p.Trace(); len(tr) != 3 {
		t.Errorf("trace = %v", tr)
	}
}
