package adversary

import (
	"reflect"
	"testing"

	"ironsafe/internal/faultinject"
	"ironsafe/internal/pager"
)

func drive(e *Engine, legs []string) []faultinject.Fault {
	var out []faultinject.Fault
	for _, leg := range legs {
		out = append(out, e.Decide(leg))
	}
	return out
}

func TestAdversaryEngineDeterministicSchedule(t *testing.T) {
	rules := []faultinject.Rule{
		{Site: ":read", Class: faultinject.Replay, Prob: 0.2},
		{Site: ":read", Class: faultinject.Duplicate, Prob: 0.2},
		{Site: ":write", Class: faultinject.Inject, Prob: 0.3, After: 1},
	}
	legs := []string{
		"storage-01:read", "storage-01:write", "storage-01:read",
		"storage-02:read", "storage-01:write", "storage-01:read",
		"storage-02:write", "storage-01:read", "storage-01:write",
		"storage-02:read", "storage-01:read", "storage-01:write",
	}
	a := drive(NewEngine(7, rules...), legs)
	b := drive(NewEngine(7, rules...), legs)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%v\n%v", a, b)
	}
	ta := NewEngine(7, rules...)
	tb := NewEngine(7, rules...)
	drive(ta, legs)
	drive(tb, legs)
	if !reflect.DeepEqual(ta.Trace(), tb.Trace()) {
		t.Fatalf("traces diverged: %v vs %v", ta.Trace(), tb.Trace())
	}
	attacked := false
	for seed := uint64(1); seed < 32 && !attacked; seed++ {
		for _, d := range drive(NewEngine(seed, rules...), legs) {
			if d.Class != faultinject.None {
				attacked = true
				break
			}
		}
	}
	if !attacked {
		t.Fatal("no seed in 1..31 mounted any attack; probability bands broken")
	}
}

func TestAdversaryEngineRuleBounds(t *testing.T) {
	e := NewEngine(3, faultinject.Rule{Site: "x", Class: faultinject.Replay, Prob: 1, After: 2, MaxCount: 2})
	var fired int
	for i := 0; i < 10; i++ {
		if e.Decide("node:x:read").Class == faultinject.Replay {
			fired++
			if i < 2 {
				t.Fatalf("rule fired at op %d despite After: 2", i)
			}
		}
	}
	if fired != 2 {
		t.Fatalf("rule fired %d times, want exactly MaxCount=2", fired)
	}
	if e.Decide("other-leg").Class != faultinject.None {
		t.Fatal("rule matched a leg not containing Site")
	}
	if got := e.OpsAt("node:x:read"); got != 10 {
		t.Fatalf("OpsAt = %d, want 10", got)
	}
}

func TestAdversaryEngineLibraryLookups(t *testing.T) {
	e := NewEngine(1)
	e.Remember("a:read", []byte("frame-one"))
	e.Remember("a:read", make([]byte, 32))
	e.Remember("b:read", []byte("frame-two"))
	if e.sameLeg("c:read", 5, anySize) != nil {
		t.Fatal("empty leg returned material")
	}
	if got := e.sameLeg("a:read", 5, 32); len(got) != 32 {
		t.Fatalf("sized same-leg lookup = %d bytes, want 32", len(got))
	}
	if got := e.otherLeg("b:read", 5, 32); len(got) != 32 {
		t.Fatalf("sized other-leg lookup = %d bytes, want 32", len(got))
	}
	if e.otherLeg("a:read", 5, 32) != nil {
		t.Fatal("other-leg lookup returned material recorded on the same leg")
	}
	got := e.otherLeg("a:read", 0, anySize)
	if string(got) != "frame-two" {
		t.Fatalf("other-leg lookup = %q, want frame-two", got)
	}
}

func TestAdversaryDeviceStaleReadServesCapturedImage(t *testing.T) {
	eng := NewEngine(1)
	dev := WrapDevice(pager.NewMemDevice(), "medium:test", eng.Plan)
	if err := dev.WriteBlock(0, []byte("old-state")); err != nil {
		t.Fatal(err)
	}
	dev.Capture()
	if err := dev.WriteBlock(0, []byte("new-state")); err != nil {
		t.Fatal(err)
	}
	got, err := dev.ReadBlock(0)
	if err != nil || string(got) != "new-state" {
		t.Fatalf("unarmed read = %q, %v; want new-state", got, err)
	}
	dev.ArmStaleReads(1)
	got, err = dev.ReadBlock(0)
	if err != nil || string(got) != "old-state" {
		t.Fatalf("armed stale read = %q, %v; want captured old-state", got, err)
	}
	got, err = dev.ReadBlock(0)
	if err != nil || string(got) != "new-state" {
		t.Fatalf("read after budget spent = %q, %v; want new-state", got, err)
	}
}

func TestAdversaryDeviceRevertRestoresValidOldState(t *testing.T) {
	eng := NewEngine(1)
	dev := WrapDevice(pager.NewMemDevice(), "medium:test", eng.Plan)
	if err := dev.WriteBlock(0, []byte("keep")); err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteBlock(1, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	dev.Capture()
	if err := dev.WriteBlock(1, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteBlock(1, []byte("v3")); err != nil {
		t.Fatal(err)
	}
	if err := dev.Rollback(); err != nil {
		t.Fatal(err)
	}
	got, err := dev.ReadBlock(1)
	if err != nil || string(got) != "v1" {
		t.Fatalf("rolled-back block = %q, %v; want first captured pre-image v1", got, err)
	}
	got, err = dev.ReadBlock(0)
	if err != nil || string(got) != "keep" {
		t.Fatalf("untouched block = %q, %v; want keep", got, err)
	}
	stats := eng.Stats()
	if stats[faultinject.Rollback] != 1 {
		t.Fatalf("rollback not traced: %v", stats)
	}
}
