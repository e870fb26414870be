package chaos

import (
	"fmt"
	"testing"

	"ironsafe/internal/faultinject"
)

// adversaryTestConfig keeps the in-tree runs affordable; the Makefile sweep
// drives the full default grid.
func adversaryTestConfig(seed uint64) AdversaryConfig {
	return AdversaryConfig{
		Seed:          seed,
		Queries:       6,
		MaxSteps:      1,
		IngestRecords: 6,
	}
}

// TestAdversaryConformance runs one full adversary sweep and asserts the
// fail-closed contract: every attack class mounted, zero wrong results, zero
// unbacked acks, zero untyped failures, zero hangs.
func TestAdversaryConformance(t *testing.T) {
	rep, err := RunAdversary(adversaryTestConfig(7))
	if err != nil {
		t.Fatalf("RunAdversary: %v", err)
	}
	if rep.Hangs != 0 {
		t.Errorf("hangs = %d, want 0", rep.Hangs)
	}
	if rep.WrongResults != 0 {
		t.Errorf("wrong results = %d, want 0", rep.WrongResults)
	}
	if rep.Untyped != 0 {
		t.Errorf("untyped failures = %d, want 0", rep.Untyped)
	}
	if rep.AckViolations != 0 {
		t.Errorf("ack violations = %d, want 0", rep.AckViolations)
	}
	checkPinned(t, "RunAdversary/seed=7", rep.Digest)
	if rep.Cells == 0 || rep.Attacks == 0 {
		t.Errorf("cells = %d, attacks = %d; the grid must have run", rep.Cells, rep.Attacks)
	}
	mounted := map[faultinject.Class]bool{}
	for _, cls := range rep.Mounted {
		mounted[cls] = true
	}
	for _, cls := range []faultinject.Class{
		faultinject.Replay, faultinject.Duplicate, faultinject.Reorder,
		faultinject.Splice, faultinject.Inject, faultinject.Banner,
		faultinject.StaleRead, faultinject.Rollback,
	} {
		if !mounted[cls] {
			t.Errorf("attack class %s was never mounted", cls)
		}
	}
}

// TestAdversaryDeterminism runs the sweep for several seeds and demands the
// committed digests, byte for byte: the attack schedule, every outcome, and
// every trace line must be a pure function of the seed.
func TestAdversaryDeterminism(t *testing.T) {
	for _, seed := range []uint64{3, 11, 42} {
		rep, err := RunAdversary(adversaryTestConfig(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkPinned(t, fmt.Sprintf("RunAdversary/seed=%d", seed), rep.Digest)
	}
}
