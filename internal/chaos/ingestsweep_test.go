package chaos

import "testing"

// TestIngestSweep drives the full ingest-under-chaos sweep: concurrent
// policy-authorized ingest beside browned-out TPC-H reads, a power cut at
// every write boundary of the streaming write path (clean and torn), and node
// kills mid-batch ridden out via restart + readmission. The acked-write
// contract must hold at every point: no acked record lost, no torn batch
// visible, no hang, no untyped error.
func TestIngestSweep(t *testing.T) {
	rep, err := RunIngest(IngestConfig{Seed: 42, Tear: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nacked != 0 {
		t.Errorf("%d records nacked under chaos, want 0 (every record must ack)", rep.Nacked)
	}
	if rep.TornReads != 0 {
		t.Errorf("%d snapshot probes saw a torn batch, want 0", rep.TornReads)
	}
	if rep.WrongReads != 0 {
		t.Errorf("%d concurrent reads returned wrong rows, want 0", rep.WrongReads)
	}
	if rep.Hangs != 0 {
		t.Errorf("%d hangs, want 0", rep.Hangs)
	}
	if rep.Untyped != 0 {
		t.Errorf("%d untyped errors, want 0 (every write-path failure must be typed)", rep.Untyped)
	}
	if rep.Points != 2*rep.Writes {
		t.Errorf("swept %d points over %d writes, want clean+torn at every k", rep.Points, rep.Writes)
	}
	if rep.LandedOld == 0 {
		t.Error("no crash point recovered to a record's pre-image (journal always won?)")
	}
	if rep.LandedNew == 0 {
		t.Error("no crash point replayed a record's journaled commit (redo never ran?)")
	}
	if rep.Kills != 2 {
		t.Errorf("%d node kills ridden out, want 2 (authority and replica)", rep.Kills)
	}
	if rep.Acked == 0 || rep.Batches == 0 {
		t.Errorf("phase A acked %d records in %d batches, want both nonzero", rep.Acked, rep.Batches)
	}
	checkPinned(t, "RunIngest/seed=42,tear", rep.Digest)
	t.Logf("ingest sweep: %d acked (%d batches, %d coalesced), reads %d ok / %d failed, %d points (%d old / %d new), %d kills, digest %s",
		rep.Acked, rep.Batches, rep.Coalesced, rep.ReadsOK, rep.ReadsFailed,
		rep.Points, rep.LandedOld, rep.LandedNew, rep.Kills, rep.Digest[:16])
}

// TestIngestSweepDeterministicPerSeed: a config's digest is the committed one,
// byte for byte — concurrency, brown-outs, and recoveries included; a
// different seed diverges.
func TestIngestSweepDeterministicPerSeed(t *testing.T) {
	cfg := IngestConfig{Seed: 7, Tear: true}
	a, err := RunIngest(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 8
	c, err := RunIngest(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Digest == a.Digest {
		t.Error("different seeds produced identical sweeps (payloads not seed-driven?)")
	}
	checkPinned(t, "RunIngest/seed=7,tear", a.Digest)
	checkPinned(t, "RunIngest/seed=8,tear", c.Digest)
}
