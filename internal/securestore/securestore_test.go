package securestore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ironsafe/internal/pager"
	"ironsafe/internal/simtime"
	"ironsafe/internal/tee/trustzone"
)

// testEnv is a booted storage device plus an empty medium.
type testEnv struct {
	dev   *pager.MemDevice
	nw    *trustzone.NormalWorld
	meter *simtime.Meter
}

func newEnv(t *testing.T) *testEnv {
	t.Helper()
	vendor, err := trustzone.NewVendor("acme")
	if err != nil {
		t.Fatal(err)
	}
	device, err := trustzone.NewDevice("storage-01", vendor)
	if err != nil {
		t.Fatal(err)
	}
	atf := vendor.SignImage("atf", "2.4", []byte("atf"))
	tos := vendor.SignImage("optee", "3.4", []byte("optee"))
	nwImg := trustzone.FirmwareImage{Name: "nw", Version: "1.0", Code: []byte("storage stack")}
	var m simtime.Meter
	_, nw, err := device.Boot(atf, tos, nwImg, &m)
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{dev: pager.NewMemDevice(), nw: nw, meter: &m}
}

func (e *testEnv) open(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(e.dev, e.nw, e.meter, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWriteReadRoundTrip(t *testing.T) {
	e := newEnv(t)
	s := e.open(t, Options{})
	idx, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("sensitive customer record")
	if err := s.WritePage(idx, payload); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadPage(idx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, payload) || len(got) != pager.PageSize {
		t.Errorf("read back %d bytes, prefix %q", len(got), got[:8])
	}
}

func TestCiphertextHidesPlaintext(t *testing.T) {
	e := newEnv(t)
	s := e.open(t, Options{})
	idx, _ := s.Allocate()
	secret := []byte("TOP-SECRET-PAYLOAD-0123456789")
	s.WritePage(idx, secret)
	raw, err := e.dev.ReadBlock(idx)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, secret) {
		t.Error("plaintext visible on the untrusted medium")
	}
}

func TestManyPagesRoundTrip(t *testing.T) {
	e := newEnv(t)
	s := e.open(t, Options{})
	const n = 80
	for i := 0; i < n; i++ {
		idx, err := s.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WritePage(idx, []byte(fmt.Sprintf("page-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if s.NumPages() != n {
		t.Errorf("NumPages = %d", s.NumPages())
	}
	for i := uint32(0); i < n; i++ {
		got, err := s.ReadPage(i)
		if err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		want := fmt.Sprintf("page-%03d", i)
		if !bytes.HasPrefix(got, []byte(want)) {
			t.Fatalf("page %d contents %q", i, got[:8])
		}
	}
}

func TestOverwritePage(t *testing.T) {
	e := newEnv(t)
	s := e.open(t, Options{})
	idx, _ := s.Allocate()
	s.WritePage(idx, []byte("v1"))
	s.WritePage(idx, []byte("v2"))
	got, err := s.ReadPage(idx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("v2")) {
		t.Errorf("overwrite lost: %q", got[:2])
	}
}

func TestReadUnallocatedPage(t *testing.T) {
	e := newEnv(t)
	s := e.open(t, Options{})
	if _, err := s.ReadPage(0); err == nil {
		t.Error("read of unallocated page accepted")
	}
}

func TestTamperedCiphertextDetected(t *testing.T) {
	e := newEnv(t)
	s := e.open(t, Options{})
	idx, _ := s.Allocate()
	s.WritePage(idx, []byte("data"))
	// Flip a bit in the middle of the ciphertext.
	if err := e.dev.Corrupt(idx, ivSize+100); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadPage(idx); !errors.Is(err, ErrIntegrity) {
		t.Errorf("tampered page read = %v, want ErrIntegrity", err)
	}
}

func TestTamperedIVDetected(t *testing.T) {
	e := newEnv(t)
	s := e.open(t, Options{})
	idx, _ := s.Allocate()
	s.WritePage(idx, []byte("data"))
	e.dev.Corrupt(idx, 0) // first IV byte
	if _, err := s.ReadPage(idx); !errors.Is(err, ErrIntegrity) {
		t.Errorf("tampered IV read = %v", err)
	}
}

func TestTamperedMACDetected(t *testing.T) {
	e := newEnv(t)
	s := e.open(t, Options{})
	idx, _ := s.Allocate()
	s.WritePage(idx, []byte("data"))
	e.dev.Corrupt(idx, recordSize-1)
	if _, err := s.ReadPage(idx); !errors.Is(err, ErrIntegrity) {
		t.Errorf("tampered MAC read = %v", err)
	}
}

func TestPageTransplantDetected(t *testing.T) {
	// Copying page A's (valid) record over page B must be detected because
	// the page index is bound into the MAC.
	e := newEnv(t)
	s := e.open(t, Options{})
	a, _ := s.Allocate()
	b, _ := s.Allocate()
	s.WritePage(a, []byte("A"))
	s.WritePage(b, []byte("B"))
	recA, _ := e.dev.ReadBlock(a)
	e.dev.WriteBlock(b, recA)
	if _, err := s.ReadPage(b); !errors.Is(err, ErrIntegrity) {
		t.Errorf("transplanted page read = %v", err)
	}
}

func TestStalePageReplayDetected(t *testing.T) {
	// Replaying an old (validly MACed) version of the same page must be
	// caught by the Merkle freshness check: the leaf no longer matches.
	e := newEnv(t)
	s := e.open(t, Options{})
	idx, _ := s.Allocate()
	s.WritePage(idx, []byte("v1"))
	old, _ := e.dev.ReadBlock(idx)
	s.WritePage(idx, []byte("v2"))
	e.dev.WriteBlock(idx, old) // roll the single page back
	if _, err := s.ReadPage(idx); !errors.Is(err, ErrIntegrity) {
		t.Errorf("stale page read = %v, want integrity/freshness error", err)
	}
}

func TestWholeMediumRollbackDetectedAtOpen(t *testing.T) {
	e := newEnv(t)
	s := e.open(t, Options{})
	idx, _ := s.Allocate()
	s.WritePage(idx, []byte("v1"))
	snap := e.dev.SnapshotBlocks() // attacker snapshots the whole medium
	s.WritePage(idx, []byte("v2"))
	e.dev.RestoreBlocks(snap) // ... and rolls everything back

	if _, err := Open(e.dev, e.nw, e.meter, Options{}); !errors.Is(err, ErrFreshness) {
		t.Errorf("rolled-back medium open = %v, want ErrFreshness", err)
	}
}

func TestReopenFreshMediumSucceeds(t *testing.T) {
	e := newEnv(t)
	s := e.open(t, Options{})
	for i := 0; i < 10; i++ {
		idx, _ := s.Allocate()
		s.WritePage(idx, []byte{byte(i)})
	}
	s2, err := Open(e.dev, e.nw, e.meter, Options{})
	if err != nil {
		t.Fatalf("legitimate reopen failed: %v", err)
	}
	got, err := s2.ReadPage(7)
	if err != nil || got[0] != 7 {
		t.Errorf("reopened read = %v, %v", got[:1], err)
	}
	if err := s2.VerifyAll(); err != nil {
		t.Errorf("VerifyAll after reopen: %v", err)
	}
}

func TestMetersCharged(t *testing.T) {
	e := newEnv(t)
	s := e.open(t, Options{})
	base := e.meter.Snapshot()
	idx, _ := s.Allocate()
	s.WritePage(idx, []byte("x"))
	s.ReadPage(idx)
	d := e.meter.Snapshot().Sub(base)
	if d.PagesEncrypted < 1 || d.PagesDecrypted != 1 {
		t.Errorf("crypto counters: %+v", d)
	}
	if d.MerkleVerifies != 1 || d.MerkleHashes < 1 {
		t.Errorf("merkle counters: %+v", d)
	}
	if d.RPMBWrites < 1 {
		t.Errorf("rpmb counters: %+v", d)
	}
}

func TestFreshnessCostGrowsWithTreeDepth(t *testing.T) {
	e := newEnv(t)
	s := e.open(t, Options{})
	for i := 0; i < 64; i++ {
		idx, _ := s.Allocate()
		s.WritePage(idx, []byte{byte(i)})
	}
	base := e.meter.Snapshot()
	s.ReadPage(0)
	hashes := e.meter.Snapshot().Sub(base).MerkleHashes
	// Binary tree over 64 leaves: depth 6, so leaf + 6 internal checks.
	if hashes != 7 {
		t.Errorf("verification hashes = %d, want 7", hashes)
	}
}

func TestOversizeWriteRejected(t *testing.T) {
	e := newEnv(t)
	s := e.open(t, Options{})
	if err := s.WritePage(0, make([]byte, pager.PageSize+1)); err == nil {
		t.Error("oversized write accepted")
	}
}

func TestRandomizedReadbackProperty(t *testing.T) {
	e := newEnv(t)
	s := e.open(t, Options{})
	rng := rand.New(rand.NewSource(11))
	shadow := map[uint32][]byte{}
	for i := 0; i < 30; i++ {
		idx, err := s.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		shadow[idx] = nil
	}
	for op := 0; op < 200; op++ {
		idx := uint32(rng.Intn(30))
		if rng.Intn(2) == 0 {
			data := make([]byte, rng.Intn(512))
			rng.Read(data)
			if err := s.WritePage(idx, data); err != nil {
				t.Fatal(err)
			}
			shadow[idx] = data
		} else {
			got, err := s.ReadPage(idx)
			if err != nil {
				t.Fatalf("op %d read %d: %v", op, idx, err)
			}
			want := shadow[idx]
			if !bytes.HasPrefix(got, want) {
				t.Fatalf("op %d page %d mismatch", op, idx)
			}
		}
	}
	if err := s.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

func TestNonSequentialWriteWithinSession(t *testing.T) {
	e := newEnv(t)
	s := e.open(t, Options{})
	for i := 0; i < 5; i++ {
		idx, _ := s.Allocate()
		s.WritePage(idx, []byte{byte(i)})
	}
	// Overwrite a middle page, then verify every page still checks out.
	if err := s.WritePage(2, []byte("mid")); err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 5; i++ {
		if _, err := s.ReadPage(i); err != nil {
			t.Fatalf("page %d after mid-write: %v", i, err)
		}
	}
}

func TestOpenRequiresMeter(t *testing.T) {
	e := newEnv(t)
	if _, err := Open(e.dev, e.nw, nil, Options{}); err == nil {
		t.Error("nil meter accepted")
	}
}

func TestForkedReplicaDetected(t *testing.T) {
	// Fork attack (§3.3): the adversary copies the medium, lets the
	// legitimate store advance, then presents the forked replica. The
	// replica's Merkle root no longer matches the RPMB anchor, whose
	// monotonic counter the attacker cannot rewind.
	e := newEnv(t)
	s := e.open(t, Options{})
	idx, _ := s.Allocate()
	s.WritePage(idx, []byte("v1"))
	fork := e.dev.SnapshotBlocks() // adversary forks the medium here
	s.WritePage(idx, []byte("v2")) // legitimate history advances

	replica := pager.NewMemDevice()
	replica.RestoreBlocks(fork)
	if _, err := Open(replica, e.nw, e.meter, Options{}); !errors.Is(err, ErrFreshness) {
		t.Errorf("forked replica open = %v, want ErrFreshness", err)
	}
}

func TestMetaRegionTamperDetectedAtOpen(t *testing.T) {
	e := newEnv(t)
	s := e.open(t, Options{})
	for i := 0; i < 8; i++ {
		idx, _ := s.Allocate()
		s.WritePage(idx, []byte{byte(i)})
	}
	// Corrupt a leaf hash in the meta region (block metaBase).
	if err := e.dev.Corrupt(metaBase, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(e.dev, e.nw, e.meter, Options{}); !errors.Is(err, ErrFreshness) {
		t.Errorf("tampered meta region open = %v, want ErrFreshness", err)
	}
}

func TestHeaderTamperDetectedAtOpen(t *testing.T) {
	e := newEnv(t)
	s, tap := e.openTapped(t)
	for i := 0; i < 4; i++ {
		idx, _ := s.Allocate()
		s.WritePage(idx, []byte{byte(i)})
	}
	// Shrink the claimed page count (suppressing recent pages) on a medium
	// that still holds the last commit's journal record, as a crash between
	// its anchor advance and its release leaves it (the commit released it;
	// the tap captured it from the write stream). The record bridges to the
	// anchored state, so recovery repairs the header by redo and lands on
	// the true state — the tamper achieves nothing.
	hdr := make([]byte, 4)
	hdr[0] = 2
	e.dev.WriteBlock(headerBlock, hdr)
	e.dev.WriteBlock(journalBlock, tap.record)
	s2, err := Open(e.dev, e.nw, e.meter, Options{})
	if err != nil {
		t.Fatalf("header tamper with intact journal: %v", err)
	}
	if s2.NumPages() != 4 {
		t.Errorf("repaired store has %d pages, want 4", s2.NumPages())
	}
	if got, err := s2.ReadPage(3); err != nil || got[0] != 3 {
		t.Errorf("suppressed page not restored: %v %v", got[:1], err)
	}

	// With the journal destroyed too, nothing bridges the mismatch: the
	// open must fail closed.
	e.dev.WriteBlock(headerBlock, hdr)
	e.dev.WriteBlock(journalBlock, []byte("not a journal"))
	if _, err := Open(e.dev, e.nw, e.meter, Options{}); !errors.Is(err, ErrFreshness) {
		t.Errorf("truncated header open = %v, want ErrFreshness", err)
	}
}
