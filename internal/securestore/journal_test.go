package securestore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"testing"

	"ironsafe/internal/faultinject"
	"ironsafe/internal/pager"
)

// stateDigest canonically hashes the store's visible state: page count plus
// every page's plaintext.
func stateDigest(t *testing.T, s *Store) string {
	t.Helper()
	h := sha256.New()
	n := s.NumPages()
	fmt.Fprintf(h, "n=%d|", n)
	for i := uint32(0); i < n; i++ {
		p, err := s.ReadPage(i)
		if err != nil {
			t.Fatalf("digest read page %d: %v", i, err)
		}
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGroupCommitOneRPMBWritePerTxn(t *testing.T) {
	e := newEnv(t)
	s := e.open(t, Options{})
	const pages = 10

	base := e.meter.Snapshot()
	seq0 := s.Seq()
	txn := s.Begin()
	for i := 0; i < pages; i++ {
		idx, err := txn.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := txn.WritePage(idx, []byte(fmt.Sprintf("txn-page-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	grouped := e.meter.Snapshot().Sub(base).RPMBWrites
	if grouped != 1 {
		t.Errorf("group commit of %d pages cost %d RPMB writes, want 1", pages, grouped)
	}
	// The commit seq is the ingest ack's anchor: one group commit advances it
	// by exactly one, no matter how many writers' pages share the txn.
	if got := s.Seq(); got != seq0+1 {
		t.Errorf("group commit advanced seq %d -> %d, want exactly +1", seq0, got)
	}

	// An empty txn is a no-op: no journal record, no RPMB advance, no seq —
	// an ack anchored on its "commit" would be a lie.
	base = e.meter.Snapshot()
	if err := s.Begin().Commit(); err != nil {
		t.Fatal(err)
	}
	if got := e.meter.Snapshot().Sub(base).RPMBWrites; got != 0 {
		t.Errorf("empty txn cost %d RPMB writes, want 0", got)
	}
	if got := s.Seq(); got != seq0+1 {
		t.Errorf("empty txn advanced seq to %d, want it held at %d", got, seq0+1)
	}

	base = e.meter.Snapshot()
	for i := 0; i < pages; i++ {
		if err := s.WritePage(uint32(i), []byte("single")); err != nil {
			t.Fatal(err)
		}
	}
	single := e.meter.Snapshot().Sub(base).RPMBWrites
	if single != pages {
		t.Errorf("%d single-page writes cost %d RPMB writes, want %d", pages, single, pages)
	}
	if err := s.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

func TestTxnCommitVisibilityAndReopen(t *testing.T) {
	e := newEnv(t)
	s := e.open(t, Options{})
	idx, _ := s.Allocate()
	s.WritePage(idx, []byte("old"))

	txn := s.Begin()
	if err := txn.WritePage(idx, []byte("new")); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadPage(idx)
	if err != nil || !bytes.HasPrefix(got, []byte("old")) {
		t.Fatalf("staged write visible before commit: %q %v", got[:3], err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	got, err = s.ReadPage(idx)
	if err != nil || !bytes.HasPrefix(got, []byte("new")) {
		t.Fatalf("committed write not visible: %q %v", got[:3], err)
	}

	s2, err := Open(e.dev, e.nw, e.meter, Options{})
	if err != nil {
		t.Fatalf("reopen after txn commit: %v", err)
	}
	if err := s2.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

func TestTxnAbortDiscardsAndReservationsGapFill(t *testing.T) {
	e := newEnv(t)
	s := e.open(t, Options{})
	txn := s.Begin()
	a, _ := txn.Allocate()
	txn.WritePage(a, []byte("doomed"))
	txn.Abort()
	if err := txn.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Errorf("commit after abort = %v, want ErrTxnDone", err)
	}
	if s.NumPages() != 0 {
		t.Errorf("aborted txn leaked pages: NumPages = %d", s.NumPages())
	}
	// The aborted reservation stays reserved: the next allocation skips it,
	// and committing past it persists the gap as a zero page.
	idx, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if idx == a {
		t.Errorf("aborted reservation %d handed out again", a)
	}
	gap, err := s.ReadPage(a)
	if err != nil {
		t.Fatalf("gap page %d unreadable: %v", a, err)
	}
	if !bytes.Equal(gap, make([]byte, pager.PageSize)) {
		t.Error("gap page not zero")
	}
	if _, err := Open(e.dev, e.nw, e.meter, Options{}); err != nil {
		t.Fatalf("reopen after gap fill: %v", err)
	}
}

func TestConcurrentAllocateDistinctIndices(t *testing.T) {
	e := newEnv(t)
	s := e.open(t, Options{})
	const goroutines = 8
	const perG = 6
	var wg sync.WaitGroup
	got := make([][]uint32, goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				idx, err := s.Allocate()
				if err != nil {
					errs[g] = err
					return
				}
				got[g] = append(got[g], idx)
			}
		}(g)
	}
	wg.Wait()
	seen := map[uint32]bool{}
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for _, idx := range got[g] {
			if seen[idx] {
				t.Fatalf("page index %d allocated twice", idx)
			}
			seen[idx] = true
		}
	}
	if len(seen) != goroutines*perG {
		t.Errorf("allocated %d distinct pages, want %d", len(seen), goroutines*perG)
	}
	if err := s.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(e.dev, e.nw, e.meter, Options{}); err != nil {
		t.Fatalf("reopen after concurrent allocates: %v", err)
	}
}

// crashCommit runs a two-page overwrite transaction over a PowerCut armed at
// write k, then revives the device; it returns the error the commit died with.
func crashCommit(t *testing.T, e *testEnv, s *Store, cut *faultinject.PowerCut, k int, tear bool) error {
	t.Helper()
	cut.Arm(k, tear, 77)
	txn := s.Begin()
	for i := uint32(0); i < 2; i++ {
		if err := txn.WritePage(i, []byte(fmt.Sprintf("crashed-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	err := txn.Commit()
	cut.Disarm()
	cut.Revive()
	return err
}

// setupCrashWindow builds the canonical mid-commit crash state: two pages
// committed honestly, then a second transaction whose in-place writes die
// after the journal record and the data/meta writes but before the header —
// the medium no longer matches the anchor and only the journal bridges them.
func setupCrashWindow(t *testing.T, tear bool) (*testEnv, string) {
	t.Helper()
	e := newEnv(t)
	cut := faultinject.NewPowerCut(e.dev, "unit")
	s, err := Open(cut, e.nw, e.meter, Options{})
	if err != nil {
		t.Fatal(err)
	}
	txn := s.Begin()
	for i := 0; i < 2; i++ {
		idx, _ := txn.Allocate()
		txn.WritePage(idx, []byte(fmt.Sprintf("base-%d", i)))
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	want := stateDigest(t, s)
	// Overwrite commit write sequence: journal, data x2, meta x1, header.
	// Kill the header write (write 5) so leaves are new but the header and
	// anchor still describe the old state.
	if err := crashCommit(t, e, s, cut, 5, tear); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("crash commit error = %v, want injected", err)
	}
	// Recovery must replay the journal: the post-state digest is the
	// crashed transaction's contents.
	return e, want
}

func TestCrashMidCommitRecoversToNewState(t *testing.T) {
	for _, tear := range []bool{false, true} {
		e, _ := setupCrashWindow(t, tear)
		s, err := Open(e.dev, e.nw, e.meter, Options{})
		if err != nil {
			t.Fatalf("tear=%t: reopen after mid-commit crash: %v", tear, err)
		}
		for i := uint32(0); i < 2; i++ {
			got, err := s.ReadPage(i)
			if err != nil {
				t.Fatalf("tear=%t: page %d after recovery: %v", tear, i, err)
			}
			if want := fmt.Sprintf("crashed-%d", i); !bytes.HasPrefix(got, []byte(want)) {
				t.Errorf("tear=%t: page %d = %q, want %q", tear, i, got[:9], want)
			}
		}
		if err := s.VerifyAll(); err != nil {
			t.Fatalf("tear=%t: VerifyAll after recovery: %v", tear, err)
		}
	}
}

func TestCrashAfterJournalCompletesCommit(t *testing.T) {
	e := newEnv(t)
	cut := faultinject.NewPowerCut(e.dev, "unit")
	s, err := Open(cut, e.nw, e.meter, Options{})
	if err != nil {
		t.Fatal(err)
	}
	txn := s.Begin()
	for i := 0; i < 2; i++ {
		idx, _ := txn.Allocate()
		txn.WritePage(idx, []byte("v1"))
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	// Kill the first in-place write (write 2): only the journal record made
	// it. The commit is durable from the journal alone.
	if err := crashCommit(t, e, s, cut, 2, false); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("crash commit error = %v", err)
	}
	s2, err := Open(e.dev, e.nw, e.meter, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got, err := s2.ReadPage(0)
	if err != nil || !bytes.HasPrefix(got, []byte("crashed-0")) {
		t.Errorf("journaled commit not replayed: %q %v", got[:9], err)
	}
	if err := s2.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

func TestCrashDuringJournalWriteKeepsOldState(t *testing.T) {
	for _, tear := range []bool{false, true} {
		e := newEnv(t)
		cut := faultinject.NewPowerCut(e.dev, "unit")
		s, err := Open(cut, e.nw, e.meter, Options{})
		if err != nil {
			t.Fatal(err)
		}
		txn := s.Begin()
		for i := 0; i < 2; i++ {
			idx, _ := txn.Allocate()
			txn.WritePage(idx, []byte(fmt.Sprintf("old-%d", i)))
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		want := stateDigest(t, s)
		// Kill the journal write itself (write 1): nothing of the new
		// transaction may survive.
		if err := crashCommit(t, e, s, cut, 1, tear); !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("tear=%t: crash commit error = %v", tear, err)
		}
		s2, err := Open(e.dev, e.nw, e.meter, Options{})
		if err != nil {
			t.Fatalf("tear=%t: reopen: %v", tear, err)
		}
		if got := stateDigest(t, s2); got != want {
			t.Errorf("tear=%t: state after torn journal write differs from pre-commit state", tear)
		}
	}
}

func TestPoisonedStoreRefusesIO(t *testing.T) {
	e := newEnv(t)
	cut := faultinject.NewPowerCut(e.dev, "unit")
	s, err := Open(cut, e.nw, e.meter, Options{})
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := s.Allocate()
	s.WritePage(idx, []byte("ok"))
	cut.Arm(3, false, 1)
	txn := s.Begin()
	txn.WritePage(idx, []byte("boom"))
	txn.WritePage(idx+5, []byte("boom2"))
	if err := txn.Commit(); err == nil {
		t.Fatal("commit over dying device succeeded")
	}
	if _, err := s.ReadPage(idx); !errors.Is(err, ErrStoreFailed) {
		t.Errorf("read on poisoned store = %v, want ErrStoreFailed", err)
	}
	if err := s.VerifyAll(); !errors.Is(err, ErrStoreFailed) {
		t.Errorf("VerifyAll on poisoned store = %v, want ErrStoreFailed", err)
	}
	txn2 := s.Begin()
	txn2.WritePage(0, []byte("x"))
	if err := txn2.Commit(); !errors.Is(err, ErrStoreFailed) {
		t.Errorf("commit on poisoned store = %v, want ErrStoreFailed", err)
	}
	cut.Disarm()
	cut.Revive()
	if _, err := Open(e.dev, e.nw, e.meter, Options{}); err != nil {
		t.Fatalf("reopen after poisoned commit: %v", err)
	}
}

func TestCrashBetweenHeaderAndAnchorRecovers(t *testing.T) {
	// The one crash point no device-write boundary reaches: every in-place
	// write landed but the RPMB anchor never advanced. Recovery must replay
	// (idempotently) and advance the anchor itself.
	e := newEnv(t)
	anchor := &failingAnchor{inner: RPMBAnchor{NW: e.nw}}
	s, err := OpenWith(e.dev, TZKeySource{NW: e.nw}, anchor, e.meter)
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := s.Allocate()
	s.WritePage(idx, []byte("v1"))
	anchor.failNext = true
	if err := s.WritePage(idx, []byte("v2")); err == nil {
		t.Fatal("commit with dead anchor succeeded")
	}
	s2, err := Open(e.dev, e.nw, e.meter, Options{})
	if err != nil {
		t.Fatalf("reopen after anchor-write crash: %v", err)
	}
	got, err := s2.ReadPage(idx)
	if err != nil || !bytes.HasPrefix(got, []byte("v2")) {
		t.Errorf("anchored recovery lost the committed write: %q %v", got[:2], err)
	}
	if err := s2.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

// failingAnchor fails StoreRoot once on demand — the crash between the
// header write and the anchor advance.
type failingAnchor struct {
	inner    RPMBAnchor
	failNext bool
}

func (a *failingAnchor) StoreRoot(tag []byte) error {
	if a.failNext {
		a.failNext = false
		return errors.New("simulated power cut before RPMB write")
	}
	return a.inner.StoreRoot(tag)
}

func (a *failingAnchor) LoadRoot(nonce []byte) ([]byte, error) { return a.inner.LoadRoot(nonce) }

// journalTap is a device that keeps a copy of the last journal record
// written through it. A commit releases its record once the anchor names the
// post-state, so the medium no longer holds it after Commit returns; the tap
// holds what an adversary watching the medium's write stream captures, and
// what a crash between the anchor advance and the release leaves behind.
type journalTap struct {
	pager.BlockDevice
	record []byte
}

func (d *journalTap) WriteBlock(idx uint32, data []byte) error {
	if idx == journalBlock && len(data) > 0 {
		d.record = append([]byte(nil), data...)
	}
	return d.BlockDevice.WriteBlock(idx, data)
}

// openTapped opens a store on e's medium through a journalTap.
func (e *testEnv) openTapped(t *testing.T) (*Store, *journalTap) {
	t.Helper()
	tap := &journalTap{BlockDevice: e.dev}
	s, err := Open(tap, e.nw, e.meter, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s, tap
}

// TestCommitReleasesJournalRecord: once Commit returns, the journal block
// holds no record. Restoring the record — the medium a crash between the
// anchor advance and the release leaves — opens in the commit's post-state;
// after the release nothing bridges a tampered header or a one-commit rewind
// to the anchor, so both fail closed.
func TestCommitReleasesJournalRecord(t *testing.T) {
	e := newEnv(t)
	s, tap := e.openTapped(t)
	idx, _ := s.Allocate()
	s.WritePage(idx, []byte("v1"))
	preV2 := e.dev.SnapshotBlocks()
	if err := s.WritePage(idx, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	want := stateDigest(t, s)
	blob, err := e.dev.ReadBlock(journalBlock)
	if err != nil {
		t.Fatal(err)
	}
	if j, err := s.decodeJournal(blob); len(blob) != 0 || j != nil || err != nil {
		t.Fatalf("journal block after Commit holds %d bytes (record %v, %v), want none", len(blob), j != nil, err)
	}
	if j, err := s.decodeJournal(tap.record); j == nil || err != nil || j.Seq != s.Seq() {
		t.Fatalf("captured record = %v, %v; want the v2 commit's", j, err)
	}
	released := e.dev.SnapshotBlocks()

	// A crash before the release: the record's post-state is the anchored
	// one and the medium already equals it, so recovery discards it.
	e.dev.WriteBlock(journalBlock, tap.record)
	s2, err := Open(e.dev, e.nw, e.meter, Options{})
	if err != nil {
		t.Fatalf("open with the record the release window leaves: %v", err)
	}
	if got := stateDigest(t, s2); got != want {
		t.Error("store opened with an unreleased record is not in the commit's post-state")
	}
	if err := s2.VerifyAll(); err != nil {
		t.Fatal(err)
	}

	// A tampered header after the release.
	e.dev.RestoreBlocks(released)
	e.dev.WriteBlock(headerBlock, make([]byte, headerSize))
	if _, err := Open(e.dev, e.nw, e.meter, Options{}); !errors.Is(err, ErrFreshness) {
		t.Errorf("header tamper after the release: open = %v, want ErrFreshness", err)
	}

	// A one-commit rewind after the release (v1's record was released too).
	e.dev.RestoreBlocks(preV2)
	if _, err := Open(e.dev, e.nw, e.meter, Options{}); !errors.Is(err, ErrFreshness) {
		t.Errorf("one-commit rewind after the release: open = %v, want ErrFreshness", err)
	}
}

func TestStaleJournalSegmentDiscardedOnConsistentMedium(t *testing.T) {
	e := newEnv(t)
	s, tap := e.openTapped(t)
	idx, _ := s.Allocate()
	s.WritePage(idx, []byte("v1"))
	staleJournal := tap.record // v1's journal record, from the write stream
	if staleJournal == nil {
		t.Fatal("no journal record written")
	}
	s.WritePage(idx, []byte("v2"))
	// Replay the old (validly MACed) journal segment onto the newer state.
	e.dev.WriteBlock(journalBlock, staleJournal)
	s2, err := Open(e.dev, e.nw, e.meter, Options{})
	if err != nil {
		t.Fatalf("open with stale journal: %v", err)
	}
	got, err := s2.ReadPage(idx)
	if err != nil || !bytes.HasPrefix(got, []byte("v2")) {
		t.Errorf("stale journal rolled the page back: %q %v", got[:2], err)
	}
	if err := s2.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

func TestStaleJournalOntoRolledBackMediumRefused(t *testing.T) {
	e := newEnv(t)
	s, tap := e.openTapped(t)
	idx, _ := s.Allocate()
	snap := e.dev.SnapshotBlocks() // pre-state of the v1 commit
	s.WritePage(idx, []byte("v1"))
	staleJournal := tap.record     // v1's journal record, from the write stream
	s.WritePage(idx, []byte("v2")) // anchor advances past v1
	if staleJournal == nil {
		t.Fatal("no journal record written")
	}

	// Roll the medium back to v1's pre-state and replay v1's journal: the
	// journal bridges pre-v1 -> v1, but the anchor is at v2. Fail closed.
	e.dev.RestoreBlocks(snap)
	e.dev.WriteBlock(journalBlock, staleJournal)
	if _, err := Open(e.dev, e.nw, e.meter, Options{}); !errors.Is(err, ErrFreshness) {
		t.Errorf("stale journal replay open = %v, want ErrFreshness", err)
	}
}

func TestRollbackToPreStateOfAnchoredCommitReplaysForward(t *testing.T) {
	e := newEnv(t)
	s, tap := e.openTapped(t)
	idx, _ := s.Allocate()
	s.WritePage(idx, []byte("v1"))
	snap := e.dev.SnapshotBlocks() // state v1 (v1's journal released)
	s.WritePage(idx, []byte("v2")) // anchored
	v2Journal := tap.record        // v2's journal record, from the write stream
	if v2Journal == nil {
		t.Fatal("no journal record written")
	}

	// Rewind the medium to v1 and put v2's captured journal record in place
	// (as a crash in v2's release window leaves it): replaying it reproduces
	// exactly the anchored v2 state, so the rewind achieves nothing.
	e.dev.RestoreBlocks(snap)
	e.dev.WriteBlock(journalBlock, v2Journal)
	s2, err := Open(e.dev, e.nw, e.meter, Options{})
	if err != nil {
		t.Fatalf("open after one-commit rewind with intact journal: %v", err)
	}
	got, err := s2.ReadPage(idx)
	if err != nil || !bytes.HasPrefix(got, []byte("v2")) {
		t.Errorf("replay did not restore the anchored state: %q %v", got[:2], err)
	}
	if err := s2.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

func TestTruncatedJournalTailFailsClosed(t *testing.T) {
	e, _ := setupCrashWindow(t, false)
	blob, err := e.dev.ReadBlock(journalBlock)
	if err != nil {
		t.Fatal(err)
	}
	e.dev.WriteBlock(journalBlock, blob[:len(blob)/2])
	if _, err := Open(e.dev, e.nw, e.meter, Options{}); !errors.Is(err, ErrFreshness) {
		t.Errorf("truncated journal open = %v, want ErrFreshness", err)
	}
}

func TestBitFlippedJournalFailsClosed(t *testing.T) {
	e, _ := setupCrashWindow(t, false)
	if err := e.dev.Corrupt(journalBlock, 100); err != nil {
		t.Fatal(err)
	}
	_, err := Open(e.dev, e.nw, e.meter, Options{})
	if !errors.Is(err, ErrFreshness) {
		t.Errorf("bit-flipped journal open = %v, want ErrFreshness", err)
	}
	if !errors.Is(err, ErrJournalCorrupt) {
		t.Errorf("bit-flipped journal open = %v, want ErrJournalCorrupt cause", err)
	}
}

func TestJournalRecordRoundTripAndTornDecode(t *testing.T) {
	e := newEnv(t)
	s := e.open(t, Options{})
	jrec := &journalRecord{
		Seq:     7,
		PrevTag: bytes.Repeat([]byte{1}, 32),
		PostTag: bytes.Repeat([]byte{2}, 32),
		PostN:   3,
		Entries: []journalEntry{
			{Idx: 0, RecordMAC: []byte("mac0"), Record: []byte("record-zero")},
			{Idx: 2, RecordMAC: []byte("mac2"), Record: []byte("record-two")},
		},
	}
	blob := s.encodeJournal(jrec)
	got, err := s.decodeJournal(blob)
	if err != nil || got == nil {
		t.Fatalf("decode: %v %v", got, err)
	}
	if got.Seq != 7 || got.PostN != 3 || len(got.Entries) != 2 ||
		got.Entries[1].Idx != 2 || !bytes.Equal(got.Entries[1].Record, []byte("record-two")) {
		t.Errorf("round trip mismatch: %+v", got)
	}
	// Every strict prefix is structurally incomplete: torn, not corrupt.
	for cut := 1; cut < len(blob); cut += 7 {
		j, err := s.decodeJournal(blob[:cut])
		if err != nil || j != nil {
			t.Fatalf("prefix of %d bytes decoded to %v, %v; want nil, nil", cut, j, err)
		}
	}
	// A complete blob with one flipped bit is corrupt.
	bad := append([]byte(nil), blob...)
	bad[50] ^= 1
	if _, err := s.decodeJournal(bad); !errors.Is(err, ErrJournalCorrupt) {
		t.Errorf("flipped journal decode = %v, want ErrJournalCorrupt", err)
	}
}
