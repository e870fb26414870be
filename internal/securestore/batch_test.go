package securestore

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"testing"

	"ironsafe/internal/pager"
)

// fillPages writes n distinct pages through the journaled commit path and
// returns the expected plaintext prefixes.
func fillPages(t *testing.T, s *Store, n int) []string {
	t.Helper()
	want := make([]string, n)
	txn := s.Begin()
	for i := 0; i < n; i++ {
		idx, err := txn.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fmt.Sprintf("batch-page-%03d", idx)
		if err := txn.WritePage(idx, []byte(want[i])); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestReadPagesMatchesReadPage pins the batched path's contract across the
// option matrix: for any batch shape, ReadPages returns exactly what per-page
// ReadPage calls would.
func TestReadPagesMatchesReadPage(t *testing.T) {
	variants := []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"arity8", Options{Arity: 8}},
		{"gcm", Options{GCM: true}},
		{"verifiedSubtrees", Options{CacheVerifiedSubtrees: true}},
	}
	batches := [][]uint32{
		nil,
		{0},
		{3, 4, 5, 6},
		{0, 7, 31, 14, 2}, // unordered, spanning subtrees
		{5, 5, 5},         // duplicates
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			e := newEnv(t)
			s := e.open(t, v.opts)
			fillPages(t, s, 32)
			all := make([]uint32, 32)
			for i := range all {
				all[i] = uint32(i)
			}
			for round := 0; round < 2; round++ { // round 2 hits any caches
				for _, idxs := range append(batches, all) {
					got, err := s.ReadPages(idxs)
					if err != nil {
						t.Fatalf("round %d ReadPages(%v): %v", round, idxs, err)
					}
					if len(got) != len(idxs) {
						t.Fatalf("ReadPages(%v) returned %d pages", idxs, len(got))
					}
					for i, idx := range idxs {
						want, err := s.ReadPage(idx)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got[i], want) {
							t.Fatalf("round %d page %d: batched read diverges from ReadPage", round, idx)
						}
					}
				}
			}
		})
	}
}

// TestReadPagesFailClosed pins fail-closed batching: one bad page anywhere in
// the batch fails the whole batch with ErrIntegrity — no prefix is released.
func TestReadPagesFailClosed(t *testing.T) {
	t.Run("tamperedRecord", func(t *testing.T) {
		e := newEnv(t)
		s := e.open(t, Options{})
		fillPages(t, s, 16)
		raw, err := e.dev.ReadBlock(9)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0x40
		if err := e.dev.WriteBlock(9, raw); err != nil {
			t.Fatal(err)
		}
		idxs := []uint32{7, 8, 9, 10}
		got, err := s.ReadPages(idxs)
		if !errors.Is(err, ErrIntegrity) {
			t.Fatalf("ReadPages over tampered page: err = %v, want ErrIntegrity", err)
		}
		if got != nil {
			t.Fatal("failed batch released pages")
		}
	})
	t.Run("leafMismatch", func(t *testing.T) {
		e := newEnv(t)
		s := e.open(t, Options{})
		fillPages(t, s, 16)
		// Corrupt the trusted leaf so the record authenticates but disagrees
		// with the tree: verifyBatch must refuse the batch.
		s.mu.Lock()
		s.levels[0][5][0] ^= 0x01
		s.mu.Unlock()
		if _, err := s.ReadPages([]uint32{4, 5, 6}); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("leaf mismatch: err = %v, want ErrIntegrity", err)
		}
	})
}

// TestReadPagesRespectsPoisonStates pins that the batched path refuses failed
// and rebuilding stores exactly like the sequential one.
func TestReadPagesRespectsPoisonStates(t *testing.T) {
	e := newEnv(t)
	s := e.open(t, Options{})
	fillPages(t, s, 4)

	s.mu.Lock()
	s.rebuilding = true
	s.mu.Unlock()
	if _, err := s.ReadPages([]uint32{0, 1}); !errors.Is(err, ErrRebuilding) {
		t.Fatalf("rebuilding store: err = %v, want ErrRebuilding", err)
	}
	s.mu.Lock()
	s.rebuilding = false
	s.failed = errors.New("poisoned by test")
	s.mu.Unlock()
	if _, err := s.ReadPages([]uint32{0, 1}); !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("failed store: err = %v, want ErrStoreFailed", err)
	}

	if _, err := s.ReadPages([]uint32{99}); err == nil {
		t.Fatal("unallocated page accepted")
	}
}

// TestBatchedVerificationSavesHashes is the meter-level regression test for
// shared-ancestor deduplication: with subtree caching off (the paper's
// default), a whole-range batch must evaluate strictly fewer Merkle HMACs
// than the equivalent per-page reads, and MerkleHashesSaved must account for
// exactly the difference.
func TestBatchedVerificationSavesHashes(t *testing.T) {
	e := newEnv(t)
	s := e.open(t, Options{})
	fillPages(t, s, 32)
	all := make([]uint32, 32)
	for i := range all {
		all[i] = uint32(i)
	}

	before := e.meter.Snapshot()
	for _, idx := range all {
		if _, err := s.ReadPage(idx); err != nil {
			t.Fatal(err)
		}
	}
	seq := e.meter.Snapshot().Sub(before).MerkleHashes

	before = e.meter.Snapshot()
	if _, err := s.ReadPages(all); err != nil {
		t.Fatal(err)
	}
	d := e.meter.Snapshot().Sub(before)

	if d.MerkleHashes >= seq {
		t.Fatalf("batched verify evaluated %d hashes, sequential %d — no dedup", d.MerkleHashes, seq)
	}
	if d.MerkleHashesSaved != seq-d.MerkleHashes {
		t.Fatalf("MerkleHashesSaved = %d, want %d (= %d sequential - %d batched)",
			d.MerkleHashesSaved, seq-d.MerkleHashes, seq, d.MerkleHashes)
	}
	if d.ScanBatches != 1 {
		t.Fatalf("ScanBatches = %d, want 1", d.ScanBatches)
	}
}

// TestReadPagesConcurrentWithCommits races whole-range batched reads against
// a committing writer under the race detector. Every successful batch must be
// a single transaction-boundary snapshot — all pages from one generation —
// and the only acceptable failure is ErrSnapshotRetry.
func TestReadPagesConcurrentWithCommits(t *testing.T) {
	const pages = 12
	e := newEnv(t)
	s := e.open(t, Options{})
	fillPages(t, s, pages)
	all := make([]uint32, pages)
	for i := range all {
		all[i] = uint32(i)
	}

	stamp := func(gen, idx int) string { return fmt.Sprintf("gen-%04d-page-%02d", gen, idx) }
	writeGen := func(gen int) error {
		txn := s.Begin()
		for i := 0; i < pages; i++ {
			if err := txn.WritePage(uint32(i), []byte(stamp(gen, i))); err != nil {
				return err
			}
		}
		return txn.Commit()
	}
	if err := writeGen(0); err != nil {
		t.Fatal(err)
	}

	const gens = 40
	var wg sync.WaitGroup
	wg.Add(1)
	writerErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		for g := 1; g <= gens; g++ {
			if err := writeGen(g); err != nil {
				writerErr <- err
				return
			}
		}
	}()

	var snapshots, retries int
	for done := false; !done; {
		select {
		case err := <-writerErr:
			t.Fatalf("writer: %v", err)
		default:
		}
		got, err := s.ReadPages(all)
		if errors.Is(err, ErrSnapshotRetry) {
			retries++
			continue
		}
		if err != nil {
			t.Fatalf("reader: %v", err)
		}
		var gen int
		if _, err := fmt.Sscanf(string(got[0][:len(stamp(0, 0))]), "gen-%04d", &gen); err != nil {
			t.Fatalf("unparsable page stamp %q", got[0][:16])
		}
		for i := range got {
			if want := stamp(gen, i); !bytes.HasPrefix(got[i], []byte(want)) {
				t.Fatalf("torn batch: page 0 is generation %d but page %d reads %q", gen, i, got[i][:16])
			}
		}
		snapshots++
		done = gen == gens
	}
	wg.Wait()
	t.Logf("observed %d consistent snapshots, %d snapshot retries", snapshots, retries)
}

// faultBlockDevice fails the k-th ReadBlock it sees with a deterministic
// error, then recovers.
type faultBlockDevice struct {
	inner  pager.BlockDevice
	count  int
	failAt int // 1-based op number to fail; 0 disables
}

func (d *faultBlockDevice) ReadBlock(idx uint32) ([]byte, error) {
	d.count++
	if d.failAt > 0 && d.count == d.failAt {
		return nil, fmt.Errorf("injected read fault at device op %d (page %d)", d.count, idx)
	}
	return d.inner.ReadBlock(idx)
}

func (d *faultBlockDevice) WriteBlock(idx uint32, data []byte) error {
	return d.inner.WriteBlock(idx, data)
}
func (d *faultBlockDevice) NumBlocks() uint32 { return d.inner.NumBlocks() }

// TestReadPagesFaultSweep injects a device read fault at every operation
// boundary of a batched scan ("Sweep" puts it in the crashsweep gate). Each
// fault point must fail the batch without poisoning the store — the next
// fault-free batch returns correct data — and the full sweep's outcome digest
// must be byte-identical across runs.
func TestReadPagesFaultSweep(t *testing.T) {
	const pages = 16
	runSweep := func() ([32]byte, error) {
		e := newEnv(t)
		s := e.open(t, Options{})
		want := fillPages(t, s, pages)
		all := make([]uint32, pages)
		for i := range all {
			all[i] = uint32(i)
		}
		fd := &faultBlockDevice{inner: e.dev}
		s.dev = fd

		// A clean batch reads exactly `pages` blocks; sweep one past the end
		// to cover the no-fault case inside the same digest.
		var h bytes.Buffer
		for k := 1; k <= pages+1; k++ {
			fd.count, fd.failAt = 0, k
			got, err := s.ReadPages(all)
			if err != nil {
				fmt.Fprintf(&h, "k=%d err=%v\n", k, err)
			} else {
				fmt.Fprintf(&h, "k=%d ok\n", k)
				for i := range got {
					if !bytes.HasPrefix(got[i], []byte(want[i])) {
						return [32]byte{}, fmt.Errorf("k=%d: page %d wrong contents", k, i)
					}
				}
			}
			// Recovery probe: with the fault cleared the same batch succeeds.
			fd.failAt = 0
			got, err = s.ReadPages(all)
			if err != nil {
				return [32]byte{}, fmt.Errorf("k=%d: store poisoned by read fault: %w", k, err)
			}
			for i := range got {
				if !bytes.HasPrefix(got[i], []byte(want[i])) {
					return [32]byte{}, fmt.Errorf("k=%d: post-fault page %d wrong contents", k, i)
				}
			}
		}
		return sha256.Sum256(h.Bytes()), nil
	}

	d1, err := runSweep()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := runSweep()
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("fault sweep not deterministic: %x vs %x", d1, d2)
	}
}
