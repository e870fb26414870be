package securestore

import (
	"crypto/hmac"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"ironsafe/internal/pager"
)

// This file implements the secure read path (see DESIGN.md, "Scan pipeline &
// verification batching"): ReadPages fetches a whole run of pages, decrypts
// and authenticates them in a bounded worker pool outside the store mutex,
// then performs one batched Merkle verification that hashes each shared
// ancestor exactly once instead of once per page. ReadPage is the same read
// over one page.

// ErrSnapshotRetry reports that a read raced concurrent commits repeatedly:
// every attempt observed a commit-sequence bump between fetching the records
// and verifying them against the tree. The pages as fetched would have mixed
// two transaction-boundary states, so the store refuses them.
var ErrSnapshotRetry = errors.New("securestore: batched read raced concurrent commits; retry")

// readPagesRetries bounds how many times a read re-fetches pages that lost
// the race against a concurrent commit before giving up with
// ErrSnapshotRetry.
const readPagesRetries = 4

// ReadPage fetches, authenticates, decrypts, and freshness-checks one page:
// ReadPages over that page alone, except that it is not counted as a scan
// batch.
func (s *Store) ReadPage(idx uint32) ([]byte, error) {
	pages, err := s.readPages([]uint32{idx})
	if err != nil {
		return nil, err
	}
	return pages[0], nil
}

// ReadPages implements the batched half of pager.PageStore: it returns the
// plaintext of every page in idxs, in order, or fails the whole batch. The
// batch is verified against a single commit-boundary state — if commits land
// between the device fetch and the verification, the batch is re-fetched; a
// persistent race fails with ErrSnapshotRetry rather than ever returning a
// torn view. Any authentication or freshness mismatch fails the whole batch
// with ErrIntegrity (fail closed: no prefix of a bad batch is released).
func (s *Store) ReadPages(idxs []uint32) ([][]byte, error) {
	if len(idxs) == 0 {
		return nil, nil
	}
	s.meter.ScanBatches.Add(1)
	return s.readPages(idxs)
}

// readPages is ReadPages' retry loop over read attempts.
func (s *Store) readPages(idxs []uint32) ([][]byte, error) {
	for attempt := 0; attempt < readPagesRetries; attempt++ {
		out, retry, err := s.readPagesAt(idxs, min(runtime.GOMAXPROCS(0), runtime.NumCPU()))
		if err != nil {
			return nil, err
		}
		if !retry {
			return out, nil
		}
	}
	return nil, ErrSnapshotRetry
}

// readPagesAt runs one read attempt, opening its records on up to workers
// goroutines — readPages passes as many as can run at once, so one P (the
// benchmark's timed run, any one-P deployment) opens them inline. retry
// reports that a concurrent commit moved the store past the snapshot this
// attempt fetched at.
func (s *Store) readPagesAt(idxs []uint32, workers int) (out [][]byte, retry bool, err error) {
	// Snapshot the commit sequence.
	s.mu.Lock()
	if s.failed != nil {
		ferr := s.failed
		s.mu.Unlock()
		return nil, false, fmt.Errorf("%w: %w", ErrStoreFailed, ferr)
	}
	if s.rebuilding {
		s.mu.Unlock()
		return nil, false, ErrRebuilding
	}
	for _, idx := range idxs {
		if idx >= s.nextAlloc {
			s.mu.Unlock()
			return nil, false, fmt.Errorf("securestore: page %d not allocated", idx)
		}
	}
	seq0 := s.seq
	s.mu.Unlock()

	// Fetch, decrypt and authenticate outside the lock.
	out = make([][]byte, len(idxs))
	pc := s.getCrypto()
	defer s.putCrypto(pc)
	if err := s.fetchOpen(pc, idxs, out, workers); err != nil {
		return nil, false, err
	}

	// Verify the pages against one tree state. A commit may have landed while
	// we were off the lock: its records on the medium no longer match the tree
	// we hold, so the attempt is discarded and re-fetched.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		releaseAll(out)
		return nil, false, fmt.Errorf("%w: %w", ErrStoreFailed, s.failed)
	}
	if s.seq != seq0 {
		releaseAll(out)
		return nil, true, nil
	}
	if err := s.verifyBatch(pc.tree, idxs, pc.macs); err != nil {
		releaseAll(out)
		return nil, false, err
	}
	return out, false, nil
}

// releaseAll hands back the pages of a read that is not returning them.
func releaseAll(pages [][]byte) {
	for _, p := range pages {
		pager.Release(p)
	}
	clear(pages)
}

// readPageLocked is one page's read with s.mu already held: the walks of
// rebuild.go hold the lock across every page they read, so a whole walk sees
// one committed state (commits need the lock end to end). No commit can land
// between fetch and verify, so there is no snapshot to retry.
func (s *Store) readPageLocked(idx uint32) ([]byte, error) {
	idxs := []uint32{idx}
	out := make([][]byte, 1)
	pc := s.getCrypto()
	defer s.putCrypto(pc)
	if err := s.fetchOpen(pc, idxs, out, 1); err != nil {
		return nil, err
	}
	if err := s.verifyBatch(pc.tree, idxs, pc.macs); err != nil {
		pager.Release(out[0])
		return nil, err
	}
	return out[0], nil
}

// fetchOpen fetches the records of idxs into pc.records and opens them into
// out, on up to workers goroutines. The records are fetched sequentially, in
// index order: the device-operation sequence must stay a deterministic
// function of the request, because the fault-injection framework keys its
// per-site streams on it. Each record is the caller's own buffer
// (pager.BlockDevice): openGroup decrypts it into a pooled page, copies its
// MAC into pc.macs, which is what verifyBatch reads, and releases it. On an
// error no page is handed out.
func (s *Store) fetchOpen(pc *pageCrypto, idxs []uint32, out [][]byte, workers int) error {
	pc.records = pc.records[:0]
	for _, idx := range idxs {
		record, err := s.dev.ReadBlock(idx)
		if err != nil {
			return err
		}
		pc.records = append(pc.records, record)
	}
	records := pc.records
	pc.macs = slices.Grow(pc.macs[:0], len(idxs))[:len(idxs)] // reuses the MAC slices
	macs := pc.macs
	s.meter.PagesRead.Add(int64(len(idxs)))

	// Open in groups of eight pages — the MAC kernel's width — inline or on
	// the worker pool, which takes whole groups. Errors are collected per page
	// and reported for the lowest page index, so the outcome depends neither
	// on the worker count nor on goroutine scheduling.
	pc.errs = append(pc.errs[:0], make([]error, len(idxs))...)
	errs := pc.errs
	groups := (len(idxs) + macLanes - 1) / macLanes
	if workers = min(workers, groups); workers <= 1 {
		for lo := 0; lo < len(idxs); lo += macLanes {
			hi := min(lo+macLanes, len(idxs))
			s.openGroup(pc, idxs[lo:hi], records[lo:hi], out[lo:hi], macs[lo:hi], errs[lo:hi])
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				wpc := s.getCrypto()
				defer s.putCrypto(wpc)
				for {
					lo := int(next.Add(macLanes)) - macLanes
					if lo >= len(idxs) {
						return
					}
					hi := min(lo+macLanes, len(idxs))
					s.openGroup(wpc, idxs[lo:hi], records[lo:hi], out[lo:hi], macs[lo:hi], errs[lo:hi])
				}
			}()
		}
		wg.Wait()
	}
	for k, oerr := range errs {
		if oerr != nil {
			releaseAll(out)
			return fmt.Errorf("securestore: reading page %d: %w", idxs[k], oerr)
		}
	}
	s.meter.PagesDecrypted.Add(int64(len(idxs)))
	return nil
}

// verifyBatch checks a set of leaves against the trusted in-memory tree with
// shared-ancestor deduplication: the leaf hash of every page is recomputed
// and compared, then the distinct parents form a frontier that is hashed and
// compared level by level — each internal node exactly once, no matter how
// many pages in the batch sit below it. A batch spanning the whole leaf
// range therefore degenerates to one full root recomputation, and a batch of
// one page walks that page's whole path to the root: no node is trusted
// because an earlier read checked it. Any mismatch fails the entire batch
// with ErrIntegrity. It is the store's only Merkle verifier; the caller holds
// s.mu.
//
// The MerkleHashes meter charges exactly the HMACs evaluated, and
// MerkleHashesSaved records how many the equivalent sequence of one-page
// verifications would have evaluated on top of that: each of those hashes a
// leaf and every level above it.
func (s *Store) verifyBatch(mac *treeMAC, idxs []uint32, recordMACs [][]byte) error {
	baseline := len(idxs) * len(s.levels)
	hashed := 0
	for k, idx := range idxs {
		mac.Reset()
		leaf := leafMAC(mac, mac.sum[:0], idx, recordMACs[k])
		hashed++
		if !hmac.Equal(leaf, s.levels[0][idx]) {
			s.meter.MerkleHashes.Add(int64(hashed))
			return fmt.Errorf("%w: page %d leaf mismatch", ErrIntegrity, idx)
		}
	}

	// Propagate a sorted, deduplicated frontier toward the root. Sorting
	// keeps the comparison order — and therefore which mismatch is reported
	// — deterministic.
	frontier := make([]int, len(idxs))
	for k, idx := range idxs {
		frontier[k] = int(idx)
	}
	sort.Ints(frontier)
	for lvl := 1; lvl < len(s.levels) && len(frontier) > 0; lvl++ {
		parents := frontier[:0]
		last := -1
		for _, i := range frontier {
			parent := i / arity
			if parent == last {
				continue
			}
			last = parent
			lo, hi := parent*arity, parent*arity+arity
			if hi > len(s.levels[lvl-1]) {
				hi = len(s.levels[lvl-1])
			}
			mac.Reset()
			node := nodeMAC(mac, mac.sum[:0], lvl, parent, s.levels[lvl-1][lo:hi])
			hashed++
			if !hmac.Equal(node, s.levels[lvl][parent]) {
				s.meter.MerkleHashes.Add(int64(hashed))
				return fmt.Errorf("%w: merkle node (%d,%d) mismatch in batch", ErrIntegrity, lvl, parent)
			}
			parents = append(parents, parent)
		}
		frontier = parents
	}

	s.meter.MerkleHashes.Add(int64(hashed))
	if saved := baseline - hashed; saved > 0 {
		s.meter.MerkleHashesSaved.Add(int64(saved))
	}
	s.meter.MerkleVerifies.Add(int64(len(idxs)))
	return nil
}

// compile-time interface check: the secure store satisfies the batched
// PageStore contract.
var _ pager.PageStore = (*Store)(nil)
