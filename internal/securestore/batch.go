package securestore

import (
	"crypto/hmac"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"ironsafe/internal/pager"
)

// This file implements the batched secure read path (see DESIGN.md, "Scan
// pipeline & verification batching"): ReadPages fetches a whole run of
// pages, decrypts and authenticates them in a bounded worker pool outside
// the store mutex, then performs one batched Merkle verification that hashes
// each shared ancestor exactly once instead of once per page.

// ErrSnapshotRetry reports that a batched read raced concurrent commits
// repeatedly: every attempt observed a commit-sequence bump between fetching
// the records and verifying them against the tree. The batch as returned
// would have mixed two transaction-boundary states, so the store refuses it.
var ErrSnapshotRetry = errors.New("securestore: batched read raced concurrent commits; retry")

// readPagesRetries bounds how many times ReadPages re-fetches a batch that
// lost the race against a concurrent commit before giving up with
// ErrSnapshotRetry.
const readPagesRetries = 4

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

// readPagesAt runs one batched read attempt, opening its records on up to
// workers goroutines — ReadPages passes as many as can run at once, so one P
// (the benchmark's timed run, any one-P deployment) opens them inline. retry
// reports that a concurrent commit moved the store past the snapshot this
// attempt fetched at.
func (s *Store) readPagesAt(idxs []uint32, workers int) (out [][]byte, retry bool, err error) {
	out = make([][]byte, len(idxs))

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

	s.meter.ScanBatches.Add(1)

	// Fetch the records sequentially, in index order: the device-operation
	// sequence must stay a deterministic function of the request, because the
	// fault-injection framework keys its per-site streams on it. Each record
	// is the caller's own buffer (pager.BlockDevice), and the only one its
	// page ever gets: openPage decrypts it in place.
	pc := s.getCrypto()
	defer s.putCrypto(pc)
	pc.records = pc.records[:0]
	for _, idx := range idxs {
		record, rerr := s.dev.ReadBlock(idx)
		if rerr != nil {
			return nil, false, rerr
		}
		pc.records = append(pc.records, record)
	}
	records := pc.records
	s.meter.PagesRead.Add(int64(len(idxs)))

	// Decrypt + authenticate outside the lock. Errors are collected per page
	// and reported for the lowest page index, so the outcome depends neither
	// on the worker count nor on goroutine scheduling. An opened record's slot
	// keeps only its MAC, which is what verifyBatch reads.
	pc.errs = append(pc.errs[:0], make([]error, len(idxs))...)
	errs := pc.errs
	if workers = min(workers, len(idxs)); workers <= 1 {
		for k, idx := range idxs {
			out[k], records[k], errs[k] = s.openPage(pc, idx, records[k])
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
					k := int(next.Add(1)) - 1
					if k >= len(idxs) {
						return
					}
					out[k], records[k], errs[k] = s.openPage(wpc, idxs[k], records[k])
				}
			}()
		}
		wg.Wait()
	}
	for k, oerr := range errs {
		if oerr != nil {
			return nil, false, fmt.Errorf("securestore: batched read of page %d: %w", idxs[k], oerr)
		}
	}
	s.meter.PagesDecrypted.Add(int64(len(idxs)))

	// Verify the whole batch against one tree state. A commit may have landed
	// while we were off the lock: its records on the medium no longer match
	// the tree we hold, so the attempt is discarded and re-fetched.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return nil, false, fmt.Errorf("%w: %w", ErrStoreFailed, s.failed)
	}
	if s.seq != seq0 {
		return nil, true, nil
	}
	if err := s.verifyBatch(pc.tree, idxs, records); err != nil {
		return nil, false, err
	}
	return out, false, nil
}

// verifyBatch checks a set of leaves against the trusted in-memory tree with
// shared-ancestor deduplication: the leaf hash of every page is recomputed
// and compared, then the distinct parents form a frontier that is hashed and
// compared level by level — each internal node exactly once, no matter how
// many pages in the batch sit below it. A batch spanning the whole leaf
// range therefore degenerates to one full root recomputation. Any mismatch
// fails the entire batch with ErrIntegrity. The caller holds s.mu.
//
// The MerkleHashes meter charges exactly the HMACs evaluated, and
// MerkleHashesSaved records how many the equivalent sequence of per-page
// verifyPath calls would have evaluated on top of that.
func (s *Store) verifyBatch(mac *treeMAC, idxs []uint32, recordMACs [][]byte) error {
	a := s.opts.arity()

	// Price the sequential baseline first, against the pre-batch verified
	// map, simulating the marks per-page calls would have left as they went.
	baseline := 0
	var seen map[[2]int]bool
	if s.opts.CacheVerifiedSubtrees {
		seen = map[[2]int]bool{}
	}
	for _, idx := range idxs {
		baseline++ // leaf hash
		i := int(idx)
		for lvl := 1; lvl < len(s.levels); lvl++ {
			parent := i / a
			if s.opts.CacheVerifiedSubtrees && (s.verified[[2]int{lvl, parent}] || seen[[2]int{lvl, parent}]) {
				break
			}
			baseline++
			if s.opts.CacheVerifiedSubtrees {
				seen[[2]int{lvl, parent}] = true
			}
			i = parent
		}
	}

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
			parent := i / a
			if parent == last {
				continue
			}
			last = parent
			if s.opts.CacheVerifiedSubtrees && s.verified[[2]int{lvl, parent}] {
				continue // subtree already trusted; nothing above it to recheck
			}
			lo, hi := parent*a, parent*a+a
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
			if s.opts.CacheVerifiedSubtrees {
				s.verified[[2]int{lvl, parent}] = true
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
