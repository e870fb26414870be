// Authenticated redo journal and atomic group commit.
//
// Before this journal existed, persisting one page took four independent,
// unordered device writes (data block, meta-region leaf mirror, header, RPMB
// root anchor); a power cut between any two of them left a medium whose
// recomputed Merkle root no longer matched the anchor, indistinguishable from
// a rollback attack. The journal closes that hole with EnclaveDB-style
// trusted logging:
//
//  1. A Txn batches page writes. Commit seals every page, then writes ONE
//     journal record — sequence number, per-page record MACs, full sealed
//     records, pre- and post-state root tags — authenticated under a
//     dedicated HMAC key derived from the hardware-rooted secret.
//  2. Only after the journal record is durably on the medium do the in-place
//     writes (data blocks, leaf mirror, header) proceed, and only after those
//     does the RPMB anchor advance to the post-state tag, which binds the new
//     root, page count, AND the journal sequence number.
//  3. On reopen, recovery compares the rebuilt medium state and the journal
//     against the anchor and deterministically lands on exactly the old or
//     the new anchored state (decision table in DESIGN.md, "Durability &
//     crash consistency"). A stale journal segment, a truncated-but-
//     authenticated-looking record, or a rolled-back medium still fails
//     closed with ErrFreshness or ErrJournalCorrupt.
//
// Group commit also collapses the per-page RPMB traffic: one StoreRoot call
// per transaction instead of one per page, which is the difference between
// O(pages) and O(1) monotonic-counter advances on a bulk load.
package securestore

import (
	"bytes"
	"cmp"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"

	"ironsafe/internal/pager"
)

// journalBlock is the reserved device address of the redo journal record.
// At most one record lives there: the journal of a commit whose anchor
// advance has not been followed by its release (releaseJournal), which
// leaves the block empty. Recovery never needs more than one record, because
// the anchor only ever lags the medium by a single transaction, and none once
// the anchor names a record's post-state.
const journalBlock = uint32(0x7FFF_FFFE)

// journalMagic begins every journal record; a block without it is not a
// journal (e.g. the torn prefix of an interrupted journal write).
var journalMagic = []byte("ISJ1")

// ErrJournalCorrupt reports a journal record that is structurally complete
// but fails authentication — a bit flip or deliberate tamper, never a torn
// power-cut write (a torn prefix cannot include the trailing MAC and is
// classified as absent instead). Recovery fails closed on it.
var ErrJournalCorrupt = errors.New("securestore: journal record corrupt (authentication failed)")

// ErrTxnDone reports use of a transaction after Commit or Abort.
var ErrTxnDone = errors.New("securestore: transaction already finished")

// ErrStoreFailed reports an operation on a store poisoned by a failed commit:
// the medium may hold a torn transaction, so the in-memory state is no longer
// trustworthy. Reopen the store to run journal recovery.
var ErrStoreFailed = errors.New("securestore: store failed mid-commit; reopen to recover")

// journalEntry is one page image inside a journal record.
type journalEntry struct {
	Idx       uint32
	RecordMAC []byte // the per-page MAC bound into the Merkle leaf
	Record    []byte // the full sealed on-medium record (redo image)
}

// journalRecord is the unit of group commit.
type journalRecord struct {
	Seq     uint64 // post-state sequence number (pre-state seq + 1)
	PrevTag []byte // root tag of the state the commit started from
	PostTag []byte // root tag the anchor advances to
	PostN   uint32 // page count after the commit
	Entries []journalEntry
}

// encodeJournal serializes and authenticates a record under the journal key.
func (s *Store) encodeJournal(j *journalRecord) []byte {
	size := len(journalMagic) + 8 + len(j.PrevTag) + len(j.PostTag) + 4 + 4 + sha256.Size
	for _, e := range j.Entries {
		size += 12 + len(e.RecordMAC) + len(e.Record)
	}
	var b bytes.Buffer
	b.Grow(size) // one allocation, not a doubling chain that copies every record
	b.Write(journalMagic)
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], j.Seq)
	b.Write(u64[:])
	b.Write(j.PrevTag)
	b.Write(j.PostTag)
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], j.PostN)
	b.Write(u32[:])
	binary.LittleEndian.PutUint32(u32[:], uint32(len(j.Entries)))
	b.Write(u32[:])
	for _, e := range j.Entries {
		binary.LittleEndian.PutUint32(u32[:], e.Idx)
		b.Write(u32[:])
		binary.LittleEndian.PutUint32(u32[:], uint32(len(e.RecordMAC)))
		b.Write(u32[:])
		b.Write(e.RecordMAC)
		binary.LittleEndian.PutUint32(u32[:], uint32(len(e.Record)))
		b.Write(u32[:])
		b.Write(e.Record)
	}
	mac := hmac.New(sha256.New, s.jnlKey)
	mac.Write(b.Bytes())
	b.Write(mac.Sum(nil))
	return b.Bytes()
}

// decodeJournal parses and authenticates a journal block. A structurally
// incomplete blob (torn write) returns (nil, nil) — recovery treats it as "no
// journal". A structurally complete blob whose MAC fails returns
// ErrJournalCorrupt — that can only be tampering, so it fails closed.
func (s *Store) decodeJournal(blob []byte) (*journalRecord, error) {
	const tagLen = sha256.Size
	if len(blob) < len(journalMagic) || !bytes.Equal(blob[:len(journalMagic)], journalMagic) {
		return nil, nil
	}
	body := blob
	pos := len(journalMagic)
	need := func(n int) bool { return pos+n <= len(body)-tagLen }
	if !need(8 + tagLen + tagLen + 4 + 4) {
		return nil, nil
	}
	j := &journalRecord{}
	j.Seq = binary.LittleEndian.Uint64(body[pos:])
	pos += 8
	j.PrevTag = append([]byte(nil), body[pos:pos+tagLen]...)
	pos += tagLen
	j.PostTag = append([]byte(nil), body[pos:pos+tagLen]...)
	pos += tagLen
	j.PostN = binary.LittleEndian.Uint32(body[pos:])
	pos += 4
	n := binary.LittleEndian.Uint32(body[pos:])
	pos += 4
	for i := uint32(0); i < n; i++ {
		var e journalEntry
		if !need(8) {
			return nil, nil
		}
		e.Idx = binary.LittleEndian.Uint32(body[pos:])
		pos += 4
		macLen := int(binary.LittleEndian.Uint32(body[pos:]))
		pos += 4
		if macLen < 0 || !need(macLen+4) {
			return nil, nil
		}
		e.RecordMAC = append([]byte(nil), body[pos:pos+macLen]...)
		pos += macLen
		recLen := int(binary.LittleEndian.Uint32(body[pos:]))
		pos += 4
		if recLen < 0 || !need(recLen) {
			return nil, nil
		}
		e.Record = append([]byte(nil), body[pos:pos+recLen]...)
		pos += recLen
		j.Entries = append(j.Entries, e)
	}
	if pos != len(body)-tagLen {
		return nil, nil // trailing garbage or short MAC: not a whole record
	}
	mac := hmac.New(sha256.New, s.jnlKey)
	mac.Write(body[:pos])
	if !hmac.Equal(mac.Sum(nil), body[pos:]) {
		return nil, ErrJournalCorrupt
	}
	return j, nil
}

// readJournal fetches and authenticates the journal block, mapping "never
// written" and "torn" to (nil, nil).
func (s *Store) readJournal() (*journalRecord, error) {
	blob, err := s.dev.ReadBlock(journalBlock)
	if errors.Is(err, pager.ErrBlockNotFound) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("securestore: reading journal: %w", err)
	}
	return s.decodeJournal(blob)
}

// Txn batches page writes for one atomic group commit. A Txn is not safe for
// concurrent use; concurrent Txns on one store are (commits serialize, and
// Allocate reserves indices atomically so they never collide).
type Txn struct {
	s     *Store
	pages map[uint32][]byte // staged plaintext page images
	done  bool
}

// Begin opens a transaction.
func (s *Store) Begin() *Txn {
	return &Txn{s: s, pages: map[uint32][]byte{}}
}

// BeginTxn implements pager.TxnStore.
func (s *Store) BeginTxn() pager.StoreTxn { return s.Begin() }

// WritePage stages a logical page write. len(data) must be <= PageSize;
// shorter pages are zero-padded at commit.
func (t *Txn) WritePage(idx uint32, data []byte) error {
	if t.done {
		return ErrTxnDone
	}
	if len(data) > pager.PageSize {
		return fmt.Errorf("securestore: page %d write of %d bytes exceeds page size", idx, len(data))
	}
	t.pages[idx] = append([]byte(nil), data...)
	return nil
}

// Allocate reserves a fresh page index for this transaction and stages it as
// a zero page. The reservation is atomic across concurrent transactions:
// two racing Allocates can never return the same index.
func (t *Txn) Allocate() (uint32, error) {
	if t.done {
		return 0, ErrTxnDone
	}
	s := t.s
	s.mu.Lock()
	idx := s.nextReserve
	s.nextReserve++
	s.mu.Unlock()
	t.pages[idx] = nil
	return idx, nil
}

// Abort discards the staged writes. Indices reserved by Allocate stay
// reserved; the next commit that grows past them persists them as zero pages.
func (t *Txn) Abort() { t.done = true }

// Commit seals the staged pages, writes one authenticated journal record,
// applies the in-place writes, and advances the RPMB anchor — all or nothing
// at every crash point (recovery replays or discards deterministically).
func (t *Txn) Commit() error {
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	if len(t.pages) == 0 {
		return nil
	}
	s := t.s

	// Seal outside the store lock: sealing touches only immutable keys.
	idxs := make([]uint32, 0, len(t.pages))
	maxIdx := uint32(0)
	for idx := range t.pages {
		idxs = append(idxs, idx)
		if idx > maxIdx {
			maxIdx = idx
		}
	}
	slices.Sort(idxs)
	pc := s.getCrypto()
	defer s.putCrypto(pc)
	entries, err := s.sealPages(pc, idxs, t.pages)
	if err != nil {
		return err
	}
	// The commit's two HMACs come from out here too: mac hashes every leaf,
	// node and mirrored leaf of the commit, rootMAC — keyed once — its pre-
	// and post-state tags.
	mac, rootMAC := pc.tree, hmac.New(sha256.New, s.rootKey)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return fmt.Errorf("%w: %w", ErrStoreFailed, s.failed)
	}

	// Gap-fill: indices reserved (by this or an aborted transaction) below
	// the new high-water mark but never written become real sealed zero
	// pages, so the persisted leaf set is always dense and reopenable.
	oldN := s.nextAlloc
	newN := max(oldN, maxIdx+1)
	staged := len(entries)
	for idx := oldN; idx < newN; idx++ {
		if _, ok := t.pages[idx]; ok {
			continue
		}
		//ironsafe:allow lockcrypto -- gap-fill seals only reserved-but-unwritten zero pages, bounded by the reservation high-water mark
		record, recordMAC, err := s.sealPage(pc, idx, nil)
		if err != nil {
			return err
		}
		entries = append(entries, journalEntry{Idx: idx, RecordMAC: recordMAC, Record: record})
	}
	if len(entries) > staged {
		slices.SortFunc(entries, func(a, b journalEntry) int { return cmp.Compare(a.Idx, b.Idx) })
	}

	prevTag := s.rootTagWith(rootMAC)

	// Update the in-memory tree to the post-state: the written leaves, then
	// their ancestors. Growth also shifts the child range of the boundary
	// node at each level — the old tail leaf's ancestors — so that leaf joins
	// the dirty set; the gap-fill above makes entries dense over [oldN, newN),
	// so every node growth adds has a dirty leaf below it.
	if grow := int(newN) - len(s.levels[0]); grow > 0 {
		s.levels[0] = append(s.levels[0], make([][]byte, grow)...)
	}
	dirty := make([]int, 0, len(entries)+1)
	for _, e := range entries {
		mac.Reset()
		s.levels[0][e.Idx] = leafMAC(mac, s.levels[0][e.Idx][:0], e.Idx, e.RecordMAC)
		dirty = append(dirty, int(e.Idx))
	}
	if newN > oldN && oldN > 0 {
		if at, found := slices.BinarySearch(dirty, int(oldN)-1); !found {
			dirty = slices.Insert(dirty, at, int(oldN)-1)
		}
	}
	s.updateAncestors(mac, dirty)
	s.nextAlloc = newN
	if s.nextReserve < newN {
		s.nextReserve = newN
	}
	s.seq++
	postTag := s.rootTagWith(rootMAC)

	// Journal first: once this write completes the transaction is durable;
	// a crash at any later point replays it from here.
	jrec := &journalRecord{Seq: s.seq, PrevTag: prevTag, PostTag: postTag, PostN: newN, Entries: entries}
	//ironsafe:allow journalbypass -- this IS the journal commit write
	if err := s.dev.WriteBlock(journalBlock, s.encodeJournal(jrec)); err != nil {
		return s.poison(fmt.Errorf("securestore: journal write: %w", err))
	}
	if err := s.applyEntries(mac, jrec); err != nil {
		return s.poison(err)
	}
	s.meter.PagesWritten.Add(int64(len(entries)))
	s.meter.PagesEncrypted.Add(int64(len(entries)))
	// One anchor advance per transaction — the group-commit win.
	if err := s.anchorRoot(postTag); err != nil {
		return s.poison(err)
	}
	if err := s.releaseJournal(); err != nil {
		return s.poison(err)
	}
	return nil
}

// releaseJournal empties the journal block once the anchor names the
// record's post-state: the medium then equals the anchor, so recovery needs
// nothing from the record, and the medium need not keep a copy of every page
// the last commit wrote. decodeJournal reads the empty block as "no journal".
// A crash before the release leaves a record whose post-state is the
// anchored one, and recovery discards it (recoverState's first row). The
// release moves no meter: like the journal write, it is not a page write.
func (s *Store) releaseJournal() error {
	//ironsafe:allow journalbypass -- empties a journal record the anchor has passed; recovery reads the empty block as no journal
	if err := s.dev.WriteBlock(journalBlock, nil); err != nil {
		return fmt.Errorf("securestore: journal release: %w", err)
	}
	return nil
}

// poison marks the store failed by a commit that died on the medium and
// returns ErrStoreFailed wrapping the cause: the commit that poisons the
// store says so itself, so a caller needs no knowledge of the device's error
// values to tell a dead node from a rejected transaction. Caller holds s.mu.
func (s *Store) poison(err error) error {
	s.failed = err
	return fmt.Errorf("%w: %w", ErrStoreFailed, err)
}

// applyEntries performs the in-place writes of a journal record: data blocks,
// meta-region leaf mirror (batched one write per meta block), and the header.
// It is the shared redo path of commit and crash recovery, and must stay
// idempotent: recovery may re-run it over a partially applied medium. mac is
// the caller's tree HMAC, which the mirrored leaves are computed with.
func (s *Store) applyEntries(mac *treeMAC, j *journalRecord) error {
	for _, e := range j.Entries {
		//ironsafe:allow journalbypass -- in-place data write ordered after the journal record
		if err := s.dev.WriteBlock(e.Idx, e.Record); err != nil {
			return fmt.Errorf("securestore: page %d write: %w", e.Idx, err)
		}
	}
	// Group leaves by meta block so each block is read-modified-written once.
	byBlock := map[uint32][]journalEntry{}
	for _, e := range j.Entries {
		blk := metaBase + e.Idx/leavesPerMetaBlock
		byBlock[blk] = append(byBlock[blk], e)
	}
	blks := make([]uint32, 0, len(byBlock))
	for blk := range byBlock {
		blks = append(blks, blk)
	}
	sort.Slice(blks, func(i, j int) bool { return blks[i] < blks[j] })
	for _, blk := range blks {
		buf, err := s.dev.ReadBlock(blk)
		if errors.Is(err, pager.ErrBlockNotFound) {
			buf = make([]byte, pager.PageSize)
		} else if err != nil {
			return fmt.Errorf("securestore: meta block %d: %w", blk, err)
		}
		if len(buf) < pager.PageSize {
			buf = append(buf, make([]byte, pager.PageSize-len(buf))...)
		}
		for _, e := range byBlock[blk] {
			off := int(e.Idx%leavesPerMetaBlock) * nodeSize
			mac.Reset()
			leafMAC(mac, buf[off:off:off+nodeSize], e.Idx, e.RecordMAC) // appended in place
		}
		//ironsafe:allow journalbypass -- leaf-mirror write ordered after the journal record
		if err := s.dev.WriteBlock(blk, buf); err != nil {
			return fmt.Errorf("securestore: meta block %d write: %w", blk, err)
		}
	}
	hdr := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(hdr[0:4], j.PostN)
	binary.LittleEndian.PutUint64(hdr[4:12], j.Seq)
	//ironsafe:allow journalbypass -- header write ordered after the journal record
	if err := s.dev.WriteBlock(headerBlock, hdr); err != nil {
		return fmt.Errorf("securestore: header write: %w", err)
	}
	return nil
}

// recoverState runs the crash-vs-rollback decision procedure at open time.
// The medium state has already been loaded into s (tree, nextAlloc, seq); the
// anchored tag is in anchored. Exactly one of four outcomes results:
//
//	medium == anchor, no bridging journal   -> old state, journal discarded
//	medium == anchor, journal seq == seq+1
//	  and journal.prev == anchor            -> redo (commit was durable but
//	                                           unanchored), anchor advances
//	medium != anchor, journal.prev == anchor-> redo from crash point,
//	                                           anchor advances
//	medium != anchor, journal.post == anchor-> redo restores the already-
//	                                           anchored state
//
// Anything else fails closed with ErrFreshness — a stale or tampered journal
// is never replayed. Authentication gates replay only: a MAC-failing journal
// is DISCARDED when the medium already matches the anchor (a torn journal
// write during a power cut can be byte-indistinguishable from a bit flip, and
// the anchored state needs nothing from the journal), but when the medium
// does not match the anchor the journal is the only bridge, so the same
// failure surfaces as ErrFreshness wrapping ErrJournalCorrupt.
func (s *Store) recoverState(anchored []byte) error {
	jrec, jerr := s.readJournal()
	mediumTag := s.rootTag()
	if hmac.Equal(anchored, mediumTag) {
		if jrec != nil && jrec.Seq == s.seq+1 && hmac.Equal(jrec.PrevTag, mediumTag) {
			return s.redo(jrec, true)
		}
		return nil
	}
	if jerr != nil {
		return fmt.Errorf("%w: medium does not match anchor and %w", ErrFreshness, jerr)
	}
	if jrec != nil && hmac.Equal(jrec.PrevTag, anchored) {
		return s.redo(jrec, true)
	}
	if jrec != nil && hmac.Equal(jrec.PostTag, anchored) {
		// The commit anchored but the medium was rewound to its pre-state;
		// replaying lands exactly on the anchored state, so the rewind
		// achieved nothing.
		return s.redo(jrec, false)
	}
	return ErrFreshness
}

// redo replays a journal record onto the medium, reloads, and verifies the
// result against the record's post-state tag; advance then moves the anchor
// forward. Redo is idempotent — a crash during recovery just reruns it.
func (s *Store) redo(j *journalRecord, advance bool) error {
	if err := s.applyEntries(s.treeMAC(), j); err != nil {
		return err
	}
	if err := s.readMediumState(); err != nil {
		return err
	}
	if !hmac.Equal(s.rootTag(), j.PostTag) {
		return fmt.Errorf("%w: journal replay did not reproduce the recorded post-state", ErrFreshness)
	}
	if advance {
		if err := s.anchorRoot(j.PostTag); err != nil {
			return err
		}
	}
	return s.checkRootAnchor()
}
