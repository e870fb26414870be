// Package securestore implements IronSafe's secure storage framework for the
// untrusted storage medium (§4.1): every 4 KiB page is individually encrypted
// (AES-256-CBC with a random IV) and authenticated (HMAC-SHA-512), a Merkle
// tree of HMACs spans all pages, and the tree root — keyed with a device-
// unique, HUK-derived key — is persisted in the RPMB so that rollback and
// fork attacks against the medium are detected.
//
// The store exposes the same PageStore interface as the plain pager, so the
// database engine is oblivious to whether it runs on a secure or vanilla
// medium — exactly the paper's SQLite-VFS-callback architecture.
package securestore

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/sha512"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"sync"

	"ironsafe/internal/pager"
	"ironsafe/internal/simtime"
	"ironsafe/internal/tee/trustzone"
)

const (
	ivSize     = aes.BlockSize
	macSize    = sha512.Size
	nodeSize   = sha256.Size
	recordSize = ivSize + pager.PageSize + macSize

	// Device block address map: logical data pages occupy the low range,
	// the Merkle leaf mirror lives in the meta region, a single header
	// block records the page count and commit sequence number, and the
	// block below it holds the redo journal (journal.go).
	metaBase    = uint32(0x8000_0000)
	headerBlock = uint32(0x7FFF_FFFF)

	leavesPerMetaBlock = pager.PageSize / nodeSize

	// headerSize is the on-medium header: page count (u32) then the commit
	// sequence number (u64), both little-endian.
	headerSize = 12

	// arity is the Merkle tree's fan-out: the paper's binary tree.
	arity = 2
)

// Options configures a Store.
type Options struct {
	// RPMBSlot selects the RPMB address holding the root tag.
	RPMBSlot uint16
}

// KeySource derives the store's keys from a hardware-rooted secret: the
// TrustZone secure-storage TA (HUK-derived) on the storage system, or an
// SGX-sealed secret inside the host enclave for the host-only configuration.
type KeySource interface {
	DeriveKey(label string) ([]byte, error)
}

// RootAnchor persists the Merkle root tag in rollback-protected storage:
// the RPMB on the storage system, or enclave-protected memory on the host.
type RootAnchor interface {
	StoreRoot(tag []byte) error
	LoadRoot(nonce []byte) ([]byte, error)
}

// Store is a confidentiality+integrity+freshness protected PageStore.
type Store struct {
	dev    pager.BlockDevice
	keys   KeySource
	anchor RootAnchor
	meter  *simtime.Meter

	encKey  []byte // page encryption key (from secure-storage TA)
	macKey  []byte // page HMAC key
	treeKey []byte // Merkle node key
	rootKey []byte // device-bound root-tag key
	jnlKey  []byte // journal-record authentication key

	block   cipher.Block // AES keyed with encKey, built once at open; safe for concurrent use
	cbc     *cbcKernel   // CBC-decrypt kernel over encKey (nil where the platform has none); safe for concurrent use
	mac8    *macKernel   // page-MAC kernel over macKey (nil where the platform has none); safe for concurrent use
	cryptos sync.Pool    // idle *pageCrypto, the per-worker page-crypto states

	mu        sync.Mutex
	levels    [][][]byte // levels[0] = leaves; last level = [root]
	nextAlloc uint32     // committed page count
	// nextReserve is the allocation high-water mark, >= nextAlloc: indices
	// in [nextAlloc, nextReserve) are reserved by open transactions and
	// become durable (as written or zero pages) at the next growing commit.
	nextReserve uint32
	seq         uint64 // commit sequence number, bound into the root tag
	failed      error  // set when a commit died mid-flight; poisons the store

	// rebuilding is set while the on-medium rebuild marker (rebuild.go) is
	// present: the store is mid-import from a donor replica and must refuse
	// integrity sweeps (and with them readmission) until FinalizeImport.
	rebuilding bool
	markerRoot []byte // the marker's manifest content root, for resume checks
}

// ErrFreshness reports a detected rollback, replay, or fork of the medium.
var ErrFreshness = errors.New("securestore: freshness violation (rollback or fork detected)")

// ErrIntegrity reports a tampered or corrupted page.
var ErrIntegrity = errors.New("securestore: integrity violation")

// Open initializes (or re-attaches to) a secure store on dev with keys from
// the TrustZone secure world and the root anchored in RPMB — the storage
// system's configuration. Reopening a rolled-back medium fails with
// ErrFreshness.
func Open(dev pager.BlockDevice, nw *trustzone.NormalWorld, meter *simtime.Meter, opts Options) (*Store, error) {
	return OpenWith(dev, TZKeySource{NW: nw}, RPMBAnchor{NW: nw, Slot: opts.RPMBSlot}, meter)
}

// OpenWith is Open with explicit key and anchor providers (used by the
// host-only-secure configuration, where both live inside the SGX enclave).
func OpenWith(dev pager.BlockDevice, keys KeySource, anchor RootAnchor, meter *simtime.Meter) (*Store, error) {
	s, err := newStore(dev, keys, anchor, meter)
	if err != nil {
		return nil, err
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	return s, nil
}

// newStore constructs a store and derives its keys, without loading the
// medium (the shared front half of OpenWith and OpenRebuildWith).
func newStore(dev pager.BlockDevice, keys KeySource, anchor RootAnchor, meter *simtime.Meter) (*Store, error) {
	if meter == nil {
		return nil, errors.New("securestore: meter required")
	}
	s := &Store{dev: dev, keys: keys, anchor: anchor, meter: meter}
	for _, k := range []struct {
		label string
		dst   *[]byte
	}{
		{"page-enc", &s.encKey},
		{"page-mac", &s.macKey},
		{"merkle-tree", &s.treeKey},
		{"merkle-root", &s.rootKey},
		{"journal-mac", &s.jnlKey},
	} {
		key, err := keys.DeriveKey(k.label)
		if err != nil {
			return nil, fmt.Errorf("securestore: deriving %s: %w", k.label, err)
		}
		*k.dst = key
	}
	if len(s.encKey) != 32 {
		return nil, fmt.Errorf("securestore: page key is %d bytes, AES-256 takes 32", len(s.encKey))
	}
	block, err := aes.NewCipher(s.encKey)
	if err != nil {
		return nil, fmt.Errorf("securestore: page cipher: %w", err)
	}
	s.block = block
	s.cbc = newCBCKernel(s.encKey)
	s.mac8 = newMACKernel(s.macKey)
	return s, nil
}

// TZKeySource derives keys via the TrustZone secure-storage TA.
type TZKeySource struct{ NW *trustzone.NormalWorld }

// DeriveKey implements KeySource.
func (t TZKeySource) DeriveKey(label string) ([]byte, error) {
	return t.NW.DeriveStorageKey(label)
}

// RPMBAnchor stores the root tag in the device RPMB via the secure world.
type RPMBAnchor struct {
	NW   *trustzone.NormalWorld
	Slot uint16
}

// StoreRoot implements RootAnchor.
func (a RPMBAnchor) StoreRoot(tag []byte) error { return a.NW.RPMBWrite(a.Slot, tag) }

// LoadRoot implements RootAnchor.
func (a RPMBAnchor) LoadRoot(nonce []byte) ([]byte, error) {
	resp, err := a.NW.RPMBRead(a.Slot, nonce)
	if err != nil {
		return nil, err
	}
	return resp.Data, nil
}

// load reads the medium, then runs the journal recovery decision procedure
// against the anchor: the store deterministically opens at exactly the old or
// the new anchored state of the most recent commit, or fails closed.
func (s *Store) load() error {
	if err := s.readRebuildMarker(); err != nil {
		return err
	}
	if err := s.readMediumState(); err != nil {
		return err
	}
	anchored, err := s.loadAnchor()
	if err != nil {
		return err
	}
	if len(anchored) == 0 {
		// Never anchored: the first open of this medium+anchor pairing
		// initializes the anchor to the empty-store tag. A medium that
		// already carries state while the anchor is empty means the anchor
		// was wiped or swapped out from under the store.
		if s.nextAlloc != 0 || s.seq != 0 {
			return fmt.Errorf("%w: medium carries state but the anchor is empty", ErrFreshness)
		}
		return s.anchorRoot(s.rootTag())
	}
	return s.recoverState(anchored)
}

// readMediumState reads the header and meta region and rebuilds the in-memory
// tree, without judging it: recovery decides afterwards whether this state is
// the anchored one. An absent header is the empty state; unreadable leaf
// slots load as zero leaves so a torn meta region still produces a tag for
// recovery to compare (a mismatch without a bridging journal fails closed).
func (s *Store) readMediumState() error {
	hdr, err := s.dev.ReadBlock(headerBlock)
	if errors.Is(err, pager.ErrBlockNotFound) {
		s.nextAlloc = 0
		s.seq = 0
		s.rebuildLevels(nil)
		return nil
	}
	if err != nil {
		return fmt.Errorf("securestore: reading header: %w", err)
	}
	if len(hdr) < headerSize {
		// A torn write of the first-ever header leaves a short block. Zero-
		// pad and parse best-effort: the resulting tag matches the anchor
		// only if the bytes are genuine, and recovery fails closed (or
		// redoes the journal) otherwise — the tag, not the header, is the
		// integrity gate.
		hdr = append(append([]byte(nil), hdr...), make([]byte, headerSize-len(hdr))...)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	leaves := make([][]byte, n)
	for i := uint32(0); i < n; i++ {
		blk := metaBase + i/leavesPerMetaBlock
		buf, err := s.dev.ReadBlock(blk)
		if err != nil && !errors.Is(err, pager.ErrBlockNotFound) {
			return fmt.Errorf("securestore: reading meta block %d: %w", blk, err)
		}
		off := int(i%leavesPerMetaBlock) * nodeSize
		leaf := make([]byte, nodeSize)
		if off+nodeSize <= len(buf) {
			copy(leaf, buf[off:off+nodeSize])
		}
		leaves[i] = leaf
	}
	s.nextAlloc = n
	s.seq = binary.LittleEndian.Uint64(hdr[4:12])
	if s.nextReserve < n {
		s.nextReserve = n
	}
	s.rebuildLevels(leaves)
	return nil
}

// rebuildLevels constructs the in-memory (untrusted-mirror) tree from leaves.
func (s *Store) rebuildLevels(leaves [][]byte) {
	mac := s.treeMAC()
	s.levels = [][][]byte{leaves}
	cur := leaves
	for len(cur) > 1 {
		next := make([][]byte, (len(cur)+arity-1)/arity)
		for i := range next {
			mac.Reset()
			next[i] = nodeMAC(mac, nil, len(s.levels), i, cur[i*arity:min(i*arity+arity, len(cur))])
		}
		s.levels = append(s.levels, next)
		cur = next
	}
}

// treeMAC is a Merkle-node HMAC and the scratch its inputs and sums are built
// in, so that hashing a node allocates nothing. Keying one costs two
// compressions and eleven allocations, so whoever hashes nodes — a read's
// frontier, a commit's dirty set — uses the one its pooled
// pageCrypto carries, a load keys its own, and each resets it before every
// nodeMAC / leafMAC call.
type treeMAC struct {
	hash.Hash
	hdr [16]byte
	sum [nodeSize]byte
}

func (s *Store) treeMAC() *treeMAC { return &treeMAC{Hash: hmac.New(sha256.New, s.treeKey)} }

// hashNode computes one internal node HMAC over its children under a freshly
// keyed treeMAC.
func (s *Store) hashNode(level, idx int, children [][]byte) []byte {
	return nodeMAC(s.treeMAC(), nil, level, idx, children)
}

// nodeMAC appends an internal node's HMAC over its children to dst, under a
// fresh or reset treeMAC. The level and index are bound into the MAC so nodes
// cannot be transplanted.
func nodeMAC(mac *treeMAC, dst []byte, level, idx int, children [][]byte) []byte {
	binary.LittleEndian.PutUint64(mac.hdr[0:8], uint64(level))
	binary.LittleEndian.PutUint64(mac.hdr[8:16], uint64(idx))
	mac.Write(mac.hdr[:])
	for _, c := range children {
		mac.Write(c)
	}
	return mac.Sum(dst)
}

// leafMAC appends the Merkle leaf of a page record — its index and record MAC
// — to dst, under a fresh or reset treeMAC.
func leafMAC(mac *treeMAC, dst []byte, idx uint32, recordMAC []byte) []byte {
	n := copy(mac.hdr[:], "leaf|")
	binary.LittleEndian.PutUint32(mac.hdr[n:], idx)
	mac.Write(mac.hdr[:n+4])
	mac.Write(recordMAC)
	return mac.Sum(dst)
}

// root returns the current tree root (the empty-store root is a fixed tag).
func (s *Store) root() []byte {
	top := s.levels[len(s.levels)-1]
	if len(top) == 0 {
		return s.hashNode(0, -1, nil) // canonical empty root
	}
	return top[0]
}

// rootTag binds the root, the page count, and the commit sequence number to
// the device key for RPMB anchoring. Binding seq means two states with
// identical content but different commit histories carry different tags, so
// a stale journal record can never masquerade as the bridge to the anchor.
func (s *Store) rootTag() []byte {
	return s.rootTagWith(hmac.New(sha256.New, s.rootKey))
}

// rootTagWith is rootTag under the caller's HMAC keyed with the root key, so
// that a commit keys one for its pre- and its post-state tag.
func (s *Store) rootTagWith(mac hash.Hash) []byte {
	mac.Reset()
	mac.Write([]byte("root|"))
	mac.Write(s.root())
	var b [12]byte
	binary.LittleEndian.PutUint32(b[0:4], s.nextAlloc)
	binary.LittleEndian.PutUint64(b[4:12], s.seq)
	mac.Write(b[:])
	return mac.Sum(nil)
}

// anchorRoot writes tag, the current state's root tag, to the anchor.
func (s *Store) anchorRoot(tag []byte) error {
	if err := s.anchor.StoreRoot(tag); err != nil {
		return fmt.Errorf("securestore: anchoring root: %w", err)
	}
	return nil
}

// loadAnchor reads the anchored tag with a fresh nonce; empty means the
// anchor slot has never been written.
func (s *Store) loadAnchor() ([]byte, error) {
	nonce := make([]byte, 16)
	if _, err := rand.Read(nonce); err != nil {
		return nil, err
	}
	stored, err := s.anchor.LoadRoot(nonce)
	if err != nil {
		return nil, fmt.Errorf("securestore: reading root anchor: %w", err)
	}
	return stored, nil
}

// checkRootAnchor compares the recomputed root tag with the anchored copy.
func (s *Store) checkRootAnchor() error {
	stored, err := s.loadAnchor()
	if err != nil {
		return err
	}
	if !hmac.Equal(stored, s.rootTag()) {
		return ErrFreshness
	}
	return nil
}

// NumPages implements pager.PageStore.
func (s *Store) NumPages() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextAlloc
}

// Allocate implements pager.PageStore as a single-operation transaction: the
// index reservation and the commit are atomic, so concurrent Allocate calls
// can never hand out the same page (the pre-journal implementation read
// nextAlloc under the lock but wrote the page after releasing it).
func (s *Store) Allocate() (uint32, error) {
	t := s.Begin()
	idx, err := t.Allocate()
	if err != nil {
		return 0, err
	}
	if err := t.Commit(); err != nil {
		return 0, err
	}
	return idx, nil
}

// WritePage encrypts, MACs, and stores the page as a single-page group
// commit: the write goes through the redo journal, so a power cut at any
// point leaves the store recoverable to exactly the old or the new state.
func (s *Store) WritePage(idx uint32, data []byte) error {
	t := s.Begin()
	if err := t.WritePage(idx, data); err != nil {
		return err
	}
	return t.Commit()
}

// updateAncestors brings the tree above a commit's dirty leaves — sorted,
// distinct, already rewritten in levels[0] — to the post-state, level by level
// over the distinct parents: a node several dirty leaves share is hashed
// once, so a commit of k leaves into a store of N costs at most k·log N node
// HMACs (all under mac, keyed once by the caller) however large N is.
// MerkleHashes is charged the nodes recomputed. A level that growth lengthens grows by append, so a
// store that grows one page per commit does not copy a level per commit. The
// caller holds s.mu.
func (s *Store) updateAncestors(mac *treeMAC, dirty []int) {
	hashed := 0
	lvl := 1
	for ; len(s.levels[lvl-1]) > 1; lvl++ {
		below := s.levels[lvl-1]
		if lvl == len(s.levels) {
			s.levels = append(s.levels, nil)
		}
		if grow := (len(below)+arity-1)/arity - len(s.levels[lvl]); grow > 0 {
			s.levels[lvl] = append(s.levels[lvl], make([][]byte, grow)...)
		}
		nodes := s.levels[lvl]
		parents := dirty[:0]
		for _, i := range dirty {
			p := i / arity
			if len(parents) > 0 && parents[len(parents)-1] == p {
				continue
			}
			parents = append(parents, p)
			mac.Reset()
			nodes[p] = nodeMAC(mac, nodes[p][:0], lvl, p, below[p*arity:min(p*arity+arity, len(below))])
		}
		hashed += len(parents)
		dirty = parents
	}
	s.meter.MerkleHashes.Add(int64(hashed))
}

// Quiesce runs fn while the store's commit lock is held. Commit holds the
// lock across the whole journal-write → in-place-apply → anchor sequence, so
// inside fn the medium is always at a transaction boundary: a snapshot taken
// here can be stale relative to later commits but never torn.
func (s *Store) Quiesce(fn func() error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fn()
}

// Seq reports the commit sequence number bound into the anchored root tag.
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// TreeBytes reports the in-memory size of the Merkle tree — the working-set
// contribution that causes EPC paging when the store is verified inside an
// SGX enclave (the paper's Fig 9a effect).
func (s *Store) TreeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, lvl := range s.levels {
		n += int64(len(lvl)) * nodeSize
	}
	return n
}

// VerifyAll re-verifies every allocated page against the anchored root.
// A store mid-rebuild refuses the sweep outright: its content is a partial
// import of a donor replica and must never be certified as readmittable.
func (s *Store) VerifyAll() error {
	s.mu.Lock()
	if s.failed != nil {
		err := s.failed
		s.mu.Unlock()
		return fmt.Errorf("%w: %w", ErrStoreFailed, err)
	}
	if s.rebuilding {
		s.mu.Unlock()
		return ErrRebuilding
	}
	n := s.nextAlloc
	s.mu.Unlock()
	if err := s.checkRootAnchor(); err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		page, err := s.ReadPage(i)
		if err != nil {
			return err
		}
		pager.Release(page)
	}
	return nil
}

// sealPage encrypts and MACs a plaintext page of at most PageSize bytes
// (shorter pages are zero-padded) into one freshly allocated record, IV ‖
// ciphertext ‖ MAC; recordMAC is the record's tail. pc is the caller's.
func (s *Store) sealPage(pc *pageCrypto, idx uint32, plain []byte) (record, recordMAC []byte, err error) {
	if record, err = s.encryptPage(pc, plain); err != nil {
		return nil, nil, err
	}
	// The sum appends within the record's capacity: into its MAC bytes.
	pc.sum(record[:ivSize+pager.PageSize], idx, record[:ivSize], record[ivSize:ivSize+pager.PageSize])
	return record, record[ivSize+pager.PageSize:], nil
}

// encryptPage is the first half of a CBC seal: a freshly allocated record
// holding a random IV and the page encrypted under it, its MAC bytes still
// zero. pc is the caller's.
func (s *Store) encryptPage(pc *pageCrypto, plain []byte) ([]byte, error) {
	record := make([]byte, recordSize)
	iv, ct := record[:ivSize], record[ivSize:ivSize+pager.PageSize]
	if _, err := rand.Read(iv); err != nil {
		return nil, err
	}
	copy(ct, plain)
	pc.enc.SetIV(iv)
	pc.enc.CryptBlocks(ct, ct)
	return record, nil
}

// openPage verifies a stored record and, once the MAC has passed — not a byte
// is decrypted before — decrypts it into a pooled page (pager.Buf) of
// PageSize bytes, the caller's to release. recordMAC is the record's tail.
// The record is only read: one that fails is as it was handed in. pc is the
// caller's.
func (s *Store) openPage(pc *pageCrypto, idx uint32, record []byte) (plain, recordMAC []byte, err error) {
	if len(record) != recordSize {
		return nil, nil, recordSizeError(idx, record)
	}
	return s.openMACed(pc, idx, record, pc.sum(pc.scratch[:0], idx, record[:ivSize], record[ivSize:ivSize+pager.PageSize]))
}

func recordSizeError(idx uint32, record []byte) error {
	return fmt.Errorf("%w: page %d record size %d", ErrIntegrity, idx, len(record))
}

// openMACed is the rest of openPage once the MAC over a whole CBC record has
// been computed, as sum: the record's MAC is compared with it and only then
// is the page decrypted, into a pooled page. The kernel decrypts in place, so
// there the ciphertext is copied into the page first.
func (s *Store) openMACed(pc *pageCrypto, idx uint32, record, sum []byte) (plain, recordMAC []byte, err error) {
	iv := record[:ivSize]
	ct := record[ivSize : ivSize+pager.PageSize]
	recordMAC = record[ivSize+pager.PageSize:]
	if !hmac.Equal(recordMAC, sum) {
		return nil, nil, fmt.Errorf("%w: page %d HMAC mismatch", ErrIntegrity, idx)
	}
	plain = pager.Buf(pager.PageSize)
	if s.cbc != nil {
		copy(plain, ct)
		s.cbc.cbcDecrypt(iv, plain)
	} else {
		pc.dec.SetIV(iv)
		pc.dec.CryptBlocks(plain, ct)
	}
	return plain, recordMAC, nil
}

// kernelMACs reports whether a group of n pages of a batched read or a commit
// has its MACs computed by the MAC kernel: where the store has one, for two
// pages or more. A lone page costs the kernel what eight do — it is
// throughput-bound, an idle lane as dear as a busy one — and crypto/hmac not
// two thirds of that, so it takes the single-page path (openPage, sealPage),
// which a one-page read and the commit's gap-fill take too.
func (s *Store) kernelMACs(n int) bool { return s.mac8 != nil && n > 1 }

// openGroup opens up to eight records of a batch — records[k] that of page
// idxs[k] — into out and errs as openPage would one by one, copies each
// record's MAC into macs[k] and releases the record. Where the MAC kernel
// takes the group, its MACs are computed together (pageMAC8), then each page
// is compared and decrypted on its own, so a bad record fails alone and is
// not decrypted.
func (s *Store) openGroup(pc *pageCrypto, idxs []uint32, records, out, macs [][]byte, errs []error) {
	var sums *[macLanes][macSize]byte
	if s.kernelMACs(len(idxs)) {
		sums = s.mac8.pageMAC8(&pc.lanes, idxs, records)
	}
	for k, idx := range idxs {
		var recordMAC []byte
		switch {
		case sums == nil:
			out[k], recordMAC, errs[k] = s.openPage(pc, idx, records[k])
		case len(records[k]) != recordSize:
			errs[k] = recordSizeError(idx, records[k])
		default:
			out[k], recordMAC, errs[k] = s.openMACed(pc, idx, records[k], sums[k][:])
		}
		macs[k] = append(macs[k][:0], recordMAC...)
		pager.Release(records[k])
		records[k] = nil
	}
}

// sealPages seals the staged page images of a commit, pages[idx] for each of
// idxs, into journal entries in idxs order, eight pages at a time. Where the
// MAC kernel takes a group, its pages are encrypted first and their MACs
// computed together.
func (s *Store) sealPages(pc *pageCrypto, idxs []uint32, pages map[uint32][]byte) ([]journalEntry, error) {
	entries := make([]journalEntry, 0, len(idxs))
	for g := 0; g < len(idxs); g += macLanes {
		group := idxs[g:min(g+macLanes, len(idxs))]
		if !s.kernelMACs(len(group)) {
			for _, idx := range group {
				record, recordMAC, err := s.sealPage(pc, idx, pages[idx])
				if err != nil {
					return nil, err
				}
				entries = append(entries, journalEntry{Idx: idx, RecordMAC: recordMAC, Record: record})
			}
			continue
		}
		pc.records = pc.records[:0]
		for _, idx := range group {
			record, err := s.encryptPage(pc, pages[idx])
			if err != nil {
				return nil, err
			}
			pc.records = append(pc.records, record)
		}
		sums := s.mac8.pageMAC8(&pc.lanes, group, pc.records)
		for k, record := range pc.records {
			recordMAC := record[ivSize+pager.PageSize:]
			copy(recordMAC, sums[k][:])
			entries = append(entries, journalEntry{Idx: group[k], RecordMAC: recordMAC, Record: record})
		}
	}
	return entries, nil
}

// pageCrypto is one worker's page-crypto state: the HMAC-SHA-512 keyed with
// the store's MAC key (keying one costs two compressions and five
// allocations), a CBC encrypter over the store's AES block that SetIV re-arms
// for each page, and the scratch a computed MAC is compared from. Pages are
// decrypted by the store's CBC kernel (cbc.go), which needs no per-worker
// state; only where the platform has no kernel does it also carry
// crypto/cipher's CBC decrypter, re-armed the same way. The MACs of batched
// reads and commits are the MAC kernel's (mac8.go) where the platform has one,
// computed in the lanes scratch; single pages keep the keyed HMAC. Sealing stays on
// crypto/cipher everywhere: CBC encryption chains every block on the one
// before, so eight blocks cannot be in flight. Whoever seals or opens pages —
// a commit, a read, a decrypt worker — takes one with getCrypto and hands it
// back with putCrypto, so a page costs no keying, and a read no allocation
// beyond what the pool does not hand back. It also carries the keyed
// Merkle-node HMAC its holder verifies or commits those pages with, and the
// record scratch of the batch its holder reads (fetchOpen). Not for
// concurrent use.
type pageCrypto struct {
	mac      hash.Hash
	tree     *treeMAC
	enc, dec cbcMode // dec nil where the store has a CBC kernel
	idx      [4]byte
	scratch  [macSize]byte

	lanes   macScratch // a group of eight page MACs (pageMAC8)
	records [][]byte   // the batch's records as the device returned them, until each is opened
	macs    [][]byte   // each opened record's MAC, copied out before the record is released
	errs    []error    // the outcome of opening each
}

// cbcMode is what crypto/cipher's CBC modes are beyond a cipher.BlockMode.
type cbcMode interface {
	cipher.BlockMode
	SetIV([]byte)
}

// getCrypto takes an idle pageCrypto, or builds one.
func (s *Store) getCrypto() *pageCrypto {
	pc, _ := s.cryptos.Get().(*pageCrypto)
	if pc == nil {
		pc = &pageCrypto{tree: s.treeMAC(), mac: hmac.New(sha512.New, s.macKey)}
		pc.enc = cipher.NewCBCEncrypter(s.block, pc.scratch[:ivSize]).(cbcMode)
		if s.cbc == nil {
			pc.dec = cipher.NewCBCDecrypter(s.block, pc.scratch[:ivSize]).(cbcMode)
		}
	}
	return pc
}

// putCrypto hands pc back. The records of the last batch are dropped first:
// an idle state must not keep pages alive.
func (s *Store) putCrypto(pc *pageCrypto) {
	clear(pc.records)
	s.cryptos.Put(pc)
}

// sum appends HMAC-SHA-512 over (index, IV, ciphertext) to dst; binding the
// index prevents page transplantation.
func (pc *pageCrypto) sum(dst []byte, idx uint32, iv, ct []byte) []byte {
	pc.mac.Reset()
	binary.LittleEndian.PutUint32(pc.idx[:], idx)
	pc.mac.Write(pc.idx[:])
	pc.mac.Write(iv)
	pc.mac.Write(ct)
	return pc.mac.Sum(dst)
}

// Equal reports whether two byte slices match in constant time (exported for
// tests of detection paths).
func Equal(a, b []byte) bool { return hmac.Equal(a, b) }
