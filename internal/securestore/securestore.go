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
)

// Options configures a Store. The zero value gives the paper's design point.
type Options struct {
	// Arity is the Merkle tree fan-out; 0 means 2 (binary).
	Arity int
	// CacheVerifiedSubtrees trusts already-verified internal nodes until
	// the next write (the ablation in DESIGN.md). Off reproduces the
	// paper's per-read full-path traversal.
	CacheVerifiedSubtrees bool
	// GCM switches page protection from AES-CBC+HMAC-SHA-512 to
	// AES-256-GCM (cipher ablation).
	GCM bool
	// RPMBSlot selects the RPMB address holding the root tag.
	RPMBSlot uint16
}

func (o Options) arity() int {
	if o.Arity < 2 {
		return 2
	}
	return o.Arity
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
	opts   Options

	encKey  []byte // page encryption key (from secure-storage TA)
	macKey  []byte // page HMAC key
	treeKey []byte // Merkle node key
	rootKey []byte // device-bound root-tag key
	jnlKey  []byte // journal-record authentication key

	block   cipher.Block // AES keyed with encKey, built once at open; safe for concurrent use
	gcm     cipher.AEAD  // AES-GCM over block for the cipher ablation (nil otherwise); safe for concurrent use
	cbc     *cbcKernel   // CBC-decrypt kernel over encKey (nil for GCM and where the platform has none); safe for concurrent use
	cryptos sync.Pool    // idle *pageCrypto, the per-worker page-crypto states

	mu        sync.Mutex
	levels    [][][]byte // levels[0] = leaves; last level = [root]
	nextAlloc uint32     // committed page count
	// nextReserve is the allocation high-water mark, >= nextAlloc: indices
	// in [nextAlloc, nextReserve) are reserved by open transactions and
	// become durable (as written or zero pages) at the next growing commit.
	nextReserve uint32
	seq         uint64          // commit sequence number, bound into the root tag
	verified    map[[2]int]bool // (level, index) -> verified since last write
	failed      error           // set when a commit died mid-flight; poisons the store

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
	return OpenWith(dev, TZKeySource{NW: nw}, RPMBAnchor{NW: nw, Slot: opts.RPMBSlot}, meter, opts)
}

// OpenWith is Open with explicit key and anchor providers (used by the
// host-only-secure configuration, where both live inside the SGX enclave).
func OpenWith(dev pager.BlockDevice, keys KeySource, anchor RootAnchor, meter *simtime.Meter, opts Options) (*Store, error) {
	s, err := newStore(dev, keys, anchor, meter, opts)
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
func newStore(dev pager.BlockDevice, keys KeySource, anchor RootAnchor, meter *simtime.Meter, opts Options) (*Store, error) {
	if meter == nil {
		return nil, errors.New("securestore: meter required")
	}
	s := &Store{dev: dev, keys: keys, anchor: anchor, meter: meter, opts: opts, verified: map[[2]int]bool{}}
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
	if opts.GCM {
		if s.gcm, err = cipher.NewGCM(block); err != nil {
			return nil, fmt.Errorf("securestore: page AEAD: %w", err)
		}
	} else {
		s.cbc = newCBCKernel(s.encKey)
	}
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
		s.verified = map[[2]int]bool{}
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
	// The medium was re-read wholesale (open, journal redo, rebuild import):
	// everything previously verified describes a different state.
	s.verified = map[[2]int]bool{}
	return nil
}

// rebuildLevels constructs the in-memory (untrusted-mirror) tree from leaves.
func (s *Store) rebuildLevels(leaves [][]byte) {
	a := s.opts.arity()
	mac := s.treeMAC()
	s.levels = [][][]byte{leaves}
	cur := leaves
	for len(cur) > 1 {
		next := make([][]byte, (len(cur)+a-1)/a)
		for i := range next {
			mac.Reset()
			next[i] = nodeMAC(mac, nil, len(s.levels), i, cur[i*a:min(i*a+a, len(cur))])
		}
		s.levels = append(s.levels, next)
		cur = next
	}
}

// treeMAC is a Merkle-node HMAC and the scratch its inputs and sums are built
// in, so that hashing a node allocates nothing. Keying one costs two
// compressions and eleven allocations, so whoever hashes nodes — a read's
// path, a batch's frontier, a commit's dirty set — uses the one its pooled
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
// MerkleHashes is charged the nodes recomputed, and exactly those nodes lose
// their verified mark. A level that growth lengthens grows by append, so a
// store that grows one page per commit does not copy a level per commit. The
// caller holds s.mu.
func (s *Store) updateAncestors(mac *treeMAC, dirty []int) {
	a := s.opts.arity()
	hashed := 0
	lvl := 1
	for ; len(s.levels[lvl-1]) > 1; lvl++ {
		below := s.levels[lvl-1]
		if lvl == len(s.levels) {
			s.levels = append(s.levels, nil)
		}
		if grow := (len(below)+a-1)/a - len(s.levels[lvl]); grow > 0 {
			s.levels[lvl] = append(s.levels[lvl], make([][]byte, grow)...)
		}
		nodes := s.levels[lvl]
		parents := dirty[:0]
		for _, i := range dirty {
			p := i / a
			if len(parents) > 0 && parents[len(parents)-1] == p {
				continue
			}
			parents = append(parents, p)
			mac.Reset()
			nodes[p] = nodeMAC(mac, nodes[p][:0], lvl, p, below[p*a:min(p*a+a, len(below))])
			delete(s.verified, [2]int{lvl, p})
		}
		hashed += len(parents)
		dirty = parents
	}
	s.meter.MerkleHashes.Add(int64(hashed))
}

// ReadPage fetches, authenticates, decrypts, and freshness-checks a page.
func (s *Store) ReadPage(idx uint32) ([]byte, error) {
	s.mu.Lock()
	if s.failed != nil {
		err := s.failed
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %w", ErrStoreFailed, err)
	}
	if idx >= s.nextAlloc {
		s.mu.Unlock()
		return nil, fmt.Errorf("securestore: page %d not allocated", idx)
	}
	s.mu.Unlock()

	record, err := s.dev.ReadBlock(idx)
	if err != nil {
		return nil, err
	}
	s.meter.PagesRead.Add(1)
	pc := s.getCrypto()
	defer s.putCrypto(pc)
	plain, recordMAC, err := s.openPage(pc, idx, record)
	if err != nil {
		return nil, err
	}
	s.meter.PagesDecrypted.Add(1)

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.verifyPath(pc.tree, idx, recordMAC); err != nil {
		return nil, err
	}
	return plain, nil
}

// verifyPath recomputes the Merkle path from the page's leaf to the root and
// compares against the trusted root, charging one HMAC per node visited.
// With CacheVerifiedSubtrees, verification stops at an already-verified
// ancestor.
func (s *Store) verifyPath(mac *treeMAC, idx uint32, recordMAC []byte) error {
	mac.Reset()
	leaf := leafMAC(mac, mac.sum[:0], idx, recordMAC)
	s.meter.MerkleHashes.Add(1)
	if !hmac.Equal(leaf, s.levels[0][idx]) {
		return fmt.Errorf("%w: page %d leaf mismatch", ErrIntegrity, idx)
	}
	a := s.opts.arity()
	i := int(idx)
	for lvl := 1; lvl < len(s.levels); lvl++ {
		parent := i / a
		if s.opts.CacheVerifiedSubtrees && s.verified[[2]int{lvl, parent}] {
			s.meter.MerkleVerifies.Add(1)
			return nil
		}
		lo, hi := parent*a, parent*a+a
		if hi > len(s.levels[lvl-1]) {
			hi = len(s.levels[lvl-1])
		}
		mac.Reset()
		node := nodeMAC(mac, mac.sum[:0], lvl, parent, s.levels[lvl-1][lo:hi])
		s.meter.MerkleHashes.Add(1)
		if !hmac.Equal(node, s.levels[lvl][parent]) {
			return fmt.Errorf("%w: page %d merkle node (%d,%d) mismatch", ErrIntegrity, idx, lvl, parent)
		}
		if s.opts.CacheVerifiedSubtrees {
			s.verified[[2]int{lvl, parent}] = true
		}
		i = parent
	}
	s.meter.MerkleVerifies.Add(1)
	return nil
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
		if _, err := s.ReadPage(i); err != nil {
			return err
		}
	}
	return nil
}

// sealPage encrypts and MACs a plaintext page of at most PageSize bytes
// (shorter pages are zero-padded) into one freshly allocated record, IV ‖
// ciphertext ‖ MAC; recordMAC is the record's tail. pc is the caller's.
func (s *Store) sealPage(pc *pageCrypto, idx uint32, plain []byte) (record, recordMAC []byte, err error) {
	if s.opts.GCM {
		return s.sealPageGCM(pc, idx, plain)
	}
	record = make([]byte, ivSize+pager.PageSize, recordSize)
	iv, ct := record[:ivSize], record[ivSize:]
	if _, err := rand.Read(iv); err != nil {
		return nil, nil, err
	}
	copy(ct, plain)
	pc.enc.SetIV(iv)
	pc.enc.CryptBlocks(ct, ct)
	record = pc.sum(record, idx, iv, ct)
	return record, record[ivSize+pager.PageSize:], nil
}

// openPage verifies a stored record and decrypts it in place: record must be
// the caller's own (every BlockDevice hands out an owned copy), and once the
// MAC has passed — not a byte is decrypted before — its ciphertext bytes
// become the plaintext page, returned with len == cap == PageSize so that no
// append can run into the MAC behind it. recordMAC is the record's tail. A
// record that fails is as it was handed in (a GCM one with its page bytes
// cleared by the AEAD). pc is the caller's.
func (s *Store) openPage(pc *pageCrypto, idx uint32, record []byte) (plain, recordMAC []byte, err error) {
	if s.opts.GCM {
		return s.openPageGCM(pc, idx, record)
	}
	if len(record) != recordSize {
		return nil, nil, fmt.Errorf("%w: page %d record size %d", ErrIntegrity, idx, len(record))
	}
	iv := record[:ivSize]
	ct := record[ivSize : ivSize+pager.PageSize : ivSize+pager.PageSize]
	recordMAC = record[ivSize+pager.PageSize:]
	if !hmac.Equal(recordMAC, pc.sum(pc.scratch[:0], idx, iv, ct)) {
		return nil, nil, fmt.Errorf("%w: page %d HMAC mismatch", ErrIntegrity, idx)
	}
	if s.cbc != nil {
		s.cbc.cbcDecrypt(iv, ct)
	} else {
		pc.dec.SetIV(iv)
		pc.dec.CryptBlocks(ct, ct)
	}
	return ct, recordMAC, nil
}

// pageCrypto is one worker's page-crypto state: the HMAC-SHA-512 keyed with
// the store's MAC key (keying one costs two compressions and five
// allocations), a CBC encrypter over the store's AES block that SetIV re-arms
// for each page, and the scratch a computed MAC is compared from. Pages are
// decrypted by the store's CBC kernel (cbc.go), which needs no per-worker
// state; only where the platform has no kernel does it also carry
// crypto/cipher's CBC decrypter, re-armed the same way. Sealing stays on
// crypto/cipher everywhere: CBC encryption chains every block on the one
// before, so eight blocks cannot be in flight. Whoever seals or opens pages —
// a commit, a read, a decrypt worker — takes one with getCrypto and hands it
// back with putCrypto, so a page costs no keying and no allocation beyond its
// record. It also carries the keyed Merkle-node HMAC its holder verifies or
// commits those pages with, and the record scratch of the batch its holder
// reads (readPagesAt). A GCM store's is only those two: the AEAD is stateless.
// Not for concurrent use.
type pageCrypto struct {
	mac      hash.Hash
	tree     *treeMAC
	enc, dec cbcMode // dec nil where the store has a CBC kernel
	idx      [4]byte
	scratch  [macSize]byte

	records [][]byte // the batch's records as the device returned them, then their MACs
	errs    []error  // the outcome of opening each
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
		pc = &pageCrypto{tree: s.treeMAC()}
		if !s.opts.GCM {
			pc.mac = hmac.New(sha512.New, s.macKey)
			pc.enc = cipher.NewCBCEncrypter(s.block, pc.scratch[:ivSize]).(cbcMode)
			if s.cbc == nil {
				pc.dec = cipher.NewCBCDecrypter(s.block, pc.scratch[:ivSize]).(cbcMode)
			}
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

const gcmNonceSize, gcmTagSize = 12, 16

func (s *Store) sealPageGCM(pc *pageCrypto, idx uint32, plain []byte) (record, recordMAC []byte, err error) {
	record = make([]byte, gcmNonceSize+pager.PageSize, gcmNonceSize+pager.PageSize+gcmTagSize)
	nonce, page := record[:gcmNonceSize], record[gcmNonceSize:]
	if _, err := rand.Read(nonce); err != nil {
		return nil, nil, err
	}
	copy(page, plain)
	binary.LittleEndian.PutUint32(pc.idx[:], idx)
	//ironsafe:allow noncereuse -- fresh 96-bit crypto/rand nonce per seal, stored with the record; collision odds stay below 2^-32 past 2^32 page writes
	record = s.gcm.Seal(nonce, nonce, page, pc.idx[:])
	// The GCM tag (last 16 bytes) doubles as the record MAC for leaves.
	return record, record[len(record)-gcmTagSize:], nil
}

func (s *Store) openPageGCM(pc *pageCrypto, idx uint32, record []byte) (plain, recordMAC []byte, err error) {
	if len(record) < gcmNonceSize+gcmTagSize {
		return nil, nil, fmt.Errorf("%w: page %d record too short", ErrIntegrity, idx)
	}
	nonce, ct := record[:gcmNonceSize], record[gcmNonceSize:]
	binary.LittleEndian.PutUint32(pc.idx[:], idx)
	//ironsafe:allow noncereuse -- nonce travels inside the record and is authenticated by the GCM tag; freshness comes from the Merkle root + RPMB anchor, not the nonce
	plain, err = s.gcm.Open(ct[:0], nonce, ct, pc.idx[:])
	if err != nil {
		return nil, nil, fmt.Errorf("%w: page %d GCM auth failed", ErrIntegrity, idx)
	}
	return plain[:len(plain):len(plain)], ct[len(ct)-gcmTagSize:], nil
}

// Equal reports whether two byte slices match in constant time (exported for
// tests of detection paths).
func Equal(a, b []byte) bool { return hmac.Equal(a, b) }
