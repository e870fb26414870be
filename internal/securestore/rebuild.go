// Attested replica rebuild: anti-entropy export/import between two secure
// stores that share no keys.
//
// A quarantined store (rollback, torn state, corruption) cannot be repaired
// in place — its medium no longer bridges to its RPMB anchor — but it can be
// rebuilt from a healthy replica. Sealed records never transfer: every
// device seals under its own HUK-derived keys, so the donor exports verified
// PLAINTEXT pages (each read re-checked against the donor's anchored Merkle
// root) plus a manifest of SHA-256 content hashes, and the target re-seals
// each received page under its own keys through the ordinary journaled
// group-commit path. Transit confidentiality/integrity is the AEAD channel's
// job; end-state integrity is re-checked page by page against the manifest
// and sealed by the target's own anchor.
//
// Half-admission is prevented by an on-medium rebuild marker: BeginImport
// persists it (authenticated under the journal key) before the first page
// lands, VerifyAll refuses with ErrRebuilding while it is present, and only
// FinalizeImport — after re-verifying every page against the manifest and
// adopting the donor's commit seq through a journaled zero-entry record —
// clears it. A crash at any point leaves the target either resumable
// (marker + consistent prefix) or refused outright; never readmittable with
// divergent state.
package securestore

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"ironsafe/internal/pager"
	"ironsafe/internal/simtime"
	"ironsafe/internal/tee/trustzone"
)

// rebuildMarkerBlock is the reserved device address of the rebuild marker,
// below the journal block. Non-empty contents mean an import is in flight.
const rebuildMarkerBlock = uint32(0x7FFF_FFFD)

// rebuildMagic begins every rebuild marker.
var rebuildMagic = []byte("ISRB")

// ErrRebuilding reports a store whose medium carries a rebuild marker: a
// partial import from a donor replica that must finish (or be wiped) before
// the store can pass an integrity sweep.
var ErrRebuilding = errors.New("securestore: rebuild in progress; store cannot be verified")

// ErrRebuildMismatch reports imported content that does not match the donor
// manifest — a corrupted transfer or a manifest/page desync.
var ErrRebuildMismatch = errors.New("securestore: rebuild content does not match donor manifest")

// RebuildManifest describes a donor's committed state: per-page SHA-256
// content hashes of the plaintext pages, and the donor's commit sequence
// number the target adopts at finalize.
type RebuildManifest struct {
	Seq        uint64
	PageHashes [][]byte
}

// NumPages is the donor's committed page count.
func (m *RebuildManifest) NumPages() uint32 { return uint32(len(m.PageHashes)) }

// ContentRoot binds the manifest into one digest: the identity of the state
// being transferred, persisted in the target's rebuild marker so a resumed
// rebuild can tell "same donor state" from "start over".
func (m *RebuildManifest) ContentRoot() []byte {
	h := sha256.New()
	h.Write([]byte("ironsafe-rebuild-v1|"))
	var b [12]byte
	binary.LittleEndian.PutUint64(b[0:8], m.Seq)
	binary.LittleEndian.PutUint32(b[8:12], m.NumPages())
	h.Write(b[:])
	for _, ph := range m.PageHashes {
		h.Write(ph)
	}
	return h.Sum(nil)
}

// EncodeManifest serializes a manifest for transfer. The encoding carries no
// own MAC: manifests travel only over the monitor-keyed AEAD channel, and
// the target independently re-verifies every page against it anyway.
func EncodeManifest(m *RebuildManifest) []byte {
	var b bytes.Buffer
	b.Write([]byte("ISRM"))
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], m.Seq)
	b.Write(u64[:])
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], m.NumPages())
	b.Write(u32[:])
	for _, ph := range m.PageHashes {
		b.Write(ph)
	}
	return b.Bytes()
}

// DecodeManifest parses an encoded manifest.
func DecodeManifest(blob []byte) (*RebuildManifest, error) {
	if len(blob) < 16 || !bytes.Equal(blob[:4], []byte("ISRM")) {
		return nil, fmt.Errorf("%w: bad manifest header", ErrRebuildMismatch)
	}
	m := &RebuildManifest{Seq: binary.LittleEndian.Uint64(blob[4:12])}
	n := binary.LittleEndian.Uint32(blob[12:16])
	if uint64(len(blob)) != 16+uint64(n)*nodeSize {
		return nil, fmt.Errorf("%w: manifest length %d does not carry %d hashes", ErrRebuildMismatch, len(blob), n)
	}
	for i := uint32(0); i < n; i++ {
		off := 16 + int(i)*nodeSize
		m.PageHashes = append(m.PageHashes, append([]byte(nil), blob[off:off+nodeSize]...))
	}
	return m, nil
}

// ExportManifest walks the donor's committed pages — each re-verified
// against the anchored root on the way — and returns the manifest a target
// rebuilds from. The store lock is held across the whole walk, so the
// manifest always describes one transaction-boundary state.
func (s *Store) ExportManifest() (*RebuildManifest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return nil, fmt.Errorf("%w: %w", ErrStoreFailed, s.failed)
	}
	if s.rebuilding {
		return nil, fmt.Errorf("%w: a mid-rebuild store cannot donate", ErrRebuilding)
	}
	if err := s.checkRootAnchor(); err != nil {
		return nil, err
	}
	m := &RebuildManifest{Seq: s.seq, PageHashes: make([][]byte, 0, s.nextAlloc)}
	for i := uint32(0); i < s.nextAlloc; i++ {
		plain, err := s.readPageLocked(i)
		if err != nil {
			return nil, fmt.Errorf("securestore: exporting manifest for page %d: %w", i, err)
		}
		h := sha256.Sum256(plain)
		m.PageHashes = append(m.PageHashes, h[:])
	}
	return m, nil
}

// ExportPages returns the verified plaintext of pages [start, start+count).
func (s *Store) ExportPages(start, count uint32) ([][]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return nil, fmt.Errorf("%w: %w", ErrStoreFailed, s.failed)
	}
	if s.rebuilding {
		return nil, fmt.Errorf("%w: a mid-rebuild store cannot donate", ErrRebuilding)
	}
	if start+count < start || start+count > s.nextAlloc {
		return nil, fmt.Errorf("securestore: export range [%d,%d) exceeds %d pages", start, start+count, s.nextAlloc)
	}
	pages := make([][]byte, 0, count)
	for i := start; i < start+count; i++ {
		plain, err := s.readPageLocked(i)
		if err != nil {
			return nil, fmt.Errorf("securestore: exporting page %d: %w", i, err)
		}
		pages = append(pages, plain)
	}
	return pages, nil
}

// DiffManifest compares the store's committed pages against a donor
// manifest and returns the indices that still need transfer (missing pages,
// or pages whose content hash differs). A store holding MORE pages than the
// manifest cannot converge by appending and reports ErrRebuildMismatch — the
// caller wipes and restarts.
func (s *Store) DiffManifest(m *RebuildManifest) ([]uint32, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return nil, fmt.Errorf("%w: %w", ErrStoreFailed, s.failed)
	}
	if s.nextAlloc > m.NumPages() {
		return nil, fmt.Errorf("%w: local store has %d pages, manifest %d", ErrRebuildMismatch, s.nextAlloc, m.NumPages())
	}
	var need []uint32
	for i := uint32(0); i < m.NumPages(); i++ {
		if i >= s.nextAlloc {
			need = append(need, i)
			continue
		}
		plain, err := s.readPageLocked(i)
		if err != nil {
			need = append(need, i)
			continue
		}
		h := sha256.Sum256(plain)
		if !bytes.Equal(h[:], m.PageHashes[i]) {
			need = append(need, i)
		}
	}
	return need, nil
}

// OpenRebuild is OpenRebuildWith over the TrustZone key source and RPMB
// anchor — the storage node's configuration.
func OpenRebuild(dev pager.BlockDevice, nw *trustzone.NormalWorld, meter *simtime.Meter, opts Options) (*Store, error) {
	return OpenRebuildWith(dev, TZKeySource{NW: nw}, RPMBAnchor{NW: nw, Slot: opts.RPMBSlot}, meter)
}

// OpenRebuildWith opens a store for rebuild: a medium that loads cleanly
// (including mid-rebuild media, whose chunk imports went through the normal
// journal path) opens normally for DiffManifest-based resume, and exactly
// one failure shape is additionally tolerated — a fully wiped medium under a
// stale anchor, the administrative wipe that begins a from-scratch rebuild.
// In that case the store comes up empty WITHOUT touching the anchor: only
// journaled import commits ever move it, so a crash between wipe and first
// import still fails closed on the next ordinary open.
func OpenRebuildWith(dev pager.BlockDevice, keys KeySource, anchor RootAnchor, meter *simtime.Meter) (*Store, error) {
	s, err := newStore(dev, keys, anchor, meter)
	if err != nil {
		return nil, err
	}
	loadErr := s.load()
	if loadErr == nil {
		return s, nil
	}
	if !errors.Is(loadErr, ErrFreshness) {
		return nil, loadErr
	}
	if _, herr := dev.ReadBlock(headerBlock); !errors.Is(herr, pager.ErrBlockNotFound) {
		return nil, loadErr
	}
	if _, jerr := dev.ReadBlock(journalBlock); !errors.Is(jerr, pager.ErrBlockNotFound) {
		return nil, loadErr
	}
	s.nextAlloc, s.nextReserve, s.seq = 0, 0, 0
	s.rebuildLevels(nil)
	s.rebuilding, s.markerRoot = false, nil
	s.failed = nil
	return s, nil
}

// Rebuilding reports whether the on-medium rebuild marker is present.
func (s *Store) Rebuilding() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rebuilding
}

// RebuildRoot returns the content root recorded in the rebuild marker (nil
// when no authenticated marker is present).
func (s *Store) RebuildRoot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.markerRoot...)
}

// BeginImport persists the rebuild marker for m's content root. From this
// write until FinalizeImport clears it, VerifyAll refuses the store — the
// half-admission guard.
func (s *Store) BeginImport(m *RebuildManifest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return fmt.Errorf("%w: %w", ErrStoreFailed, s.failed)
	}
	root := m.ContentRoot()
	//ironsafe:allow journalbypass -- the marker is the rebuild's own write-ahead guard: it must land BEFORE any journaled import commit, and recovery treats any non-empty marker as "still rebuilding"
	if err := s.dev.WriteBlock(rebuildMarkerBlock, s.encodeRebuildMarker(root)); err != nil {
		return fmt.Errorf("securestore: writing rebuild marker: %w", err)
	}
	s.rebuilding = true
	s.markerRoot = root
	return nil
}

// ImportPages verifies pages received from a donor against the manifest and
// commits them through the ordinary journaled group-commit path (one chunk =
// one group commit), re-sealed under this store's own keys. Chunks must
// arrive densely: start must equal the committed page count.
func (s *Store) ImportPages(start uint32, pages [][]byte, m *RebuildManifest) error {
	s.mu.Lock()
	if s.failed != nil {
		err := s.failed
		s.mu.Unlock()
		return fmt.Errorf("%w: %w", ErrStoreFailed, err)
	}
	if !s.rebuilding {
		s.mu.Unlock()
		return errors.New("securestore: ImportPages outside an active rebuild")
	}
	if start != s.nextAlloc {
		n := s.nextAlloc
		s.mu.Unlock()
		return fmt.Errorf("%w: chunk starts at %d but %d pages are committed", ErrRebuildMismatch, start, n)
	}
	s.mu.Unlock()
	if uint64(start)+uint64(len(pages)) > uint64(m.NumPages()) {
		return fmt.Errorf("%w: chunk [%d,%d) exceeds manifest's %d pages", ErrRebuildMismatch, start, start+uint32(len(pages)), m.NumPages())
	}
	t := s.Begin()
	for i, p := range pages {
		idx := start + uint32(i)
		if len(p) != pager.PageSize {
			return fmt.Errorf("%w: page %d has %d bytes", ErrRebuildMismatch, idx, len(p))
		}
		h := sha256.Sum256(p)
		if !bytes.Equal(h[:], m.PageHashes[idx]) {
			return fmt.Errorf("%w: page %d hash mismatch", ErrRebuildMismatch, idx)
		}
		if err := t.WritePage(idx, p); err != nil {
			return err
		}
	}
	return t.Commit()
}

// FinalizeImport completes a rebuild: it re-verifies every page against the
// manifest, adopts the donor's commit sequence number through a journaled
// zero-entry record (so a power cut at any point recovers to exactly the
// pre- or post-adoption state), and only then clears the rebuild marker.
// It is idempotent: re-running after a crash converges on the same state.
func (s *Store) FinalizeImport(m *RebuildManifest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return fmt.Errorf("%w: %w", ErrStoreFailed, s.failed)
	}
	if !s.rebuilding {
		return errors.New("securestore: FinalizeImport outside an active rebuild")
	}
	if s.nextAlloc != m.NumPages() {
		return fmt.Errorf("%w: %d pages committed, manifest has %d", ErrRebuildMismatch, s.nextAlloc, m.NumPages())
	}
	for i := uint32(0); i < s.nextAlloc; i++ {
		plain, err := s.readPageLocked(i)
		if err != nil {
			return fmt.Errorf("securestore: finalize verify of page %d: %w", i, err)
		}
		h := sha256.Sum256(plain)
		if !bytes.Equal(h[:], m.PageHashes[i]) {
			return fmt.Errorf("%w: page %d diverges at finalize", ErrRebuildMismatch, i)
		}
	}
	if s.seq != m.Seq {
		prevTag := s.rootTag()
		oldSeq := s.seq
		s.seq = m.Seq
		postTag := s.rootTag()
		jrec := &journalRecord{Seq: m.Seq, PrevTag: prevTag, PostTag: postTag, PostN: s.nextAlloc}
		//ironsafe:allow journalbypass -- this IS the journal commit write of the seq-adoption record
		if err := s.dev.WriteBlock(journalBlock, s.encodeJournal(jrec)); err != nil {
			s.seq = oldSeq
			s.failed = err
			return fmt.Errorf("securestore: seq-adoption journal write: %w", err)
		}
		if err := s.applyEntries(s.treeMAC(), jrec); err != nil {
			s.failed = err
			return err
		}
		if err := s.anchorRoot(postTag); err != nil {
			s.failed = err
			return err
		}
		if err := s.releaseJournal(); err != nil {
			s.failed = err
			return err
		}
	}
	// Clear the marker only once the anchor certifies the adopted state: a
	// crash before this write re-runs finalize; after it, the store is an
	// ordinary healthy replica.
	//ironsafe:allow journalbypass -- marker clear ordered after the seq-adoption record and its anchor advance
	if err := s.dev.WriteBlock(rebuildMarkerBlock, nil); err != nil {
		return fmt.Errorf("securestore: clearing rebuild marker: %w", err)
	}
	s.rebuilding = false
	s.markerRoot = nil
	return nil
}

// encodeRebuildMarker authenticates the marker under the journal key.
func (s *Store) encodeRebuildMarker(root []byte) []byte {
	mac := hmac.New(sha256.New, s.jnlKey)
	mac.Write([]byte("rebuild-marker|"))
	mac.Write(root)
	blob := append([]byte(nil), rebuildMagic...)
	blob = append(blob, root...)
	return mac.Sum(blob)
}

// readRebuildMarker loads the marker state at open. ANY non-empty marker
// block — authenticated or garbage — sets rebuilding (fail closed: a torn
// marker write still means an import began); only an authenticated marker
// yields a content root for resume.
func (s *Store) readRebuildMarker() error {
	blob, err := s.dev.ReadBlock(rebuildMarkerBlock)
	if errors.Is(err, pager.ErrBlockNotFound) || (err == nil && len(blob) == 0) {
		s.rebuilding = false
		s.markerRoot = nil
		return nil
	}
	if err != nil {
		return fmt.Errorf("securestore: reading rebuild marker: %w", err)
	}
	s.rebuilding = true
	s.markerRoot = nil
	if len(blob) == len(rebuildMagic)+nodeSize+sha256.Size && bytes.Equal(blob[:len(rebuildMagic)], rebuildMagic) {
		root := blob[len(rebuildMagic) : len(rebuildMagic)+nodeSize]
		if hmac.Equal(blob, s.encodeRebuildMarker(root)) {
			s.markerRoot = append([]byte(nil), root...)
		}
	}
	return nil
}
