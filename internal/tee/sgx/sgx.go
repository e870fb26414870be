// Package sgx simulates the Intel SGX primitives IronSafe needs on the host
// side: enclave creation with code measurement, ECALL/OCALL transition
// accounting, an EPC (enclave page cache) model with paging beyond the
// hardware limit, sealed storage, and remote attestation quotes verified by a
// simulated Intel Attestation Service.
//
// The real hardware's security guarantees obviously cannot be reproduced in
// software; what is reproduced is the complete protocol and performance
// surface: everything the rest of IronSafe observes about SGX (measurements,
// quotes, signatures, transition and paging costs) behaves as on hardware.
package sgx

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"ironsafe/internal/simtime"
)

// Measurement is the SHA-256 hash of an enclave's initial code and data
// (MRENCLAVE in real SGX).
type Measurement [32]byte

// String renders the measurement as hex.
func (m Measurement) String() string { return fmt.Sprintf("%x", m[:8]) }

// MeasureCode computes the measurement of an enclave image.
func MeasureCode(image []byte) Measurement {
	return Measurement(sha256.Sum256(image))
}

// Platform models one SGX-capable CPU package: it owns the fused attestation
// key whose public half the (simulated) Intel Attestation Service knows.
type Platform struct {
	ID      string
	signKey ed25519.PrivateKey
	sealKey []byte // root sealing secret fused into the CPU

	mu       sync.Mutex
	enclaves map[uint64]*Enclave
	nextID   uint64
}

// NewPlatform creates a platform and registers it with the attestation
// service so its quotes verify.
func NewPlatform(id string, ias *AttestationService) (*Platform, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("sgx: generating platform key: %w", err)
	}
	seal := make([]byte, 32)
	if _, err := rand.Read(seal); err != nil {
		return nil, fmt.Errorf("sgx: generating seal key: %w", err)
	}
	p := &Platform{ID: id, signKey: priv, sealKey: seal, enclaves: map[uint64]*Enclave{}}
	if ias != nil {
		ias.RegisterPlatform(id, pub)
	}
	return p, nil
}

// Enclave is a protected execution context. All query processing on the host
// side runs "inside" an enclave: callers wrap entry points in ECall so
// transition and paging costs are charged exactly where real SGX charges
// them.
type Enclave struct {
	platform    *Platform
	id          uint64
	measurement Measurement
	meter       *simtime.Meter

	mu        sync.Mutex
	destroyed bool
	epcLimit  int64
	resident  int64           // bytes currently resident in EPC
	pages     map[uint64]bool // resident page set (4 KiB granules)
	lru       []uint64        // FIFO eviction order (clock approximation) from lruHead on
	lruHead   int
	heap      map[string]int64 // named allocations
}

const epcPageSize = 4096

// Config controls enclave creation.
type Config struct {
	// EPCLimitBytes bounds resident enclave memory; beyond it touches fault.
	// Zero means the platform default of 96 MiB.
	EPCLimitBytes int64
	// Meter receives transition and paging counters. Must not be nil.
	Meter *simtime.Meter
}

// AttestationPublicKey exposes the platform's attestation verification key
// for out-of-band IAS provisioning (what Intel's manufacturing flow does).
func (p *Platform) AttestationPublicKey() ed25519.PublicKey {
	return p.signKey.Public().(ed25519.PublicKey)
}

// CreateEnclave loads an image, measures it, and returns the running enclave.
func (p *Platform) CreateEnclave(image []byte, cfg Config) (*Enclave, error) {
	if cfg.Meter == nil {
		return nil, errors.New("sgx: enclave requires a meter")
	}
	limit := cfg.EPCLimitBytes
	if limit == 0 {
		limit = 96 << 20
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nextID++
	e := &Enclave{
		platform:    p,
		id:          p.nextID,
		measurement: MeasureCode(image),
		meter:       cfg.Meter,
		epcLimit:    limit,
		pages:       map[uint64]bool{},
		heap:        map[string]int64{},
	}
	p.enclaves[e.id] = e
	return e, nil
}

// Measurement returns the enclave's code measurement.
func (e *Enclave) Measurement() Measurement { return e.measurement }

// ECall enters the enclave, runs fn, and exits, charging one transition pair.
// Nested ECalls charge again, as on hardware.
func (e *Enclave) ECall(fn func() error) error {
	e.mu.Lock()
	if e.destroyed {
		e.mu.Unlock()
		return errors.New("sgx: enclave destroyed")
	}
	e.mu.Unlock()
	e.meter.EnclaveTransitions.Add(1)
	return fn()
}

// OCall models the enclave calling out to the untrusted runtime (e.g. for a
// syscall); it charges a transition pair.
func (e *Enclave) OCall(fn func() error) error { return e.OCalls(1, fn) }

// OCalls models n calls out to the untrusted runtime that one piece of
// untrusted work makes (e.g. the page writes of one group commit, run by fn);
// it charges n transition pairs.
func (e *Enclave) OCalls(n int, fn func() error) error {
	e.meter.EnclaveTransitions.Add(int64(n))
	return fn()
}

// Touch records that the enclave's working set references size bytes starting
// at a virtual offset. If the resident set exceeds the EPC limit, pages are
// evicted and the reload is charged as EPC faults — the mechanism behind the
// paper's hos slowdowns at scale factors whose Merkle trees exceed 96 MiB.
func (e *Enclave) Touch(base uint64, size int64) {
	if size <= 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	first := base / epcPageSize
	last := (base + uint64(size) - 1) / epcPageSize
	for pg := first; pg <= last; pg++ {
		if e.pages[pg] {
			continue
		}
		// Evict until there is room.
		for e.resident+epcPageSize > e.epcLimit && e.lruHead < len(e.lru) {
			victim := e.lru[e.lruHead]
			e.lruHead++
			if e.pages[victim] {
				delete(e.pages, victim)
				e.resident -= epcPageSize
				e.meter.EPCFaults.Add(1)
			}
		}
		e.pages[pg] = true
		e.pushLRU(pg)
		e.resident += epcPageSize
	}
}

// pushLRU appends pg to the FIFO. When the array is full it slides the queue
// down over the slots evictions freed, if they are at least half of it, and
// grows it otherwise: a steady state of faults allocates nothing.
func (e *Enclave) pushLRU(pg uint64) {
	if len(e.lru) == cap(e.lru) && e.lruHead >= len(e.lru)/2 {
		n := copy(e.lru, e.lru[e.lruHead:])
		e.lru, e.lruHead = e.lru[:n], 0
	}
	e.lru = append(e.lru, pg)
}

// Alloc registers a named allocation of the given size inside the enclave and
// touches it. Realloc with a new size adjusts the working set.
func (e *Enclave) Alloc(name string, size int64) {
	e.mu.Lock()
	prev := e.heap[name]
	e.heap[name] = size
	e.mu.Unlock()
	if size > prev {
		// Place allocations at disjoint synthetic addresses per name.
		h := sha256.Sum256([]byte(name))
		base := binary.LittleEndian.Uint64(h[:8]) &^ 0xFFF
		e.Touch(base+uint64(prev), size-prev)
	}
}

// ResidentBytes reports the current EPC-resident working set.
func (e *Enclave) ResidentBytes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.resident
}

// Destroy tears the enclave down; subsequent ECalls fail.
func (e *Enclave) Destroy() {
	e.mu.Lock()
	e.destroyed = true
	e.pages = map[uint64]bool{}
	e.lru, e.lruHead = nil, 0
	e.resident = 0
	e.mu.Unlock()
	e.platform.mu.Lock()
	delete(e.platform.enclaves, e.id)
	e.platform.mu.Unlock()
}

// Quote is a remote attestation quote: the platform vouches (with its fused
// key) that an enclave with the given measurement is running and bound the
// caller-supplied report data (typically a public key or nonce).
type Quote struct {
	PlatformID  string
	Measurement Measurement
	ReportData  [64]byte
	Signature   []byte
}

func quoteDigest(platformID string, m Measurement, rd [64]byte) []byte {
	h := sha256.New()
	h.Write([]byte("sgx-quote-v1|"))
	h.Write([]byte(platformID))
	h.Write([]byte{'|'})
	h.Write(m[:])
	h.Write(rd[:])
	return h.Sum(nil)
}

// GetQuote produces an attestation quote for the enclave binding reportData.
func (e *Enclave) GetQuote(reportData [64]byte) Quote {
	e.meter.EnclaveTransitions.Add(1) // quote generation is an ECall
	sig := ed25519.Sign(e.platform.signKey, quoteDigest(e.platform.ID, e.measurement, reportData))
	return Quote{
		PlatformID:  e.platform.ID,
		Measurement: e.measurement,
		ReportData:  reportData,
		Signature:   sig,
	}
}

// Seal encrypts data so only an enclave with the same measurement on the same
// platform can recover it (MRENCLAVE sealing policy). The result is
// confidential and integrity protected.
func (e *Enclave) Seal(plaintext []byte) ([]byte, error) {
	key := deriveSealKey(e.platform.sealKey, e.measurement)
	return aeadSeal(key, plaintext)
}

// DeriveSealedKey deterministically derives a 32-byte key bound to this
// enclave's identity and the label — the SGX EGETKEY sealing-key primitive.
// Only an enclave with the same measurement on the same platform derives the
// same key.
func (e *Enclave) DeriveSealedKey(label string) ([]byte, error) {
	mac := hmac.New(sha256.New, deriveSealKey(e.platform.sealKey, e.measurement))
	mac.Write([]byte("egetkey|"))
	mac.Write([]byte(label))
	return mac.Sum(nil), nil
}

// Unseal reverses Seal for the same enclave identity.
func (e *Enclave) Unseal(sealed []byte) ([]byte, error) {
	key := deriveSealKey(e.platform.sealKey, e.measurement)
	return aeadOpen(key, sealed)
}

func deriveSealKey(root []byte, m Measurement) []byte {
	mac := hmac.New(sha256.New, root)
	mac.Write([]byte("seal|"))
	mac.Write(m[:])
	return mac.Sum(nil)
}

// AttestationService simulates the Intel Attestation Service (IAS): it knows
// the attestation public key of every genuine platform and verdicts quotes.
type AttestationService struct {
	mu        sync.RWMutex
	platforms map[string]ed25519.PublicKey
}

// NewAttestationService returns an empty IAS.
func NewAttestationService() *AttestationService {
	return &AttestationService{platforms: map[string]ed25519.PublicKey{}}
}

// RegisterPlatform records a genuine platform's attestation public key.
func (s *AttestationService) RegisterPlatform(id string, pub ed25519.PublicKey) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.platforms[id] = pub
}

// Verify checks a quote's signature against the registered platform key.
func (s *AttestationService) Verify(q Quote) error {
	s.mu.RLock()
	pub, ok := s.platforms[q.PlatformID]
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("sgx: unknown platform %q", q.PlatformID)
	}
	if !ed25519.Verify(pub, quoteDigest(q.PlatformID, q.Measurement, q.ReportData), q.Signature) {
		return errors.New("sgx: quote signature invalid")
	}
	return nil
}
