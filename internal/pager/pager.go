// Package pager provides the page-granular storage layer: an abstract block
// device (the untrusted storage medium), an in-memory implementation, a
// metered page cache, and slotted heap files for table storage. All data
// moves in 4 KiB logical pages, matching the unit the paper's secure storage
// framework encrypts and integrity-protects.
package pager

import (
	"errors"
	"fmt"
	"sync"

	"ironsafe/internal/simtime"
)

// PageSize is the logical page size in bytes.
const PageSize = 4096

// BlockDevice is the untrusted storage medium: an addressable array of
// blocks. Implementations may store blocks of any physical size (the secure
// store's encrypted records are larger than PageSize).
type BlockDevice interface {
	// ReadBlock returns the contents of block idx. Reading a never-written
	// block returns ErrBlockNotFound. The slice is the caller's own: the
	// device keeps no reference to it and a later read is unaffected by what
	// the caller writes into it. The fault planes rely on that to flip bits
	// in a read, the secure store to decrypt a record in the buffer it came
	// in; a wrapper that passes an inner device's slice on inherits it.
	ReadBlock(idx uint32) ([]byte, error)
	// WriteBlock replaces the contents of block idx.
	WriteBlock(idx uint32, data []byte) error
	// NumBlocks returns one past the highest written block index.
	NumBlocks() uint32
}

// ErrBlockNotFound reports a read of a block that was never written.
var ErrBlockNotFound = errors.New("pager: block not found")

// MemDevice is an in-memory BlockDevice standing in for the storage server's
// NVMe drive.
type MemDevice struct {
	mu     sync.RWMutex
	blocks map[uint32][]byte
	max    uint32
}

// NewMemDevice returns an empty in-memory device.
func NewMemDevice() *MemDevice {
	return &MemDevice{blocks: map[uint32][]byte{}}
}

// ReadBlock implements BlockDevice.
func (d *MemDevice) ReadBlock(idx uint32) ([]byte, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	b, ok := d.blocks[idx]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrBlockNotFound, idx)
	}
	return append([]byte(nil), b...), nil
}

// WriteBlock implements BlockDevice.
func (d *MemDevice) WriteBlock(idx uint32, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.blocks[idx] = append([]byte(nil), data...)
	if idx+1 > d.max {
		d.max = idx + 1
	}
	return nil
}

// NumBlocks implements BlockDevice.
func (d *MemDevice) NumBlocks() uint32 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.max
}

// Corrupt flips a bit in a stored block, modelling an attacker or medium
// fault. It is exported for security tests.
func (d *MemDevice) Corrupt(idx uint32, byteOff int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	b, ok := d.blocks[idx]
	if !ok {
		return fmt.Errorf("%w: %d", ErrBlockNotFound, idx)
	}
	if byteOff < 0 || byteOff >= len(b) {
		return fmt.Errorf("pager: corrupt offset %d out of range", byteOff)
	}
	b[byteOff] ^= 0x01
	return nil
}

// SnapshotBlocks copies the device's current contents; RestoreBlocks puts
// them back. Together they model a rollback attack for tests.
func (d *MemDevice) SnapshotBlocks() map[uint32][]byte {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make(map[uint32][]byte, len(d.blocks))
	for k, v := range d.blocks {
		out[k] = append([]byte(nil), v...)
	}
	return out
}

// RestoreBlocks replaces the device's contents with a prior snapshot.
func (d *MemDevice) RestoreBlocks(snap map[uint32][]byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.blocks = make(map[uint32][]byte, len(snap))
	d.max = 0
	for k, v := range snap {
		d.blocks[k] = append([]byte(nil), v...)
		if k+1 > d.max {
			d.max = k + 1
		}
	}
}

// PageStore is the page-level interface the database engine consumes. Both
// the plain pager and the secure store implement it.
type PageStore interface {
	// ReadPage returns the 4 KiB logical page at idx. The slice is the
	// caller's own: the store keeps no reference to it, so heap-file code
	// may write into it, and appending to it never reaches bytes that belong
	// to anything else (the secure store's page is the middle of the record
	// it was read in, its capacity cut at PageSize).
	ReadPage(idx uint32) ([]byte, error)
	// ReadPages returns the logical pages at idxs, in order, each as ReadPage
	// would and no two sharing a byte. Implementations may amortize per-page
	// costs (verification, enclave transitions) across the batch, but must
	// return exactly what per-page ReadPage calls would, and must fail the
	// whole batch on any per-page error.
	ReadPages(idxs []uint32) ([][]byte, error)
	// WritePage replaces the logical page at idx. len(data) must be
	// <= PageSize; shorter pages are zero-padded.
	WritePage(idx uint32, data []byte) error
	// Allocate reserves and zero-initializes a fresh page, returning its
	// index.
	Allocate() (uint32, error)
	// NumPages returns one past the highest allocated page.
	NumPages() uint32
}

// StoreTxn batches page writes for one atomic group commit: either every
// staged write becomes durable or none does, even across a power cut.
type StoreTxn interface {
	// WritePage stages a logical page write.
	WritePage(idx uint32, data []byte) error
	// Allocate reserves a fresh page index, staged as a zero page. The
	// reservation is atomic across concurrent transactions.
	Allocate() (uint32, error)
	// Commit makes the staged writes durable atomically.
	Commit() error
	// Abort discards the staged writes.
	Abort()
}

// TxnStore is a PageStore that supports atomic multi-page transactions.
// Callers that hold one (e.g. HeapFile bulk loads) batch their writes into a
// single commit; stores without transaction support degrade to per-page
// writes.
type TxnStore interface {
	PageStore
	BeginTxn() StoreTxn
}

// Pager is a metered, caching PageStore over a raw BlockDevice, used for the
// non-secure configurations (hons, vcs).
type Pager struct {
	dev   BlockDevice
	meter *simtime.Meter

	mu        sync.Mutex
	cache     map[uint32][]byte
	order     []uint32
	cacheCap  int
	nextAlloc uint32
}

// NewPager wraps dev with a cache of cacheCap pages (0 disables caching).
func NewPager(dev BlockDevice, meter *simtime.Meter, cacheCap int) *Pager {
	return &Pager{
		dev:       dev,
		meter:     meter,
		cache:     map[uint32][]byte{},
		cacheCap:  cacheCap,
		nextAlloc: dev.NumBlocks(),
	}
}

// ReadPage implements PageStore.
func (p *Pager) ReadPage(idx uint32) ([]byte, error) {
	p.mu.Lock()
	if b, ok := p.cache[idx]; ok {
		out := append([]byte(nil), b...)
		p.mu.Unlock()
		return out, nil
	}
	p.mu.Unlock()
	b, err := p.dev.ReadBlock(idx)
	if err != nil {
		return nil, err
	}
	if p.meter != nil {
		p.meter.PagesRead.Add(1)
	}
	p.insertCache(idx, b)
	return b, nil
}

// ReadPages implements PageStore. The plain pager has no per-page crypto or
// verification to amortize, so the batch is a metered loop over ReadPage.
func (p *Pager) ReadPages(idxs []uint32) ([][]byte, error) {
	out := make([][]byte, len(idxs))
	for i, idx := range idxs {
		b, err := p.ReadPage(idx)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	if p.meter != nil && len(idxs) > 0 {
		p.meter.ScanBatches.Add(1)
	}
	return out, nil
}

// WritePage implements PageStore.
func (p *Pager) WritePage(idx uint32, data []byte) error {
	if len(data) > PageSize {
		return fmt.Errorf("pager: page %d write of %d bytes exceeds page size", idx, len(data))
	}
	buf := make([]byte, PageSize)
	copy(buf, data)
	if err := p.dev.WriteBlock(idx, buf); err != nil {
		return err
	}
	if p.meter != nil {
		p.meter.PagesWritten.Add(1)
	}
	p.insertCache(idx, buf)
	p.mu.Lock()
	if idx >= p.nextAlloc {
		p.nextAlloc = idx + 1
	}
	p.mu.Unlock()
	return nil
}

// Allocate implements PageStore.
func (p *Pager) Allocate() (uint32, error) {
	p.mu.Lock()
	idx := p.nextAlloc
	p.nextAlloc++
	p.mu.Unlock()
	if err := p.dev.WriteBlock(idx, make([]byte, PageSize)); err != nil {
		return 0, err
	}
	if p.meter != nil {
		p.meter.PagesWritten.Add(1)
	}
	return idx, nil
}

// NumPages implements PageStore.
func (p *Pager) NumPages() uint32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.nextAlloc
}

func (p *Pager) insertCache(idx uint32, data []byte) {
	if p.cacheCap <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.cache[idx]; !ok {
		p.order = append(p.order, idx)
	}
	p.cache[idx] = append([]byte(nil), data...)
	for len(p.cache) > p.cacheCap && len(p.order) > 0 {
		victim := p.order[0]
		p.order = p.order[1:]
		delete(p.cache, victim)
	}
}
