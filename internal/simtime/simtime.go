// Package simtime provides the calibrated hardware cost model that converts
// measured work counters into simulated execution time.
//
// The paper evaluates IronSafe on real heterogeneous hardware: an SGX-enabled
// Intel i9-10900K host and a TrustZone-enabled 16-core Cortex-A72 storage
// server joined by 40 GbE. That hardware is unavailable here, so the engines
// in this repository execute queries for real (producing real tuples, pages,
// and protocol bytes) while charging every unit of work to a Meter. The cost
// model then prices the counters with per-platform rates so that benchmark
// output exhibits the same causal structure as the paper's figures: slower
// storage-side CPU, expensive SGX transitions and EPC paging, per-page
// decryption and Merkle freshness verification, and a finite network link.
package simtime

import (
	"sync/atomic"
	"time"
)

// Meter accumulates work counters for one execution context. All methods are
// safe for concurrent use.
type Meter struct {
	TuplesProcessed    atomic.Int64 // tuples pulled through operators
	TupleWork          atomic.Int64 // weighted per-tuple work units (ops × width)
	PagesRead          atomic.Int64 // 4 KiB pages fetched from the store
	PagesWritten       atomic.Int64
	PagesDecrypted     atomic.Int64 // AES-CBC page decryptions
	PagesEncrypted     atomic.Int64
	MerkleVerifies     atomic.Int64 // per-page freshness proofs checked
	MerkleHashes       atomic.Int64 // individual HMAC evaluations inside proofs
	RPMBReads          atomic.Int64
	RPMBWrites         atomic.Int64
	EnclaveTransitions atomic.Int64 // SGX ECALL/OCALL pairs
	EPCFaults          atomic.Int64 // enclave pages evicted+reloaded
	WorldSwitches      atomic.Int64 // TrustZone SMC world switches
	BytesSent          atomic.Int64 // host<->storage protocol bytes
	BytesReceived      atomic.Int64
	RowsShipped        atomic.Int64 // filtered rows moved storage->host
	Batches            atomic.Int64 // executor operator-batch dispatches (vectorized pipeline)
	ScanBatches        atomic.Int64 // batched multi-page reads issued by the scan pipeline
	MerkleHashesSaved  atomic.Int64 // HMAC evaluations avoided by batched verification
}

// Snapshot is an immutable copy of a Meter's counters.
type Snapshot struct {
	TuplesProcessed    int64
	TupleWork          int64
	PagesRead          int64
	PagesWritten       int64
	PagesDecrypted     int64
	PagesEncrypted     int64
	MerkleVerifies     int64
	MerkleHashes       int64
	RPMBReads          int64
	RPMBWrites         int64
	EnclaveTransitions int64
	EPCFaults          int64
	WorldSwitches      int64
	BytesSent          int64
	BytesReceived      int64
	RowsShipped        int64
	Batches            int64
	ScanBatches        int64
	MerkleHashesSaved  int64
}

// Snapshot captures the current counter values.
func (m *Meter) Snapshot() Snapshot {
	return Snapshot{
		TuplesProcessed:    m.TuplesProcessed.Load(),
		TupleWork:          m.TupleWork.Load(),
		PagesRead:          m.PagesRead.Load(),
		PagesWritten:       m.PagesWritten.Load(),
		PagesDecrypted:     m.PagesDecrypted.Load(),
		PagesEncrypted:     m.PagesEncrypted.Load(),
		MerkleVerifies:     m.MerkleVerifies.Load(),
		MerkleHashes:       m.MerkleHashes.Load(),
		RPMBReads:          m.RPMBReads.Load(),
		RPMBWrites:         m.RPMBWrites.Load(),
		EnclaveTransitions: m.EnclaveTransitions.Load(),
		EPCFaults:          m.EPCFaults.Load(),
		WorldSwitches:      m.WorldSwitches.Load(),
		BytesSent:          m.BytesSent.Load(),
		BytesReceived:      m.BytesReceived.Load(),
		RowsShipped:        m.RowsShipped.Load(),
		Batches:            m.Batches.Load(),
		ScanBatches:        m.ScanBatches.Load(),
		MerkleHashesSaved:  m.MerkleHashesSaved.Load(),
	}
}

// Reset zeroes every counter.
func (m *Meter) Reset() {
	*m = Meter{}
}

// Sub returns s - o component-wise; useful for measuring a single query
// against a long-lived meter.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return Snapshot{
		TuplesProcessed:    s.TuplesProcessed - o.TuplesProcessed,
		TupleWork:          s.TupleWork - o.TupleWork,
		PagesRead:          s.PagesRead - o.PagesRead,
		PagesWritten:       s.PagesWritten - o.PagesWritten,
		PagesDecrypted:     s.PagesDecrypted - o.PagesDecrypted,
		PagesEncrypted:     s.PagesEncrypted - o.PagesEncrypted,
		MerkleVerifies:     s.MerkleVerifies - o.MerkleVerifies,
		MerkleHashes:       s.MerkleHashes - o.MerkleHashes,
		RPMBReads:          s.RPMBReads - o.RPMBReads,
		RPMBWrites:         s.RPMBWrites - o.RPMBWrites,
		EnclaveTransitions: s.EnclaveTransitions - o.EnclaveTransitions,
		EPCFaults:          s.EPCFaults - o.EPCFaults,
		WorldSwitches:      s.WorldSwitches - o.WorldSwitches,
		BytesSent:          s.BytesSent - o.BytesSent,
		BytesReceived:      s.BytesReceived - o.BytesReceived,
		RowsShipped:        s.RowsShipped - o.RowsShipped,
		Batches:            s.Batches - o.Batches,
		ScanBatches:        s.ScanBatches - o.ScanBatches,
		MerkleHashesSaved:  s.MerkleHashesSaved - o.MerkleHashesSaved,
	}
}

// Add returns s + o component-wise.
func (s Snapshot) Add(o Snapshot) Snapshot {
	return s.Sub(Snapshot{}.Sub(o))
}

// CPUProfile prices CPU-bound work for one platform.
type CPUProfile struct {
	Name string
	// TupleUnit is the time to process one weighted tuple work unit on a
	// single core: the data work alone (arithmetic, comparison, copy),
	// excluding interpreter dispatch.
	TupleUnit time.Duration
	// BatchDispatch is the per-operator-dispatch overhead: virtual-call
	// chains, expression-tree walking, bounds setup. The tuple-at-a-time
	// executor pays it once per row; the vectorized executor pays it once
	// per batch, which is the MonetDB/X100 observation that interpretation
	// overhead — not data work — dominates row-wise pipelines.
	BatchDispatch time.Duration
	// PageTouch is the CPU cost of staging one 4 KiB page (copy, cache
	// misses) excluding crypto.
	PageTouch time.Duration
	// Cores available for intra-query parallelism of the offloaded part.
	Cores int
	// DecryptPage / EncryptPage price AES-256-CBC + HMAC-SHA-512 on a
	// 4 KiB page for this CPU.
	DecryptPage time.Duration
	EncryptPage time.Duration
	// HashNode prices one HMAC evaluation inside a Merkle proof.
	HashNode time.Duration
}

// LinkProfile prices the host<->storage interconnect.
type LinkProfile struct {
	Name string
	// PerByte is the serialization cost per payload byte (1/bandwidth).
	PerByte time.Duration
	// PerMessage is the fixed per-round-trip latency contribution.
	PerMessage time.Duration
}

// TEEProfile prices trusted-execution overheads.
type TEEProfile struct {
	// EnclaveTransition is the cost of one SGX ECALL/OCALL pair.
	EnclaveTransition time.Duration
	// BatchTransition is the amortized in-enclave cost of one operator
	// batch boundary: spilled-register save/restore and EPC-resident
	// working-set shuffling at each dispatch, far cheaper than a full
	// ECALL/OCALL pair but nonzero (the Figure 8 "other" sliver DuckDB-SGX2
	// measures). Charged per Batches count on secure sides only.
	BatchTransition time.Duration
	// EPCFault is the cost of evicting + reloading one enclave page when
	// the working set exceeds the EPC.
	EPCFault time.Duration
	// EPCLimitBytes is the usable enclave page cache (96 MiB on the
	// paper's hardware).
	EPCLimitBytes int64
	// WorldSwitch is the cost of one TrustZone SMC world switch.
	WorldSwitch time.Duration
	// RPMBRead / RPMBWrite price authenticated RPMB operations.
	RPMBRead  time.Duration
	RPMBWrite time.Duration
}

// CostModel combines platform profiles into a complete pricing of a Snapshot.
type CostModel struct {
	Host    CPUProfile
	Storage CPUProfile
	Link    LinkProfile
	TEE     TEEProfile
}

// DefaultModel returns the calibration used throughout the benchmarks,
// chosen to reflect the paper's testbed ratios: host single-thread ~2.4×
// faster than the Cortex-A72, 40 GbE link, 96 MiB EPC, microsecond-scale
// enclave transitions.
func DefaultModel() CostModel {
	return CostModel{
		Host: CPUProfile{
			Name: "x86-i9-10900K",
			// 15 + 40 preserves the former 55 ns/tuple total, so the
			// row-at-a-time path (one dispatch per tuple) prices as before
			// while batched dispatch amortizes the 40 ns across ~4K rows.
			TupleUnit:     15 * time.Nanosecond,
			BatchDispatch: 40 * time.Nanosecond,
			PageTouch:     350 * time.Nanosecond,
			Cores:         10,
			DecryptPage:   4400 * time.Nanosecond,
			EncryptPage:   4800 * time.Nanosecond,
			HashNode:      1800 * time.Nanosecond,
		},
		Storage: CPUProfile{
			Name: "arm-cortex-a72",
			// 30 + 100 preserves the former 130 ns/tuple total (see Host).
			TupleUnit:     30 * time.Nanosecond,
			BatchDispatch: 100 * time.Nanosecond,
			PageTouch:     800 * time.Nanosecond,
			Cores:         16,
			DecryptPage:   10400 * time.Nanosecond,
			EncryptPage:   11200 * time.Nanosecond,
			HashNode:      4200 * time.Nanosecond,
		},
		Link: LinkProfile{
			Name:       "40GbE",
			PerByte:    time.Duration(1), // ~1 ns/byte ≈ 8 Gb/s effective single stream
			PerMessage: 30 * time.Microsecond,
		},
		TEE: TEEProfile{
			EnclaveTransition: 8 * time.Microsecond,
			BatchTransition:   1 * time.Microsecond,
			EPCFault:          12 * time.Microsecond,
			EPCLimitBytes:     96 << 20,
			WorldSwitch:       4 * time.Microsecond,
			RPMBRead:          150 * time.Microsecond,
			RPMBWrite:         400 * time.Microsecond,
		},
	}
}

// SideCost is the priced breakdown for one execution side.
type SideCost struct {
	Compute   time.Duration // tuple processing
	PageIO    time.Duration // page staging
	Decrypt   time.Duration // page decryption/encryption
	Freshness time.Duration // Merkle verification + RPMB
	TEE       time.Duration // enclave transitions, EPC faults, world switches
}

// Total sums all components.
func (c SideCost) Total() time.Duration {
	return c.Compute + c.PageIO + c.Decrypt + c.Freshness + c.TEE
}

// PriceCPU prices a snapshot's CPU-side work with profile p, dividing
// parallelizable work across up to cores cores (0 means p.Cores). Scans —
// including their per-page decryption and freshness verification — are
// embarrassingly parallel, so all components scale; callers price serial
// sections (the host's SQLite-style query section) with cores=1.
func (m CostModel) PriceCPU(s Snapshot, p CPUProfile, cores int) SideCost {
	if cores <= 0 {
		cores = p.Cores
	}
	if cores < 1 {
		cores = 1
	}
	par := time.Duration(cores)
	var c SideCost
	c.Compute = (time.Duration(s.TupleWork)*p.TupleUnit +
		time.Duration(s.Batches)*p.BatchDispatch) / par
	c.PageIO = time.Duration(s.PagesRead+s.PagesWritten) * p.PageTouch / par
	c.Decrypt = (time.Duration(s.PagesDecrypted)*p.DecryptPage +
		time.Duration(s.PagesEncrypted)*p.EncryptPage) / par
	c.Freshness = time.Duration(s.MerkleHashes) * p.HashNode / par
	return c
}

// PriceTEE prices the trusted-execution overheads in a snapshot.
func (m CostModel) PriceTEE(s Snapshot) time.Duration {
	t := m.TEE
	return time.Duration(s.EnclaveTransitions)*t.EnclaveTransition +
		time.Duration(s.EPCFaults)*t.EPCFault +
		time.Duration(s.WorldSwitches)*t.WorldSwitch +
		time.Duration(s.RPMBReads)*t.RPMBRead +
		time.Duration(s.RPMBWrites)*t.RPMBWrite
}

// PriceBatchTransitions prices the amortized in-enclave operator-batch
// boundary cost for one side's snapshot. It is separate from PriceTEE because
// Batches accrue in every execution mode, but only secure sides pay the
// enclave working-set cost per batch — the caller applies it to the TEE
// component of secure sides only.
func (m CostModel) PriceBatchTransitions(s Snapshot) time.Duration {
	return time.Duration(s.Batches) * m.TEE.BatchTransition
}

// PriceLink prices data transfer. messages is the number of protocol round
// trips observed.
func (m CostModel) PriceLink(bytes, messages int64) time.Duration {
	return time.Duration(bytes)*m.Link.PerByte + time.Duration(messages)*m.Link.PerMessage
}

// QueryCost is the full priced execution of one split query.
type QueryCost struct {
	Host     SideCost
	Storage  SideCost
	Transfer time.Duration
}

// Total models the end-to-end latency: the storage phase, the transfer of
// filtered rows (overlapped with storage execution per the paper's
// asynchronous shipping, so only the excess counts), then the host phase.
func (q QueryCost) Total() time.Duration {
	storagePhase := q.Storage.Total()
	transfer := q.Transfer
	if transfer > storagePhase {
		transfer -= storagePhase // shipping overlaps scan
	} else {
		transfer = 0
	}
	return storagePhase + transfer + q.Host.Total()
}
