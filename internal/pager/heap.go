package pager

import (
	"encoding/binary"
	"fmt"
	"slices"

	"ironsafe/internal/schema"
)

// HeapFile stores a table's rows across pages of a PageStore. Page layout:
//
//	u16 row count | u16 used bytes | rows encoded back-to-back
//
// The page list is owned by the heap file and persisted by the engine's
// catalog; there is no free-space map — rows append to the tail page, which
// matches the bulk-load-then-scan usage of the TPC-H workload while still
// supporting point updates via rewrite.
type HeapFile struct {
	store PageStore
	pages []uint32
	scan  ScanConfig
}

// ScanConfig tunes the heap scan pipeline. The zero value preserves the
// classic behaviour: one ReadPage per page, no read-ahead.
type ScanConfig struct {
	// BatchPages is how many pages each ReadPages call covers. 0 or 1 selects
	// the sequential per-page path.
	BatchPages int
	// Prefetch is how many fetched batches may sit decoded-pending ahead of
	// the consumer. <= 0 fetches batches synchronously with no read-ahead
	// goroutine.
	Prefetch int
}

// SetScanConfig installs the scan pipeline configuration for this heap.
func (h *HeapFile) SetScanConfig(cfg ScanConfig) { h.scan = cfg }

const heapHeaderSize = 4

// NewHeapFile creates an empty heap on the store.
func NewHeapFile(store PageStore) *HeapFile {
	return &HeapFile{store: store}
}

// OpenHeapFile re-attaches to an existing page list (from the catalog).
func OpenHeapFile(store PageStore, pages []uint32) *HeapFile {
	return &HeapFile{store: store, pages: append([]uint32(nil), pages...)}
}

// Pages returns the heap's page list for catalog persistence.
func (h *HeapFile) Pages() []uint32 { return append([]uint32(nil), h.pages...) }

// HasPages reports whether pages is the heap's page list, without copying it.
func (h *HeapFile) HasPages(pages []uint32) bool { return slices.Equal(h.pages, pages) }

// NumPages returns how many pages the heap occupies.
func (h *HeapFile) NumPages() int { return len(h.pages) }

func pageHeader(buf []byte) (rows, used int) {
	return int(binary.LittleEndian.Uint16(buf[0:2])), int(binary.LittleEndian.Uint16(buf[2:4]))
}

func setPageHeader(buf []byte, rows, used int) {
	binary.LittleEndian.PutUint16(buf[0:2], uint16(rows))
	binary.LittleEndian.PutUint16(buf[2:4], uint16(used))
}

// Append adds a row to the heap, allocating pages as needed.
func (h *HeapFile) Append(r schema.Row) error {
	need := schema.EncodedSize(r)
	if need > PageSize-heapHeaderSize {
		return fmt.Errorf("pager: row of %d bytes exceeds page capacity", need)
	}
	if len(h.pages) > 0 {
		last := h.pages[len(h.pages)-1]
		buf, err := h.store.ReadPage(last)
		if err != nil {
			return fmt.Errorf("pager: heap tail page %d: %w", last, err)
		}
		rows, used := pageHeader(buf)
		if heapHeaderSize+used+need <= PageSize {
			buf = append(buf[:heapHeaderSize+used], schema.EncodeRow(nil, r)...)
			if len(buf) < PageSize {
				buf = append(buf, make([]byte, PageSize-len(buf))...)
			}
			setPageHeader(buf, rows+1, used+need)
			return h.store.WritePage(last, buf)
		}
	}
	idx, err := h.store.Allocate()
	if err != nil {
		return fmt.Errorf("pager: allocating heap page: %w", err)
	}
	buf := make([]byte, PageSize)
	copy(buf[heapHeaderSize:], schema.EncodeRow(nil, r))
	setPageHeader(buf, 1, need)
	h.pages = append(h.pages, idx)
	return h.store.WritePage(idx, buf)
}

// pageWriter is the write-side subset of PageStore that both a store and an
// open transaction satisfy, letting the bulk paths run unchanged over either.
type pageWriter interface {
	WritePage(idx uint32, data []byte) error
	Allocate() (uint32, error)
}

// AppendAll bulk-loads rows, batching page writes (one write per filled page
// rather than one per row). On a transactional store the whole load is one
// atomic group commit: a crash mid-load leaves either all rows or none.
func (h *HeapFile) AppendAll(rows []schema.Row) error {
	if len(rows) == 0 {
		return nil
	}
	ts, ok := h.store.(TxnStore)
	if !ok {
		return h.appendAllTo(h.store, rows)
	}
	saved := append([]uint32(nil), h.pages...)
	txn := ts.BeginTxn()
	if err := h.appendAllTo(txn, rows); err != nil {
		txn.Abort()
		h.pages = saved
		return err
	}
	if err := txn.Commit(); err != nil {
		h.pages = saved
		return err
	}
	return nil
}

// appendAllTo is AppendAll's body, parameterized over the write target (the
// store itself, or one transaction).
func (h *HeapFile) appendAllTo(w pageWriter, rows []schema.Row) error {
	var buf []byte
	var count, used int
	var pageIdx uint32
	havePage := false

	flush := func() error {
		if !havePage {
			return nil
		}
		if len(buf) < PageSize {
			buf = append(buf, make([]byte, PageSize-len(buf))...)
		}
		setPageHeader(buf, count, used)
		return w.WritePage(pageIdx, buf)
	}
	// Start by trying to fill the existing tail page.
	if len(h.pages) > 0 {
		last := h.pages[len(h.pages)-1]
		existing, err := h.store.ReadPage(last)
		if err != nil {
			return fmt.Errorf("pager: heap tail page %d: %w", last, err)
		}
		count, used = pageHeader(existing)
		buf = existing[:heapHeaderSize+used]
		pageIdx = last
		havePage = true
	}
	for _, r := range rows {
		need := schema.EncodedSize(r)
		if need > PageSize-heapHeaderSize {
			return fmt.Errorf("pager: row of %d bytes exceeds page capacity", need)
		}
		if !havePage || heapHeaderSize+used+need > PageSize {
			if err := flush(); err != nil {
				return err
			}
			idx, err := w.Allocate()
			if err != nil {
				return fmt.Errorf("pager: allocating heap page: %w", err)
			}
			h.pages = append(h.pages, idx)
			pageIdx = idx
			buf = make([]byte, heapHeaderSize, PageSize)
			count, used = 0, 0
			havePage = true
		}
		buf = schema.EncodeRow(buf, r)
		count++
		used += need
	}
	return flush()
}

// Scan calls fn for every row in heap order. Returning a non-nil error from
// fn stops the scan; ErrStopScan stops it without reporting an error.
func (h *HeapFile) Scan(fn func(schema.Row) error) error {
	return stopped(h.scanPages(func(idx uint32, buf []byte) error {
		return scanPage(idx, buf, fn)
	}))
}

// ScanWindows delivers the heap's rows in windows of batchRows consecutive
// rows (the last one short), still encoded in their verified plaintext
// pages: each row is walked once to index its fields (failing closed on any
// malformed field, like Scan), and the consumer decodes only the columns and
// rows it needs from the window. It reads pages exactly as Scan does, so the
// device-operation order — and every deterministic fault/adversary stream
// keyed on it — is identical whichever entry point drives a table scan. The
// window is reused between callbacks and must not be retained. width is the
// table's column count.
func (h *HeapFile) ScanWindows(batchRows, width int, fn func(*schema.RowWindow) error) error {
	if batchRows < 1 {
		return fmt.Errorf("pager: scan window of %d rows", batchRows)
	}
	win := schema.NewRowWindow(width)
	err := h.scanPages(func(idx uint32, buf []byte) error {
		rows, end, err := pageExtent(idx, buf)
		if err != nil {
			return err
		}
		pos := heapHeaderSize
		for i := 0; i < rows; i++ {
			if pos >= end {
				return fmt.Errorf("pager: heap page %d truncated at row %d", idx, i)
			}
			if pos, err = win.AppendRow(buf[:end], pos); err != nil {
				return fmt.Errorf("pager: heap page %d row %d: %w", idx, i, err)
			}
			if win.Len() == batchRows {
				if err := fn(win); err != nil {
					return err
				}
				win.Reset()
			}
		}
		return nil
	})
	if err == nil && win.Len() > 0 {
		err = fn(win)
	}
	return stopped(err)
}

// stopped maps the early-stop sentinel to a clean end of scan.
func stopped(err error) error {
	if err == ErrStopScan {
		return nil
	}
	return err
}

// pageExtent reads a fetched heap page's header: its row count and the
// offset one past its last used byte.
func pageExtent(idx uint32, buf []byte) (rows, end int, err error) {
	rows, used := pageHeader(buf)
	end = heapHeaderSize + used
	if end > len(buf) {
		return 0, 0, fmt.Errorf("pager: heap page %d claims %d used bytes", idx, used)
	}
	return rows, end, nil
}

// scanPage decodes one fetched page and feeds its rows to fn.
func scanPage(idx uint32, buf []byte, fn func(schema.Row) error) error {
	rows, end, err := pageExtent(idx, buf)
	if err != nil {
		return err
	}
	pos := heapHeaderSize
	for i := 0; i < rows; i++ {
		if pos >= end {
			return fmt.Errorf("pager: heap page %d truncated at row %d", idx, i)
		}
		r, n, err := schema.DecodeRow(buf[pos:end])
		if err != nil {
			return fmt.Errorf("pager: heap page %d row %d: %w", idx, i, err)
		}
		pos += n
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// scanPages calls fn with every page of the heap, verified and decrypted, in
// heap order; an error from fn (ErrStopScan included) ends the scan and is
// returned unchanged.
//
// With a ScanConfig whose BatchPages > 1 the scan becomes a pipeline: pages
// are fetched through PageStore.ReadPages in fixed batches, and with
// Prefetch > 0 a single producer goroutine keeps up to Prefetch batches in
// flight ahead of the consumer, overlapping device reads with decrypt/verify
// of earlier batches. The producer fetches batches strictly in heap order
// through a buffered channel, so the sequence of device operations — which
// the fault-injection framework keys its deterministic streams on — is a
// pure function of how far the consumer got, never of goroutine scheduling.
func (h *HeapFile) scanPages(fn func(idx uint32, buf []byte) error) error {
	bp := h.scan.BatchPages
	if bp <= 1 || len(h.pages) <= 1 {
		for _, idx := range h.pages {
			buf, err := h.store.ReadPage(idx)
			if err != nil {
				return fmt.Errorf("pager: heap page %d: %w", idx, err)
			}
			if err := fn(idx, buf); err != nil {
				return err
			}
		}
		return nil
	}

	// One unit of the pipeline: a fetched page range, or the error that
	// ended fetching.
	type pageBatch struct {
		idxs []uint32
		bufs [][]byte
		err  error
	}
	fetch := func(start int) pageBatch {
		idxs := h.pages[start:min(start+bp, len(h.pages))]
		bufs, err := h.store.ReadPages(idxs)
		return pageBatch{idxs: idxs, bufs: bufs, err: err}
	}
	consume := func(b pageBatch) error {
		if b.err != nil {
			return fmt.Errorf("pager: heap pages %d..%d: %w", b.idxs[0], b.idxs[len(b.idxs)-1], b.err)
		}
		for i, idx := range b.idxs {
			if err := fn(idx, b.bufs[i]); err != nil {
				return err
			}
		}
		return nil
	}

	if h.scan.Prefetch <= 0 {
		// Synchronous batches: amortized verification without read-ahead.
		for start := 0; start < len(h.pages); start += bp {
			if err := consume(fetch(start)); err != nil {
				return err
			}
		}
		return nil
	}

	ch := make(chan pageBatch, h.scan.Prefetch)
	done := make(chan struct{})
	go func() {
		defer close(ch)
		for start := 0; start < len(h.pages); start += bp {
			b := fetch(start)
			select {
			case ch <- b:
			case <-done:
				return
			}
			if b.err != nil {
				return
			}
		}
	}()
	defer close(done)

	for b := range ch {
		if err := consume(b); err != nil {
			return err
		}
	}
	return nil
}

// ErrStopScan terminates a Scan early without error.
var ErrStopScan = fmt.Errorf("pager: stop scan")

// Rewrite replaces the heap's entire contents with rows, reusing its pages
// (used by UPDATE/DELETE and session cleanup). On a transactional store the
// new contents and the zeroing of abandoned pages land in one atomic commit,
// so a crash mid-rewrite can never expose half-deleted data.
func (h *HeapFile) Rewrite(rows []schema.Row) error {
	old := h.pages
	h.pages = nil
	ts, ok := h.store.(TxnStore)
	if !ok {
		if err := h.appendAllToIfAny(h.store, rows); err != nil {
			h.pages = old
			return err
		}
		// Zero the abandoned pages so deleted data does not linger on the
		// medium (the paper's session-cleanup requirement).
		for _, idx := range old {
			if err := h.store.WritePage(idx, make([]byte, PageSize)); err != nil {
				return err
			}
		}
		return nil
	}
	txn := ts.BeginTxn()
	err := h.appendAllToIfAny(txn, rows)
	if err == nil {
		for _, idx := range old {
			if err = txn.WritePage(idx, nil); err != nil {
				break
			}
		}
	}
	if err != nil {
		txn.Abort()
		h.pages = old
		return err
	}
	if err := txn.Commit(); err != nil {
		h.pages = old
		return err
	}
	return nil
}

// appendAllToIfAny is appendAllTo tolerating an empty row set.
func (h *HeapFile) appendAllToIfAny(w pageWriter, rows []schema.Row) error {
	if len(rows) == 0 {
		return nil
	}
	return h.appendAllTo(w, rows)
}

// Count returns the number of rows by scanning.
func (h *HeapFile) Count() (int, error) {
	n := 0
	err := h.Scan(func(schema.Row) error { n++; return nil })
	return n, err
}
