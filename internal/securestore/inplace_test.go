package securestore

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"ironsafe/internal/pager"
	"ironsafe/internal/simtime"
)

// The tests of the in-place page open: what it allocates, that it decrypts
// nothing before the MAC has passed, that the pages it hands out neither reach
// the MAC behind them nor overlap, that plaintext never returns to the medium,
// and that the outcome does not depend on how many workers open a batch.

func seq32(n int) []uint32 {
	idxs := make([]uint32, n)
	for i := range idxs {
		idxs[i] = uint32(i)
	}
	return idxs
}

// allocatedBytes reports what one call of fn allocates, averaged over runs.
func allocatedBytes(runs int, fn func()) uint64 {
	fn() // warm the crypto pool and the scratch slices
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestReadPagesAllocBudget: a batched read allocates one page-sized buffer per
// page — the device's copy of the record, which openPage decrypts in place —
// and a bounded number of small objects per batch.
func TestReadPagesAllocBudget(t *testing.T) {
	for _, opts := range []Options{{}, {GCM: true}} {
		t.Run(fmt.Sprintf("gcm=%v", opts.GCM), func(t *testing.T) {
			e := newEnv(t)
			s := e.open(t, opts)
			fillPages(t, s, 32)
			idxs := seq32(32)
			read := func() {
				if _, _, err := s.readPagesAt(idxs, 1); err != nil {
					t.Fatal(err)
				}
			}
			// One buffer per page is the device's: a record rounds up to the
			// 4864-byte size class. A second buffer per page would double it.
			const perPage = 4864
			if got, max := allocatedBytes(20, read), uint64(32*perPage+8<<10); got > max {
				t.Errorf("ReadPages(32 pages) allocates %d bytes, want <= %d (one record per page + 8 KiB per batch)", got, max)
			}
			// Per batch: the result slice and the frontier — three objects
			// today; the tree HMAC is keyed once, in the pooled crypto state.
			// Under the race detector sync.Pool drops entries at random, so
			// that state is sometimes rebuilt: hence the slack.
			if got := testing.AllocsPerRun(20, read); got > 32+24 {
				t.Errorf("ReadPages(32 pages) makes %.0f allocations, want <= 32 records + 24 per batch", got)
			}
		})
	}
}

// TestSealPageAllocatesOneRecord: IV, ciphertext and MAC are built in the one
// buffer that becomes the record.
func TestSealPageAllocatesOneRecord(t *testing.T) {
	for _, opts := range []Options{{}, {GCM: true}} {
		e := newEnv(t)
		s := e.open(t, opts)
		pc := s.getCrypto()
		plain := bytes.Repeat([]byte{0xab}, pager.PageSize)
		got := testing.AllocsPerRun(50, func() {
			if _, _, err := s.sealPage(pc, 7, plain); err != nil {
				t.Fatal(err)
			}
		})
		// crypto/rand, a GCM nonce and the AD bytes may each cost a tiny
		// object; what must not come back is a second page-sized one.
		if got > 3 {
			t.Errorf("gcm=%v: sealPage makes %.0f allocations, want the record and at most 2 small objects", opts.GCM, got)
		}
		if got := allocatedBytes(50, func() { s.sealPage(pc, 7, plain) }); got > 4864+64 {
			t.Errorf("gcm=%v: sealPage allocates %d bytes, want one record", opts.GCM, got)
		}
	}
}

// TestSealOpenRoundTripShortPage: sealPage pads a short page itself, and the
// record opens to the padded page.
func TestSealOpenRoundTripShortPage(t *testing.T) {
	for _, opts := range []Options{{}, {GCM: true}} {
		e := newEnv(t)
		s := e.open(t, opts)
		pc := s.getCrypto()
		record, recordMAC, err := s.sealPage(pc, 3, []byte("short"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(recordMAC, record[len(record)-len(recordMAC):]) {
			t.Fatalf("gcm=%v: record MAC is not the record's tail", opts.GCM)
		}
		plain, openMAC, err := s.openPage(pc, 3, record)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]byte("short"), make([]byte, pager.PageSize-5)...)
		if !bytes.Equal(plain, want) || !bytes.Equal(openMAC, recordMAC) {
			t.Fatalf("gcm=%v: round trip lost the page or its MAC", opts.GCM)
		}
		if _, _, err := s.openPage(pc, 4, record); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("gcm=%v: record opened under another index: %v", opts.GCM, err)
		}
	}
}

// TestTamperedRecordIsNotDecrypted flips one byte in each region of a record
// and demands ErrIntegrity with the handed-in buffer untouched: the MAC is
// compared before a byte is decrypted. Single page and batched.
func TestTamperedRecordIsNotDecrypted(t *testing.T) {
	e := newEnv(t)
	s := e.open(t, Options{})
	fillPages(t, s, 8)
	pc := s.getCrypto()
	regions := map[string]int{"iv": 3, "ciphertext": ivSize + 1000, "mac": ivSize + pager.PageSize + 5}
	for name, off := range regions {
		record, err := e.dev.ReadBlock(2)
		if err != nil {
			t.Fatal(err)
		}
		record[off] ^= 0x10
		handed := append([]byte(nil), record...)
		if _, _, err := s.openPage(pc, 2, record); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("%s flipped: err = %v, want ErrIntegrity", name, err)
		}
		if !bytes.Equal(record, handed) {
			t.Fatalf("%s flipped: openPage wrote into a record it rejected", name)
		}
	}
	// Batched: the tampered page fails the batch, and the medium — which the
	// batch's buffers were copied from — still holds ciphertext throughout.
	for name, off := range regions {
		before := e.dev.SnapshotBlocks()
		if err := e.dev.Corrupt(5, off); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			if got, _, err := s.readPagesAt([]uint32{3, 4, 5, 6}, workers); !errors.Is(err, ErrIntegrity) || got != nil {
				t.Fatalf("%s flipped, %d workers: got %v, err = %v; want nil, ErrIntegrity", name, workers, got != nil, err)
			}
		}
		e.dev.RestoreBlocks(before)
	}
	// GCM fails closed too; the AEAD clears what it had decrypted.
	g := newEnv(t)
	gs := g.open(t, Options{GCM: true})
	fillPages(t, gs, 2)
	record, _ := g.dev.ReadBlock(1)
	record[gcmNonceSize+9] ^= 0x10
	if _, _, err := gs.openPage(gs.getCrypto(), 1, record); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("gcm ciphertext flipped: err = %v, want ErrIntegrity", err)
	}
	if bytes.Contains(record, []byte("batch-page-")) {
		t.Fatal("gcm: a rejected record holds plaintext")
	}
}

// TestPagesAreCappedAndDisjoint: a page has len == cap == PageSize, so a heap
// append cannot run into the MAC bytes behind it, and no two pages of a batch
// share a byte.
func TestPagesAreCappedAndDisjoint(t *testing.T) {
	for _, opts := range []Options{{}, {GCM: true}} {
		e := newEnv(t)
		s := e.open(t, opts)
		fillPages(t, s, 16)
		pages, err := s.ReadPages(append(seq32(16), 3, 3)) // duplicates included
		if err != nil {
			t.Fatal(err)
		}
		one, err := s.ReadPage(9)
		if err != nil {
			t.Fatal(err)
		}
		type span struct{ lo, hi uintptr }
		var spans []span
		for i, p := range append(pages, one) {
			if len(p) != pager.PageSize || cap(p) != pager.PageSize {
				t.Fatalf("%+v: page %d has len %d cap %d, want %d and %d", opts, i, len(p), cap(p), pager.PageSize, pager.PageSize)
			}
			lo := uintptr(unsafe.Pointer(&p[0]))
			spans = append(spans, span{lo, lo + uintptr(len(p))})
		}
		for i, a := range spans {
			for j, b := range spans[:i] {
				if a.lo < b.hi && b.lo < a.hi {
					t.Fatalf("%+v: pages %d and %d overlap", opts, j, i)
				}
			}
		}
		// Writing into one page — what heap-file code does — changes no other read.
		for i := range pages[4] {
			pages[4][i] = 0xee
		}
		again, err := s.ReadPage(4)
		if err != nil || bytes.Equal(again, pages[4]) {
			t.Fatalf("%+v: a caller's write into its page reached the store (err %v)", opts, err)
		}
	}
}

// TestReadsLeaveMediumCiphertext: reading decrypts in the caller's copy, never
// in the device's block.
func TestReadsLeaveMediumCiphertext(t *testing.T) {
	for _, opts := range []Options{{}, {GCM: true}} {
		e := newEnv(t)
		s := e.open(t, opts)
		fillPages(t, s, 16)
		before := e.dev.SnapshotBlocks()
		if _, err := s.ReadPages(seq32(16)); err != nil {
			t.Fatal(err)
		}
		if err := s.VerifyAll(); err != nil {
			t.Fatal(err)
		}
		after := e.dev.SnapshotBlocks()
		if len(after) != len(before) {
			t.Fatalf("gcm=%v: reads changed the block count", opts.GCM)
		}
		for idx, b := range before {
			if !bytes.Equal(after[idx], b) {
				t.Fatalf("gcm=%v: block %d changed under a read", opts.GCM, idx)
			}
			if bytes.Contains(b, []byte("batch-page-")) {
				t.Fatalf("gcm=%v: block %d holds plaintext", opts.GCM, idx)
			}
		}
	}
}

// TestReadPagesWorkerCountInvariance: pages, error and meters are the same
// whether one worker opens a batch or four do — including which page a batch
// with two bad records blames.
func TestReadPagesWorkerCountInvariance(t *testing.T) {
	type outcome struct {
		pages [][]byte
		err   string
		meter simtime.Snapshot
	}
	run := func(workers int, tamper bool) outcome {
		e := newEnv(t)
		s := e.open(t, Options{})
		fillPages(t, s, 40)
		if tamper {
			e.dev.Corrupt(21, 100)
			e.dev.Corrupt(13, 100)
		}
		start := e.meter.Snapshot()
		var o outcome
		for _, idxs := range [][]uint32{seq32(32), {39, 2, 17}, seq32(40)[8:]} {
			pages, retry, err := s.readPagesAt(idxs, workers)
			if retry {
				t.Fatal("retry without a concurrent commit")
			}
			if err != nil {
				o.err += err.Error() + "\n"
			}
			o.pages = append(o.pages, pages...)
		}
		o.meter = e.meter.Snapshot().Sub(start)
		return o
	}
	for _, tamper := range []bool{false, true} {
		one, four := run(1, tamper), run(4, tamper)
		if one.err != four.err {
			t.Errorf("tamper=%v: errors differ:\n1 worker:  %s4 workers: %s", tamper, one.err, four.err)
		}
		if tamper && !bytes.Contains([]byte(one.err), []byte("page 13")) {
			t.Errorf("the lowest bad page is not the one reported: %s", one.err)
		}
		if one.meter != four.meter {
			t.Errorf("tamper=%v: meters differ:\n1 worker:  %+v\n4 workers: %+v", tamper, one.meter, four.meter)
		}
		if len(one.pages) != len(four.pages) {
			t.Fatalf("tamper=%v: %d pages vs %d", tamper, len(one.pages), len(four.pages))
		}
		for i := range one.pages {
			if !bytes.Equal(one.pages[i], four.pages[i]) {
				t.Fatalf("tamper=%v: page %d differs between 1 and 4 workers", tamper, i)
			}
		}
	}
}

func benchStore(b *testing.B, opts Options, pages int) (*Store, *pager.MemDevice) {
	b.Helper()
	dev := pager.NewMemDevice()
	var m simtime.Meter
	s, err := OpenWith(dev, staticKeys{}, &memAnchor{}, &m, opts)
	if err != nil {
		b.Fatal(err)
	}
	txn := s.Begin()
	for i := 0; i < pages; i++ {
		idx, _ := txn.Allocate()
		txn.WritePage(idx, bytes.Repeat([]byte{byte(i)}, pager.PageSize))
	}
	if err := txn.Commit(); err != nil {
		b.Fatal(err)
	}
	return s, dev
}

// staticKeys and memAnchor stand in for the TrustZone key source and the RPMB
// in the layer benchmarks, which measure page crypto and nothing else.
type staticKeys struct{}

func (staticKeys) DeriveKey(label string) ([]byte, error) {
	return bytes.Repeat([]byte(label[:1]), 32), nil
}

type memAnchor struct{ tag []byte }

func (a *memAnchor) StoreRoot(tag []byte) error      { a.tag = append([]byte(nil), tag...); return nil }
func (a *memAnchor) LoadRoot([]byte) ([]byte, error) { return a.tag, nil }

var benchCiphers = []struct {
	name string
	opts Options
}{{"cbc-hmac", Options{}}, {"gcm", Options{GCM: true}}}

// BenchmarkReadPages is the batched secure read of 32 pages from a MemDevice:
// device copy, page open, batched Merkle verify.
func BenchmarkReadPages(b *testing.B) {
	for _, c := range benchCiphers {
		b.Run(c.name, func(b *testing.B) {
			s, _ := benchStore(b, c.opts, 256)
			idxs := seq32(256)
			b.SetBytes(32 * pager.PageSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := (i * 32) % 256
				if _, err := s.ReadPages(idxs[lo : lo+32]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOpenPage is one page open — MAC check, then decryption in place —
// over a fresh copy of the record each time, as the device hands one out.
func BenchmarkOpenPage(b *testing.B) {
	for _, c := range benchCiphers {
		b.Run(c.name, func(b *testing.B) {
			s, dev := benchStore(b, c.opts, 1)
			stored, err := dev.ReadBlock(0)
			if err != nil {
				b.Fatal(err)
			}
			record := make([]byte, len(stored))
			pc := s.getCrypto()
			b.SetBytes(pager.PageSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(record, stored)
				if _, _, err := s.openPage(pc, 0, record); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSealPage is one page seal: IV, encryption, MAC, one record.
func BenchmarkSealPage(b *testing.B) {
	for _, c := range benchCiphers {
		b.Run(c.name, func(b *testing.B) {
			s, _ := benchStore(b, c.opts, 1)
			plain := bytes.Repeat([]byte{0x5c}, pager.PageSize)
			pc := s.getCrypto()
			b.SetBytes(pager.PageSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.sealPage(pc, 0, plain); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
