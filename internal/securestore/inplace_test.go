package securestore

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"unsafe"

	"ironsafe/internal/pager"
	"ironsafe/internal/simtime"
)

// The tests of the page open: what a read allocates once its pages are handed
// back, that it decrypts nothing before the MAC has passed, that the pages it
// hands out never overlap, that plaintext never returns to the medium, and
// that the outcome does not depend on how many workers open a batch.

// raceEnabled is set under the race detector (race_test.go), where sync.Pool
// drops a share of what is handed back, so a read allocates what it would
// otherwise reuse.
var raceEnabled bool

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

// TestReadPagesAllocBudget: a scan-shaped loop — read 32 pages, hand them back
// — allocates no page-sized object per page, neither the device's record nor
// the page it opens into, and at most 8 KiB per batch.
func TestReadPagesAllocBudget(t *testing.T) {
	// The CBC+HMAC page format, the only one the store has.
	t.Run("gcm=false", func(t *testing.T) {
		e := newEnv(t)
		s := e.open(t, Options{})
		fillPages(t, s, 32)
		idxs := seq32(32)
		read := func() {
			pages, _, err := s.readPagesAt(idxs, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pages {
				pager.Release(p)
			}
		}
		// Under the race detector sync.Pool drops a share of what is handed back
		// at random, so records and pages are allocated anew.
		if !raceEnabled {
			if got, max := allocatedBytes(20, read), uint64(8<<10); got > max {
				t.Errorf("ReadPages(32 pages) allocates %d bytes, want <= %d per batch", got, max)
			}
		}
		// Per batch: the result slice and the frontier — three objects today;
		// the tree HMAC is keyed once, in the pooled crypto state, which the race
		// detector's sync.Pool sometimes rebuilds, with records and pages: hence
		// the slack there.
		want := 24.0
		if raceEnabled {
			want += 2 * 32
		}
		if got := testing.AllocsPerRun(20, read); got > want {
			t.Errorf("ReadPages(32 pages) makes %.0f allocations, want <= %.0f per batch", got, want)
		}
	})
}

// TestSealPageAllocatesOneRecord: IV, ciphertext and MAC are built in the one
// buffer that becomes the record.
func TestSealPageAllocatesOneRecord(t *testing.T) {
	e := newEnv(t)
	s := e.open(t, Options{})
	pc := s.getCrypto()
	plain := bytes.Repeat([]byte{0xab}, pager.PageSize)
	got := testing.AllocsPerRun(50, func() {
		if _, _, err := s.sealPage(pc, 7, plain); err != nil {
			t.Fatal(err)
		}
	})
	// crypto/rand may cost a tiny object or two; what must not come back is
	// a second page-sized one.
	if got > 3 {
		t.Errorf("sealPage makes %.0f allocations, want the record and at most 2 small objects", got)
	}
	if got := allocatedBytes(50, func() { s.sealPage(pc, 7, plain) }); got > 4864+64 {
		t.Errorf("sealPage allocates %d bytes, want one record", got)
	}
}

// TestSealOpenRoundTripShortPage: sealPage pads a short page itself, and the
// record opens to the padded page.
func TestSealOpenRoundTripShortPage(t *testing.T) {
	e := newEnv(t)
	s := e.open(t, Options{})
	pc := s.getCrypto()
	record, recordMAC, err := s.sealPage(pc, 3, []byte("short"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recordMAC, record[len(record)-len(recordMAC):]) {
		t.Fatal("record MAC is not the record's tail")
	}
	plain, openMAC, err := s.openPage(pc, 3, record)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte("short"), make([]byte, pager.PageSize-5)...)
	if !bytes.Equal(plain, want) || !bytes.Equal(openMAC, recordMAC) {
		t.Fatal("round trip lost the page or its MAC")
	}
	if _, _, err := s.openPage(pc, 4, record); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("record opened under another index: %v", err)
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
}

// TestPagesAreDisjoint: no two live pages share a byte of their capacity —
// within a batch, duplicates included, or across batches read while others
// are handed back and re-read — every page read from a recycled buffer holds
// its own plaintext, and a write into a page never reaches the store. A
// page's capacity past PageSize is a pooled buffer's and its caller's too;
// no MAC sits behind it any more, so nothing caps it.
func TestPagesAreDisjoint(t *testing.T) {
	e := newEnv(t)
	s := e.open(t, Options{})
	fillPages(t, s, 16)
	read := func(idxs []uint32) [][]byte {
		t.Helper()
		pages, err := s.ReadPages(idxs)
		if err != nil {
			t.Fatal(err)
		}
		return pages
	}
	live := read(append(seq32(16), 3, 3)) // duplicates included
	one, err := s.ReadPage(9)
	if err != nil {
		t.Fatal(err)
	}
	live = append(live, one)
	disjoint := func(pages [][]byte) {
		t.Helper()
		for i, a := range pages {
			alo := uintptr(unsafe.Pointer(&a[0]))
			for j, b := range pages[:i] {
				blo := uintptr(unsafe.Pointer(&b[0]))
				if alo < blo+uintptr(cap(b)) && blo < alo+uintptr(cap(a)) {
					t.Fatalf("live pages %d and %d overlap", j, i)
				}
			}
		}
	}
	disjoint(live)
	for cycle := 0; cycle < 4; cycle++ {
		idxs := seq32(16)[cycle : cycle+8]
		held := read(idxs)
		disjoint(append(live[:len(live):len(live)], held...))
		for k, idx := range idxs {
			if !bytes.Equal(held[k], live[idx]) {
				t.Fatalf("cycle %d: page %d reads otherwise from a recycled buffer", cycle, idx)
			}
			pager.Release(held[k])
		}
	}
	// Writing into one page — what heap-file code does — changes no other read.
	for i := range live[4] {
		live[4][i] = 0xee
	}
	again, err := s.ReadPage(4)
	if err != nil || bytes.Equal(again, live[4]) {
		t.Fatalf("a caller's write into its page reached the store (err %v)", err)
	}
}

// TestReadsLeaveMediumCiphertext: reading decrypts in the caller's copy, never
// in the device's block.
func TestReadsLeaveMediumCiphertext(t *testing.T) {
	e := newEnv(t)
	s := e.open(t, Options{})
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
		t.Fatal("reads changed the block count")
	}
	for idx, b := range before {
		if !bytes.Equal(after[idx], b) {
			t.Fatalf("block %d changed under a read", idx)
		}
		if bytes.Contains(b, []byte("batch-page-")) {
			t.Fatalf("block %d holds plaintext", idx)
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

func benchStore(b *testing.B, pages int) (*Store, *pager.MemDevice) {
	b.Helper()
	dev := pager.NewMemDevice()
	var m simtime.Meter
	s, err := OpenWith(dev, staticKeys{}, &memAnchor{}, &m)
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

// BenchmarkReadPages is the batched secure read of 32 pages from a MemDevice:
// device copy, page open, batched Merkle verify. The pages are handed back as
// a scan hands them back, so B/op is the scan's.
func BenchmarkReadPages(b *testing.B) {
	s, _ := benchStore(b, 256)
	idxs := seq32(256)
	b.SetBytes(32 * pager.PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (i * 32) % 256
		pages, err := s.ReadPages(idxs[lo : lo+32])
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pages {
			pager.Release(p)
		}
	}
}

// BenchmarkOpenPage is one page open — MAC check, then decryption into a
// pooled page, handed back after — over a fresh copy of the record each time,
// as the device hands one out.
func BenchmarkOpenPage(b *testing.B) {
	s, dev := benchStore(b, 1)
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
		plain, _, err := s.openPage(pc, 0, record)
		if err != nil {
			b.Fatal(err)
		}
		pager.Release(plain)
	}
}

// BenchmarkSealPage is one page seal: IV, encryption, MAC, one record.
func BenchmarkSealPage(b *testing.B) {
	s, _ := benchStore(b, 1)
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
}
