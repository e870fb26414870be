package securestore

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha512"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ironsafe/internal/pager"
)

// The tests of the multi-buffer page-MAC kernel: agreement with crypto/hmac
// over random keys, indices, IVs and ciphertexts for every group size, and
// that a store MACs its batched reads and commits with the kernel wherever
// the platform has one.

func macKernelOrSkip(tb testing.TB, key []byte) *macKernel {
	tb.Helper()
	k := newMACKernel(key)
	if k == nil {
		tb.Skip("no MAC kernel on this platform")
	}
	return k
}

// stdlibPageMAC is the oracle: crypto/hmac over idx ‖ IV ‖ ciphertext.
func stdlibPageMAC(key []byte, idx uint32, record []byte) []byte {
	m := hmac.New(sha512.New, key)
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], idx)
	m.Write(b[:])
	m.Write(record[:ivSize+pager.PageSize])
	return m.Sum(nil)
}

// checkPageMAC8 runs pageMAC8 over records and compares every lane that holds
// one with the oracle.
func checkPageMAC8(tb testing.TB, key []byte, idxs []uint32, records [][]byte) {
	tb.Helper()
	k := macKernelOrSkip(tb, key)
	sums := k.pageMAC8(new(macScratch), idxs, records)
	for i, r := range records {
		if want := stdlibPageMAC(key, idxs[i], r); !bytes.Equal(sums[i][:], want) {
			tb.Fatalf("group of %d, lane %d (page %d, %d-byte key): kernel MAC %x, crypto/hmac %x", len(records), i, idxs[i], len(key), sums[i][:8], want[:8])
		}
	}
}

// TestPageMAC8MatchesStdlib: random keys (short, block-sized and longer than
// a block), indices and records, groups of one to eight.
func TestPageMAC8MatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		key := make([]byte, []int{1, 32, 64, sha512.BlockSize, 200}[i%5])
		rng.Read(key)
		n := 1 + i%macLanes
		idxs := make([]uint32, n)
		records := make([][]byte, n)
		for j := range records {
			idxs[j] = rng.Uint32()
			records[j] = make([]byte, recordSize)
			rng.Read(records[j])
		}
		checkPageMAC8(t, key, idxs, records)
	}
}

// FuzzPageMAC8 is the same oracle over a fuzzed key, first index and record
// seed; the group size comes from the index.
func FuzzPageMAC8(f *testing.F) {
	f.Add(bytes.Repeat([]byte{'m'}, 32), uint32(7), int64(1))
	f.Add([]byte{}, uint32(0xffffffff), int64(2))
	f.Add(bytes.Repeat([]byte{0xab}, 300), uint32(8), int64(3))
	f.Fuzz(func(t *testing.T, key []byte, idx uint32, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(idx%macLanes)
		idxs := make([]uint32, n)
		records := make([][]byte, n)
		for j := range records {
			idxs[j] = idx + uint32(j)
			records[j] = make([]byte, recordSize)
			rng.Read(records[j])
		}
		checkPageMAC8(t, key, idxs, records)
	})
}

// TestPageMAC8SkipsPartialRecords: a record of another size is an idle lane
// — not read, not hashed — and the whole records around it keep their MACs.
func TestPageMAC8SkipsPartialRecords(t *testing.T) {
	key := bytes.Repeat([]byte{'k'}, 32)
	k := macKernelOrSkip(t, key)
	rng := rand.New(rand.NewSource(2))
	records := make([][]byte, 5)
	for j := range records {
		records[j] = make([]byte, recordSize)
		rng.Read(records[j])
	}
	records[0], records[3] = records[0][:100], nil
	idxs := []uint32{10, 11, 12, 13, 14}
	sums := k.pageMAC8(new(macScratch), idxs, records)
	for _, j := range []int{1, 2, 4} {
		if !bytes.Equal(sums[j][:], stdlibPageMAC(key, idxs[j], records[j])) {
			t.Fatalf("lane %d: MAC differs from crypto/hmac beside partial records", j)
		}
	}
	k.pageMAC8(new(macScratch), idxs[:1], records[:1]) // no whole record: no kernel call
}

// TestOnePageMACPath: a CBC store MACs batched reads and commits with the
// kernel exactly where the CPU and OS support it, and a GCM store never has
// one — its records carry the AEAD's tag, not an HMAC.
func TestOnePageMACPath(t *testing.T) {
	e := newEnv(t)
	s := e.open(t, Options{})
	if haveMACKernel != (s.mac8 != nil) {
		t.Fatalf("kernel available %v, store kernel %v: want the kernel exactly where it runs", haveMACKernel, s.mac8 != nil)
	}
	fillPages(t, s, 9)
	if _, err := s.ReadPages(seq32(9)); err != nil {
		t.Fatal(err)
	}
	if g := newEnv(t).open(t, Options{GCM: true}); g.mac8 != nil {
		t.Fatal("a GCM store built a MAC kernel")
	}
}

// BenchmarkPageMAC is the MAC half of a page open, per 4 KiB page: the kernel
// over a group of eight, and crypto/hmac one page at a time.
func BenchmarkPageMAC(b *testing.B) {
	key := bytes.Repeat([]byte{'p'}, 32)
	records := make([][]byte, macLanes)
	idxs := seq32(macLanes)
	for i := range records {
		records[i] = bytes.Repeat([]byte{byte(i)}, recordSize)
	}
	b.Run("kernel", func(b *testing.B) {
		k := macKernelOrSkip(b, key)
		sc := new(macScratch)
		b.SetBytes(pager.PageSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += macLanes {
			k.pageMAC8(sc, idxs, records)
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		pc := &pageCrypto{mac: hmac.New(sha512.New, key)}
		b.SetBytes(pager.PageSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := records[i%macLanes]
			pc.sum(pc.scratch[:0], uint32(i), r[:ivSize], r[ivSize:ivSize+pager.PageSize])
		}
	})
}

// flipBit flips bit 0 of byte off of block idx on the device.
func flipBit(t *testing.T, dev *pager.MemDevice, idx uint32, off int) {
	t.Helper()
	record, err := dev.ReadBlock(idx)
	if err != nil {
		t.Fatal(err)
	}
	record[off] ^= 1
	if err := dev.WriteBlock(idx, record); err != nil {
		t.Fatal(err)
	}
}

// TestReadPagesBlamesTheTamperedLane: in a full 32-page batch and in a
// 13-page one that ends in a partial group, a one-bit flip anywhere the MAC
// reads — the IV, the ciphertext in the scratch head block, in place and in
// the padded tail block, the MAC itself — fails the batch with ErrIntegrity
// naming that page, for every position in the batch. A MAC computed in the
// wrong lane would blame another page or pass.
func TestReadPagesBlamesTheTamperedLane(t *testing.T) {
	e := newEnv(t)
	s := e.open(t, Options{})
	fillPages(t, s, 40)
	regions := []struct {
		name string
		off  func(k int) int
	}{
		{"iv", func(k int) int { return k % ivSize }},
		{"head ciphertext", func(k int) int { return ivSize + k }},
		{"in-place ciphertext", func(k int) int { return ivSize + 200 + 97*k }},
		{"tail ciphertext", func(k int) int { return ivSize + pager.PageSize - 1 - k%16 }},
		{"mac", func(k int) int { return ivSize + pager.PageSize + k }},
	}
	batches := [][]uint32{seq32(32), {39, 2, 17, 30, 5, 11, 23, 8, 36, 0, 14, 27, 20}}
	for _, idxs := range batches {
		for k, idx := range idxs {
			for _, r := range regions {
				before := e.dev.SnapshotBlocks()
				flipBit(t, e.dev, idx, r.off(k))
				for _, workers := range []int{1, 4} {
					_, _, err := s.readPagesAt(idxs, workers)
					if !errors.Is(err, ErrIntegrity) || !strings.Contains(err.Error(), fmt.Sprintf("batched read of page %d:", idx)) {
						t.Fatalf("%d-page batch, %s of page %d (position %d) flipped, %d workers: err = %v", len(idxs), r.name, idx, k, workers, err)
					}
				}
				e.dev.RestoreBlocks(before)
			}
		}
		if _, err := s.ReadPages(idxs); err != nil {
			t.Fatalf("restored medium: %v", err)
		}
	}
}

// TestReadPagesRefusesLaneTransplant: a record moved to another page of the
// same group — swapped with it, or copied over it — is refused; the index in
// each lane's head block is that lane's page.
func TestReadPagesRefusesLaneTransplant(t *testing.T) {
	e := newEnv(t)
	s := e.open(t, Options{})
	fillPages(t, s, 8)
	r2, _ := e.dev.ReadBlock(2)
	r5, _ := e.dev.ReadBlock(5)
	for name, place := range map[string]func(){
		"swapped": func() { e.dev.WriteBlock(2, r5); e.dev.WriteBlock(5, r2) },
		"copied":  func() { e.dev.WriteBlock(5, r2) },
	} {
		before := e.dev.SnapshotBlocks()
		place()
		if _, err := s.ReadPages(seq32(8)); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("record %s between lanes 2 and 5: err = %v, want ErrIntegrity", name, err)
		}
		e.dev.RestoreBlocks(before)
	}
}

// TestMediumIndependentOfMACPath: a medium committed on either MAC path — the
// kernel, crypto/hmac — reopens and reads identically on either, and every
// record's MAC on it is crypto/hmac's. The purego build has one path and runs
// the stdlib pairing only.
func TestMediumIndependentOfMACPath(t *testing.T) {
	paths := map[string]bool{"kernel": true, "stdlib": false}
	for wname, wkernel := range paths {
		for rname, rkernel := range paths {
			if (wkernel || rkernel) && !haveMACKernel {
				continue
			}
			e := newEnv(t)
			w := e.open(t, Options{})
			if !wkernel {
				w.mac8 = nil
			}
			want := fillPages(t, w, 13)
			for idx := uint32(0); idx < 13; idx++ {
				record, err := e.dev.ReadBlock(idx)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(record[ivSize+pager.PageSize:], stdlibPageMAC(w.macKey, idx, record)) {
					t.Fatalf("written on the %s path: page %d's MAC is not crypto/hmac's", wname, idx)
				}
			}
			r := e.open(t, Options{})
			if !rkernel {
				r.mac8 = nil
			}
			pages, err := r.ReadPages(seq32(13))
			if err != nil {
				t.Fatalf("written on the %s path, read on the %s path: %v", wname, rname, err)
			}
			for i, p := range pages {
				if !bytes.HasPrefix(p, []byte(want[i])) {
					t.Fatalf("written on the %s path, read on the %s path: page %d differs", wname, rname, i)
				}
			}
		}
	}
}
