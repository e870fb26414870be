package securestore

import (
	"crypto/sha512"
	"encoding"
	"encoding/binary"

	"ironsafe/internal/pager"
)

// macLanes is how many page MACs the kernel computes at once, one per 64-bit
// lane of a ZMM register. Batched reads and commits take pages in groups of
// this many.
const macLanes = 8

// The page MAC is HMAC-SHA-512 over idx(4) ‖ IV ‖ ciphertext, and the record
// is IV ‖ ciphertext ‖ MAC, so the message is the record's first
// ivSize+PageSize bytes behind four bytes of index. After the key block, the
// inner hash runs over one block built in scratch (the index and the record's
// first macHeadLen bytes), macInPlace blocks read where they lie in the
// record, and one padded block holding the record's last macTailLen bytes.
const (
	macMsgLen  = 4 + ivSize + pager.PageSize
	macHeadLen = sha512.BlockSize - 4
	macInPlace = (macMsgLen - sha512.BlockSize) / sha512.BlockSize
	macTailOff = macHeadLen + macInPlace*sha512.BlockSize
	macTailLen = macMsgLen - (1+macInPlace)*sha512.BlockSize

	// The tail, its 0x80 terminator and the 16-byte length fit one block.
	_ = uint(sha512.BlockSize - macTailLen - 1 - 16)
)

// macKernel is a store's page-MAC key for the multi-buffer SHA-512 kernel
// (sha512x8_amd64.s): the SHA-512 chaining values after the key ⊕ ipad and
// the key ⊕ opad blocks, derived once at open like the CBC key schedule, so a
// group of pages costs no keying. It is immutable and serves every worker of
// a store at once.
type macKernel struct {
	ipad, opad [8]uint64
}

// newMACKernel derives the pad states of key. It returns nil where the
// kernel does not run — off amd64, on a CPU or OS without AVX-512, under the
// purego build tag — and page MACs are crypto/hmac's there.
func newMACKernel(key []byte) *macKernel {
	if !haveMACKernel {
		return nil
	}
	if len(key) > sha512.BlockSize {
		sum := sha512.Sum512(key)
		key = sum[:]
	}
	return &macKernel{ipad: padState(key, 0x36), opad: padState(key, 0x5c)}
}

// padState is the SHA-512 chaining value after one block of key ⊕ pad, read
// from the marshalled hash: "sha\x07", then the eight chaining words
// big-endian.
func padState(key []byte, pad byte) [8]uint64 {
	var block [sha512.BlockSize]byte
	copy(block[:], key)
	for i := range block {
		block[i] ^= pad
	}
	h := sha512.New()
	h.Write(block[:])
	clear(block[:])
	b, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil || len(b) < 4+macSize || string(b[:4]) != "sha\x07" {
		panic("securestore: unexpected SHA-512 state encoding")
	}
	var st [8]uint64
	for i := range st {
		st[i] = binary.BigEndian.Uint64(b[4+8*i:])
	}
	clear(b)
	return st
}

// macScratch is what one worker's groups of page MACs are computed in: the
// eight lane-major states, the per-lane blocks that are not read in place,
// the kernel's lane pointers, and the MACs. It lives in the worker's
// pageCrypto, so a group allocates nothing.
type macScratch struct {
	state [macLanes][8]uint64
	head  [macLanes][sha512.BlockSize]byte // index ‖ record[:macHeadLen]
	tail  [macLanes][sha512.BlockSize]byte // record[macTailOff:] ‖ padding
	outer [macLanes][sha512.BlockSize]byte // inner digest ‖ padding
	ptrs  [macLanes]*byte
	sums  [macLanes][macSize]byte
}

// pageMAC8 computes the page MACs of up to eight records — records[i] that of
// page idxs[i] — into the returned array, byte for byte what crypto/hmac
// computes (pageCrypto.sum). Only whole records are hashed: a lane past the
// last record or holding one of another size is idle, hashes the first whole
// record again, and its result is not the caller's to read.
func (k *macKernel) pageMAC8(b *macScratch, idxs []uint32, records [][]byte) *[macLanes][macSize]byte {
	if len(idxs) != len(records) || len(records) > macLanes {
		panic("securestore: pageMAC8 takes up to eight records and their indices")
	}
	var lane [macLanes][]byte
	first := -1
	for i, r := range records {
		if len(r) == recordSize {
			lane[i] = r
			if first < 0 {
				first = i
			}
		}
	}
	if first < 0 {
		return &b.sums
	}
	for i := range lane {
		j := i
		if lane[i] == nil {
			j = first
			lane[i] = records[first]
		}
		binary.LittleEndian.PutUint32(b.head[i][:4], idxs[j])
		copy(b.head[i][4:], lane[i][:macHeadLen])
		tail := b.tail[i][:]
		copy(tail, lane[i][macTailOff:ivSize+pager.PageSize])
		clear(tail[macTailLen:])
		tail[macTailLen] = 0x80
		binary.BigEndian.PutUint64(tail[sha512.BlockSize-8:], (sha512.BlockSize+macMsgLen)*8)
		b.state[i] = k.ipad
	}

	for i := range b.ptrs {
		b.ptrs[i] = &b.head[i][0]
	}
	sha512x8Asm(&b.state, &b.ptrs, 1)
	for i := range b.ptrs {
		b.ptrs[i] = &lane[i][macHeadLen]
	}
	sha512x8Asm(&b.state, &b.ptrs, macInPlace)
	for i := range b.ptrs {
		b.ptrs[i] = &b.tail[i][0]
	}
	sha512x8Asm(&b.state, &b.ptrs, 1)

	// The outer hash: opad state, then the inner digest and its padding.
	for i := range b.ptrs {
		outer := b.outer[i][:]
		putDigest(outer, &b.state[i])
		clear(outer[macSize:])
		outer[macSize] = 0x80
		binary.BigEndian.PutUint64(outer[sha512.BlockSize-8:], (sha512.BlockSize+macSize)*8)
		b.state[i] = k.opad
		b.ptrs[i] = &outer[0]
	}
	sha512x8Asm(&b.state, &b.ptrs, 1)
	for i := range b.sums {
		putDigest(b.sums[i][:], &b.state[i])
	}
	clear(b.ptrs[:]) // an idle state must not keep pages alive
	return &b.sums
}

// putDigest writes a SHA-512 state as its big-endian digest.
func putDigest(dst []byte, st *[8]uint64) {
	for w, v := range st {
		binary.BigEndian.PutUint64(dst[8*w:], v)
	}
}
