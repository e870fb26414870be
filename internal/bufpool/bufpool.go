// Package bufpool is the one place byte buffers are recycled: pages, frames
// and encoded replies. A buffer's capacity is a class capacity, minClass<<k
// for k < classes, and each class is one sync.Pool, which two collections
// empty.
package bufpool

import (
	"math/bits"
	"sync"
	"unsafe"
)

// minClass is a secure store's record (4 176 bytes) rounded up to its
// allocation size class: one buffer holds a record or a page. The largest
// class holds the largest transport frame and its header.
const (
	minClass = 4864
	classes  = 13
)

// pools holds each class's buffers by their first byte: a pointer goes into
// an interface without the allocation a slice header costs, and Take rebuilds
// the slice from the class capacity. This package is the only user of unsafe.
var pools [classes]sync.Pool

// Poison is the test hook for buffer lifetimes, set by the race build
// (bufpool_race.go) and by tests: Release then scribbles over what it pools,
// and the executor over the vectors it recycles, so a reader that outlives
// its buffer fails loudly instead of reading the next owner's bytes.
var Poison bool

// class returns the smallest k with n <= minClass<<k.
func class(n int) int { return bits.Len(uint(max(n-1, 0) / minClass)) }

// Take returns a buffer of length n, its contents undefined: a pooled or new
// class buffer, or a plain make above the largest class.
func Take(n int) []byte {
	k := class(n)
	if k >= classes {
		return make([]byte, n)
	}
	if p, _ := pools[k].Get().(*byte); p != nil {
		return unsafe.Slice(p, minClass<<k)[:n]
	}
	return make([]byte, n, minClass<<k)
}

// Grow returns b if it has room for n more bytes, otherwise a buffer at least
// twice as large holding b's bytes, b released.
func Grow(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b
	}
	return grow(b, n)
}

func grow(b []byte, n int) []byte {
	g := Take(max(len(b)+n, 2*cap(b)))[:len(b)]
	copy(g, b)
	Release(b)
	return g
}

// Release hands b back for a later Take, if cap(b) is exactly a class
// capacity: any other slice was not handed out by Take and is ignored. Only
// the holder of the last reference may release a buffer, and only once.
func Release(b []byte) {
	c := cap(b)
	if k := class(c); k < classes && minClass<<k == c {
		b = b[:c]
		if Poison {
			for i := range b {
				b[i] = 0xdb
			}
		}
		pools[k].Put(unsafe.SliceData(b))
	}
}
