// Package bufpool is the one place arrays are recycled: the bytes of pages,
// frames and encoded replies, and the typed arrays a statement builds and
// drops — column vectors, window indexes, key tables, aggregation state. Each
// element type has one Pool: an array's capacity is a class capacity,
// min<<k for k < classes, and each class is one sync.Pool, which two
// collections empty. A Scratch is one owner's record of what it took, handed
// back in one call when the owner is done.
package bufpool

import (
	"math/bits"
	"sync"
	"unsafe"
)

// A byte class's smallest capacity is a secure store's record (4 176 bytes)
// rounded up to its allocation size class: one buffer holds a record or a
// page. The largest class holds the largest transport frame and its header.
// A typed class's smallest capacity is 64 elements, and sixteen classes reach
// past anything one statement at the evaluated scales builds.
const (
	maxClasses = 16
	typedMin   = 64
)

// Poison is the test hook for array lifetimes, set by the race build
// (bufpool_race.go) and by tests: a release then scribbles over what it pools,
// so a reader that outlives its array fails loudly instead of reading the
// next owner's elements.
var Poison bool

// Pool recycles arrays of T by class capacity. This package is the only user
// of unsafe: each class holds its arrays by their first element, so that a
// pointer goes into the sync.Pool's interface without the allocation a slice
// header costs, and a take rebuilds the slice from the class capacity.
type Pool[T any] struct {
	min, classes int
	poison       T    // written over a released array under Poison
	pointers     bool // T holds pointers: a released array is cleared
	pools        [maxClasses]sync.Pool
}

// New returns the pool for arrays of T. Under Poison a released array is
// filled with poison: a value no table holds, a position no batch has. An
// array of a T that holds pointers (strings, values) is otherwise cleared as
// it is released, so that a pooled array keeps nothing alive.
func New[T any](poison T, pointers bool) *Pool[T] {
	return &Pool[T]{min: typedMin, classes: maxClasses, poison: poison, pointers: pointers}
}

// bytePool is the pool of Take, Grow and Release.
var bytePool = &Pool[byte]{min: 4864, classes: 13, poison: 0xdb}

// class returns the smallest k with n <= p.min<<k.
func (p *Pool[T]) class(n int) int { return bits.Len(uint(max(n-1, 0) / p.min)) }

// Take returns an array of length n, its contents undefined, and records it in
// s: a pooled or new class array, or a plain make above the largest class,
// which s does not record. A nil s records nothing: the caller releases the
// array itself or leaves it to the collector.
func (p *Pool[T]) Take(s *Scratch, n int) []T {
	k := p.class(n)
	if k >= p.classes {
		return make([]T, n)
	}
	if s != nil {
		for i, h := range s.free {
			if h.pool == releaser(p) && h.cap >= n {
				s.free[i] = s.free[len(s.free)-1]
				s.free, s.held = s.free[:len(s.free)-1], append(s.held, h)
				return unsafe.Slice((*T)(h.base), h.cap)[:n]
			}
		}
	}
	var a []T
	if e, _ := p.pools[k].Get().(*T); e != nil {
		a = unsafe.Slice(e, p.min<<k)
	} else {
		a = make([]T, p.min<<k)
	}
	if s != nil {
		s.held = append(s.held, held{base: unsafe.Pointer(unsafe.SliceData(a)), cap: len(a), pool: p})
	}
	return a[:n]
}

// Zeroed is Take of n zero elements, as make hands them out.
func (p *Pool[T]) Zeroed(s *Scratch, n int) []T {
	a := p.Take(s, n)
	clear(a)
	return a
}

// Grow returns a if it has room for n more elements, otherwise an array at
// least twice as large holding a's elements, taken for s. a itself is left
// where it was: with its owner's scratch, which may still read it.
func (p *Pool[T]) Grow(s *Scratch, a []T, n int) []T {
	if cap(a)-len(a) >= n {
		return a
	}
	g := p.Take(s, max(len(a)+n, 2*cap(a)))[:len(a)]
	copy(g, a)
	return g
}

// Release hands a back for a later Take, if cap(a) is exactly a class
// capacity: any other slice was not handed out by Take and is ignored. Only
// the holder of the last reference may release an array, and only once; an
// array a Scratch holds is the Scratch's to release.
func (p *Pool[T]) Release(a []T) {
	c := cap(a)
	if k := p.class(c); k < p.classes && p.min<<k == c {
		p.scribble(a[:c])
		p.pools[k].Put(unsafe.SliceData(a))
	}
}

// scribble fills a with poison under Poison and clears an array of pointers
// otherwise.
func (p *Pool[T]) scribble(a []T) {
	switch {
	case Poison && len(a) > 0:
		a[0] = p.poison // and doubled by copies, a few calls for any length
		for i := 1; i < len(a); i *= 2 {
			copy(a[i:], a[:i])
		}
	case p.pointers:
		clear(a)
	}
}

// Held returns the number of arrays of p that s holds.
func (p *Pool[T]) Held(s *Scratch) int {
	n := 0
	for _, h := range s.held {
		if h.pool == releaser(p) {
			n++
		}
	}
	return n
}

func (p *Pool[T]) release(base unsafe.Pointer, c int, keep bool) {
	switch a := unsafe.Slice((*T)(base), c); {
	case !keep:
		p.Release(a)
	case Poison:
		p.scribble(a)
	}
}

// Take returns a byte buffer of length n, its contents undefined: a pooled or
// new class buffer, or a plain make above the largest class.
func Take(n int) []byte { return bytePool.Take(nil, n) }

// Grow returns b if it has room for n more bytes, otherwise a buffer at least
// twice as large holding b's bytes, b released.
func Grow(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b
	}
	return grow(b, n)
}

func grow(b []byte, n int) []byte {
	g := bytePool.Grow(nil, b, n)
	Release(b)
	return g
}

// Release hands b back for a later Take (see Pool.Release).
func Release(b []byte) { bytePool.Release(b) }

// Scratch records the arrays one owner takes from pools — a statement, a
// batch of one operator, a row window — so that they go back together when
// the owner is done with them. Nothing taken for a scratch may be read after
// Reset or Close; what outlives the owner is copied out of it first. Reset is
// for an owner that reuses its arrays from one round to the next, as a loop
// over batches does: the scratch keeps them, poisoned under Poison, and hands
// them out again before it takes from a pool. Close hands them all
// back. A scratch is one goroutine's. Scratches are pooled too, so opening
// one costs no allocation once the process is warm.
type Scratch struct {
	held []held // handed out since the last Reset
	free []held // kept by Reset, to hand out again
	kids []*Scratch
}

// held is one array a scratch took: its first element, its capacity and its
// pool.
type held struct {
	base unsafe.Pointer
	cap  int
	pool releaser
}

// releaser is a Pool of any element type: release puts the array back, or,
// with keep set, only poisons it under Poison.
type releaser interface {
	release(base unsafe.Pointer, c int, keep bool)
}

var scratches = sync.Pool{New: func() any { return new(Scratch) }}

// Open returns an empty scratch.
func Open() *Scratch { return scratches.Get().(*Scratch) }

// Open returns an empty scratch that s closes when it is closed: an owner
// whose lifetime ends within s's, such as one batch loop of a statement. A
// nil s opens a scratch no one closes.
func (s *Scratch) Open() *Scratch {
	k := Open()
	if s != nil {
		s.kids = append(s.kids, k)
	}
	return k
}

// Reset ends the lifetime of every array handed out since the last Reset and
// keeps them for the next takes.
func (s *Scratch) Reset() {
	for _, h := range s.held {
		h.pool.release(h.base, h.cap, true)
	}
	s.free = append(s.free, s.held...)
	clear(s.held)
	s.held = s.held[:0]
}

// Close hands every array s holds back to its pool and closes the scratches
// opened from it, and s goes back to be opened again: its owner must not use
// it any more.
func (s *Scratch) Close() {
	for _, list := range [][]held{s.held, s.free} {
		for _, h := range list {
			h.pool.release(h.base, h.cap, false)
		}
		clear(list)
	}
	s.held, s.free = s.held[:0], s.free[:0]
	for _, k := range s.kids {
		k.Close()
	}
	clear(s.kids)
	s.kids = s.kids[:0]
	scratches.Put(s)
}
