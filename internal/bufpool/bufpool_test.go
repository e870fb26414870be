package bufpool_test

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"

	"ironsafe/internal/bufpool"
	"ironsafe/internal/transport"
)

// poisoned turns bufpool.Poison on for the rest of t, so that what Release
// pools is visibly scribbled and what it ignores is not.
func poisoned(t *testing.T) {
	old := bufpool.Poison
	bufpool.Poison = true
	t.Cleanup(func() { bufpool.Poison = old })
}

// filled returns b with every byte of its capacity set to 1.
func filled(b []byte) []byte {
	all := b[:cap(b)]
	for i := range all {
		all[i] = 1
	}
	return b
}

// scribbled reports whether Release scribbled over b's capacity.
func scribbled(b []byte) bool {
	return bytes.Count(b[:cap(b)], []byte{0xdb}) == cap(b)
}

// TestTakeClasses: a buffer's capacity is the smallest class that holds it —
// 4 864 bytes, a secure store's record's size class, doubling up to the class
// of the channel's largest frame — and anything larger is a plain make.
func TestTakeClasses(t *testing.T) {
	largest := 4864 << 12
	for _, tc := range []struct{ n, cap int }{
		{0, 4864},
		{1, 4864},
		{4864, 4864},
		{4865, 9728},
		{9728, 9728},
		{9729, 19456},
		{transport.MaxFrame + 4, largest},
		{largest, largest},
		{largest + 1, largest + 1},
	} {
		b := bufpool.Take(tc.n)
		if len(b) != tc.n || cap(b) != tc.cap {
			t.Errorf("Take(%d): len %d cap %d, want len %d cap %d", tc.n, len(b), cap(b), tc.n, tc.cap)
		}
		bufpool.Release(b)
	}
}

// TestReleaseIgnoresForeignBuffers: only a slice whose capacity is exactly a
// class capacity is pooled; a foreign capacity, a buffer resliced at the front
// and a plain make above the largest class are left as they are.
func TestReleaseIgnoresForeignBuffers(t *testing.T) {
	poisoned(t)
	taken := filled(bufpool.Take(100))
	for name, b := range map[string][]byte{
		"foreign":        filled(make([]byte, 4096)),
		"front-resliced": taken[1:],
		"above-classes":  filled(bufpool.Take(4864<<12 + 1)),
	} {
		bufpool.Release(b)
		if bytes.Contains(b[:cap(b)], []byte{0xdb}) {
			t.Errorf("%s: Release pooled a buffer of capacity %d", name, cap(b))
		}
	}
	bufpool.Release(taken)
	if !scribbled(taken) {
		t.Error("Release did not pool a buffer Take handed out")
	}
}

// TestGrow: Grow returns b itself while it has room; past that it returns a
// buffer of a larger class holding b's bytes, and b goes back to the pool.
func TestGrow(t *testing.T) {
	poisoned(t)
	b := append(bufpool.Take(0), "rows"...)
	if g := bufpool.Grow(b, 4860); &g[0] != &b[0] || len(g) != 4 {
		t.Errorf("Grow with room: a new buffer of len %d", len(g))
	}
	g := bufpool.Grow(b, 4861)
	if string(g) != "rows" || cap(g) != 9728 {
		t.Errorf("Grow past the class: %q, cap %d, want %q, cap 9728", g, cap(g), "rows")
	}
	if !scribbled(b) {
		t.Error("Grow did not release the buffer it outgrew")
	}
	bufpool.Release(g)
}

// TestPoisonScribbles: under Poison a released buffer is overwritten, capacity
// and all, before anyone can take it again.
func TestPoisonScribbles(t *testing.T) {
	poisoned(t)
	b := filled(bufpool.Take(10))
	bufpool.Release(b)
	if !scribbled(b) {
		t.Errorf("a released buffer holds %v…", b[:10])
	}
}

// TestSteadyStateAllocatesNothing: once a class holds a buffer, Take, Grow
// and Release recycle it without allocating, not even a slice header.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	if bufpool.Poison {
		t.Skip("bufpool.Poison: the race build, whose sync.Pool drops buffers at random")
	}
	// The pool keeps a buffer per P and a collection empties it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cycle := func() {
		b := bufpool.Take(4096)
		bufpool.Release(b)
		g := bufpool.Grow(bufpool.Take(0), 5000)
		bufpool.Release(g)
	}
	cycle()
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Errorf("Take, Grow and Release make %.1f allocations per cycle, want 0", got)
	}
}
