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

// TestTypedClassesAndRelease: a typed pool's classes start at 64 elements and
// double; a released array holds the pool's poison under Poison, and without
// it an array of pointers is cleared, so that the pool keeps no string alive.
func TestTypedClassesAndRelease(t *testing.T) {
	ints := bufpool.New[int64](-7, false)
	strs := bufpool.New("poison", true)
	for _, tc := range []struct{ n, cap int }{{0, 64}, {64, 64}, {65, 128}, {64 << 15, 64 << 15}, {64<<15 + 1, 64<<15 + 1}} {
		if a := ints.Take(nil, tc.n); len(a) != tc.n || cap(a) != tc.cap {
			t.Errorf("Take(%d): len %d cap %d, want cap %d", tc.n, len(a), cap(a), tc.cap)
		}
	}
	for _, poison := range []bool{true, false} {
		old := bufpool.Poison
		bufpool.Poison = poison
		a, s := ints.Take(nil, 3), strs.Take(nil, 3)
		copy(a, []int64{1, 2, 3})
		copy(s, []string{"kept", "alive", "?"})
		ints.Release(a)
		strs.Release(s)
		bufpool.Poison = old
		want, wantS := int64(1), ""
		if poison {
			want, wantS = -7, "poison"
		}
		if all := s[:cap(s)]; a[0] != want || all[0] != wantS || all[63] != wantS {
			t.Errorf("Poison=%v: released arrays hold %d… and %q…%q", poison, a[0], all[0], all[63])
		}
	}
}

// TestScratchOwnsWhatItTakes: a scratch hands out arrays of any pool, counts
// them by pool, keeps them across Reset — scribbled under Poison, then handed
// out again before anything is taken from a pool — and gives them back, with
// those of the scratches opened from it, on Close.
func TestScratchOwnsWhatItTakes(t *testing.T) {
	poisoned(t)
	ints := bufpool.New[int64](-1, false)
	floats := bufpool.New(0.5, false)
	s := bufpool.Open()
	a := ints.Take(s, 10)
	f := floats.Take(s, 100)
	kid := s.Open()
	k := ints.Take(kid, 1)
	if got := ints.Held(s); got != 1 || floats.Held(s) != 1 || ints.Held(kid) != 1 {
		t.Fatalf("held %d int64 and %d float64 arrays, the kid %d; want 1 each", got, floats.Held(s), ints.Held(kid))
	}
	a[0] = 42
	s.Reset()
	if a[0] != -1 || ints.Held(s) != 0 {
		t.Fatalf("Reset left %d in an array and %d held", a[0], ints.Held(s))
	}
	if b := ints.Take(s, 64); &b[0] != &a[0] || ints.Held(s) != 1 {
		t.Error("a Take after Reset did not hand the kept array out again")
	}
	if b := ints.Take(s, 65); &b[0] == &a[0] {
		t.Error("a kept array was handed out for more elements than it holds")
	}
	a[0], f[0], k[0] = 42, 42, 42
	s.Close()
	if a[0] != -1 || f[0] != 0.5 || k[0] != -1 {
		t.Errorf("Close left %d, %v and the kid's %d unscribbled", a[0], f[0], k[0])
	}
}

// TestScratchSteadyStateAllocatesNothing: once the pools and the scratch pool
// hold what a round needs, opening a scratch, taking, resetting and closing it
// allocates nothing.
func TestScratchSteadyStateAllocatesNothing(t *testing.T) {
	if bufpool.Poison {
		t.Skip("bufpool.Poison: the race build, whose sync.Pool drops arrays at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ints := bufpool.New[int64](0, false)
	strs := bufpool.New("", true)
	round := func() {
		s := bufpool.Open()
		kid := s.Open()
		for range 3 {
			ints.Take(kid, 4096)
			strs.Grow(kid, strs.Take(kid, 100), 100)
			kid.Reset()
		}
		ints.Grow(s, ints.Take(s, 1000), 1000)
		s.Close()
	}
	round()
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Errorf("a scratch's round makes %.1f allocations, want 0", got)
	}
}
