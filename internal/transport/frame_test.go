package transport

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"testing"

	"ironsafe/internal/bufpool"
	"ironsafe/internal/simtime"
)

// TestSendFramesAreByteIdentical pins the wire: the frame Send builds from
// parts in a pooled buffer and seals in place is, byte for byte, the length
// followed by the AEAD sealing of the type and the parts joined, computed
// independently (fuzzSeal), and BytesSent counts exactly the bytes on the
// wire. The largest message goes first, so the later ones are built in a
// buffer that held a longer frame before.
func TestSendFramesAreByteIdentical(t *testing.T) {
	aead := fuzzAEAD(t)
	for _, tc := range []struct {
		name  string
		parts [][]byte
	}{
		{"three", [][]byte{{1, 2, 3, 4, 5, 6, 7, 8}, []byte("header"), bytes.Repeat([]byte{0x5a}, 70_000)}},
		{"nil", nil},
		{"empty", [][]byte{{}}},
		{"one", [][]byte{[]byte("rows")}},
	} {
		a, b := net.Pipe()
		wire := make(chan []byte, 1)
		go func() {
			all, _ := io.ReadAll(b)
			wire <- all
		}()
		var m simtime.Meter
		sc := &SecureConn{conn: a, sendAEAD: aead, meter: &m}
		var want []byte
		for seq := uint64(0); seq < 4; seq++ {
			if err := sc.Send("result", tc.parts...); err != nil {
				t.Fatal(err)
			}
			want = append(want, fuzzSeal(aead, seq, "result", bytes.Join(tc.parts, nil))...)
		}
		a.Close()
		got := <-wire
		if !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes on the wire differ from the %d of the independent sealing", tc.name, len(got), len(want))
		}
		if sent := m.BytesSent.Load(); sent != int64(len(got)) {
			t.Errorf("%s: BytesSent = %d, the wire carried %d", tc.name, sent, len(got))
		}
	}
}

// allocBytes returns the bytes the process allocates per call of f, over runs
// calls.
func allocBytes(runs int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestSendRecvAllocBudget is the allocation floor of the channel. In steady
// state a 1 MiB Send in three parts allocates almost nothing: the frame is
// built in a pooled buffer and sealed in place (three frame-sized copies
// before). A Recv allocates the one buffer it reads the frame into and opens
// in place (two before).
func TestSendRecvAllocBudget(t *testing.T) {
	if bufpool.Poison {
		t.Skip("bufpool.Poison: the race build, whose sync.Pool drops buffers at random")
	}
	// The pool keeps a buffer per P and a collection empties it: one P, as the
	// repository benchmark's timed run has, and no collection.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	aead := fuzzAEAD(t)
	parts := [][]byte{make([]byte, 8), make([]byte, 200), make([]byte, 1<<20-208)}
	frame := 4 + 1 + len("result") + 1<<20 + aead.Overhead()

	a, b := net.Pipe()
	defer a.Close()
	go io.Copy(io.Discard, b)
	sc := &SecureConn{conn: a, sendAEAD: aead}
	send := func() {
		if err := sc.Send("result", parts...); err != nil {
			t.Fatal(err)
		}
	}
	send() // fills the pool
	if got := allocBytes(20, send); got >= 1<<10 {
		t.Errorf("a 1 MiB Send allocates %.0f bytes, want < 1 KiB", got)
	}

	c, d := net.Pipe()
	defer c.Close()
	sender := &SecureConn{conn: c, sendAEAD: aead}
	receiver := &SecureConn{conn: d, recvAEAD: aead}
	sent := make(chan error, 1)
	round := func() {
		go func() { sent <- sender.Send("result", parts...) }()
		_, payload, err := receiver.Recv()
		if err == nil {
			err = <-sent
		}
		if err != nil || len(payload) != 1<<20 {
			t.Fatalf("round trip: %d bytes, %v", len(payload), err)
		}
	}
	round()
	// One frame-sized buffer, rounded up to whole pages by the allocator.
	if got, budget := allocBytes(20, round), float64(frame+16<<10); got >= budget {
		t.Errorf("a 1 MiB Send and its Recv allocate %.0f bytes, want < %.0f: one %d-byte frame", got, budget, frame)
	}
}

// BenchmarkSendRecv times one message of a reply's shape — epoch, header,
// rows: three parts — from Send on one end of a handshaked net.Pipe to Recv
// on the other.
func BenchmarkSendRecv(b *testing.B) {
	for _, sz := range []struct {
		name string
		size int
	}{{"4KiB", 4 << 10}, {"1MiB", 1 << 20}} {
		size := sz.size
		b.Run(sz.name, func(b *testing.B) {
			client, server, err := Pipe([]byte("session-key"), nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer client.Close()
			defer server.Close()
			parts := [][]byte{make([]byte, 8), make([]byte, 200), make([]byte, size-208)}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			go func() {
				for i := 0; i < b.N; i++ {
					if client.Send("result", parts...) != nil {
						return
					}
				}
			}()
			for i := 0; i < b.N; i++ {
				if _, _, err := server.Recv(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
