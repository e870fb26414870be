package transport

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"

	"ironsafe/internal/simtime"
)

func TestPipeRoundTrip(t *testing.T) {
	key := []byte("session-key-1234")
	var cm, sm simtime.Meter
	client, server, err := Pipe(key, &cm, &sm)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	defer server.Close()

	done := make(chan error, 1)
	go func() {
		typ, payload, err := server.Recv()
		if err != nil {
			done <- err
			return
		}
		if typ != "query" || string(payload) != "SELECT 1" {
			t.Errorf("server got %q %q", typ, payload)
		}
		done <- server.Send("result", []byte("ok"))
	}()
	if err := client.Send("query", []byte("SELECT 1")); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if typ != "result" || string(payload) != "ok" {
		t.Errorf("client got %q %q", typ, payload)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if cm.Snapshot().BytesSent == 0 || sm.Snapshot().BytesReceived == 0 {
		t.Error("byte counters not charged")
	}
}

func TestRealTCPRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	key := []byte("k")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		sc, err := Server(conn, key, nil)
		if err != nil {
			t.Error(err)
			return
		}
		defer sc.Close()
		typ, p, err := sc.Recv()
		if err != nil || typ != "ping" {
			t.Errorf("server recv: %q %v", typ, err)
			return
		}
		sc.Send("pong", p)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Client(conn, key, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	big := bytes.Repeat([]byte("x"), 1<<16)
	if err := sc.Send("ping", big); err != nil {
		t.Fatal(err)
	}
	typ, p, err := sc.Recv()
	if err != nil || typ != "pong" || !bytes.Equal(p, big) {
		t.Errorf("client recv: %q len=%d %v", typ, len(p), err)
	}
	wg.Wait()
}

func TestWrongSessionKeyFailsHandshake(t *testing.T) {
	a, b := net.Pipe()
	errs := make(chan error, 2)
	// Whichever side detects the mismatch closes both pipe ends so the
	// peer's blocked read unblocks too.
	go func() {
		_, err := Server(b, []byte("key-A"), nil)
		if err != nil {
			a.Close()
			b.Close()
		}
		errs <- err
	}()
	go func() {
		_, err := Client(a, []byte("key-B"), nil)
		if err != nil {
			a.Close()
			b.Close()
		}
		errs <- err
	}()
	e1, e2 := <-errs, <-errs
	if e1 == nil && e2 == nil {
		t.Error("mismatched session keys completed the handshake")
	}
}

func TestEavesdropperSeesOnlyCiphertext(t *testing.T) {
	// Wire-tap the client->server direction.
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	defer ln.Close()
	var captured bytes.Buffer
	serverReady := make(chan *SecureConn, 1)
	go func() {
		conn, _ := ln.Accept()
		tap := &tapConn{Conn: conn, buf: &captured}
		sc, err := Server(tap, []byte("k"), nil)
		if err != nil {
			serverReady <- nil
			return
		}
		serverReady <- sc
	}()
	conn, _ := net.Dial("tcp", ln.Addr().String())
	client, err := Client(conn, []byte("k"), nil)
	if err != nil {
		t.Fatal(err)
	}
	server := <-serverReady
	if server == nil {
		t.Fatal("server handshake failed")
	}
	secret := []byte("super-secret-query-SELECT-ssn-FROM-patients")
	go client.Send("q", secret)
	if _, _, err := server.Recv(); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(captured.Bytes(), secret) {
		t.Error("plaintext visible on the wire")
	}
}

type tapConn struct {
	net.Conn
	buf *bytes.Buffer
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.buf.Write(p[:n])
	return n, err
}

func TestTamperedFrameRejected(t *testing.T) {
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	defer ln.Close()
	srvErr := make(chan error, 1)
	go func() {
		conn, _ := ln.Accept()
		flip := &flipConn{Conn: conn}
		sc, err := Server(flip, []byte("k"), nil)
		if err != nil {
			srvErr <- err
			return
		}
		flip.armed = true // start corrupting after the handshake
		_, _, err = sc.Recv()
		srvErr <- err
	}()
	conn, _ := net.Dial("tcp", ln.Addr().String())
	client, err := Client(conn, []byte("k"), nil)
	if err != nil {
		t.Fatal(err)
	}
	client.Send("q", []byte("payload"))
	if err := <-srvErr; err == nil {
		t.Error("tampered frame accepted")
	}
}

// flipConn corrupts the last byte of each read once armed.
type flipConn struct {
	net.Conn
	armed bool
}

func (c *flipConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.armed && n > 0 {
		p[n-1] ^= 1
	}
	return n, err
}

func TestManyMessagesSequenced(t *testing.T) {
	client, server, err := Pipe(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	go func() {
		for i := 0; i < n; i++ {
			client.Send("m", []byte{byte(i)})
		}
	}()
	for i := 0; i < n; i++ {
		_, p, err := server.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if p[0] != byte(i) {
			t.Fatalf("message %d out of order: %d", i, p[0])
		}
	}
}

func TestOversizeTypeRejected(t *testing.T) {
	client, _, err := Pipe(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	longType := string(bytes.Repeat([]byte("t"), 300))
	if err := client.Send(longType, nil); err == nil {
		t.Error("oversize type accepted")
	}
}

// TestSendRefusesOversizedFrame: a message whose frame the peer's Recv would
// refuse fails typed at Send, before a byte or a sequence number is spent —
// the largest frame that fits still goes through, and so does the next one.
func TestSendRefusesOversizedFrame(t *testing.T) {
	var cm simtime.Meter
	client, server, err := Pipe(nil, &cm, nil)
	if err != nil {
		t.Fatal(err)
	}
	overhead := 1 + len("r") + client.sendAEAD.Overhead()
	huge := make([]byte, MaxFrame-overhead+1)
	before := cm.BytesSent.Load() // the handshake's
	if err := client.Send("r", huge); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("Send of a %d-byte frame: %v, want ErrFrameTooLarge", MaxFrame+1, err)
	}
	if sent := cm.BytesSent.Load() - before; sent != 0 {
		t.Fatalf("a refused frame charged %d bytes", sent)
	}
	got := make(chan int, 2)
	go func() {
		for i := 0; i < 2; i++ {
			_, p, err := server.Recv()
			if err != nil {
				t.Error(err)
				return
			}
			got <- len(p)
		}
	}()
	for _, n := range []int{len(huge) - 1, 2} {
		if err := client.Send("r", huge[:n]); err != nil {
			t.Fatalf("Send of %d bytes: %v", n, err)
		}
		if m := <-got; m != n {
			t.Fatalf("received %d bytes, sent %d", m, n)
		}
	}
}

// TestReorderedFramesRejected verifies the per-direction nonce sequence
// defeats a network attacker who buffers and swaps two frames.
func TestReorderedFramesRejected(t *testing.T) {
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	defer ln.Close()
	srvErr := make(chan error, 1)
	go func() {
		conn, _ := ln.Accept()
		swap := &swapConn{Conn: conn}
		sc, err := Server(swap, []byte("k"), nil)
		if err != nil {
			srvErr <- err
			return
		}
		swap.armed = true
		// Read two frames; the swap delivers them out of order.
		if _, _, err := sc.Recv(); err != nil {
			srvErr <- err
			return
		}
		_, _, err = sc.Recv()
		srvErr <- err
	}()
	conn, _ := net.Dial("tcp", ln.Addr().String())
	client, err := Client(conn, []byte("k"), nil)
	if err != nil {
		t.Fatal(err)
	}
	client.Send("a", []byte("first"))
	client.Send("b", []byte("second"))
	if err := <-srvErr; err == nil {
		t.Error("reordered frames accepted")
	}
}

// swapConn buffers whole frames after arming and delivers the first two in
// swapped order.
type swapConn struct {
	net.Conn
	armed  bool
	buf    bytes.Buffer
	queued []byte
}

func (c *swapConn) Read(p []byte) (int, error) {
	if !c.armed {
		return c.Conn.Read(p)
	}
	if c.queued == nil {
		// Accumulate two complete frames.
		frames := make([][]byte, 0, 2)
		for len(frames) < 2 {
			var hdr [4]byte
			if _, err := readFullConn(c.Conn, hdr[:]); err != nil {
				return 0, err
			}
			n := int(uint32(hdr[0])<<24 | uint32(hdr[1])<<16 | uint32(hdr[2])<<8 | uint32(hdr[3]))
			body := make([]byte, n)
			if _, err := readFullConn(c.Conn, body); err != nil {
				return 0, err
			}
			frames = append(frames, append(hdr[:], body...))
		}
		c.queued = append(frames[1], frames[0]...) // swapped
	}
	n := copy(p, c.queued)
	c.queued = c.queued[n:]
	return n, nil
}

func readFullConn(c net.Conn, p []byte) (int, error) {
	n := 0
	for n < len(p) {
		m, err := c.Read(p[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// TestReplayedFrameRejected: replaying a captured (valid) frame fails
// because the receiver's nonce counter has moved on.
func TestReplayedFrameRejected(t *testing.T) {
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	defer ln.Close()
	srvErr := make(chan error, 1)
	go func() {
		conn, _ := ln.Accept()
		rep := &replayConn{Conn: conn}
		sc, err := Server(rep, []byte("k"), nil)
		if err != nil {
			srvErr <- err
			return
		}
		rep.armed = true
		if _, _, err := sc.Recv(); err != nil { // original
			srvErr <- err
			return
		}
		_, _, err = sc.Recv() // replay of the same frame
		srvErr <- err
	}()
	conn, _ := net.Dial("tcp", ln.Addr().String())
	client, err := Client(conn, []byte("k"), nil)
	if err != nil {
		t.Fatal(err)
	}
	client.Send("a", []byte("payload"))
	if err := <-srvErr; err == nil {
		t.Error("replayed frame accepted")
	}
}

// replayConn duplicates the first complete frame it sees after arming.
type replayConn struct {
	net.Conn
	armed  bool
	queued []byte
}

func (c *replayConn) Read(p []byte) (int, error) {
	if !c.armed {
		return c.Conn.Read(p)
	}
	if c.queued == nil {
		var hdr [4]byte
		if _, err := readFullConn(c.Conn, hdr[:]); err != nil {
			return 0, err
		}
		n := int(uint32(hdr[0])<<24 | uint32(hdr[1])<<16 | uint32(hdr[2])<<8 | uint32(hdr[3]))
		body := make([]byte, n)
		if _, err := readFullConn(c.Conn, body); err != nil {
			return 0, err
		}
		frame := append(hdr[:], body...)
		c.queued = append(append([]byte{}, frame...), frame...) // twice
	}
	n := copy(p, c.queued)
	c.queued = c.queued[n:]
	return n, nil
}
