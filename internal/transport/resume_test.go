package transport

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
)

const resumePeer = "storage-01"

// dialResuming runs one handshake over a pipe between a client and a server
// that each keep a ticket store. wrap, when set, sits on the client's end.
// Whichever side fails closes both ends, so the other cannot block.
func dialResuming(clientKey, serverKey []byte, cs, ss *TicketStore, wrap func(net.Conn) net.Conn) (client, server *SecureConn, clientErr, serverErr error) {
	a, b := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		server, serverErr = ServerResuming(b, serverKey, nil, ss)
		if serverErr != nil {
			a.Close()
			b.Close()
		}
	}()
	var conn net.Conn = a
	if wrap != nil {
		conn = wrap(a)
	}
	client, clientErr = ClientResuming(conn, clientKey, nil, cs, resumePeer)
	if clientErr != nil {
		a.Close()
		b.Close()
	}
	<-done
	return
}

// mustDial is dialResuming for a handshake the test expects to succeed.
func mustDial(t *testing.T, key []byte, cs, ss *TicketStore) (*SecureConn, *SecureConn) {
	t.Helper()
	c, s, cerr, serr := dialResuming(key, key, cs, ss, nil)
	if cerr != nil || serr != nil {
		t.Fatalf("handshake: client %v, server %v", cerr, serr)
	}
	t.Cleanup(func() { c.Close(); s.Close() })
	return c, s
}

func wantExchanges(t *testing.T, who string, s *TicketStore, full, resumed uint64) {
	t.Helper()
	if f, r := s.Exchanges(); f != full || r != resumed {
		t.Fatalf("%s ran %d full / %d resumed exchanges, want %d / %d", who, f, r, full, resumed)
	}
}

// roundTrip sends one frame each way.
func roundTrip(t *testing.T, c, s *SecureConn) {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		typ, p, err := s.Recv()
		if err == nil && (typ != "offload" || string(p) != "SELECT 1") {
			err = errors.New("server got " + typ + " " + string(p))
		}
		if err == nil {
			err = s.Send("result", []byte("rows"))
		}
		errc <- err
	}()
	if err := c.Send("offload", []byte("SELECT 1")); err != nil {
		t.Fatal(err)
	}
	typ, p, err := c.Recv()
	if err != nil || typ != "result" || string(p) != "rows" {
		t.Fatalf("client got %q %q %v", typ, p, err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestResumedChannelCarriesFrames: the second channel between two ends that
// keep tickets runs no X25519 — the stores count which exchange each
// handshake took — under a different session key than the first, and carries
// frames both ways.
func TestResumedChannelCarriesFrames(t *testing.T) {
	cs, ss := NewTicketStore(), NewTicketStore()
	c1, s1 := mustDial(t, []byte("session-key-one"), cs, ss)
	roundTrip(t, c1, s1)
	wantExchanges(t, "client", cs, 1, 0)
	wantExchanges(t, "server", ss, 1, 0)

	c2, s2 := mustDial(t, []byte("session-key-two"), cs, ss)
	wantExchanges(t, "client", cs, 1, 1)
	wantExchanges(t, "server", ss, 1, 1)
	roundTrip(t, c2, s2)
}

// TestResumeBoundToSessionKey: the right ticket under the wrong session key
// fails at key confirmation, the ticket it spent is gone from both ends, and
// the directional keys of one shared secret differ between session keys.
func TestResumeBoundToSessionKey(t *testing.T) {
	cs, ss := NewTicketStore(), NewTicketStore()
	mustDial(t, []byte("session-key-one"), cs, ss)

	_, _, cerr, serr := dialResuming([]byte("session-key-two"), []byte("session-key-2"), cs, ss, nil)
	if cerr == nil {
		t.Fatal("client resumed across mismatched session keys")
	}
	if !errors.Is(serr, ErrAuth) {
		t.Fatalf("server saw %v, want ErrAuth from key confirmation", serr)
	}
	wantExchanges(t, "client", cs, 1, 1)
	wantExchanges(t, "server", ss, 1, 1)

	// Nothing was left behind: the next channel is a full exchange.
	mustDial(t, []byte("session-key-three"), cs, ss)
	wantExchanges(t, "client", cs, 2, 1)
	wantExchanges(t, "server", ss, 2, 1)

	shared := bytes.Repeat([]byte{7}, 32)
	k1 := deriveKey(hmac.New(sha256.New, []byte("session-key-one")), "c2s", shared)
	k2 := deriveKey(hmac.New(sha256.New, []byte("session-key-two")), "c2s", shared)
	if bytes.Equal(k1, k2) {
		t.Fatal("one shared secret gave the same channel key under two session keys")
	}
}

// recordConn keeps what the client wrote.
type recordConn struct {
	net.Conn
	wrote bytes.Buffer
}

func (c *recordConn) Write(p []byte) (int, error) {
	c.wrote.Write(p)
	return c.Conn.Write(p)
}

// TestReplayedFirstFlightFails replays everything a resuming client sent —
// first flight and key confirmation — at the server. The ticket is spent, so
// the server reads the flight as a public key; and even a server that had
// kept the ticket answers with fresh bytes, which the recorded confirmation
// was not made for.
func TestReplayedFirstFlightFails(t *testing.T) {
	key := []byte("session-key")
	cs, ss := NewTicketStore(), NewTicketStore()
	mustDial(t, key, cs, ss)

	// Keep a copy of the ticket the resumption is about to spend.
	ss.mu.Lock()
	var kept ticket
	for _, tk := range ss.tickets {
		kept = tk
	}
	ss.mu.Unlock()

	var rec *recordConn
	_, _, cerr, serr := dialResuming(key, key, cs, ss, func(c net.Conn) net.Conn {
		rec = &recordConn{Conn: c}
		return rec
	})
	if cerr != nil || serr != nil {
		t.Fatalf("resumed handshake: client %v, server %v", cerr, serr)
	}
	recorded := rec.wrote.Bytes()
	if !bytes.Equal(recorded[:ticketIDLen], kept.id[:]) {
		t.Fatal("the resuming client's first flight does not lead with its ticket id")
	}

	replay := func() error {
		a, b := net.Pipe()
		defer a.Close()
		go func() {
			a.Write(recorded)
		}()
		go io.Copy(io.Discard, a)
		_, err := ServerResuming(b, key, nil, ss)
		b.Close()
		return err
	}
	full, _ := ss.Exchanges()
	if err := replay(); !errors.Is(err, ErrAuth) {
		t.Fatalf("replay at a server that spent the ticket = %v, want ErrAuth", err)
	}
	if f, _ := ss.Exchanges(); f != full+1 {
		t.Fatal("a spent ticket was taken for a live one")
	}
	ss.put(string(kept.id[:]), kept)
	if err := replay(); !errors.Is(err, ErrAuth) {
		t.Fatalf("replay at a server still holding the ticket = %v, want ErrAuth", err)
	}
}

// gateConn holds its first write until every dial in the race has reached
// its own: a client has taken (or missed) its ticket by then.
type gateConn struct {
	net.Conn
	gate *sync.WaitGroup
}

func (c *gateConn) Write(p []byte) (int, error) {
	if c.gate != nil {
		c.gate.Done()
		c.gate.Wait()
		c.gate = nil
	}
	return c.Conn.Write(p)
}

// TestTicketUsableOnce: two dials race for one ticket. Exactly one resumes,
// the other runs the full exchange, both channels confirm.
func TestTicketUsableOnce(t *testing.T) {
	key := []byte("session-key")
	cs, ss := NewTicketStore(), NewTicketStore()
	mustDial(t, key, cs, ss)

	var wg, gate sync.WaitGroup
	gate.Add(2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, s, cerr, serr := dialResuming(key, key, cs, ss, func(c net.Conn) net.Conn {
				return &gateConn{Conn: c, gate: &gate}
			})
			if cerr != nil || serr != nil {
				t.Errorf("handshake: client %v, server %v", cerr, serr)
				return
			}
			c.Close()
			s.Close()
		}()
	}
	wg.Wait()
	wantExchanges(t, "client", cs, 2, 1)
	wantExchanges(t, "server", ss, 2, 1)
}

// mangleConn rewrites the client's first write.
type mangleConn struct {
	net.Conn
	mangle func([]byte) []byte
}

func (c *mangleConn) Write(p []byte) (int, error) {
	if m := c.mangle; m != nil {
		c.mangle = nil
		if _, err := c.Conn.Write(m(append([]byte(nil), p...))); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	return c.Conn.Write(p)
}

// TestMangledTicketFlightFailsHandshake: a first flight whose ticket id was
// corrupted, replaced by another pair's, or cut short falls through to a
// failed handshake — ErrAuth at confirmation or a read error — on both ends,
// and the pair's next channel is a full exchange that succeeds.
func TestMangledTicketFlightFailsHandshake(t *testing.T) {
	key := []byte("session-key")
	// A ticket id some other client and server agreed on.
	ocs, oss := NewTicketStore(), NewTicketStore()
	mustDial(t, key, ocs, oss)
	foreign, _ := ocs.take(resumePeer)

	for name, mangle := range map[string]func([]byte) []byte{
		"corrupted": func(p []byte) []byte { p[3] ^= 0x40; return p },
		"spliced":   func(p []byte) []byte { copy(p, foreign.id[:]); return p },
		"truncated": func(p []byte) []byte { return p[:ticketIDLen-6] },
	} {
		t.Run(name, func(t *testing.T) {
			cs, ss := NewTicketStore(), NewTicketStore()
			mustDial(t, key, cs, ss)
			_, _, cerr, serr := dialResuming(key, key, cs, ss, func(c net.Conn) net.Conn {
				if name == "truncated" {
					// The rest of the flight never comes.
					return &mangleConn{Conn: c, mangle: func(p []byte) []byte {
						defer c.Close()
						return mangle(p)
					}}
				}
				return &mangleConn{Conn: c, mangle: mangle}
			})
			if cerr == nil || serr == nil {
				t.Fatalf("handshake over a %s ticket id: client %v, server %v", name, cerr, serr)
			}
			if name != "truncated" && !errors.Is(serr, ErrAuth) {
				t.Fatalf("server saw %v, want ErrAuth", serr)
			}
			_, resumedBefore := cs.Exchanges()
			mustDial(t, key, cs, ss)
			if _, r := cs.Exchanges(); r != resumedBefore {
				t.Fatal("the channel after a failed resumption resumed")
			}
		})
	}
}

// TestResumptionChainIsCut: one X25519 exchange carries maxResumptions
// channels by resumption and the channel after them runs it again.
func TestResumptionChainIsCut(t *testing.T) {
	key := []byte("session-key")
	cs, ss := NewTicketStore(), NewTicketStore()
	dial := func() {
		c, s, cerr, serr := dialResuming(key, key, cs, ss, nil)
		if cerr != nil || serr != nil {
			t.Fatalf("handshake: client %v, server %v", cerr, serr)
		}
		c.Close()
		s.Close()
	}
	dial()
	for i := 0; i < maxResumptions; i++ {
		dial()
	}
	wantExchanges(t, "client", cs, 1, maxResumptions)
	dial()
	wantExchanges(t, "client", cs, 2, maxResumptions)
	wantExchanges(t, "server", ss, 2, maxResumptions)
	dial()
	wantExchanges(t, "client", cs, 2, maxResumptions+1)
}

// TestTicketStoreIsBounded: tickets nobody comes back for push the oldest
// out, and a store that forgot or cleared has nothing to resume from.
func TestTicketStoreIsBounded(t *testing.T) {
	s := NewTicketStore()
	numbered := func(i int) ticket {
		var tk ticket
		binary.BigEndian.PutUint32(tk.id[:], uint32(i))
		return tk
	}
	for i := 0; i < maxTickets+10; i++ {
		tk := numbered(i)
		s.put(string(tk.id[:]), tk)
	}
	if n := len(s.tickets); n != maxTickets {
		t.Fatalf("store holds %d tickets, bound is %d", n, maxTickets)
	}
	oldest, newest := numbered(9), numbered(maxTickets+9)
	if _, ok := s.take(string(oldest.id[:])); ok {
		t.Fatal("the oldest ticket outlived the bound")
	}
	if _, ok := s.take(string(newest.id[:])); !ok {
		t.Fatal("the newest ticket was evicted")
	}
	s.put("a", ticket{})
	s.put("b", ticket{})
	s.Forget("a")
	if _, ok := s.take("a"); ok {
		t.Fatal("a forgotten ticket resumed")
	}
	s.Clear()
	if _, ok := s.take("b"); ok {
		t.Fatal("a cleared store resumed")
	}
}
