package adversary

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"

	"ironsafe/internal/faultinject"
	"ironsafe/internal/transport"
)

// mitmPipe returns a transport-layer victim pair: the client side is wrapped
// by the adversary, the server side is honest. The server goroutine echoes
// each request payload back as a "reply" message and reports its terminal
// error (nil on clean EOF) on the returned channel, closing its conn on the
// way out so a blocked peer unwedges.
func mitmPipe(t *testing.T, eng *Engine, site string) (*transport.SecureConn, chan error) {
	t.Helper()
	clientRaw, serverRaw := net.Pipe()
	wrapped := WrapConn(clientRaw, site, TransportProfile, eng)

	serverErr := make(chan error, 1)
	go func() {
		defer serverRaw.Close()
		srv, err := transport.Server(serverRaw, []byte("adversary-test-key"), nil)
		if err != nil {
			serverErr <- err
			return
		}
		for {
			typ, payload, err := srv.Recv()
			if err != nil {
				if errors.Is(err, io.EOF) {
					err = nil
				}
				serverErr <- err
				return
			}
			if typ == "bye" {
				serverErr <- nil
				return
			}
			if err := srv.Send("reply", payload); err != nil {
				serverErr <- err
				return
			}
		}
	}()

	cli, err := transport.Client(wrapped, []byte("adversary-test-key"), nil)
	if err != nil {
		clientRaw.Close()
		t.Fatalf("handshake through idle adversary: %v", err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli, serverErr
}

func exchange(cli *transport.SecureConn, payload string) (string, error) {
	if err := cli.Send("req", []byte(payload)); err != nil {
		return "", err
	}
	typ, got, err := cli.Recv()
	if err != nil {
		return "", err
	}
	if typ != "reply" {
		return "", errors.New("unexpected reply type " + typ)
	}
	return string(got), nil
}

// TestMitmReplayedReplyFailsClosed replays an earlier recorded server frame
// in place of the reply to the second request: the sequence-bound AEAD must
// reject it as ErrAuth — never deliver it as the answer.
func TestMitmReplayedReplyFailsClosed(t *testing.T) {
	// Client read-leg frame stream: op0 = server key-confirm, op1 = reply 1,
	// op2 = reply 2 (attacked; library holds two genuine frames by then).
	eng := NewEngine(11, faultinject.Rule{Site: ":read", Class: faultinject.Replay, Prob: 1, After: 2, MaxCount: 1})
	cli, _ := mitmPipe(t, eng, "node-r")
	if got, err := exchange(cli, "one"); err != nil || got != "one" {
		t.Fatalf("clean exchange: %q, %v", got, err)
	}
	_, err := exchange(cli, "two")
	if !errors.Is(err, transport.ErrAuth) {
		t.Fatalf("replayed reply produced %v, want transport.ErrAuth", err)
	}
	if eng.Stats()[faultinject.Replay] != 1 {
		t.Fatalf("replay not traced: %v", eng.Stats())
	}
}

// TestMitmDuplicatedReplyFailsClosed delivers the genuine first reply and
// queues a byte-identical copy behind it. The copy must not be consumed as
// the answer to the next request.
func TestMitmDuplicatedReplyFailsClosed(t *testing.T) {
	eng := NewEngine(5, faultinject.Rule{Site: ":read", Class: faultinject.Duplicate, Prob: 1, After: 1, MaxCount: 1})
	cli, _ := mitmPipe(t, eng, "node-d")
	if got, err := exchange(cli, "one"); err != nil || got != "one" {
		t.Fatalf("duplicated genuine reply must still arrive intact: %q, %v", got, err)
	}
	got, err := exchange(cli, "two")
	if err == nil {
		t.Fatalf("stale duplicate consumed as fresh reply: got %q", got)
	}
	if !errors.Is(err, transport.ErrAuth) {
		t.Fatalf("duplicate produced %v, want transport.ErrAuth", err)
	}
}

// TestMitmReorderedReplyFailsClosed swaps the first reply with older
// recorded material; the out-of-order frame must be rejected.
func TestMitmReorderedReplyFailsClosed(t *testing.T) {
	eng := NewEngine(9, faultinject.Rule{Site: ":read", Class: faultinject.Reorder, Prob: 1, After: 1, MaxCount: 1})
	cli, _ := mitmPipe(t, eng, "node-o")
	_, err := exchange(cli, "one")
	if !errors.Is(err, transport.ErrAuth) {
		t.Fatalf("reordered reply produced %v, want transport.ErrAuth", err)
	}
}

// TestMitmInjectedRequestFailsClosed prepends a forged ciphertext frame in
// front of a genuine request: the server must reject it as ErrAuth and tear
// the channel down, surfacing as a send/recv error at the client — never as
// a processed request.
func TestMitmInjectedRequestFailsClosed(t *testing.T) {
	eng := NewEngine(13, faultinject.Rule{Site: ":write", Class: faultinject.Inject, Prob: 1, After: 2, MaxCount: 1})
	cli, serverErr := mitmPipe(t, eng, "node-i")
	if got, err := exchange(cli, "one"); err != nil || got != "one" {
		t.Fatalf("clean exchange: %q, %v", got, err)
	}
	if _, err := exchange(cli, "two"); err == nil {
		t.Fatal("exchange across an injected forged frame unexpectedly succeeded")
	}
	if err := <-serverErr; !errors.Is(err, transport.ErrAuth) {
		t.Fatalf("server saw %v for the forged frame, want transport.ErrAuth", err)
	}
}

// TestMitmSplicedHandshakeFailsConfirmation splices a public key recorded
// from a different session into a new connection's handshake: key
// confirmation must fail on both sides — the adversary cannot stitch
// sessions together without the session key.
func TestMitmSplicedHandshakeFailsConfirmation(t *testing.T) {
	eng := NewEngine(17)
	// Session A runs clean so the adversary's library holds its identity
	// material (client + server public keys).
	cliA, _ := mitmPipe(t, eng, "node-a")
	if got, err := exchange(cliA, "warm"); err != nil || got != "warm" {
		t.Fatalf("session A: %q, %v", got, err)
	}

	// Session B: the server public key the client reads is replaced by one
	// of session A's recorded keys.
	eng.Arm(faultinject.Rule{Site: "node-b:read:pubkey", Class: faultinject.Splice, Prob: 1, MaxCount: 1})
	clientRaw, serverRaw := net.Pipe()
	wrapped := WrapConn(clientRaw, "node-b", TransportProfile, eng)
	serverErr := make(chan error, 1)
	go func() {
		defer serverRaw.Close()
		_, err := transport.Server(serverRaw, []byte("adversary-test-key"), nil)
		serverErr <- err
	}()
	_, err := transport.Client(wrapped, []byte("adversary-test-key"), nil)
	clientRaw.Close()
	if err == nil {
		t.Fatal("handshake over a spliced public key unexpectedly succeeded")
	}
	if !strings.Contains(err.Error(), "key confirmation") {
		t.Fatalf("client error %v, want key-confirmation failure", err)
	}
	if srvErr := <-serverErr; !errors.Is(srvErr, transport.ErrAuth) {
		t.Fatalf("server saw %v, want transport.ErrAuth from key confirmation", srvErr)
	}
}

// TestMitmSplicedTicketFlightFailsConfirmation mounts the same splice one
// step earlier on a resuming pair: the first flight of a resumption — ticket
// id and nonce, riding where the public key rides — is replaced by a first
// flight recorded on another channel. The server knows no such ticket and
// reads the bytes as a public key, the client keys from its ticket, and key
// confirmation fails on both sides; the ticket is spent, so the pair's next
// channel is a full exchange, and it confirms.
func TestMitmSplicedTicketFlightFailsConfirmation(t *testing.T) {
	key := []byte("adversary-test-key")
	eng := NewEngine(19)
	cs, ss := transport.NewTicketStore(), transport.NewTicketStore()
	dial := func(site string) (cliErr, srvErr error) {
		clientRaw, serverRaw := net.Pipe()
		defer clientRaw.Close()
		serverErr := make(chan error, 1)
		go func() {
			defer serverRaw.Close()
			_, err := transport.ServerResuming(serverRaw, key, nil, ss)
			serverErr <- err
		}()
		_, cliErr = transport.ClientResuming(WrapConn(clientRaw, site, TransportProfile, eng), key, nil, cs, "node-b")
		clientRaw.Close()
		return cliErr, <-serverErr
	}
	// Two clean channels: a full exchange, then a resumption whose first
	// flight joins the adversary's library beside the public keys.
	for i := 0; i < 2; i++ {
		if cliErr, srvErr := dial("node-a"); cliErr != nil || srvErr != nil {
			t.Fatalf("clean channel %d: client %v, server %v", i, cliErr, srvErr)
		}
	}
	if full, resumed := cs.Exchanges(); full != 1 || resumed != 1 {
		t.Fatalf("warm-up ran %d full / %d resumed exchanges, want 1 / 1", full, resumed)
	}

	eng.Arm(faultinject.Rule{Site: "node-b:write:pubkey", Class: faultinject.Splice, Prob: 1, MaxCount: 1})
	cliErr, srvErr := dial("node-b")
	if cliErr == nil || !strings.Contains(cliErr.Error(), "key confirmation") {
		t.Fatalf("client error %v, want key-confirmation failure", cliErr)
	}
	if !errors.Is(srvErr, transport.ErrAuth) {
		t.Fatalf("server saw %v, want transport.ErrAuth from key confirmation", srvErr)
	}
	if _, resumed := cs.Exchanges(); resumed != 2 {
		t.Fatal("the attacked channel was not a resumption")
	}

	if cliErr, srvErr := dial("node-b"); cliErr != nil || srvErr != nil {
		t.Fatalf("channel after the attack: client %v, server %v", cliErr, srvErr)
	}
	if full, resumed := cs.Exchanges(); full != 2 || resumed != 2 {
		t.Fatalf("after the attack: %d full / %d resumed exchanges, want 2 / 2", full, resumed)
	}
}

// TestMitmForgedBannerIsOnlyPlaintextSurface forges the one protocol unit an
// adversary can fabricate without keys — the plaintext ctl admission banner —
// and checks the forgery is exactly what a client would parse: overloaded,
// with a hostile retry-after.
func TestMitmForgedBannerIsOnlyPlaintextSurface(t *testing.T) {
	eng := NewEngine(23, faultinject.Rule{Site: ":read:banner", Class: faultinject.Banner, Prob: 1, MaxCount: 1})
	clientRaw, serverRaw := net.Pipe()
	wrapped := WrapConn(clientRaw, "ctl", CtlProfile, eng)
	go func() {
		// Honest server admits the client immediately.
		serverRaw.Write([]byte{0x00})
	}()
	banner := make([]byte, 5)
	if _, err := io.ReadFull(wrapped, banner); err != nil {
		t.Fatal(err)
	}
	clientRaw.Close()
	if banner[0] != 0x01 {
		t.Fatalf("forged banner byte = %#x, want overloaded marker 0x01", banner[0])
	}
	retryMS := binary.LittleEndian.Uint32(banner[1:])
	if retryMS < 1<<30 {
		t.Fatalf("forged retry-after = %d ms, want a hostile (huge) delay", retryMS)
	}
	if eng.Stats()[faultinject.Banner] != 1 {
		t.Fatalf("banner forgery not traced: %v", eng.Stats())
	}
}
