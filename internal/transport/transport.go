// Package transport implements IronSafe's trusted networking layer (§5): an
// authenticated-encryption channel over TCP between client, host, monitor,
// and storage system. An X25519 handshake runs per connection — or, between
// two ends that keep a TicketStore, a resumption of an earlier one
// (resume.go); when the trusted monitor has issued a session key, it is mixed
// into the key schedule either way, so the channel is cryptographically bound
// to the monitor-approved session — a peer without the session key cannot
// complete the handshake.
package transport

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"net"
	"sync"
	"time"

	"ironsafe/internal/simtime"
)

// MaxFrame bounds a single message (16 MiB).
const MaxFrame = 16 << 20

// Typed failures, so callers can distinguish an attacked or misbehaving
// channel from ordinary I/O trouble and fail fast instead of retrying a
// conversation whose AEAD state is unrecoverably desynchronized.
var (
	// ErrFrameTooLarge reports a length header exceeding MaxFrame — a
	// corrupted or hostile peer; reading on would desync the stream.
	ErrFrameTooLarge = errors.New("transport: frame exceeds limit")
	// ErrAuth reports AEAD verification failure: a corrupted, replayed,
	// reordered, or forged frame. The channel must be abandoned.
	ErrAuth = errors.New("transport: frame authentication failed")
	// ErrMalformed reports a frame that decrypted but violates framing.
	ErrMalformed = errors.New("transport: malformed frame")
)

// SecureConn is an encrypted, integrity-protected message channel.
type SecureConn struct {
	conn  net.Conn
	meter *simtime.Meter

	ioMu      sync.Mutex
	ioTimeout time.Duration

	sendMu    sync.Mutex
	sendAEAD  cipher.AEAD
	sendSeq   uint64
	recvMu    sync.Mutex
	recvAEAD  cipher.AEAD
	recvSeq   uint64
	recvExtra []byte
}

// SetIOTimeout makes every subsequent Send and Recv arm a deadline of d on
// the underlying connection, so a stalled or hung peer surfaces as a timeout
// error instead of blocking forever. Zero disables the deadline.
func (c *SecureConn) SetIOTimeout(d time.Duration) {
	c.ioMu.Lock()
	c.ioTimeout = d
	c.ioMu.Unlock()
}

// armDeadline arms a read or write deadline if an I/O timeout is set; the
// returned func clears it.
func (c *SecureConn) armDeadline(set func(time.Time) error) func() {
	c.ioMu.Lock()
	d := c.ioTimeout
	c.ioMu.Unlock()
	if d <= 0 {
		return func() {}
	}
	set(time.Now().Add(d)) //ironsafe:allow wallclock -- arming a real I/O deadline against hung peers
	return func() { set(time.Time{}) }
}

// deriveKey expands secret material into a 32-byte key under label. mac is
// HMAC-SHA-256 keyed with the session key (a nil key is valid for HMAC); a
// handshake keys it once and every derivation resets it.
func deriveKey(mac hash.Hash, label string, material ...[]byte) []byte {
	mac.Reset()
	mac.Write([]byte("ironsafe-transport-v1|"))
	mac.Write([]byte(label))
	mac.Write([]byte{'|'})
	for _, m := range material {
		mac.Write(m)
	}
	return mac.Sum(nil)
}

func newAEAD(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// handshake runs the 32-bytes-each-way exchange; isClient controls key
// directionality. With a ticket store the exchange may be a resumption
// (resume.go): the wire shape, the order of reads and writes, the key
// schedule under the session key and the key confirmation are the same either
// way — only where the shared secret comes from differs. tickets may be nil
// (always the full exchange, no ticket left); peer names the server in the
// client's store.
func handshake(conn net.Conn, sessionKey []byte, isClient bool, meter *simtime.Meter, tickets *TicketStore, peer string) (*SecureConn, error) {
	// flights is the client's 32 bytes followed by the server's, in wire
	// order: the transcript a resumed secret is bound to.
	var flights [64]byte
	mine, theirs := flights[:32], flights[32:]
	key := peer // where this side's store keeps the ticket: server name, or ticket id
	if !isClient {
		mine, theirs = theirs, mine
		if _, err := io.ReadFull(conn, theirs); err != nil {
			return nil, fmt.Errorf("transport: reading handshake: %w", err)
		}
		// A first flight that leads with a ticket this server left is a
		// resumption; anything else is read as an X25519 public key.
		key = string(theirs[:ticketIDLen])
	}
	// The ticket is gone from the store before a byte answers it: it buys
	// one channel, whether or not that channel confirms.
	tk, resumed := tickets.take(key)
	var priv *ecdh.PrivateKey
	if resumed {
		n := 0
		if isClient {
			n = copy(mine, tk.id[:])
		}
		if _, err := rand.Read(mine[n:]); err != nil {
			return nil, fmt.Errorf("transport: handshake nonce: %w", err)
		}
	} else {
		var err error
		if priv, err = ecdh.X25519().GenerateKey(rand.Reader); err != nil {
			return nil, fmt.Errorf("transport: keygen: %w", err)
		}
		copy(mine, priv.PublicKey().Bytes())
	}
	// The exchange is strictly ordered (client writes first) so it also
	// works over unbuffered in-process pipes.
	if _, err := conn.Write(mine); err != nil {
		return nil, fmt.Errorf("transport: sending handshake: %w", err)
	}
	if isClient {
		if _, err := io.ReadFull(conn, theirs); err != nil {
			return nil, fmt.Errorf("transport: reading handshake: %w", err)
		}
	}
	mac := hmac.New(sha256.New, sessionKey)
	var shared []byte
	uses := 0 // resumptions on this ticket chain, this channel included
	if resumed {
		shared = deriveKey(mac, "resume", tk.secret[:], flights[:])
		uses = tk.uses + 1
	} else {
		peerKey, err := ecdh.X25519().NewPublicKey(theirs)
		if err != nil {
			return nil, fmt.Errorf("transport: peer key: %w", err)
		}
		if shared, err = priv.ECDH(peerKey); err != nil {
			return nil, fmt.Errorf("transport: ecdh: %w", err)
		}
	}
	c2s, err := newAEAD(deriveKey(mac, "c2s", shared))
	if err != nil {
		return nil, err
	}
	s2c, err := newAEAD(deriveKey(mac, "s2c", shared))
	if err != nil {
		return nil, err
	}
	sc := &SecureConn{conn: conn, meter: meter}
	if isClient {
		sc.sendAEAD, sc.recvAEAD = c2s, s2c
	} else {
		sc.sendAEAD, sc.recvAEAD = s2c, c2s
	}
	if meter != nil {
		meter.BytesSent.Add(32)
		meter.BytesReceived.Add(32)
	}
	// Key confirmation: each side proves it derived the same keys (and
	// therefore held the session key) by exchanging an encrypted probe,
	// again strictly ordered. Each side leaves the next ticket once the
	// other's probe has opened; the server does so before it answers, so a
	// client that has the answer never holds a ticket the server lacks.
	if isClient {
		if err := sc.confirm(); err != nil {
			return nil, err
		}
	}
	if err := sc.expectConfirm(); err != nil {
		return nil, err
	}
	if tickets != nil && uses < maxResumptions {
		next := deriveTicket(mac, shared, uses)
		if !isClient {
			key = string(next.id[:])
		}
		tickets.put(key, next)
	}
	if !isClient {
		if err := sc.confirm(); err != nil {
			return nil, err
		}
	}
	return sc, nil
}

func (c *SecureConn) confirm() error {
	if err := c.Send("hello", nil); err != nil {
		return fmt.Errorf("transport: key confirmation send: %w", err)
	}
	return nil
}

func (c *SecureConn) expectConfirm() error {
	typ, _, err := c.Recv()
	if err != nil {
		return fmt.Errorf("transport: key confirmation failed (wrong session key?): %w", err)
	}
	if typ != "hello" {
		return errors.New("transport: unexpected key confirmation message")
	}
	return nil
}

// Client performs the initiator side of the handshake.
func Client(conn net.Conn, sessionKey []byte, meter *simtime.Meter) (*SecureConn, error) {
	return handshake(conn, sessionKey, true, meter, nil, "")
}

// Server performs the responder side of the handshake.
func Server(conn net.Conn, sessionKey []byte, meter *simtime.Meter) (*SecureConn, error) {
	return handshake(conn, sessionKey, false, meter, nil, "")
}

// Send transmits one typed message.
func (c *SecureConn) Send(msgType string, payload []byte) error {
	if len(msgType) > 255 {
		return errors.New("transport: message type too long")
	}
	plain := make([]byte, 0, 1+len(msgType)+len(payload))
	plain = append(plain, byte(len(msgType)))
	plain = append(plain, msgType...)
	plain = append(plain, payload...)

	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	nonce := make([]byte, c.sendAEAD.NonceSize())
	binary.BigEndian.PutUint64(nonce[len(nonce)-8:], c.sendSeq)
	c.sendSeq++
	ct := c.sendAEAD.Seal(nil, nonce, plain, nil)
	frame := make([]byte, 4+len(ct))
	binary.BigEndian.PutUint32(frame, uint32(len(ct)))
	copy(frame[4:], ct)
	clear := c.armDeadline(c.conn.SetWriteDeadline)
	_, err := c.conn.Write(frame)
	clear()
	if err != nil {
		return fmt.Errorf("transport: write: %w", err)
	}
	if c.meter != nil {
		c.meter.BytesSent.Add(int64(len(frame)))
	}
	return nil
}

// Recv receives the next message. Frames are sequenced, so drops, replays,
// and reordering by a network attacker are detected as decryption failures.
func (c *SecureConn) Recv() (string, []byte, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	clear := c.armDeadline(c.conn.SetReadDeadline)
	defer clear()
	var hdr [4]byte
	if _, err := io.ReadFull(c.conn, hdr[:]); err != nil {
		return "", nil, fmt.Errorf("transport: read header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return "", nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	ct := make([]byte, n)
	if _, err := io.ReadFull(c.conn, ct); err != nil {
		return "", nil, fmt.Errorf("transport: read body: %w", err)
	}
	nonce := make([]byte, c.recvAEAD.NonceSize())
	binary.BigEndian.PutUint64(nonce[len(nonce)-8:], c.recvSeq)
	c.recvSeq++
	plain, err := c.recvAEAD.Open(nil, nonce, ct, nil)
	if err != nil {
		return "", nil, ErrAuth
	}
	if c.meter != nil {
		c.meter.BytesReceived.Add(int64(n) + 4)
	}
	if len(plain) < 1 {
		return "", nil, fmt.Errorf("%w: empty frame", ErrMalformed)
	}
	tl := int(plain[0])
	if 1+tl > len(plain) {
		return "", nil, fmt.Errorf("%w: truncated type header", ErrMalformed)
	}
	return string(plain[1 : 1+tl]), plain[1+tl:], nil
}

// Close closes the underlying connection.
func (c *SecureConn) Close() error { return c.conn.Close() }

// Pipe returns a connected in-process SecureConn pair (for single-process
// deployments and tests). The handshake still runs over the pipe.
func Pipe(sessionKey []byte, clientMeter, serverMeter *simtime.Meter) (*SecureConn, *SecureConn, error) {
	a, b := net.Pipe()
	type res struct {
		sc  *SecureConn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		sc, err := Server(b, sessionKey, serverMeter)
		if err != nil {
			// Unblock a client still mid-handshake on the other end;
			// otherwise it would wait forever for a reply that never comes.
			b.Close()
		}
		ch <- res{sc, err}
	}()
	client, err := Client(a, sessionKey, clientMeter)
	if err != nil {
		// Tear down both ends so the server goroutine cannot leak blocked
		// in its half of the handshake, then reap it.
		a.Close()
		b.Close()
		srv := <-ch
		if srv.sc != nil {
			srv.sc.Close()
		}
		return nil, nil, err
	}
	srv := <-ch
	if srv.err != nil {
		client.Close()
		return nil, nil, srv.err
	}
	return client, srv.sc, nil
}
