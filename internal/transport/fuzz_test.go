package transport

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"
)

// fuzzAEAD is the deterministic receive AEAD every fuzz input is parsed
// under — the same construction the handshake derives.
func fuzzAEAD(tb testing.TB) cipher.AEAD {
	key := sha256.Sum256([]byte("transport-fuzz-key"))
	block, err := aes.NewCipher(key[:])
	if err != nil {
		tb.Fatal(err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		tb.Fatal(err)
	}
	return aead
}

// fuzzSeal produces the genuine wire frame for (msgType, payload) at seq —
// the encoder FuzzRecv's accepted inputs are checked against.
func fuzzSeal(aead cipher.AEAD, seq uint64, msgType string, payload []byte) []byte {
	plain := make([]byte, 0, 1+len(msgType)+len(payload))
	plain = append(plain, byte(len(msgType)))
	plain = append(plain, msgType...)
	plain = append(plain, payload...)
	nonce := make([]byte, aead.NonceSize())
	binary.BigEndian.PutUint64(nonce[len(nonce)-8:], seq)
	ct := aead.Seal(nil, nonce, plain, nil)
	frame := make([]byte, 4, 4+len(ct))
	binary.BigEndian.PutUint32(frame, uint32(len(ct)))
	return append(frame, ct...)
}

// fuzzWire serves a byte blob as a net.Conn read side.
type fuzzWire struct{ r *bytes.Reader }

func (w *fuzzWire) Read(p []byte) (int, error)       { return w.r.Read(p) }
func (w *fuzzWire) Write(p []byte) (int, error)      { return len(p), nil }
func (w *fuzzWire) Close() error                     { return nil }
func (w *fuzzWire) LocalAddr() net.Addr              { return nil }
func (w *fuzzWire) RemoteAddr() net.Addr             { return nil }
func (w *fuzzWire) SetDeadline(time.Time) error      { return nil }
func (w *fuzzWire) SetReadDeadline(time.Time) error  { return nil }
func (w *fuzzWire) SetWriteDeadline(time.Time) error { return nil }

// FuzzRecv feeds arbitrary wire bytes to the frame parser. The contract: no
// panic, and anything Recv accepts must be byte-identical to the genuine
// sealing of the returned message at the expected sequence number — i.e. only
// an authentic frame is ever surfaced as data; everything else is a typed
// error.
func FuzzRecv(f *testing.F) {
	aead := fuzzAEAD(f)
	f.Add(fuzzSeal(aead, 0, "result", []byte("rows")))
	f.Add(fuzzSeal(aead, 0, "", nil))
	f.Add(fuzzSeal(aead, 1, "offload", bytes.Repeat([]byte{0xA5}, 256))) // wrong seq
	corrupt := fuzzSeal(aead, 0, "result", []byte("rows"))
	corrupt[len(corrupt)-1] ^= 0x01
	f.Add(corrupt)
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x00, 0x01})                     // truncated body
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x00})               // oversized length header
	f.Add(append([]byte{0x00, 0x00, 0x00, 0x00}, 0xAA, 0xBB)) // empty frame + trailing junk

	f.Fuzz(func(t *testing.T, data []byte) {
		sc := &SecureConn{conn: &fuzzWire{r: bytes.NewReader(data)}, recvAEAD: aead}
		msgType, payload, err := sc.Recv()
		if err != nil {
			return
		}
		if len(data) < 4 {
			t.Fatalf("accepted a %d-byte blob", len(data))
		}
		n := binary.BigEndian.Uint32(data[:4])
		if uint64(len(data)) < 4+uint64(n) {
			t.Fatal("accepted a truncated frame")
		}
		want := fuzzSeal(aead, 0, msgType, payload)
		if !bytes.Equal(want, data[:4+n]) {
			t.Fatalf("accepted frame is not the genuine sealing of %q/%d bytes", msgType, len(payload))
		}
	})
}

// FuzzRecvRejectsTamper seals a genuine frame from fuzzed content, flips a
// fuzz-chosen byte, and demands the typed ErrAuth — no tampered frame may
// parse, and no tamper may crash the parser.
func FuzzRecvRejectsTamper(f *testing.F) {
	f.Add("result", []byte("payload"), 5)
	f.Add("", []byte{}, 0)
	f.Add("x", bytes.Repeat([]byte{0x42}, 128), 70)

	aead := fuzzAEAD(f)
	f.Fuzz(func(t *testing.T, msgType string, payload []byte, flip int) {
		if len(msgType) > 255 {
			msgType = msgType[:255]
		}
		frame := fuzzSeal(aead, 0, msgType, payload)
		if flip < 0 {
			flip = -flip
		}
		// Flip one ciphertext byte (never the length header: that is framing,
		// not authentication).
		idx := 4 + flip%(len(frame)-4)
		frame[idx] ^= 0x01
		sc := &SecureConn{conn: &fuzzWire{r: bytes.NewReader(frame)}, recvAEAD: aead}
		if _, _, err := sc.Recv(); !errors.Is(err, ErrAuth) {
			t.Fatalf("tampered frame at byte %d = %v, want ErrAuth", idx, err)
		}
	})
}

// FuzzHandshakeFirstFlight feeds arbitrary bytes to a resuming server as
// everything its client ever sends: the first flight — a ticket id it left, a
// mangled one, a public key, less than 32 bytes — and whatever follows. The
// server answers a flight with fresh random bytes, so no fixed input can
// confirm: the handshake must fail, without a panic, and a ticket the flight
// named must be spent all the same.
func FuzzHandshakeFirstFlight(f *testing.F) {
	key := []byte("fuzz-session-key")
	var live ticket
	copy(live.id[:], bytes.Repeat([]byte{0x11}, ticketIDLen))
	copy(live.secret[:], bytes.Repeat([]byte{0x22}, 32))
	resuming := append(append([]byte(nil), live.id[:]...), bytes.Repeat([]byte{0x33}, 32-ticketIDLen)...)
	hello := fuzzSeal(fuzzAEAD(f), 0, "hello", nil)

	f.Add(append(append([]byte(nil), resuming...), hello...))
	f.Add(resuming)
	f.Add(resuming[:ticketIDLen])                                   // the flight stops after the id
	f.Add(resuming[:ticketIDLen-3])                                 // truncated id
	f.Add(append([]byte{0x10}, resuming[1:]...))                    // one bit off a live id
	f.Add(append(append([]byte{9}, make([]byte, 31)...), hello...)) // the X25519 base point
	f.Add(make([]byte, 32))                                         // a low-order point
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		ss := NewTicketStore()
		ss.put(string(live.id[:]), live)
		if _, err := ServerResuming(&fuzzWire{r: bytes.NewReader(data)}, key, nil, ss); err == nil {
			t.Fatalf("a handshake confirmed against %d fixed bytes", len(data))
		}
		named := len(data) >= 32 && bytes.Equal(data[:ticketIDLen], live.id[:])
		if _, kept := ss.take(string(live.id[:])); kept == named {
			t.Fatalf("flight names the ticket: %v; ticket still held: %v", named, kept)
		}
	})
}
