package adversary

import (
	"encoding/binary"
	"net"
	"sync"

	"ironsafe/internal/faultinject"
)

// Profile names the wire protocol spoken across a wrapped connection, so the
// man-in-the-middle can parse whole protocol units (preamble, handshake
// public key, admission banner, AEAD frame) instead of flipping bits in an
// opaque stream — the attacks are semantic, mounted at unit granularity.
type Profile int

const (
	// TransportProfile is a bare secure channel: client writes its 32-byte
	// handshake public key first, then length-prefixed AEAD frames flow both
	// ways (transport.Client / transport.Server with nothing in front).
	TransportProfile Profile = iota
	// StorageProfile is the host→storage query/rebuild channel: a plaintext
	// session preamble (1-byte length + session id) precedes the handshake
	// on the write side (storageengine.ServeConn).
	StorageProfile
	// CtlProfile is the control-plane client connection: the server's
	// plaintext admission banner precedes the handshake on the read side
	// (ctl.DialResilient / ctl.ClientConn).
	CtlProfile
)

// protocol steps per direction.
type step int

const (
	stepBanner   step = iota // ctl read side: 1 byte, +4 when overloaded
	stepPreamble             // storage write side: 1-byte length + session id
	stepPubkey               // both sides: 32-byte X25519 public key
	stepFrame                // steady state: 4-byte BE length + ciphertext
)

// frameHeaderLen and pubkeyLen pin the wire shapes the parser assembles.
const (
	frameHeaderLen = 4
	pubkeyLen      = 32
	// maxParseFrame bounds a frame the MITM will buffer; matches
	// transport.MaxFrame. A larger header means the stream is already
	// garbage, so the remaining bytes pass through unparsed.
	maxParseFrame = 16 << 20
	// forgedFrameBody is the ciphertext length of fabricated frames: long
	// enough to look like a small real reply, cheap to generate.
	forgedFrameBody = 48
)

// Conn is the protocol-aware man-in-the-middle. It wraps the host/client
// side of a connection: Write carries client→server units, Read carries
// server→client units. Each direction runs its own unit parser and consults
// the engine once per unit; attacks substitute, duplicate, hold, or prepend
// whole recorded or forged units. The conn never stalls on its own — timing
// faults belong to faultinject.Conn; this layer mounts only semantic ones.
type Conn struct {
	// The wrapped conn. Close, addresses and deadlines pass through, so the
	// victim's deadlines keep bounding every read and write under attack.
	net.Conn
	eng     *Engine
	site    string
	profile Profile

	rd dirState // server→client units, consumed by Read
	wr dirState // client→server units, produced by Write
}

type dirState struct {
	mu   sync.Mutex
	leg  string // "<site>:read" / "<site>:write"
	step step
	// pending accumulates raw bytes until a whole unit is parseable
	// (write side; the read side assembles units with blocking reads).
	pending []byte
	// out is transformed bytes ready to deliver to the local reader.
	out []byte
	// held is a unit parked by Reorder, released before the next unit.
	held []byte
	// raw disables parsing: the stream degraded to passthrough (oversized
	// header or post-attack desync); remaining bytes flow untouched.
	raw bool
}

// WrapConn interposes the adversary on conn. site names the channel in legs
// and rule matching ("storage-01", "rebuild:storage-02", "ctl:ingest").
func WrapConn(inner net.Conn, site string, profile Profile, eng *Engine) *Conn {
	c := &Conn{Conn: inner, eng: eng, site: site, profile: profile}
	c.rd.leg = site + ":read"
	c.wr.leg = site + ":write"
	switch profile {
	case CtlProfile:
		c.rd.step = stepBanner
		c.wr.step = stepPubkey
	case StorageProfile:
		c.rd.step = stepPubkey
		c.wr.step = stepPreamble
	default:
		c.rd.step = stepPubkey
		c.wr.step = stepPubkey
	}
	return c
}

var _ net.Conn = (*Conn)(nil)

// forgeFrame fabricates a plausible ciphertext frame from the decision's
// deterministic entropy.
func forgeFrame(dec faultinject.Fault) []byte {
	frame := make([]byte, frameHeaderLen+forgedFrameBody)
	binary.BigEndian.PutUint32(frame, forgedFrameBody)
	dec.Fill(frame[frameHeaderLen:])
	return frame
}

// forgeBanner fabricates a plaintext overload banner with a deterministic —
// and deliberately hostile — retry-after (up to ~49 days), probing that the
// client treats the hint as bounded.
func forgeBanner(bits uint64) []byte {
	b := make([]byte, 5)
	b[0] = 0x01
	binary.LittleEndian.PutUint32(b[1:], uint32(bits|0x40000000))
	return b
}

// stepLeg suffixes a leg with the protocol step, so sweeps can target the
// handshake units independently of steady-state frames.
var stepLeg = [...]string{stepBanner: ":banner", stepPreamble: ":preamble", stepPubkey: ":pubkey", stepFrame: ""}

// attack resolves one unit through the engine: the genuine unit was just
// assembled on d's current step; the return value is what the peer (or the
// local reader) actually gets. Steps advance here, so the parser and the
// attack schedule can never drift apart.
func (c *Conn) attack(d *dirState, unit []byte) []byte {
	leg := d.leg + stepLeg[d.step]
	dec := c.eng.Decide(leg)

	// Whatever happens, a Reorder-parked unit is released first: it rides
	// immediately in front of the unit after the one that displaced it.
	var out []byte
	if d.held != nil {
		out = append(out, d.held...)
		d.held = nil
	}

	switch d.step {
	case stepBanner:
		if dec.Class == faultinject.Banner {
			out = append(out, forgeBanner(dec.Bits)...)
		} else {
			out = append(out, unit...)
		}
		d.step = stepPubkey
		return out
	case stepPreamble, stepPubkey:
		// Identity units: Replay/Splice substitute a recorded counterpart
		// (cross-session identity stitched into connection setup); other
		// classes are frame-shaped and pass the unit through.
		sub := unit
		switch dec.Class {
		case faultinject.Replay:
			if r := c.eng.sameLeg(leg, dec.Bits, len(unit)); r != nil {
				sub = r
			}
		case faultinject.Splice:
			if r := c.eng.otherLeg(leg, dec.Bits, len(unit)); r != nil {
				sub = r
			}
		}
		c.eng.Remember(leg, unit)
		if d.step == stepPreamble {
			d.step = stepPubkey
		} else {
			d.step = stepFrame
		}
		return append(out, sub...)
	}

	// Steady-state AEAD frame.
	switch dec.Class {
	case faultinject.Replay:
		sub := c.eng.sameLeg(leg, dec.Bits, anySize)
		if sub == nil {
			sub = forgeFrame(dec)
		}
		c.eng.Remember(leg, unit) // the suppressed genuine frame joins the library
		return append(out, sub...)
	case faultinject.Splice:
		sub := c.eng.otherLeg(leg, dec.Bits, anySize)
		if sub == nil {
			// No foreign material yet: a same-leg frame from an earlier
			// (re-keyed) session is still a cross-session splice; failing
			// that, forge.
			if sub = c.eng.sameLeg(leg, dec.Bits, anySize); sub == nil {
				sub = forgeFrame(dec)
			}
		}
		c.eng.Remember(leg, unit)
		return append(out, sub...)
	case faultinject.Duplicate:
		c.eng.Remember(leg, unit)
		out = append(out, unit...)
		return append(out, unit...)
	case faultinject.Reorder:
		// Park the genuine frame; something older (recorded, else forged)
		// takes its place. The parked frame is released before the next
		// unit — frames k and k+1 arrive swapped.
		swap := c.eng.sameLeg(leg, dec.Bits, anySize)
		if swap == nil {
			swap = forgeFrame(dec)
		}
		c.eng.Remember(leg, unit)
		d.held = append([]byte(nil), unit...)
		return append(out, swap...)
	case faultinject.Inject:
		c.eng.Remember(leg, unit)
		out = append(out, forgeFrame(dec)...)
		return append(out, unit...)
	}
	c.eng.Remember(leg, unit)
	return append(out, unit...)
}

// unitSize inspects the front of buf and reports how many bytes the current
// unit occupies, or 0 when more bytes are needed. ok=false degrades the
// stream to raw passthrough (unparseable header).
func (d *dirState) unitSize(buf []byte) (n int, ok bool) {
	switch d.step {
	case stepBanner:
		if len(buf) < 1 {
			return 0, true
		}
		if buf[0] == 0x01 {
			if len(buf) < 5 {
				return 0, true
			}
			return 5, true
		}
		return 1, true
	case stepPreamble:
		if len(buf) < 1 {
			return 0, true
		}
		if len(buf) < 1+int(buf[0]) {
			return 0, true
		}
		return 1 + int(buf[0]), true
	case stepPubkey:
		if len(buf) < pubkeyLen {
			return 0, true
		}
		return pubkeyLen, true
	default:
		if len(buf) < frameHeaderLen {
			return 0, true
		}
		body := binary.BigEndian.Uint32(buf)
		if body > maxParseFrame {
			return 0, false
		}
		if uint64(len(buf)) < frameHeaderLen+uint64(body) {
			return 0, true
		}
		return frameHeaderLen + int(body), true
	}
}

// Write carries client→server bytes. Units are cut out of the (possibly
// partial) byte stream, attacked, and forwarded; a trailing partial unit
// waits for the next Write. The call reports the full len(b) consumed on
// success — the adversary owns the discrepancy between what the caller sent
// and what the peer received.
func (c *Conn) Write(b []byte) (int, error) {
	d := &c.wr
	d.mu.Lock()
	if d.raw {
		d.mu.Unlock()
		return c.Conn.Write(b)
	}
	d.pending = append(d.pending, b...)
	var outbound []byte
	for {
		n, ok := d.unitSize(d.pending)
		if !ok {
			// Unparseable: flush what we have and fall back to passthrough.
			d.raw = true
			outbound = append(outbound, d.pending...)
			d.pending = nil
			break
		}
		if n == 0 {
			break
		}
		unit := d.pending[:n:n]
		d.pending = append([]byte(nil), d.pending[n:]...)
		outbound = append(outbound, c.attack(d, unit)...)
	}
	d.mu.Unlock()
	if len(outbound) > 0 {
		if _, err := c.Conn.Write(outbound); err != nil {
			return 0, err
		}
	}
	return len(b), nil
}

// Read carries server→client bytes. It serves from the transformed output
// queue, assembling (and attacking) one whole unit from the inner connection
// whenever the queue runs dry. Assembly blocks exactly like the untampered
// read would, and honors whatever read deadline the caller armed.
func (c *Conn) Read(b []byte) (int, error) {
	d := &c.rd
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.out) == 0 {
		if d.raw {
			return c.Conn.Read(b)
		}
		if err := c.assembleLocked(d); err != nil {
			return 0, err
		}
	}
	n := copy(b, d.out)
	d.out = append([]byte(nil), d.out[n:]...)
	return n, nil
}

// assembleLocked blocks until one whole unit is read from inner, attacks it,
// and appends the result to d.out. An attack may legitimately produce bytes
// for several Recv calls (Duplicate) or none at all this round (a Reorder
// whose substitute is empty can't happen — substitutes are never empty), so
// the Read loop re-checks the queue.
func (c *Conn) assembleLocked(d *dirState) error {
	var buf []byte
	tmp := make([]byte, 4096)
	for {
		n, ok := d.unitSize(buf)
		if !ok {
			d.raw = true
			d.out = append(d.out, buf...)
			return nil
		}
		if n > 0 {
			d.out = append(d.out, c.attack(d, buf[:n:n])...)
			if n == len(buf) {
				return nil
			}
			// More than one unit arrived in one gulp: run the parser on the
			// tail too.
			buf = append([]byte(nil), buf[n:]...)
			continue
		}
		rn, err := c.Conn.Read(tmp)
		if rn > 0 {
			buf = append(buf, tmp[:rn]...)
			continue
		}
		if err != nil {
			if len(buf) > 0 {
				// Partial unit at stream end: deliver it raw so the caller
				// sees the same truncation the wire carried.
				d.out = append(d.out, buf...)
				return nil
			}
			return err
		}
	}
}
