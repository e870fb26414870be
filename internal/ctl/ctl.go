// Package ctl is the control-plane RPC layer the distributed binaries
// (ironsafe-monitor, ironsafe-host, ironsafe-storage, ironsafe-client) use:
// JSON request/response frames over the session-key-bound secure transport,
// authenticated with a deployment provisioning key (the stand-in for the
// out-of-band provisioning a production rollout would use).
package ctl

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"ironsafe/internal/resilience"
	"ironsafe/internal/transport"
)

// Handler serves one command.
type Handler func(req []byte) (any, error)

// ErrOverloaded reports that the control server refused the connection with
// an overload response (typed admission control, not a silent close): the
// client should back off for the advertised retry-after and try again.
var ErrOverloaded = errors.New("ctl: server overloaded")

// MaxBannerRetryAfter caps the retry-after a client will honor from an
// overload banner. The banner is plaintext and pre-handshake — the one
// protocol unit a man-in-the-middle can forge without key material — so its
// retry-after is a *hint*, never an authenticated instruction: an adversary
// advertising a huge backoff can delay a client by at most this much per
// attempt, not deny it.
const MaxBannerRetryAfter = 2 * time.Second

// OverloadedError carries the server's advertised retry-after alongside
// ErrOverloaded.
type OverloadedError struct {
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("ctl: server overloaded, retry after %v", e.RetryAfter)
}

// Unwrap ties the typed response to ErrOverloaded.
func (e *OverloadedError) Unwrap() error { return ErrOverloaded }

// Admission banner: one plaintext byte the server sends on every accepted
// connection BEFORE the secure handshake, so an overloaded server can refuse
// cheaply — without spending a key exchange on a connection it is about to
// drop — and the client still learns why it was refused (a silent close is
// indistinguishable from a network fault and provokes immediate retries,
// the exact wrong response to overload).
const (
	bannerProceed    = 0x00
	bannerOverloaded = 0x01 // followed by a 4-byte LE retry-after in ms, then close
)

// Server dispatches control commands.
type Server struct {
	psk      []byte
	mu       sync.RWMutex
	handlers map[string]Handler

	// Logf, when set, receives diagnostics the accept/dispatch loop would
	// otherwise have to swallow: failed handshakes, panicking handlers,
	// shed connections. Nil discards them.
	Logf func(format string, args ...any)

	// MaxConns bounds concurrently served connections. Excess connections
	// enter the bounded admission queue (MaxQueue) when there is room, and
	// are otherwise refused with a typed overload banner carrying a
	// retry-after — never silently closed. Zero means unlimited.
	MaxConns int

	// MaxQueue bounds how many connections may wait for a serving slot when
	// the server is at MaxConns. Zero disables queueing: saturation refuses
	// immediately.
	MaxQueue int

	// QueueWait bounds how long a queued connection waits for a slot before
	// it is refused with the overload banner. Zero means 1s; negative waits
	// without bound (the client's own dial deadline still applies).
	QueueWait time.Duration

	// RetryAfter is the backoff the overload banner advertises to refused
	// clients. Zero means 1s.
	RetryAfter time.Duration

	// Pressure, when set, is notified on overload-pressure transitions:
	// true when the server saturates (every slot busy, or connections
	// queued), false when the pressure drains. It is an observer hook:
	// nothing in this module sheds load on it.
	Pressure func(on bool)

	// HandshakeTimeout bounds the secure-transport handshake per accepted
	// connection so a silent client cannot pin a serving goroutine forever.
	// Zero disables the bound.
	HandshakeTimeout time.Duration

	// AcceptBackoff is the pause after a transient Accept error (e.g.
	// EMFILE) before retrying, preventing a hot error loop. Sleep is the
	// injectable pacer for it; nil skips the pause (tests), and binaries
	// should set resilience.RealSleep.
	AcceptBackoff time.Duration
	Sleep         func(time.Duration)

	semOnce sync.Once
	sem     chan struct{}

	statMu   sync.Mutex
	active   int
	queued   int
	shed     int
	pressure bool
}

// NewServer creates a control server bound to the provisioning key.
func NewServer(psk []byte) *Server {
	return &Server{psk: psk, handlers: map[string]Handler{}}
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// Handle registers a command handler.
func (s *Server) Handle(cmd string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[cmd] = h
}

// Stats reports the admission state: connections being served, connections
// waiting in the admission queue, and connections refused with the overload
// banner since the server started.
func (s *Server) Stats() (active, queued, shed int) {
	s.statMu.Lock()
	defer s.statMu.Unlock()
	return s.active, s.queued, s.shed
}

// adjust applies one accounting delta under the stats lock and fires the
// Pressure callback (outside the lock) on overload-pressure transitions.
func (s *Server) adjust(dActive, dQueued, dShed int) {
	s.statMu.Lock()
	fire, on, cb := s.adjustLocked(dActive, dQueued, dShed)
	s.statMu.Unlock()
	if fire && cb != nil {
		cb(on)
	}
}

// adjustLocked applies the delta and recomputes overload pressure: any
// connection queued, or every serving slot busy. Caller holds statMu.
func (s *Server) adjustLocked(dActive, dQueued, dShed int) (fire, on bool, cb func(bool)) {
	s.active += dActive
	s.queued += dQueued
	s.shed += dShed
	on = s.queued > 0 || (s.MaxConns > 0 && s.active >= s.MaxConns)
	fire = on != s.pressure
	s.pressure = on
	return fire, on, s.Pressure
}

// tryEnqueue atomically claims a queue slot if the bounded queue has room.
func (s *Server) tryEnqueue() bool {
	s.statMu.Lock()
	if s.MaxQueue <= 0 || s.queued >= s.MaxQueue {
		s.statMu.Unlock()
		return false
	}
	fire, on, cb := s.adjustLocked(0, 1, 0)
	s.statMu.Unlock()
	if fire && cb != nil {
		cb(on)
	}
	return true
}

func (s *Server) queueWait() time.Duration {
	switch {
	case s.QueueWait > 0:
		return s.QueueWait
	case s.QueueWait < 0:
		return 0 // unbounded
	default:
		return time.Second
	}
}

func (s *Server) retryAfter() time.Duration {
	if s.RetryAfter > 0 {
		return s.RetryAfter
	}
	return time.Second
}

// refuse sends the overload banner — 0x01 plus the 4-byte LE retry-after in
// milliseconds — and closes the connection.
func (s *Server) refuse(conn net.Conn) {
	s.adjust(0, 0, 1)
	s.logf("ctl: shedding connection from %v: at MaxConns=%d", conn.RemoteAddr(), s.MaxConns)
	frame := make([]byte, 5)
	frame[0] = bannerOverloaded
	ms := s.retryAfter().Milliseconds()
	if ms < 1 {
		ms = 1
	}
	binary.LittleEndian.PutUint32(frame[1:], uint32(ms))
	if s.HandshakeTimeout > 0 {
		conn.SetDeadline(time.Now().Add(s.HandshakeTimeout)) //ironsafe:allow wallclock -- bounding the refusal write against a wedged peer
	}
	//ironsafe:allow rawnet -- plaintext pre-handshake overload banner, deadline-guarded by the SetDeadline above
	conn.Write(frame)
	conn.Close()
}

// proceed sends the admission banner and commits the slot accounting. On a
// dead connection the reserved slot (if any) is returned.
func (s *Server) proceed(conn net.Conn, slot bool) bool {
	s.adjust(1, 0, 0)
	//ironsafe:allow rawnet -- plaintext pre-handshake admission banner; the handshake deadline in handleConn bounds the connection right after
	if _, err := conn.Write([]byte{bannerProceed}); err != nil {
		s.adjust(-1, 0, 0)
		if slot {
			<-s.sem
		}
		conn.Close()
		return false
	}
	return true
}

// admit runs admission control for one accepted connection: immediate slot,
// bounded queue, or typed overload refusal. It reports whether the caller
// owns a serving slot and must release it.
func (s *Server) admit(conn net.Conn) bool {
	if s.MaxConns <= 0 {
		return s.proceed(conn, false)
	}
	s.semOnce.Do(func() { s.sem = make(chan struct{}, s.MaxConns) })
	select {
	case s.sem <- struct{}{}:
		return s.proceed(conn, true)
	default:
	}
	// At capacity: wait in the bounded queue if there is room.
	if !s.tryEnqueue() {
		s.refuse(conn)
		return false
	}
	var expired <-chan time.Time
	if wait := s.queueWait(); wait > 0 {
		expired = time.After(wait) //ironsafe:allow wallclock -- genuinely real-time bound on how long a queued control connection may wait
	}
	select {
	case s.sem <- struct{}{}:
		s.adjust(0, -1, 0)
		return s.proceed(conn, true)
	case <-expired:
		s.adjust(0, -1, 0)
		s.refuse(conn)
		return false
	}
}

func (s *Server) release() {
	if s.MaxConns > 0 {
		<-s.sem
	}
	s.adjust(-1, 0, 0)
}

// Serve accepts control connections until the listener closes. Transient
// accept errors back off and retry; only a dead listener ends the loop.
// Each connection passes admission control first: a serving slot when free,
// the bounded queue when saturated, and a typed overload refusal (banner +
// retry-after) when the queue is full or the wait expires.
func (s *Server) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if isTransient(err) {
				s.logf("ctl: transient accept error, backing off: %v", err)
				if s.Sleep != nil && s.AcceptBackoff > 0 {
					s.Sleep(s.AcceptBackoff)
				}
				continue
			}
			return err
		}
		go func() {
			if !s.admit(conn) {
				return
			}
			defer s.release()
			s.handleConn(conn)
		}()
	}
}

// isTransient reports whether an accept error is worth retrying.
func isTransient(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	if s.HandshakeTimeout > 0 {
		conn.SetDeadline(time.Now().Add(s.HandshakeTimeout)) //ironsafe:allow wallclock -- bounding the handshake against silent clients
	}
	sc, err := transport.Server(conn, s.psk, nil)
	if err != nil {
		// A failed handshake is a signal — misprovisioned peer, replayed
		// session key, or active attack — never silently discard it.
		s.logf("ctl: handshake with %v failed: %v", conn.RemoteAddr(), err)
		return
	}
	if s.HandshakeTimeout > 0 {
		conn.SetDeadline(time.Time{})
	}
	defer sc.Close()
	for {
		cmd, payload, err := sc.Recv()
		if err != nil {
			return
		}
		s.mu.RLock()
		h, ok := s.handlers[cmd]
		s.mu.RUnlock()
		if !ok {
			sc.Send("error", []byte("unknown command "+cmd))
			continue
		}
		out, err := s.dispatch(cmd, h, payload)
		if err != nil {
			sc.Send("error", []byte(err.Error()))
			continue
		}
		blob, err := json.Marshal(out)
		if err != nil {
			sc.Send("error", []byte(err.Error()))
			continue
		}
		sc.Send("ok", blob)
	}
}

// dispatch runs a handler, converting a panic into an error response so one
// bad request cannot take down the control plane.
func (s *Server) dispatch(cmd string, h Handler, payload []byte) (out any, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.logf("ctl: handler %q panicked: %v", cmd, r)
			err = fmt.Errorf("ctl: internal error handling %q", cmd)
		}
	}()
	return h(payload)
}

// Client is one control connection.
type Client struct {
	mu sync.Mutex
	sc *transport.SecureConn
	// broken poisons the client after a failed Send/Recv exchange: the
	// sequence-bound channel is desynced past repair (a later Recv could
	// only consume a frame belonging to the failed exchange), so every
	// subsequent Call fails fast instead of blocking on stale state.
	broken error
}

// Dial connects a control client with default resilience.
func Dial(addr string, psk []byte) (*Client, error) {
	return DialResilient(addr, psk, resilience.Config{Sleep: resilience.RealSleep}.WithDefaults())
}

// DialResilient connects a control client with retrying, deadline-bounded
// dial and handshake per the supplied resilience config. The server's
// admission banner is read first. An overload refusal is a *hint*, not a
// verdict: the client backs off for the advertised retry-after — capped at
// MaxBannerRetryAfter, since the banner is forgeable plaintext — and
// re-dials, up to cfg.DialAttempts connections. Only after exhausting the
// attempts does the typed *OverloadedError (errors.Is ErrOverloaded)
// surface, so a MITM forging overload banners can delay a client, never
// terminally deny it.
func DialResilient(addr string, psk []byte, cfg resilience.Config) (*Client, error) {
	attempts := cfg.DialAttempts
	if attempts < 1 {
		attempts = 1
	}
	var lastOverload error
	for i := 0; i < attempts; i++ {
		conn, err := resilience.DialTCP(addr, cfg)
		if err != nil {
			return nil, err
		}
		c, err := clientConn(conn, psk, cfg)
		if err == nil {
			return c, nil
		}
		conn.Close()
		var oe *OverloadedError
		if !errors.As(err, &oe) {
			return nil, fmt.Errorf("ctl: handshake with %s: %w", addr, err)
		}
		lastOverload = err
		if i+1 < attempts && cfg.Sleep != nil {
			cfg.Sleep(capRetryAfter(oe.RetryAfter))
		}
	}
	return nil, lastOverload
}

// ClientConn runs the control-plane client side — admission banner, secure
// handshake, I/O timeout — over an already-established connection. It is
// DialResilient minus the dialing, for deployments that bring their own
// connections (in-process pipes, custom tunnels). An overload refusal
// surfaces as the typed *OverloadedError with its retry-after capped at
// MaxBannerRetryAfter; the caller owns re-dialing.
func ClientConn(conn net.Conn, psk []byte, cfg resilience.Config) (*Client, error) {
	return clientConn(conn, psk, cfg)
}

func clientConn(conn net.Conn, psk []byte, cfg resilience.Config) (*Client, error) {
	var sc *transport.SecureConn
	hsErr := resilience.WithConnDeadline(conn, cfg.HandshakeTimeout, func() error {
		if err := readBanner(conn); err != nil {
			return err
		}
		var err error
		sc, err = transport.Client(conn, psk, nil)
		return err
	})
	if hsErr != nil {
		return nil, hsErr
	}
	if cfg.IOTimeout > 0 {
		sc.SetIOTimeout(cfg.IOTimeout)
	}
	return &Client{sc: sc}, nil
}

// capRetryAfter bounds an advertised (unauthenticated) retry-after to
// [1ms, MaxBannerRetryAfter].
func capRetryAfter(d time.Duration) time.Duration {
	if d > MaxBannerRetryAfter {
		return MaxBannerRetryAfter
	}
	if d < time.Millisecond {
		return time.Millisecond
	}
	return d
}

// readBanner consumes the server's plaintext admission banner. A proceed
// byte returns nil; an overload byte returns the typed refusal with its
// retry-after payload.
func readBanner(conn net.Conn) error {
	var b [1]byte
	if _, err := io.ReadFull(conn, b[:]); err != nil {
		return fmt.Errorf("ctl: reading admission banner: %w", err)
	}
	switch b[0] {
	case bannerProceed:
		return nil
	case bannerOverloaded:
		retry := time.Second
		var ra [4]byte
		if _, err := io.ReadFull(conn, ra[:]); err == nil {
			retry = time.Duration(binary.LittleEndian.Uint32(ra[:])) * time.Millisecond
		}
		// The banner is forgeable plaintext: its retry-after is advisory and
		// is never honored past MaxBannerRetryAfter.
		return &OverloadedError{RetryAfter: capRetryAfter(retry)}
	default:
		return fmt.Errorf("ctl: unexpected admission banner 0x%02x", b[0])
	}
}

// NewClient wraps an already-established secure channel (used by tests and
// in-process deployments).
func NewClient(sc *transport.SecureConn) *Client { return &Client{sc: sc} }

// Call sends one command and decodes the JSON response into resp (which may
// be nil to discard).
func (c *Client) Call(cmd string, req any, resp any) error {
	blob, err := json.Marshal(req)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken != nil {
		return fmt.Errorf("ctl: connection poisoned by earlier exchange failure: %w", c.broken)
	}
	if err := c.sc.Send(cmd, blob); err != nil {
		c.broken = err
		return err
	}
	typ, payload, err := c.sc.Recv()
	if err != nil {
		c.broken = err
		return err
	}
	if typ == "error" {
		return fmt.Errorf("ctl: %s: %s", cmd, payload)
	}
	if resp == nil {
		return nil
	}
	return json.Unmarshal(payload, resp)
}

// Close closes the connection.
func (c *Client) Close() error { return c.sc.Close() }
