package ctl

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"ironsafe/internal/resilience"
)

// forgedBanner is what a MITM without key material can fabricate: the
// plaintext overload refusal with a hostile (~49 day) retry-after.
func forgedBanner() []byte {
	frame := make([]byte, 5)
	frame[0] = bannerOverloaded
	binary.LittleEndian.PutUint32(frame[1:], 0xFFFFFFFF)
	return frame
}

type sleepLog struct {
	mu     sync.Mutex
	sleeps []time.Duration
}

func (l *sleepLog) sleep(d time.Duration) {
	l.mu.Lock()
	l.sleeps = append(l.sleeps, d)
	l.mu.Unlock()
}

func (l *sleepLog) all() []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]time.Duration(nil), l.sleeps...)
}

// TestForgedBannerIsBoundedHint dials through an adversary that forges an
// overload banner with a huge retry-after on every connection. The client
// must treat the unauthenticated hint as bounded — every backoff capped at
// MaxBannerRetryAfter — and, after its dial attempts, surface the typed
// retryable *OverloadedError, never honor the hostile delay.
func TestForgedBannerIsBoundedHint(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Write(forgedBanner())
			conn.Close()
		}
	}()

	var log sleepLog
	cfg := resilience.Config{Sleep: log.sleep}.WithDefaults()
	_, err = DialResilient(ln.Addr().String(), []byte("psk"), cfg)
	var oe *OverloadedError
	if !errors.As(err, &oe) || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want typed *OverloadedError", err)
	}
	if oe.RetryAfter > MaxBannerRetryAfter {
		t.Fatalf("surfaced retry-after %v exceeds cap %v", oe.RetryAfter, MaxBannerRetryAfter)
	}
	sleeps := log.all()
	if len(sleeps) != resilience.DialAttempts-1 {
		t.Fatalf("backoffs = %v, want one between each of %d attempts", sleeps, resilience.DialAttempts)
	}
	for _, d := range sleeps {
		if d > MaxBannerRetryAfter || d <= 0 {
			t.Fatalf("backoff %v not bounded by (0, %v]", d, MaxBannerRetryAfter)
		}
	}
}

// TestForgedBannerDelaysNotDenies puts a forge-once MITM in front of a real
// server: the first connection gets a forged overload banner, later ones
// pass through. The dial must absorb the forgery — one bounded backoff — and
// land a working control session.
func TestForgedBannerDelaysNotDenies(t *testing.T) {
	addr, srv := startServer(t, []byte("psk"))
	srv.Handle("ping", func([]byte) (any, error) { return 1, nil })

	front, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { front.Close() })
	go func() {
		first := true
		for {
			conn, err := front.Accept()
			if err != nil {
				return
			}
			if first {
				first = false
				conn.Write(forgedBanner())
				conn.Close()
				continue
			}
			up, err := net.Dial("tcp", addr)
			if err != nil {
				conn.Close()
				continue
			}
			go func() { io.Copy(up, conn); up.Close() }()
			go func() { io.Copy(conn, up); conn.Close() }()
		}
	}()

	var log sleepLog
	cfg := resilience.Config{Sleep: log.sleep}.WithDefaults()
	c, err := DialResilient(front.Addr().String(), []byte("psk"), cfg)
	if err != nil {
		t.Fatalf("dial through forge-once adversary: %v", err)
	}
	defer c.Close()
	var n int
	if err := c.Call("ping", nil, &n); err != nil || n != 1 {
		t.Fatalf("call after absorbed forgery: %v, n=%d", err, n)
	}
	sleeps := log.all()
	if len(sleeps) != 1 || sleeps[0] > MaxBannerRetryAfter {
		t.Fatalf("backoffs = %v, want exactly one bounded backoff", sleeps)
	}
}

// TestClientConnRunsBannerAndHandshake exercises the bring-your-own-conn
// client path end to end against a real server.
func TestClientConnRunsBannerAndHandshake(t *testing.T) {
	addr, srv := startServer(t, []byte("psk"))
	srv.Handle("ping", func([]byte) (any, error) { return 7, nil })
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ClientConn(raw, []byte("psk"), resilience.Config{}.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var n int
	if err := c.Call("ping", nil, &n); err != nil || n != 7 {
		t.Fatalf("call = %v, n=%d", err, n)
	}
}
