package ctl

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ironsafe/internal/resilience"
)

// logBuf collects Logf output for assertions.
type logBuf struct {
	mu    sync.Mutex
	lines []string
}

func (l *logBuf) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logBuf) contains(sub string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.lines {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}

func TestHandshakeFailureIsLogged(t *testing.T) {
	var logs logBuf
	srv := NewServer([]byte("right"))
	srv.Logf = logs.logf
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go srv.Serve(ln)

	if _, err := Dial(ln.Addr().String(), []byte("wrong")); err == nil {
		t.Fatal("wrong psk connected")
	}
	deadline := time.Now().Add(2 * time.Second) //ironsafe:allow wallclock -- test watchdog
	for !logs.contains("handshake") {
		if time.Now().After(deadline) { //ironsafe:allow wallclock -- test watchdog
			t.Fatal("failed handshake was not logged")
		}
		time.Sleep(5 * time.Millisecond) //ironsafe:allow wallclock -- polling log buffer
	}
}

func TestPanickingHandlerRecovered(t *testing.T) {
	var logs logBuf
	srv := NewServer([]byte("psk"))
	srv.Logf = logs.logf
	srv.Handle("explode", func([]byte) (any, error) { panic("boom") })
	srv.Handle("ok", func([]byte) (any, error) { return 42, nil })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go srv.Serve(ln)

	c, err := Dial(ln.Addr().String(), []byte("psk"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("explode", nil, nil); err == nil {
		t.Error("panicking handler reported success")
	}
	if !logs.contains("panicked") {
		t.Error("panic was not logged")
	}
	// The connection and server both survive the panic.
	var n int
	if err := c.Call("ok", nil, &n); err != nil || n != 42 {
		t.Errorf("post-panic call: %v, %d", err, n)
	}
}

func TestMaxConnsSheds(t *testing.T) {
	var logs logBuf
	srv := NewServer([]byte("psk"))
	srv.Logf = logs.logf
	srv.MaxConns = 1
	srv.Handle("ok", func([]byte) (any, error) { return 1, nil })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go srv.Serve(ln)

	first, err := Dial(ln.Addr().String(), []byte("psk"))
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()

	// The second connection must be shed: its handshake dies because the
	// server closes the socket without answering.
	cfg := resilience.Config{HandshakeTimeout: time.Second}.WithDefaults()
	if _, err := DialResilient(ln.Addr().String(), []byte("psk"), cfg); err == nil {
		t.Error("connection beyond MaxConns was served")
	}
	if !logs.contains("shedding") {
		t.Error("shed connection was not logged")
	}

	// Releasing the first slot readmits new clients.
	first.Close()
	deadline := time.Now().Add(2 * time.Second) //ironsafe:allow wallclock -- test watchdog
	for {
		c, err := Dial(ln.Addr().String(), []byte("psk"))
		if err == nil {
			var n int
			if err := c.Call("ok", nil, &n); err == nil && n == 1 {
				c.Close()
				return
			}
			c.Close()
		}
		if time.Now().After(deadline) { //ironsafe:allow wallclock -- test watchdog
			t.Fatal("slot was never released after Close")
		}
		time.Sleep(10 * time.Millisecond) //ironsafe:allow wallclock -- polling for slot release
	}
}

func TestDialResilientDeadPortTyped(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cfg := resilience.Config{}.WithDefaults()
	start := time.Now() //ironsafe:allow wallclock -- asserting fail-fast wall time
	_, err = DialResilient(addr, []byte("psk"), cfg)
	if err == nil {
		t.Fatal("dial to dead port succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second { //ironsafe:allow wallclock -- asserting fail-fast wall time
		t.Errorf("dial took %v, want fail-fast", elapsed)
	}
}
