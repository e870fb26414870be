package ctl

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"ironsafe/internal/resilience"
)

func startServer(t *testing.T, psk []byte) (string, *Server) {
	return startServerWith(t, psk, nil)
}

// startServerWith configures the server BEFORE the accept loop starts, so
// admission knobs are never mutated under a running Serve.
func startServerWith(t *testing.T, psk []byte, configure func(*Server)) (string, *Server) {
	t.Helper()
	srv := NewServer(psk)
	if configure != nil {
		configure(srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go srv.Serve(ln)
	return ln.Addr().String(), srv
}

type echoReq struct {
	Msg string `json:"msg"`
}

func TestCallRoundTrip(t *testing.T) {
	addr, srv := startServer(t, []byte("psk"))
	srv.Handle("echo", func(req []byte) (any, error) {
		return map[string]string{"got": string(req)}, nil
	})
	c, err := Dial(addr, []byte("psk"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var resp map[string]string
	if err := c.Call("echo", echoReq{Msg: "hi"}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp["got"] != `{"msg":"hi"}` {
		t.Errorf("resp = %v", resp)
	}
}

func TestHandlerError(t *testing.T) {
	addr, srv := startServer(t, []byte("psk"))
	srv.Handle("boom", func([]byte) (any, error) {
		return nil, errors.New("kaput")
	})
	c, err := Dial(addr, []byte("psk"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Call("boom", nil, nil)
	if err == nil || !contains(err.Error(), "kaput") {
		t.Errorf("err = %v", err)
	}
	// The connection survives an error and serves the next call.
	srv.Handle("ok", func([]byte) (any, error) { return 1, nil })
	var n int
	if err := c.Call("ok", nil, &n); err != nil || n != 1 {
		t.Errorf("post-error call: %v, %d", err, n)
	}
}

func TestUnknownCommand(t *testing.T) {
	addr, _ := startServer(t, []byte("psk"))
	c, err := Dial(addr, []byte("psk"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("nope", nil, nil); err == nil {
		t.Error("unknown command accepted")
	}
}

func TestWrongPSKRejected(t *testing.T) {
	addr, _ := startServer(t, []byte("right"))
	if _, err := Dial(addr, []byte("wrong")); err == nil {
		t.Error("wrong psk connected")
	}
}

func TestConcurrentClients(t *testing.T) {
	addr, srv := startServer(t, []byte("psk"))
	srv.Handle("inc", func(req []byte) (any, error) {
		return len(req), nil
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr, []byte("psk"))
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				var n int
				if err := c.Call("inc", echoReq{Msg: "x"}, &n); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestOverloadRefusalIsTyped(t *testing.T) {
	addr, srv := startServerWith(t, []byte("psk"), func(s *Server) {
		s.MaxConns = 1
		s.RetryAfter = 250 * time.Millisecond
	})
	srv.Handle("ping", func([]byte) (any, error) { return 1, nil })

	hold, err := Dial(addr, []byte("psk"))
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()

	// No queue configured: saturation refuses immediately, with the typed
	// banner instead of a silent close. The dial retries through each
	// refusal by design (no Sleep: without waiting) and, once its attempts
	// are spent, surfaces the last one.
	_, err = DialResilient(addr, []byte("psk"), resilience.Config{}.WithDefaults())
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	var oe *OverloadedError
	if !errors.As(err, &oe) || oe.RetryAfter != 250*time.Millisecond {
		t.Fatalf("err = %v, want advertised 250ms retry-after", err)
	}
	if _, _, shed := srv.Stats(); shed != resilience.DialAttempts {
		t.Errorf("shed = %d, want one per attempt, %d", shed, resilience.DialAttempts)
	}
	// The held connection still serves.
	var n int
	if err := hold.Call("ping", nil, &n); err != nil || n != 1 {
		t.Errorf("held connection broken: %v", err)
	}
}

func TestQueueAdmitsWhenSlotFrees(t *testing.T) {
	addr, srv := startServerWith(t, []byte("psk"), func(s *Server) {
		s.MaxConns = 1
		s.MaxQueue = 1
		s.QueueWait = 5 * time.Second
	})
	srv.Handle("ping", func([]byte) (any, error) { return 1, nil })

	hold, err := Dial(addr, []byte("psk"))
	if err != nil {
		t.Fatal(err)
	}

	type dialOut struct {
		c   *Client
		err error
	}
	ch := make(chan dialOut, 1)
	go func() {
		c, err := Dial(addr, []byte("psk"))
		ch <- dialOut{c, err}
	}()
	// Wait until the second connection is actually queued, then free the slot.
	waitFor(t, func() bool { _, q, _ := srv.Stats(); return q == 1 })

	// A third connection finds the queue full and is refused.
	if _, err := Dial(addr, []byte("psk")); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queue-full dial: err = %v, want ErrOverloaded", err)
	}

	hold.Close()
	out := <-ch
	if out.err != nil {
		t.Fatalf("queued dial should be admitted once the slot frees: %v", out.err)
	}
	defer out.c.Close()
	var n int
	if err := out.c.Call("ping", nil, &n); err != nil || n != 1 {
		t.Errorf("admitted-from-queue connection broken: %v", err)
	}
}

func TestQueueWaitExpiryRefusesTyped(t *testing.T) {
	addr, srv := startServerWith(t, []byte("psk"), func(s *Server) {
		s.MaxConns = 1
		s.MaxQueue = 1
		s.QueueWait = 30 * time.Millisecond
	})

	hold, err := Dial(addr, []byte("psk"))
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()
	if _, err := DialResilient(addr, []byte("psk"), resilience.Config{}.WithDefaults()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("expired queue wait: err = %v, want ErrOverloaded", err)
	}
	if _, q, shed := srv.Stats(); q != 0 || shed != resilience.DialAttempts {
		t.Errorf("stats after expiry: queued=%d shed=%d, want 0, one per attempt (%d)", q, shed, resilience.DialAttempts)
	}
}

// waitFor polls cond until it holds or the watchdog expires.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within watchdog")
		}
		time.Sleep(time.Millisecond)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
