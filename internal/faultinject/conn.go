package faultinject

import (
	"net"
	"os"
	"sync"
	"time"
)

// Conn wraps a net.Conn and injects plan-scripted faults into Read and
// Write. Stalls cooperate with deadlines: a stalled operation returns
// os.ErrDeadlineExceeded when the deadline the caller armed fires, and
// net.ErrClosed if the connection is closed first — so a correctly
// deadline-guarded caller always unblocks, and an unguarded one hangs
// exactly the way a real hung peer would make it hang.
type Conn struct {
	net.Conn // the wrapped conn; addresses pass through
	node     string
	plan     *Plan

	mu        sync.Mutex
	readDL    time.Time
	writeDL   time.Time
	closed    bool
	done      chan struct{}
	poisoned  bool // a Reset/Truncate/Crash fired: all further I/O fails
	poisonErr error
}

// WrapConn instruments conn with the plan's faults. node names the peer in
// fault sites ("conn:<node>:read" / "conn:<node>:write") and is what the
// crash callback receives.
func WrapConn(inner net.Conn, node string, plan *Plan) *Conn {
	return &Conn{Conn: inner, node: node, plan: plan, done: make(chan struct{})}
}

var _ net.Conn = (*Conn)(nil)

// fail poisons the connection and closes the inner conn so the peer also
// observes the fault.
func (c *Conn) fail(f Fault) error {
	err := &InjectedError{Class: f.Class, Site: f.Site}
	c.mu.Lock()
	if !c.poisoned {
		c.poisoned = true
		c.poisonErr = err
	}
	c.mu.Unlock()
	c.Close()
	return err
}

// stall blocks until the relevant deadline fires or the conn is closed.
func (c *Conn) stall(read bool) error {
	c.mu.Lock()
	dl := c.writeDL
	if read {
		dl = c.readDL
	}
	done := c.done
	c.mu.Unlock()
	if dl.IsZero() {
		<-done // no deadline armed: hang until the conn dies, like a real hung peer
		return net.ErrClosed
	}
	d := time.Until(dl) //ironsafe:allow wallclock -- stall must honor the victim's real I/O deadline
	if d <= 0 {
		return os.ErrDeadlineExceeded
	}
	t := time.NewTimer(d) //ironsafe:allow wallclock -- stall must honor the victim's real I/O deadline
	defer t.Stop()
	select {
	case <-t.C:
		return os.ErrDeadlineExceeded
	case <-done:
		return net.ErrClosed
	}
}

// begin decides the next operation on one direction and mounts the classes
// that act before any byte moves: a poisoned conn, Reset, Crash and Stall end
// the operation with an error, Slow delays it.
func (c *Conn) begin(read bool) (Fault, error) {
	c.mu.Lock()
	poisoned, err := c.poisoned, c.poisonErr
	c.mu.Unlock()
	if poisoned {
		return Fault{}, err
	}
	site := "conn:" + c.node + ":write"
	if read {
		site = "conn:" + c.node + ":read"
	}
	f := c.plan.Decide(site)
	switch f.Class {
	case Reset:
		return f, c.fail(f)
	case Crash:
		err := c.fail(f)
		c.plan.notifyCrash(c.node)
		return f, err
	case Stall:
		return f, c.stall(read)
	case Slow:
		if d := c.plan.SlowDelay; d > 0 {
			time.Sleep(d) //ironsafe:allow wallclock -- injected slow-peer latency, bounded below the I/O deadline
		}
	}
	return f, nil
}

// Read implements net.Conn with fault injection.
func (c *Conn) Read(b []byte) (int, error) {
	f, err := c.begin(true)
	if err != nil {
		return 0, err
	}
	n, err := c.Conn.Read(b)
	switch f.Class {
	case Corrupt:
		if n > 0 {
			f.flip(b[:n])
		}
	case Truncate:
		if n > 1 {
			n /= 2
		}
		c.fail(f)
		return n, nil // deliver the prefix; the next read fails
	}
	return n, err
}

// Write implements net.Conn with fault injection.
func (c *Conn) Write(b []byte) (int, error) {
	f, err := c.begin(false)
	if err != nil {
		return 0, err
	}
	switch f.Class {
	case Corrupt:
		if len(b) > 0 {
			// Flip one bit of the outgoing bytes (never the caller's buffer).
			tainted := append([]byte(nil), b...)
			f.flip(tainted)
			return c.Conn.Write(tainted)
		}
	case Truncate:
		if len(b) > 1 {
			n, _ := c.Conn.Write(b[:len(b)/2])
			c.fail(f)
			return n, &InjectedError{Class: Truncate, Site: f.Site}
		}
		return 0, c.fail(f)
	}
	return c.Conn.Write(b)
}

// Close implements net.Conn.
func (c *Conn) Close() error {
	c.mu.Lock()
	closed := c.closed
	c.closed = true
	c.mu.Unlock()
	if !closed {
		close(c.done)
	}
	return c.Conn.Close()
}

// SetDeadline implements net.Conn, tracking the deadline for stalls and
// forwarding it to the wrapped conn.
func (c *Conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDL, c.writeDL = t, t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDL = t
	c.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.writeDL = t
	c.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}
