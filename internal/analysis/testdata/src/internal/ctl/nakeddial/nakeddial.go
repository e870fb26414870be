// Package nakeddial dials and reads raw connections from a net-trusted
// package (internal/ctl passes the boundary check) — exactly the hole the
// rawnet analyzer closes: no timeout on the dial, no deadline on the read.
package nakeddial

import (
	"net"
	"time"
)

func dial() (net.Conn, error) {
	return net.Dial("tcp", "127.0.0.1:9") // want `naked net.Dial`
}

func dialTimeout() (net.Conn, error) {
	return net.DialTimeout("tcp", "127.0.0.1:9", time.Second) // want `naked net.DialTimeout`
}

func read(conn net.Conn, buf []byte) (int, error) {
	return conn.Read(buf) // want `raw conn.Read outside the channel wrappers`
}

type peer struct {
	conn net.Conn
}

func (p *peer) send(b []byte) (int, error) {
	return p.conn.Write(b) // want `raw conn.Write outside the channel wrappers`
}

// echo writes to a net.Conn whose name says nothing about connections.
func echo(c net.Conn, b []byte) (int, error) {
	return c.Write(b) // want `raw c.Write outside the channel wrappers`
}

func dialer(t time.Duration) (net.Conn, error) {
	return (&net.Dialer{Timeout: t}).Dial("tcp", "127.0.0.1:9") // want `naked Dialer.Dial`
}

// connStats counts reads; it is no connection, so its Read is no socket I/O.
type connStats struct{ n int }

func (s *connStats) Read(buf []byte) (int, error) {
	s.n++
	return 0, nil
}

type tracked struct {
	connStats *connStats
}

func count(t *tracked, buf []byte) (int, error) {
	return t.connStats.Read(buf)
}
