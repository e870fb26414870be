package main

import (
	"net" //ironsafe:allow boundary -- the benchmark opens no socket: it only wraps the net.Conn that Config.ConnWrapper hands it, to count frames and bytes
	"sync/atomic"

	"ironsafe"
	"ironsafe/internal/pager"
	"ironsafe/internal/sql/exec"
	"ironsafe/internal/storageengine"
)

// wireCounts tallies what crosses the host side of every storage channel.
// A frame is one host-side write (preamble, key share, AEAD frame) or one
// 4-byte length-header read (the start of a received AEAD frame).
type wireCounts struct {
	frames, bytes atomic.Int64
}

// countConn is installed through Config.ConnWrapper.
type countConn struct {
	net.Conn
	c *wireCounts
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p) //ironsafe:allow rawnet -- pass-through counter; the wrapped transport arms its own deadlines
	c.c.frames.Add(1)
	c.c.bytes.Add(int64(n))
	return n, err
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p) //ironsafe:allow rawnet -- pass-through counter; the wrapped transport arms its own deadlines
	if len(p) == 4 {
		c.c.frames.Add(1)
	}
	c.c.bytes.Add(int64(n))
	return n, err
}

// countingHooks installs the counters on a cluster configuration.
func countingHooks(wire *wireCounts, dev *devCounts) hooks {
	return func(cfg *ironsafe.Config) {
		cfg.ConnWrapper = func(_ string, c net.Conn) net.Conn { return &countConn{Conn: c, c: wire} }
		cfg.StorageDeviceWrapper = func(_ string, d pager.BlockDevice) pager.BlockDevice {
			return &countDevice{BlockDevice: d, c: dev}
		}
	}
}

// devCounts tallies block-device operations.
type devCounts struct {
	reads, writes, bytesWritten atomic.Int64
}

// countDevice is installed through Config.StorageDeviceWrapper on the live
// cluster: counts only, no clock reads, safe under the read-ahead goroutine.
type countDevice struct {
	pager.BlockDevice
	c *devCounts
}

func (d *countDevice) ReadBlock(idx uint32) ([]byte, error) {
	d.c.reads.Add(1)
	return d.BlockDevice.ReadBlock(idx)
}

func (d *countDevice) WriteBlock(idx uint32, data []byte) error {
	d.c.writes.Add(1)
	d.c.bytesWritten.Add(int64(len(data)))
	return d.BlockDevice.WriteBlock(idx, data)
}

// timedDevice is the bottom of the layer-stack replay: a span per block op.
// Like the tracer it serves, it is used from one goroutine.
type timedDevice struct {
	pager.BlockDevice
	tr           *tracer
	bytesWritten int64
}

func (d *timedDevice) ReadBlock(idx uint32) ([]byte, error) {
	sp := d.tr.begin("device.ReadBlock", "device")
	b, err := d.BlockDevice.ReadBlock(idx)
	d.tr.end(sp, 1)
	return b, err
}

func (d *timedDevice) WriteBlock(idx uint32, data []byte) error {
	sp := d.tr.begin("device.WriteBlock", "device")
	err := d.BlockDevice.WriteBlock(idx, data)
	d.tr.end(sp, 1)
	d.bytesWritten += int64(len(data))
	return err
}

// timedStore sits between the engine and the secure store in the layer-stack
// replay. It keeps the store's transactional interface so the engine takes
// the same atomic-commit paths it takes on a storage node.
type timedStore struct {
	inner pager.TxnStore
	tr    *tracer
}

func (s *timedStore) ReadPage(idx uint32) ([]byte, error) {
	sp := s.tr.begin("securestore.ReadPage", "securestore")
	b, err := s.inner.ReadPage(idx)
	s.tr.end(sp, 1)
	return b, err
}

func (s *timedStore) ReadPages(idxs []uint32) ([][]byte, error) {
	sp := s.tr.begin("securestore.ReadPages", "securestore")
	b, err := s.inner.ReadPages(idxs)
	s.tr.end(sp, int64(len(idxs)))
	return b, err
}

func (s *timedStore) WritePage(idx uint32, data []byte) error {
	sp := s.tr.begin("securestore.WritePage", "securestore")
	err := s.inner.WritePage(idx, data)
	s.tr.end(sp, 1)
	return err
}

func (s *timedStore) Allocate() (uint32, error) {
	sp := s.tr.begin("securestore.Allocate", "securestore")
	idx, err := s.inner.Allocate()
	s.tr.end(sp, 1)
	return idx, err
}

func (s *timedStore) NumPages() uint32 { return s.inner.NumPages() }

func (s *timedStore) BeginTxn() pager.StoreTxn {
	return &timedTxn{StoreTxn: s.inner.BeginTxn(), tr: s.tr}
}

// timedTxn times the commit: journal write, page encryption, RPMB anchor.
type timedTxn struct {
	pager.StoreTxn
	tr *tracer
}

func (t *timedTxn) Commit() error {
	sp := t.tr.begin("securestore.Txn.Commit", "securestore")
	err := t.StoreTxn.Commit()
	t.tr.end(sp, 1)
	return err
}

// fragment is one captured offload: which fragment ran and the reply that
// came back. Later phases replay it layer by layer.
type fragment struct {
	table string
	sql   string
	res   *exec.Result
	blob  []byte
}

// tracedNode is the driver-owned hostengine.StorageNode of the cluster-path
// replay: it runs the fragment on the storage server in-process, under a
// span, and captures the reply.
type tracedNode struct {
	srv      *storageengine.Server
	tr       *tracer
	captured []fragment
}

func (n *tracedNode) NodeID() string {
	id, _, _ := n.srv.Info()
	return id
}

func (n *tracedNode) Offload(sql string) (*exec.Result, int64, error) {
	sp := n.tr.begin("node.Offload", "transport")
	defer func() { n.tr.end(sp, 1) }()
	ex := n.tr.begin("storageengine.ExecOffload", "storageengine")
	res, err := n.srv.ExecOffload(sql)
	if err != nil {
		n.tr.end(ex, 0)
		return nil, 0, err
	}
	n.tr.end(ex, int64(len(res.Rows)))
	enc := n.tr.begin("exec.EncodeResult", "exec")
	blob, err := exec.EncodeResult(res)
	n.tr.end(enc, int64(len(blob)))
	if err != nil {
		return nil, 0, err
	}
	n.captured = append(n.captured, fragment{sql: sql, res: res, blob: blob})
	return res, int64(len(blob)) + 8, nil
}
