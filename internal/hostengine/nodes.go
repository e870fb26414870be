package hostengine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"ironsafe/internal/pager"
	"ironsafe/internal/resilience"
	"ironsafe/internal/simtime"
	"ironsafe/internal/sql/exec"
	"ironsafe/internal/tee/sgx"
	"ironsafe/internal/transport"
)

// RemoteNode is a StorageNode over a monitor-keyed secure channel.
type RemoteNode struct {
	ID   string
	Conn *transport.SecureConn

	// meter is the host's: the channel charges it the bytes it moves, and
	// Offload the rows each reply ships.
	meter *simtime.Meter

	// reqMu serializes whole request/response exchanges on the channel.
	// SecureConn's own mutexes serialize individual frames, but an offload is
	// a Send+Recv PAIR: two interleaved offloads on one channel would each
	// receive the other's in-order reply and absorb the wrong fragment's
	// rows. It also guards lastEpoch, which is only meaningful relative to
	// the exchange that produced it.
	reqMu     sync.Mutex
	lastEpoch uint64 // membership epoch stamped on the most recent reply

	// budget, when set, gates every offload: an exhausted budget refuses
	// the attempt locally, the remaining allowance rides the offload frame
	// so the storage node can enforce it at admission, and each attempt's
	// channel deadline is clipped to min(baseIOTimeout, remaining) so a
	// stalled fragment can never consume more real time than the query has
	// left.
	budget        *resilience.Budget
	baseIOTimeout time.Duration

	// broken poisons the channel after a failed exchange. The transport's
	// sequence-bound AEAD already guarantees a stale, duplicated, or spliced
	// frame can never be *accepted* (its nonce is wrong), but a channel that
	// failed mid-exchange is desynced past repair: a later Offload's Recv
	// would consume whatever frame belonged to the failed exchange and pay a
	// decrypt-and-reject round trip for it. Fail fast instead; the cluster
	// runtime already evicts reported-failed channels, so a poisoned node is
	// never reused for a fresh query.
	broken error

	// served, when set (ServedBy), is closed once the goroutine serving the
	// peer end of an in-process channel has returned.
	served <-chan struct{}
}

// ServedBy names the goroutine that serves this channel's peer end in the
// same process: done is closed when it has returned, and Close waits for it
// after a goodbye the peer took. A runtime that starts such a goroutine per
// query owns it; without the wait, one P that never idles runs each new
// query's goroutines ahead of the finished ones, which then pile up by the
// hundred, runnable and one step from exiting.
func (n *RemoteNode) ServedBy(done <-chan struct{}) { n.served = done }

// NewRemoteNode opens the session-bound channel to storage node nodeID over
// conn, a connection the caller established: TCP, an in-process pipe, or a
// fault-injecting or adversarial wrapper of either. It is the one place the
// host speaks the channel's opening: the plaintext preamble naming the
// session, then the monitor-keyed handshake, both under cfg's handshake
// deadline clipped to what bud has left. The handshake resumes from the ticket
// tickets holds for nodeID when there is one and leaves one for the next
// channel; nil tickets always runs the full exchange. A failed resumption
// fails like any failed handshake — the caller reports it and fails over;
// nothing here dials again. The node's offloads draw on bud (nil =
// unbudgeted) under cfg's I/O timeout, and meter takes the channel's bytes and
// the rows it ships. The conn is closed on failure.
func NewRemoteNode(conn net.Conn, nodeID, sessionID string, sessionKey []byte, meter *simtime.Meter, tickets *transport.TicketStore, bud *resilience.Budget, cfg resilience.Config) (*RemoteNode, error) {
	if len(sessionID) > 255 {
		conn.Close()
		return nil, errors.New("hostengine: session id too long")
	}
	var sc *transport.SecureConn
	err := resilience.WithBudgetedConnDeadline(conn, bud, cfg.HandshakeTimeout, func() error {
		pre := append([]byte{byte(len(sessionID))}, sessionID...)
		//ironsafe:allow rawnet -- preamble write under the handshake deadline armed around it
		if _, err := conn.Write(pre); err != nil {
			return err
		}
		var err error
		sc, err = transport.ClientResuming(conn, sessionKey, meter, tickets, nodeID)
		return err
	})
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("hostengine: channel to %s: %w", nodeID, err)
	}
	sc.SetIOTimeout(cfg.IOTimeout)
	return &RemoteNode{ID: nodeID, Conn: sc, meter: meter, budget: bud, baseIOTimeout: cfg.IOTimeout}, nil
}

// NodeID implements StorageNode.
func (n *RemoteNode) NodeID() string { return n.ID }

// unbudgetedMicros is the budget-prefix value meaning "no deadline budget".
// Any prefix below the storage node's minimum useful execution slice
// (storageengine.MinOffloadBudgetMicros) is refused at admission — including
// the 1µs floor declared for sub-µs remainders, so a nearly-dry budget fails
// typed at the server instead of burning TEE cycles on an unusable result.
const unbudgetedMicros = ^uint64(0)

// Offload implements StorageNode. The offload frame leads with an 8-byte
// little-endian remaining-budget prefix (µs) the storage node enforces at
// admission; a budgeted attempt also clips the channel deadline to the
// remaining slice.
func (n *RemoteNode) Offload(sql string) (*exec.Result, int64, error) {
	n.reqMu.Lock()
	defer n.reqMu.Unlock()
	if n.broken != nil {
		return nil, 0, fmt.Errorf("hostengine: channel to %s poisoned by earlier exchange failure: %w", n.ID, n.broken)
	}
	budgetMicros := unbudgetedMicros
	if n.budget != nil {
		if n.budget.Exhausted() {
			return nil, 0, fmt.Errorf("hostengine: offload to %s refused: %w", n.ID, resilience.ErrBudgetExhausted)
		}
		rem := n.budget.Remaining()
		if us := uint64(rem / time.Microsecond); us > 0 && us < unbudgetedMicros {
			budgetMicros = us
		} else {
			budgetMicros = 1 // sub-µs remainder: declared honestly, refused by the server's minimum-slice admission
		}
		if slice := n.budget.Slice(n.baseIOTimeout); slice > 0 {
			n.Conn.SetIOTimeout(slice)
			defer n.Conn.SetIOTimeout(n.baseIOTimeout)
		}
	}
	frame := make([]byte, 8, 8+len(sql))
	binary.LittleEndian.PutUint64(frame, budgetMicros)
	if err := n.Conn.Send("offload", append(frame, sql...)); err != nil {
		n.broken = err
		return nil, 0, err
	}
	typ, payload, err := n.Conn.Recv()
	if err != nil {
		n.broken = err
		return nil, 0, err
	}
	// "budget", "too-large" and "error" replies are *completed* exchanges —
	// the channel stays in sync; only wire-level failures below poison it.
	if typ == "budget" {
		return nil, 0, fmt.Errorf("hostengine: offload to %s refused by storage: %w", n.ID, resilience.ErrBudgetExhausted)
	}
	if typ == "too-large" {
		return nil, 0, fmt.Errorf("hostengine: reply from %s exceeds one frame: %w", n.ID, transport.ErrFrameTooLarge)
	}
	if typ == "error" {
		return nil, 0, errors.New("hostengine: storage error: " + string(payload))
	}
	if len(payload) < 8 {
		n.broken = errors.New("hostengine: result frame too short for epoch stamp")
		return nil, 0, n.broken
	}
	n.lastEpoch = binary.LittleEndian.Uint64(payload[:8])
	// The reply stays encoded: RetainResult checks every row's structure here,
	// inside the offload leg, so a malformed reply poisons the channel and
	// fails over before anything is registered with the host query.
	res, err := exec.RetainResult(payload[8:])
	if err != nil {
		n.broken = err
		return nil, 0, err
	}
	if n.meter != nil {
		n.meter.RowsShipped.Add(int64(res.NumRows()))
	}
	return res, int64(len(payload)), nil
}

// ReplyEpoch reports the membership epoch stamped on the most recent reply.
func (n *RemoteNode) ReplyEpoch() uint64 {
	n.reqMu.Lock()
	defer n.reqMu.Unlock()
	return n.lastEpoch
}

// Close ends the channel. A failed goodbye is reported alongside the close
// error rather than dropped: on a faulted channel it is often the first
// (and only) signal the peer is gone. A poisoned channel gets none: its peer
// may be blocked writing a frame this side will never read, so a goodbye
// would wait forever, while closing fails that write and ends the peer.
func (n *RemoteNode) Close() error {
	n.reqMu.Lock()
	defer n.reqMu.Unlock()
	if n.broken != nil {
		return n.Conn.Close()
	}
	byeErr := n.Conn.Send("bye", nil)
	err := errors.Join(byeErr, n.Conn.Close())
	if byeErr == nil && n.served != nil {
		// The peer read the goodbye, or the closed pipe: either ends its
		// serving loop, with nothing left that can block.
		<-n.served
	}
	return err
}

// BlockFetcher serves raw medium blocks remotely — the NFS-like access path
// of the host-only configurations (hons/hos), where the host mounts the
// storage server's drive over the network.
type BlockFetcher interface {
	FetchBlock(idx uint32) ([]byte, error)
	StoreBlock(idx uint32, data []byte) error
	Blocks() uint32
}

// RemoteDevice is a pager.BlockDevice whose blocks live on a remote storage
// server; every access moves the block over the link.
type RemoteDevice struct {
	Fetcher   BlockFetcher
	HostMeter *simtime.Meter
}

const blockRequestOverhead = 16

// ReadBlock implements pager.BlockDevice.
func (d *RemoteDevice) ReadBlock(idx uint32) ([]byte, error) {
	b, err := d.Fetcher.FetchBlock(idx)
	if err != nil {
		return nil, err
	}
	if d.HostMeter != nil {
		d.HostMeter.BytesSent.Add(blockRequestOverhead)
		d.HostMeter.BytesReceived.Add(int64(len(b)) + blockRequestOverhead)
	}
	return b, nil
}

// WriteBlock implements pager.BlockDevice.
func (d *RemoteDevice) WriteBlock(idx uint32, data []byte) error {
	if d.HostMeter != nil {
		d.HostMeter.BytesSent.Add(int64(len(data)) + blockRequestOverhead)
		d.HostMeter.BytesReceived.Add(blockRequestOverhead)
	}
	return d.Fetcher.StoreBlock(idx, data)
}

// NumBlocks implements pager.BlockDevice.
func (d *RemoteDevice) NumBlocks() uint32 { return d.Fetcher.Blocks() }

var _ pager.BlockDevice = (*RemoteDevice)(nil)

// EnclavePageStore wraps a PageStore so every page access pays the SGX
// costs the paper measures for host-only-secure execution: an enclave
// transition to fetch the page and EPC residency for the page plus the
// Merkle verification path. When the Merkle tree outgrows the EPC (scale
// factors 4-5 in Fig 9a), the path touches fault.
type EnclavePageStore struct {
	Inner   pager.PageStore
	Enclave *sgx.Enclave
	// TreeBytes reports the current Merkle tree size (nil for non-secure
	// inner stores).
	TreeBytes func() int64
}

// Synthetic enclave address-space layout.
const (
	dataRegionBase = uint64(1) << 40
	treeRegionBase = uint64(1) << 41
)

// ReadPage implements pager.PageStore.
func (e *EnclavePageStore) ReadPage(idx uint32) ([]byte, error) {
	var out []byte
	err := e.Enclave.OCall(func() error { // exit to fetch the page
		var err error
		out, err = e.Inner.ReadPage(idx)
		return err
	})
	if err != nil {
		return nil, err
	}
	e.touch(idx)
	return out, nil
}

// ReadPages implements pager.PageStore: the whole batch enters and leaves
// the enclave through a single transition — the hos-side amortization win —
// while EPC residency is still charged per page.
func (e *EnclavePageStore) ReadPages(idxs []uint32) ([][]byte, error) {
	var out [][]byte
	err := e.Enclave.OCall(func() error { // one exit fetches the whole batch
		var err error
		out, err = e.Inner.ReadPages(idxs)
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range idxs {
		e.touch(idx)
	}
	return out, nil
}

// WritePage implements pager.PageStore.
func (e *EnclavePageStore) WritePage(idx uint32, data []byte) error {
	err := e.Enclave.OCall(func() error { return e.Inner.WritePage(idx, data) })
	if err != nil {
		return err
	}
	e.touch(idx)
	return nil
}

// Allocate implements pager.PageStore.
func (e *EnclavePageStore) Allocate() (uint32, error) {
	var idx uint32
	err := e.Enclave.OCall(func() error {
		var err error
		idx, err = e.Inner.Allocate()
		return err
	})
	return idx, err
}

// NumPages implements pager.PageStore.
func (e *EnclavePageStore) NumPages() uint32 { return e.Inner.NumPages() }

// touch charges EPC residency for the page and its verification path.
func (e *EnclavePageStore) touch(idx uint32) {
	e.Enclave.Touch(dataRegionBase+uint64(idx)*pager.PageSize, pager.PageSize)
	if e.TreeBytes == nil {
		return
	}
	tb := e.TreeBytes()
	if tb == 0 {
		return
	}
	// Leaf region entry plus two ancestor regions spread across the tree:
	// with the whole tree resident this is free; once the tree exceeds the
	// EPC these touches sustain the paging the paper reports.
	leafOff := (uint64(idx) * 32) % uint64(tb)
	midOff := (uint64(idx)*257 + 4096) * 64 % uint64(tb)
	e.Enclave.Touch(treeRegionBase+leafOff, 64)
	e.Enclave.Touch(treeRegionBase+midOff, 64)
	e.Enclave.Touch(treeRegionBase+uint64(tb), 64) // root neighbourhood
}

var _ pager.PageStore = (*EnclavePageStore)(nil)
