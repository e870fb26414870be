package hostengine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"ironsafe/internal/adversary"
	"ironsafe/internal/faultinject"
	"ironsafe/internal/resilience"
	"ironsafe/internal/schema"
	"ironsafe/internal/sql/exec"
	"ironsafe/internal/transport"
)

// TestAdversaryDuplicatedReplyRejectedNotConsumed puts a frame-duplicating MITM
// on the storage channel: the first offload's reply frame is delivered twice.
// The duplicate must never be consumed as the answer to the next offload —
// the sequence-bound AEAD rejects it as transport.ErrAuth — and the channel
// must then be poisoned so later offloads fail fast instead of blocking on a
// desynced exchange.
func TestAdversaryDuplicatedReplyRejectedNotConsumed(t *testing.T) {
	key := []byte("storage-session-key")
	eng := adversary.NewEngine(5, faultinject.Rule{
		Site: ":read", Class: faultinject.Duplicate, Prob: 1, After: 1, MaxCount: 1,
	})
	clientRaw, serverRaw := net.Pipe()
	wrapped := adversary.WrapConn(clientRaw, "node-x", adversary.StorageProfile, eng)

	// Minimal honest storage peer: preamble, handshake, then one "result"
	// reply (epoch stamp + empty result) per request.
	go func() {
		defer serverRaw.Close()
		var l [1]byte
		if _, err := io.ReadFull(serverRaw, l[:]); err != nil {
			return
		}
		sid := make([]byte, int(l[0]))
		if _, err := io.ReadFull(serverRaw, sid); err != nil {
			return
		}
		srv, err := transport.Server(serverRaw, key, nil)
		if err != nil {
			return
		}
		blob, err := exec.EncodeResult(&exec.Result{Sch: schema.New()})
		if err != nil {
			t.Errorf("encoding empty result: %v", err)
			return
		}
		for {
			if _, _, err := srv.Recv(); err != nil {
				return
			}
			reply := make([]byte, 8, 8+len(blob))
			binary.LittleEndian.PutUint64(reply, 42)
			if err := srv.Send("result", append(reply, blob...)); err != nil {
				return
			}
		}
	}()

	node, err := NewRemoteNode(wrapped, "node-x", "sess", key, nil, nil, nil, resilience.Config{})
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	defer node.Conn.Close()

	// Exchange 1: the genuine reply arrives intact (the duplicate rides
	// behind it, parked where the next reply should be).
	if _, _, err := node.Offload("SELECT 1"); err != nil {
		t.Fatalf("clean offload: %v", err)
	}
	if node.ReplyEpoch() != 42 {
		t.Fatalf("epoch = %d, want 42", node.ReplyEpoch())
	}

	// Exchange 2: the stale duplicate must be rejected, never decoded as
	// this offload's result.
	_, _, err = node.Offload("SELECT 2")
	if !errors.Is(err, transport.ErrAuth) {
		t.Fatalf("offload against duplicated frame = %v, want transport.ErrAuth", err)
	}

	// Exchange 3: the channel is desynced past repair (the genuine second
	// reply is still queued on the wire); the node must fail fast with the
	// poisoned-channel error — not send, not block, not consume the stale
	// frame.
	_, _, err = node.Offload("SELECT 3")
	if err == nil {
		t.Fatal("offload on poisoned channel succeeded")
	}
	if !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("offload on poisoned channel = %v, want poisoned-channel error", err)
	}
	if !errors.Is(err, transport.ErrAuth) {
		t.Fatalf("poisoned error should preserve the root cause: %v", err)
	}
}

// replyingPeer is a storage peer that speaks the channel protocol honestly
// and answers every offload with body behind a valid epoch stamp.
func replyingPeer(t *testing.T, conn net.Conn, key, body []byte) {
	defer conn.Close()
	var l [1]byte
	if _, err := io.ReadFull(conn, l[:]); err != nil {
		return
	}
	if _, err := io.ReadFull(conn, make([]byte, int(l[0]))); err != nil {
		return
	}
	srv, err := transport.Server(conn, key, nil)
	if err != nil {
		return
	}
	for {
		if typ, _, err := srv.Recv(); err != nil || typ == "bye" {
			return
		}
		if err := srv.Send("result", append(make([]byte, 8), body...)); err != nil {
			return
		}
	}
}

// malformedProvider offers a node whose replies authenticate but do not
// parse, ahead of an honest replica.
type malformedProvider struct {
	plainProvider
	r       *rig
	bad     *RemoteNode
	reports []string
}

func (p *malformedProvider) CandidateIDs() []string { return []string{"storage-bad", "storage-01"} }

func (p *malformedProvider) Connect(id string) (StorageNode, error) {
	if id == "storage-bad" {
		return p.bad, nil
	}
	return p.r.node(), nil
}

func (p *malformedProvider) Report(id string, ok bool) {
	p.reports = append(p.reports, fmt.Sprintf("%s:%v", id, ok))
}

// TestMalformedReplyFailsOverBeforeHostPhase: the reply is kept encoded, so
// its structure is checked inside the offload leg — a reply with a sound
// header and a row cut short must poison the channel and fail the leg, and
// the query must complete on the second replica, exactly as a reply
// DecodeResult rejected did.
func TestMalformedReplyFailsOverBeforeHostPhase(t *testing.T) {
	r := newRig(t, true, true)
	good, err := r.server.ExecOffload("SELECT n_name, n_nationkey FROM nation")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := exec.EncodeResult(good)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		body []byte
		want string
	}{
		{"row cut short", blob[:len(blob)-2], "exec: result row 24: schema: truncated row at column 1"},
		{"forged count", forgeCount(t, blob, 1<<40), "schema: row count exceeds the batch body"},
	} {
		key := []byte("storage-session-key")
		clientRaw, serverRaw := net.Pipe()
		go replyingPeer(t, serverRaw, key, tc.body)
		bad, err := NewRemoteNode(clientRaw, "storage-bad", "sess", key, nil, nil, nil, resilience.Config{})
		if err != nil {
			t.Fatalf("%s: handshake: %v", tc.name, err)
		}
		p := &malformedProvider{r: r, bad: bad}
		res, outcome, err := r.host.ExecuteSplitProvider("SELECT n_name FROM nation WHERE n_nationkey < 5 ORDER BY n_name", p)
		if err != nil {
			t.Fatalf("%s: the second replica did not rescue the query: %v", tc.name, err)
		}
		if len(res.Rows) != 5 || outcome.Failovers != 1 || outcome.Offloads != 1 {
			t.Errorf("%s: %d rows, outcome %+v", tc.name, len(res.Rows), outcome)
		}
		if want := []string{"storage-bad:false", "storage-01:true"}; fmt.Sprint(p.reports) != fmt.Sprint(want) {
			t.Errorf("%s: health reports %v, want %v", tc.name, p.reports, want)
		}
		_, _, err = bad.Offload("SELECT 1")
		if err == nil || !strings.Contains(err.Error(), "poisoned") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: the channel after a malformed reply: %v", tc.name, err)
		}
		bad.Conn.Close()
	}
}

// forgeCount replaces the row count of an encoded result.
func forgeCount(t *testing.T, blob []byte, count uint64) []byte {
	t.Helper()
	hl := int(binary.LittleEndian.Uint32(blob))
	_, sz := binary.Uvarint(blob[4+hl:])
	if sz <= 0 {
		t.Fatal("no count in the encoded result")
	}
	out := append([]byte{}, blob[:4+hl]...)
	out = binary.AppendUvarint(out, count)
	return append(out, blob[4+hl+sz:]...)
}

// TestOversizedFrameHeaderClosesPromptly: a peer announces a frame above
// transport.MaxFrame and then blocks writing its body. The host's Recv fails
// typed without reading the body, the channel is poisoned, and Close returns
// at once — it sends no goodbye, which would wait behind the peer's write.
func TestOversizedFrameHeaderClosesPromptly(t *testing.T) {
	key := []byte("storage-session-key")
	clientRaw, serverRaw := net.Pipe()
	peerDone := make(chan struct{})
	go func() {
		defer close(peerDone)
		defer serverRaw.Close()
		var l [1]byte
		if _, err := io.ReadFull(serverRaw, l[:]); err != nil {
			return
		}
		if _, err := io.ReadFull(serverRaw, make([]byte, int(l[0]))); err != nil {
			return
		}
		srv, err := transport.Server(serverRaw, key, nil)
		if err != nil {
			return
		}
		if _, _, err := srv.Recv(); err != nil {
			return
		}
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], transport.MaxFrame+1)
		if _, err := serverRaw.Write(hdr[:]); err != nil {
			return
		}
		serverRaw.Write(make([]byte, 64<<10)) // blocks: nobody reads the body
	}()
	node, err := NewRemoteNode(clientRaw, "node-x", "sess", key, nil, nil, nil, resilience.Config{})
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	if _, _, err := node.Offload("SELECT 1"); !errors.Is(err, transport.ErrFrameTooLarge) {
		t.Fatalf("offload against an oversized header: %v, want transport.ErrFrameTooLarge", err)
	}
	closed := make(chan error, 1)
	go func() { closed <- node.Close() }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close on a poisoned channel did not return within 5 s")
	}
	select {
	case <-peerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("the peer's blocked write outlived the closed channel")
	}
}
