package ironsafe

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"

	"ironsafe/internal/hostengine"
	"ironsafe/internal/resilience"
	"ironsafe/internal/securestore"
	"ironsafe/internal/storageengine"
)

// This file is the cluster's anti-entropy repair path: RebuildStorage streams
// a quarantined node's state back from a healthy donor replica, chunk by
// chunk over a dedicated monitor-keyed channel, leaving the target ready for
// the ordinary ReattestStorage readmission gate. A fault at any point leaves
// the target either fully consistent or still quarantined (the on-medium
// rebuild marker fails its integrity sweep) — never half-admitted.

// rebuildChunkPages is how many pages move per transfer chunk. Small enough
// that a chunk (~33 KB sealed in one frame) sits far under the transport
// frame cap, large enough to amortize the per-chunk commit.
const rebuildChunkPages = 8

// rebuildAttempts is how many full rebuild passes RebuildStorage tries before
// it gives up (each under the same deadline budget).
const rebuildAttempts = 3

// RebuildStorage rebuilds the quarantined node id from the live donor. The
// donor's committed state is exported at a transaction boundary, verified
// page by page against the donor's manifest on arrival, and applied through
// the target's journaled commit path under the target's OWN keys — sealed
// records never cross nodes. Each retry attempt handshakes fresh channels
// (a faulted AEAD channel is desynchronized by design) and resumes from the
// target's committed prefix rather than starting over.
//
// Success leaves the target consistent with the donor and restarted, but
// still down: ReattestStorage must pass before it serves again.
func (c *Cluster) RebuildStorage(id, donorID string) error {
	target := c.storageByID(id)
	if target == nil {
		return fmt.Errorf("ironsafe: unknown storage node %q", id)
	}
	donor := c.storageByID(donorID)
	if donor == nil {
		return fmt.Errorf("ironsafe: unknown storage node %q", donorID)
	}
	if id == donorID {
		return fmt.Errorf("ironsafe: node %s cannot donate to itself", id)
	}

	c.nodeMu.Lock()
	switch {
	case !c.down[id]:
		c.nodeMu.Unlock()
		return fmt.Errorf("%w: %s: rebuild refused", ErrNodeNotDown, id)
	case c.down[donorID]:
		c.nodeMu.Unlock()
		return fmt.Errorf("%w: donor %s cannot export", resilience.ErrNodeDown, donorID)
	case c.rebuilding[id] || c.rebuilding[donorID]:
		c.nodeMu.Unlock()
		return fmt.Errorf("ironsafe: rebuild already in flight involving %s/%s", id, donorID)
	}
	c.rebuilding[id] = true
	c.nodeMu.Unlock()
	defer func() {
		c.nodeMu.Lock()
		delete(c.rebuilding, id)
		c.nodeMu.Unlock()
	}()

	// A fresh key for the rebuild control sessions, installed on both ends
	// and revoked when the rebuild resolves either way. The session id's
	// prefix routes it to the rebuild verbs (and ONLY those) on the wire.
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		return fmt.Errorf("ironsafe: rebuild session key: %w", err)
	}
	var tag [4]byte
	if _, err := rand.Read(tag[:]); err != nil {
		return fmt.Errorf("ironsafe: rebuild session tag: %w", err)
	}
	sid := storageengine.RebuildSessionPrefix + id + ":" + hex.EncodeToString(tag[:])
	donor.InstallSessionKey(sid, key)
	target.InstallSessionKey(sid, key)
	defer donor.RevokeSessionKey(sid)
	defer target.RevokeSessionKey(sid)

	// Rebuild passes draw on their own deadline budget: a donor in gray
	// failure must not drag the rebuild through unbounded full-pass retries.
	err := resilience.RetryBudgeted(c.res, rebuildAttempts, c.res.NewQueryBudget(), func(int) error {
		return c.rebuildPass(target, donor, id, donorID, sid, key)
	})
	if err != nil {
		return fmt.Errorf("ironsafe: rebuilding %s from %s: %w", id, donorID, err)
	}
	return nil
}

// rebuildPass runs one complete rebuild attempt — manifest, begin (wipe or
// resume), chunked transfer, finalize — over two fresh monitor-keyed secure
// channels, donor export leg and target import leg, speaking the rebuild
// verbs of the wire protocol. The fault-injection hook sees the legs as
// sites "rebuild:<donor>" and "rebuild:<target>", distinct from query
// channels, so sweeps can fault exactly one leg at exactly one operation.
func (c *Cluster) rebuildPass(target, donor *storageengine.Server, id, donorID, sid string, key []byte) error {
	dn, err := c.dialNodeChannel(donor, storageengine.RebuildSessionPrefix+donorID, sid, key, nil, nil)
	if err != nil {
		return err
	}
	defer dn.Close()
	tn, err := c.dialNodeChannel(target, storageengine.RebuildSessionPrefix+id, sid, key, nil, nil)
	if err != nil {
		return err
	}
	defer tn.Close()

	manifest, err := rebuildCall(dn, "rebuild-manifest", nil, "manifest")
	if err != nil {
		return err
	}
	m, err := securestore.DecodeManifest(manifest)
	if err != nil {
		return err
	}
	beginReply, err := rebuildCall(tn, "rebuild-begin", manifest, "begin-ok")
	if err != nil {
		return err
	}
	if len(beginReply) != 4 {
		return errors.New("ironsafe: malformed rebuild-begin reply")
	}
	start := binary.LittleEndian.Uint32(beginReply)
	for n := m.NumPages(); start < n; {
		count := min(uint32(rebuildChunkPages), n-start)
		var req [8]byte
		binary.LittleEndian.PutUint32(req[:4], start)
		binary.LittleEndian.PutUint32(req[4:], count)
		pages, err := rebuildCall(dn, "rebuild-read", req[:], "pages")
		if err != nil {
			return err
		}
		imp := make([]byte, 4, 4+len(pages))
		binary.LittleEndian.PutUint32(imp, start)
		if _, err := rebuildCall(tn, "rebuild-pages", append(imp, pages...), "ok"); err != nil {
			return err
		}
		start += count
	}
	_, err = rebuildCall(tn, "rebuild-finalize", nil, "ok")
	return err
}

// rebuildCall is one request/response exchange on a rebuild control channel.
func rebuildCall(n *hostengine.RemoteNode, verb string, payload []byte, wantType string) ([]byte, error) {
	if err := n.Conn.Send(verb, payload); err != nil {
		return nil, err
	}
	typ, reply, err := n.Conn.Recv()
	if err != nil {
		return nil, err
	}
	if typ == "error" {
		return nil, fmt.Errorf("ironsafe: %s: storage error: %s", verb, reply)
	}
	if typ != wantType {
		return nil, fmt.Errorf("ironsafe: %s: unexpected reply type %q", verb, typ)
	}
	return reply, nil
}
