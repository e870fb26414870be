// Package audit implements the tamper-evident log the trusted monitor keeps
// for GDPR transparency (who queried what, under which policy) and breach
// recording. Entries form a hash chain; each entry is additionally signed by
// the monitor, so an auditor holding the monitor's public key can verify
// both integrity (no entry modified, reordered, or dropped) and authenticity.
// The chain is extended when an entry is appended; the signature is made when
// the entry first leaves the monitor (Entries, EntriesByActor, Export).
package audit

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
)

// Entry is one audit record.
type Entry struct {
	Seq       uint64 `json:"seq"`
	Timestamp int64  `json:"ts"` // unix nanos, supplied by the caller
	Actor     string `json:"actor"`
	Kind      string `json:"kind"` // e.g. "query", "attestation", "violation"
	Detail    string `json:"detail"`
	PrevHash  []byte `json:"prev_hash"`
	Hash      []byte `json:"hash"`
	Signature []byte `json:"sig,omitempty"`
}

func entryHash(e *Entry) []byte {
	h := sha256.New()
	h.Write([]byte("audit-v1|"))
	var b [16]byte
	binary.LittleEndian.PutUint64(b[0:8], e.Seq)
	binary.LittleEndian.PutUint64(b[8:16], uint64(e.Timestamp))
	h.Write(b[:])
	h.Write([]byte(e.Actor))
	h.Write([]byte{'|'})
	h.Write([]byte(e.Kind))
	h.Write([]byte{'|'})
	h.Write([]byte(e.Detail))
	h.Write(e.PrevHash)
	return h.Sum(nil)
}

// Log is an append-only hash-chained audit log.
type Log struct {
	mu      sync.Mutex
	entries []Entry
	signed  int // entries[:signed] carry their signature
	signKey ed25519.PrivateKey
	pubKey  ed25519.PublicKey
}

// NewLog creates a log signing with key (nil disables signing).
func NewLog(key ed25519.PrivateKey) *Log {
	l := &Log{signKey: key}
	if key != nil {
		l.pubKey = key.Public().(ed25519.PublicKey)
	}
	return l
}

// Append adds an entry and returns its sequence number. It hashes and chains
// but does not sign: an append sits on a query's critical path, a signature
// is only ever checked by whoever reads the trail, and Ed25519 is
// deterministic — the bytes a reader gets are those an eager signer would
// have stored.
func (l *Log) Append(ts int64, actor, kind, detail string) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := Entry{
		Seq:       uint64(len(l.entries)),
		Timestamp: ts,
		Actor:     actor,
		Kind:      kind,
		Detail:    detail,
	}
	if len(l.entries) > 0 {
		e.PrevHash = l.entries[len(l.entries)-1].Hash
	}
	e.Hash = entryHash(&e)
	l.entries = append(l.entries, e)
	return e.Seq
}

// signPending signs every entry appended since the last read. Called with
// mu held by each method that lets entries out of the log.
func (l *Log) signPending() {
	if l.signKey != nil {
		for i := l.signed; i < len(l.entries); i++ {
			l.entries[i].Signature = ed25519.Sign(l.signKey, l.entries[i].Hash)
		}
	}
	l.signed = len(l.entries)
}

// Len returns the number of entries.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// detached returns e with byte slices of its own: the log's entries share
// storage (an entry's PrevHash is its predecessor's Hash), and a reader that
// edits what it was handed must not edit the trail.
func detached(e Entry) Entry {
	e.PrevHash = append([]byte(nil), e.PrevHash...)
	e.Hash = append([]byte(nil), e.Hash...)
	e.Signature = append([]byte(nil), e.Signature...)
	return e
}

// Entries returns a copy of all entries (the audit trail handed to the
// regulatory authority in the paper's workflow).
func (l *Log) Entries() []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.signPending()
	out := make([]Entry, len(l.entries))
	for i, e := range l.entries {
		out[i] = detached(e)
	}
	return out
}

// EntriesByActor filters the trail to one actor (GDPR right of access:
// "whom has my data been shared with").
func (l *Log) EntriesByActor(actor string) []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.signPending()
	var out []Entry
	for _, e := range l.entries {
		if e.Actor == actor {
			out = append(out, detached(e))
		}
	}
	return out
}

// Export serializes the log for external audit.
func (l *Log) Export() ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.signPending()
	return json.Marshal(l.entries)
}

// Verify checks the whole chain and every signature against pub (which may
// be nil to skip signature checks). It detects modified, reordered, dropped,
// and truncated-then-extended entries.
func Verify(entries []Entry, pub ed25519.PublicKey) error {
	var prev []byte
	for i, e := range entries {
		if e.Seq != uint64(i) {
			return fmt.Errorf("audit: entry %d has sequence %d (reorder or drop)", i, e.Seq)
		}
		if !equalBytes(e.PrevHash, prev) {
			return fmt.Errorf("audit: entry %d chain break", i)
		}
		if !equalBytes(e.Hash, entryHash(&e)) {
			return fmt.Errorf("audit: entry %d content hash mismatch (tampered)", i)
		}
		if pub != nil {
			if len(e.Signature) == 0 {
				return fmt.Errorf("audit: entry %d unsigned", i)
			}
			if !ed25519.Verify(pub, e.Hash, e.Signature) {
				return fmt.Errorf("audit: entry %d signature invalid", i)
			}
		}
		prev = e.Hash
	}
	return nil
}

// VerifyImport parses an Export blob and verifies it.
func VerifyImport(blob []byte, pub ed25519.PublicKey) ([]Entry, error) {
	var entries []Entry
	if err := json.Unmarshal(blob, &entries); err != nil {
		return nil, errors.New("audit: malformed export")
	}
	if err := Verify(entries, pub); err != nil {
		return nil, err
	}
	return entries, nil
}

func equalBytes(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// PublicKey returns the log's verification key.
func (l *Log) PublicKey() ed25519.PublicKey { return l.pubKey }
