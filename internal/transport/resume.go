package transport

import (
	"hash"
	"net"
	"sync"

	"ironsafe/internal/simtime"
)

// Channel resumption. A host opens one channel per query to each storage
// node, and the two X25519 ladders a side pays for it dwarf the query when
// the query is short. A confirmed channel therefore leaves both ends a
// single-use ticket derived from its shared secret; the next channel between
// the two sends `ticket id ‖ 16 random bytes` where the public key went and
// gets 32 random bytes back, and takes as its shared secret a MAC over the
// ticket secret and both flights. Everything after that — directional keys
// under the monitor's session key, key confirmation, the sequenced AEAD — is
// the full exchange's, so a peer without the current query's session key
// still cannot complete a handshake, ticket or no ticket.
//
// Tickets ratchet: a resumed channel derives its successor from its own
// shared secret and the used ticket is deleted on both sides before a byte
// answers it, so a ticket read out of memory opens no earlier channel. The
// chain is cut after maxResumptions (a fresh X25519 exchange heals whatever
// leaked) and whenever the owner clears the store. A resumption that fails
// is a failed handshake and is reported as one; the ticket it spent is gone,
// so the caller's next dial is a full exchange.

const (
	ticketIDLen = 16
	// maxResumptions is how many channels one X25519 exchange may carry by
	// resumption before the next channel runs the full exchange again.
	maxResumptions = 64
	// maxTickets bounds a store. A well-behaved pair holds one live ticket;
	// the rest are leftovers of clients that never came back or channels
	// that broke between the two confirmations, and the oldest goes first.
	maxTickets = 1024
)

// ticket is the resumption state one confirmed channel leaves at each end.
type ticket struct {
	id     [ticketIDLen]byte
	secret [32]byte
	uses   int    // resumptions already made on this chain
	seq    uint64 // insertion order, for eviction
}

// deriveTicket is the ratchet step: the ticket a confirmed channel leaves,
// from that channel's shared secret under the session-keyed mac.
func deriveTicket(mac hash.Hash, shared []byte, uses int) ticket {
	t := ticket{uses: uses}
	copy(t.id[:], deriveKey(mac, "ticket-id", shared))
	copy(t.secret[:], deriveKey(mac, "ticket", shared))
	return t
}

// TicketStore is one end's resumption tickets: a client keeps the ticket for
// each server under the server's name, a server keeps the tickets it left
// under their ids. Its contents are volatile key material — an owner that
// reboots, or stops trusting a peer, clears them. The zero value of the
// pointer (nil) is a store that never resumes and keeps nothing.
type TicketStore struct {
	mu      sync.Mutex
	tickets map[string]ticket
	seq     uint64
	full    uint64
	resumed uint64
}

// NewTicketStore returns an empty store.
func NewTicketStore() *TicketStore {
	return &TicketStore{tickets: map[string]ticket{}}
}

// take removes and returns the ticket under key. It is the one place a
// handshake decides between the two exchanges, so it counts them.
func (s *TicketStore) take(key string) (ticket, bool) {
	if s == nil {
		return ticket{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tickets[key]
	if ok {
		delete(s.tickets, key)
		s.resumed++
	} else {
		s.full++
	}
	return t, ok
}

// put stores t under key, replacing what was there and evicting the oldest
// ticket of a full store.
func (s *TicketStore) put(key string, t ticket) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, replace := s.tickets[key]; !replace && len(s.tickets) >= maxTickets {
		var oldest string
		low := ^uint64(0)
		for k, old := range s.tickets {
			if old.seq < low {
				oldest, low = k, old.seq
			}
		}
		delete(s.tickets, oldest)
	}
	s.seq++
	t.seq = s.seq
	s.tickets[key] = t
}

// Forget drops the ticket held for peer: the next channel to it runs the
// full exchange.
func (s *TicketStore) Forget(peer string) {
	s.mu.Lock()
	delete(s.tickets, peer)
	s.mu.Unlock()
}

// Clear drops every ticket.
func (s *TicketStore) Clear() {
	s.mu.Lock()
	clear(s.tickets)
	s.mu.Unlock()
}

// Exchanges reports how many handshakes over this store began as a full
// X25519 exchange and how many as a resumption.
func (s *TicketStore) Exchanges() (full, resumed uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.full, s.resumed
}

// ClientResuming is Client for a caller that opens channel after channel to
// the server it names peer: it resumes from the ticket tickets holds for peer
// when there is one, runs the full exchange when there is not, and leaves the
// confirmed channel's ticket for the next call. A failed handshake is
// returned as it is; the caller decides whether to dial again.
func ClientResuming(conn net.Conn, sessionKey []byte, meter *simtime.Meter, tickets *TicketStore, peer string) (*SecureConn, error) {
	return handshake(conn, sessionKey, true, meter, tickets, peer)
}

// ServerResuming is Server for a listener whose clients may resume: it
// accepts a first flight that leads with a ticket it left, once.
func ServerResuming(conn net.Conn, sessionKey []byte, meter *simtime.Meter, tickets *TicketStore) (*SecureConn, error) {
	return handshake(conn, sessionKey, false, meter, tickets, "")
}
