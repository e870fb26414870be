// Package ticketflow is golden testdata: the package path sits under
// internal/transport so the path-scoped source rule treats the self-defined
// deriveTicket as the handshake's ratchet step.
package ticketflow

import (
	"hash"
	"log"
)

type ticket struct {
	id     [16]byte
	secret [32]byte
}

func deriveTicket(mac hash.Hash, shared []byte, uses int) ticket { return ticket{} }

type SecureConn struct{}

func (c *SecureConn) Send(msgType string, payload []byte) error { return nil }

type TicketStore struct{ tickets map[string]ticket }

func (s *TicketStore) put(key string, t ticket) { s.tickets[key] = t }

// The ticket a confirmed channel leaves goes into the store and nowhere else.
func kept(mac hash.Hash, shared []byte, s *TicketStore) {
	next := deriveTicket(mac, shared, 0)
	s.put("storage-01", next)
}

// Handing the peer its ticket over the channel it was derived from would
// spare the peer a derivation and give every later channel to whoever reads
// this one.
func shipped(mac hash.Hash, shared []byte, sc *SecureConn) {
	next := deriveTicket(mac, shared, 0)
	sc.Send("ticket", next.secret[:]) // want "key material reaches secure-channel send"
}

// Neither does a ticket belong in a log line, whole or by field.
func logged(mac hash.Hash, shared []byte) {
	next := deriveTicket(mac, shared, 0)
	log.Printf("left ticket %x", next.id) // want "key material reaches log/print call"
}
