package transport

import "testing"

// BenchmarkHandshake is one channel set-up over net.Pipe, both ends: the full
// X25519 exchange against a resumption from the last channel's ticket. The
// resumed case rewinds the chain after every dial so that no iteration is the
// full exchange that cuts it.
func BenchmarkHandshake(b *testing.B) {
	key := []byte("bench-session-key")
	dial := func(b *testing.B, cs, ss *TicketStore) {
		c, s, cerr, serr := dialResuming(key, key, cs, ss, nil)
		if cerr != nil || serr != nil {
			b.Fatalf("handshake: client %v, server %v", cerr, serr)
		}
		c.Close()
		s.Close()
	}
	rewind := func(s *TicketStore) {
		for k, t := range s.tickets {
			t.uses = 0
			s.tickets[k] = t
		}
	}
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dial(b, nil, nil)
		}
	})
	b.Run("resumed", func(b *testing.B) {
		cs, ss := NewTicketStore(), NewTicketStore()
		dial(b, cs, ss)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dial(b, cs, ss)
			rewind(cs)
			rewind(ss)
		}
		if _, resumed := cs.Exchanges(); resumed != uint64(b.N) {
			b.Fatalf("%d of %d handshakes resumed", resumed, b.N)
		}
	})
}
