// Package metercharge seeds the storage node charging counters for work it
// never did: a spill model that prices pages no one wrote, encrypted, read
// back or verified. The node's own work — rows and bytes it ships — and reads
// of any counter stay quiet.
package metercharge

import "ironsafe/internal/simtime"

type server struct {
	meter  *simtime.Meter
	secure bool
}

// priceSpill prices an estimated spill of the node's reply.
func (s *server) priceSpill(pages int64) {
	s.meter.PagesWritten.Add(pages) // want `PagesWritten charged in internal/storageengine/metercharge, which does not do that work; only internal/pager, internal/securestore may charge it`
	s.meter.PagesRead.Add(pages)    // want `PagesRead charged in internal/storageengine/metercharge`
	if s.secure {
		s.meter.PagesEncrypted.Add(pages)   // want `PagesEncrypted charged in .*; only internal/securestore may charge it`
		s.meter.PagesDecrypted.Add(pages)   // want `PagesDecrypted charged in .*; only internal/securestore may charge it`
		s.meter.MerkleHashes.Add(pages * 8) // want `MerkleHashes charged in .*; only internal/securestore may charge it`
	}
}

// ship charges what the node itself moved, and reads a counter it does not own.
func (s *server) ship(rows, bytes int64) int64 {
	s.meter.RowsShipped.Add(rows)
	s.meter.BytesSent.Add(bytes)
	return s.meter.PagesRead.Load() + s.meter.MerkleVerifies.Load()
}
