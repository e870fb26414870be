// Package meterowner sits in the secure store, which reads, decrypts and
// verifies pages: it charges those counters itself.
package meterowner

import "ironsafe/internal/simtime"

func readPages(m *simtime.Meter, n int64) {
	m.PagesRead.Add(n)
	m.PagesDecrypted.Add(n)
	m.MerkleVerifies.Add(n)
	m.MerkleHashes.Add(n * 8)
}
