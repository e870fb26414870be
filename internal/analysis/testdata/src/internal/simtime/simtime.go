// Package simtime stubs the module's work meter for the metercharge golden
// packages: the counters they charge, declared as the real Meter declares
// them.
package simtime

import "sync/atomic"

type Meter struct {
	PagesRead      atomic.Int64
	PagesWritten   atomic.Int64
	PagesDecrypted atomic.Int64
	PagesEncrypted atomic.Int64
	MerkleVerifies atomic.Int64
	MerkleHashes   atomic.Int64
	BytesSent      atomic.Int64
	RowsShipped    atomic.Int64
}
