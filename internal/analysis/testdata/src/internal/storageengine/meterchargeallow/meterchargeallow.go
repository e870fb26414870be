// Package meterchargeallow charges a counter the storage node does not own
// under an allow directive and a rationale.
package meterchargeallow

import "ironsafe/internal/simtime"

// replay restores a counter from a recorded run.
func replay(m *simtime.Meter, pages int64) {
	//ironsafe:allow metercharge -- restores a recorded count; no work is priced twice
	m.PagesRead.Store(pages)
}
