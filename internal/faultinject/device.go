package faultinject

import (
	"time"

	"ironsafe/internal/pager"
)

// Device wraps a pager.BlockDevice and injects faults into block I/O: Reset
// and Crash surface as I/O errors, Corrupt flips a bit in the data read
// (the secure store's MAC/Merkle verification must catch it), TornWrite
// persists a prefix of the block, Slow delays the access. Stall/Truncate make
// no sense at block granularity and are treated as Reset.
type Device struct {
	// NumBlocks passes through unfaulted: sizing queries are metadata, not
	// I/O.
	pager.BlockDevice
	node string
	plan *Plan
}

// WrapDevice instruments dev; sites are "device:<node>:read" and
// "device:<node>:write".
func WrapDevice(inner pager.BlockDevice, node string, plan *Plan) *Device {
	return &Device{BlockDevice: inner, node: node, plan: plan}
}

// failStop mounts the fault classes that act before a block access reaches
// the medium: Reset — and Stall and Truncate, which make no sense at block
// granularity — fail it, Crash fails it and downs the node, Slow delays it
// and lets it proceed.
func (p *Plan) failStop(f Fault, node string) error {
	switch f.Class {
	case Reset, Stall, Truncate:
		return &InjectedError{Class: Reset, Site: f.Site}
	case Crash:
		p.notifyCrash(node)
		return &InjectedError{Class: Crash, Site: f.Site}
	case Slow:
		if w := p.SlowDelay; w > 0 {
			time.Sleep(w) //ironsafe:allow wallclock -- injected slow-medium latency
		}
	}
	return nil
}

// ReadBlock implements pager.BlockDevice.
func (d *Device) ReadBlock(idx uint32) ([]byte, error) {
	f := d.plan.Decide("device:" + d.node + ":read")
	if err := d.plan.failStop(f, d.node); err != nil {
		return nil, err
	}
	b, err := d.BlockDevice.ReadBlock(idx)
	if err == nil && f.Class == Corrupt && len(b) > 0 {
		f.flip(b)
	}
	return b, err
}

// WriteBlock implements pager.BlockDevice.
func (d *Device) WriteBlock(idx uint32, data []byte) error {
	f := d.plan.Decide("device:" + d.node + ":write")
	if err := d.plan.failStop(f, d.node); err != nil {
		return err
	}
	if f.Class == TornWrite {
		return tearWrite(d.BlockDevice, idx, data, f.bit(), f.Site)
	}
	return d.BlockDevice.WriteBlock(idx, data)
}

// tearWrite persists a deterministic prefix of the new data over the block's
// old contents, then fails the write — the medium now holds a torn block.
func tearWrite(dev pager.BlockDevice, idx uint32, data []byte, bit int, site string) error {
	old, err := dev.ReadBlock(idx)
	if err != nil {
		old = nil
	}
	if err := dev.WriteBlock(idx, tornMerge(old, data, tornCut(bit, len(data)))); err != nil {
		return err
	}
	return &InjectedError{Class: TornWrite, Site: site}
}

// tornCut derives the deterministic tear offset for a block of n bytes:
// a strict, non-empty prefix whenever the block has at least two bytes.
func tornCut(bit, n int) int {
	if n <= 1 {
		return n
	}
	return 1 + bit%(n-1)
}

// tornMerge builds the medium contents after a torn write: the first cut
// bytes of the new data followed by whatever the block held before beyond
// that point — the sectors past the tear never made it to the medium.
func tornMerge(old, data []byte, cut int) []byte {
	if cut > len(data) {
		cut = len(data)
	}
	torn := append([]byte(nil), data[:cut]...)
	if len(old) > cut {
		torn = append(torn, old[cut:]...)
	}
	return torn
}
