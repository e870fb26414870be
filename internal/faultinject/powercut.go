package faultinject

import (
	"sync"

	"ironsafe/internal/pager"
)

// PowerCut wraps a pager.BlockDevice and models a hard power loss at an
// exact block-write boundary: the k-th write since Arm either never reaches
// the medium (a clean cut) or persists only a deterministic prefix of the
// block (a torn cut), and every subsequent access fails until Revive — the
// device is off. Sweeping k across a workload's full write sequence visits
// every crash point the medium can experience, which is how the chaos
// suite's crash-consistency sweep proves the secure store's journal recovery
// deterministic at all of them.
type PowerCut struct {
	// NumBlocks passes through: metadata, never faulted.
	pager.BlockDevice
	node string

	mu     sync.Mutex
	armed  bool
	failAt int  // 1-based write index that dies; 0 = count only
	tear   bool // torn cut (prefix persists) vs clean cut (nothing persists)
	rng    uint64
	writes int
	dead   bool
}

var _ pager.BlockDevice = (*PowerCut)(nil)

// NewPowerCut wraps inner; the device starts live and unarmed, passing all
// I/O through while counting nothing.
func NewPowerCut(inner pager.BlockDevice, node string) *PowerCut {
	return &PowerCut{BlockDevice: inner, node: node}
}

// Arm resets the write counter and schedules the power cut at the failAt-th
// subsequent write (1-based). failAt 0 arms pure counting: no cut fires, but
// Writes reports the workload's write total — the sweep's upper bound for k.
// tear selects a torn final write; seed drives the deterministic tear offset.
func (p *PowerCut) Arm(failAt int, tear bool, seed uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.armed = true
	p.failAt = failAt
	p.tear = tear
	if seed == 0 {
		seed = 1
	}
	p.rng = seed
	p.writes = 0
}

// Disarm stops counting and scheduling; the device stays in its current
// live/dead state.
func (p *PowerCut) Disarm() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.armed = false
	p.failAt = 0
}

// Revive powers the device back on (the medium keeps whatever the cut left).
func (p *PowerCut) Revive() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dead = false
}

// Writes reports how many writes have been attempted since Arm.
func (p *PowerCut) Writes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.writes
}

// site names this device's fault site in injected errors.
func (p *PowerCut) site() string { return "powercut:" + p.node + ":write" }

// ReadBlock implements pager.BlockDevice.
func (p *PowerCut) ReadBlock(idx uint32) ([]byte, error) {
	p.mu.Lock()
	dead := p.dead
	p.mu.Unlock()
	if dead {
		return nil, &InjectedError{Class: Crash, Site: "powercut:" + p.node + ":read"}
	}
	return p.BlockDevice.ReadBlock(idx)
}

// WriteBlock implements pager.BlockDevice.
func (p *PowerCut) WriteBlock(idx uint32, data []byte) error {
	p.mu.Lock()
	if p.dead {
		p.mu.Unlock()
		return &InjectedError{Class: Crash, Site: p.site()}
	}
	if !p.armed {
		p.mu.Unlock()
		return p.BlockDevice.WriteBlock(idx, data)
	}
	p.writes++
	fire := p.failAt > 0 && p.writes == p.failAt
	var tear bool
	var cutBits uint64
	if fire {
		p.dead = true
		tear = p.tear
		p.rng = xorshift(p.rng)
		cutBits = p.rng
	}
	p.mu.Unlock()
	if !fire {
		return p.BlockDevice.WriteBlock(idx, data)
	}
	if tear {
		return tearWrite(p.BlockDevice, idx, data, int(cutBits&0x7fffffff), p.site())
	}
	return &InjectedError{Class: Crash, Site: p.site()}
}
