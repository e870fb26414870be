package adversary

import (
	"sync"

	"ironsafe/internal/faultinject"
	"ironsafe/internal/pager"
)

// Device wraps a pager.BlockDevice as an adversary-controlled medium. The
// attacks are *valid-state* attacks, not corruption: after Capture, the
// device shadows the pre-image of every block overwritten, so it can later
// serve stale-but-valid reads (ArmStaleReads) or revert the whole medium to
// the captured old state (Rollback). The securestore freshness root — not
// byte integrity — is the defense under test: every stale image is a real
// block the store once wrote.
type Device struct {
	// NumBlocks passes through: the live medium size.
	pager.BlockDevice
	plan *faultinject.Plan
	site string

	mu        sync.Mutex
	capturing bool
	// shadow maps block index → pre-capture image (nil = the block did not
	// exist before its first post-capture write).
	shadow map[uint32][]byte
	// staleReads is a budget: while positive, reads of shadowed blocks
	// return the shadow image instead of the live one.
	staleReads int
}

// WrapDevice interposes the adversary on dev. site names the medium in
// plan's trace ("medium:storage-02"); the medium attacks are scripted by the
// harness, so the plan only records them.
func WrapDevice(dev pager.BlockDevice, site string, plan *faultinject.Plan) *Device {
	return &Device{BlockDevice: dev, plan: plan, site: site, shadow: map[uint32][]byte{}}
}

var _ pager.BlockDevice = (*Device)(nil)

// Capture snapshots nothing eagerly: it clears the shadow set and starts
// copy-on-first-write, so the shadow converges to "the medium as it was at
// Capture time" restricted to blocks that changed since.
func (d *Device) Capture() {
	d.mu.Lock()
	d.capturing = true
	d.shadow = map[uint32][]byte{}
	d.staleReads = 0
	d.mu.Unlock()
}

// ArmStaleReads makes the next n reads of since-changed blocks return their
// captured old images — valid stale data a rolled-back medium would serve.
func (d *Device) ArmStaleReads(n int) {
	d.mu.Lock()
	d.staleReads = n
	d.mu.Unlock()
}

// Rollback reverts every since-capture write to its captured pre-image: the
// whole-medium rollback-to-valid-old-state attack. Blocks that did not
// exist at capture time keep their current content (a real rollback of a
// grow-only medium leaves residue past the old end; the store's freshness
// anchor must reject the state either way). Shadowing stops and the shadow
// set clears.
func (d *Device) Rollback() error {
	d.mu.Lock()
	shadow := d.shadow
	d.shadow = map[uint32][]byte{}
	d.capturing = false
	d.staleReads = 0
	d.mu.Unlock()
	for idx, img := range shadow {
		if img == nil {
			continue
		}
		if err := d.BlockDevice.WriteBlock(idx, img); err != nil {
			return err
		}
	}
	d.plan.Record(faultinject.Rollback, d.site)
	return nil
}

// ReadBlock serves the stale captured image while the stale-read budget
// lasts; otherwise it reads through.
func (d *Device) ReadBlock(idx uint32) ([]byte, error) {
	d.mu.Lock()
	var stale []byte
	if d.staleReads > 0 {
		if img, ok := d.shadow[idx]; ok && img != nil {
			stale = append([]byte(nil), img...)
			d.staleReads--
		}
	}
	d.mu.Unlock()
	if stale != nil {
		d.plan.Record(faultinject.StaleRead, d.site)
		return stale, nil
	}
	return d.BlockDevice.ReadBlock(idx)
}

// WriteBlock records the pre-image on the first post-capture write to each
// block, then writes through.
func (d *Device) WriteBlock(idx uint32, data []byte) error {
	d.mu.Lock()
	capture := d.capturing
	_, seen := d.shadow[idx]
	d.mu.Unlock()
	if capture && !seen {
		pre, err := d.BlockDevice.ReadBlock(idx)
		if err != nil {
			pre = nil
		}
		d.mu.Lock()
		if _, raced := d.shadow[idx]; !raced && d.capturing {
			d.shadow[idx] = pre
		}
		d.mu.Unlock()
	}
	return d.BlockDevice.WriteBlock(idx, data)
}
