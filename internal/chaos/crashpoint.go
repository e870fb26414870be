package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"

	"ironsafe/internal/faultinject"
	"ironsafe/internal/pager"
	"ironsafe/internal/securestore"
	"ironsafe/internal/simtime"
	"ironsafe/internal/tee/trustzone"
)

// crashSweep describes one power-cut sweep: a workload of steps, each one
// atomic commit, over a secure store on a cuttable medium. The driver runs it
// once fault-free — counting every device write and digesting the store at
// every step boundary — and then once per write index k (and again with the
// k-th write torn mid-block), cutting the power there, reviving the medium,
// reopening the store — which runs journal recovery against the RPMB anchor —
// and demanding that the recovered state is exactly the interrupted step's
// pre- or post-image: never a torn in-between, never a step that had returned
// lost.
type crashSweep struct {
	// node names the medium in injected-fault sites.
	node string
	// seed drives the torn-write cut offsets.
	seed uint64
	// tear also sweeps every k with the k-th write torn.
	tear bool
	// steps is the workload's length.
	steps int
	// setUp opens the workload over dev, anchored in the given RPMB slot. It
	// runs unarmed: set-up writes are not swept. It returns the store whose
	// state the boundaries digest, and the function that runs step i.
	setUp func(env *sweepEnv, dev pager.BlockDevice, slot uint16) (*securestore.Store, func(i int) error, error)
	// died reports whether a step's error is the injected death (anything
	// else fails the sweep).
	died func(error) bool
	// recovered checks the reopened, verified store beyond its digest (nil:
	// nothing more to check).
	recovered func(env *sweepEnv, s *securestore.Store) error
}

// sweepEnv is the TrustZone storage device all runs of a sweep share: media
// are independent MemDevices and each run anchors in its own RPMB slot, so
// the expensive boot (key generation, image verification) happens once.
type sweepEnv struct {
	nw    *trustzone.NormalWorld
	meter *simtime.Meter
}

// landing records where one crash point recovered to.
type landing struct {
	k        int  // the device write that died
	torn     bool // torn mid-block rather than dropped
	failed   int  // the step the cut interrupted
	boundary int  // index into the boundary digests: failed (old) or failed+1 (new)
}

// CrashPoints is the outcome of a power-cut sweep: what its report shows and
// its digest is built from.
type CrashPoints struct {
	// Writes is the workload's device-write count — the k range; Points is
	// the number of crash points exercised (Writes, doubled with Tear).
	Writes, Points int
	// LandedOld / LandedNew count crash points that recovered to the state
	// before vs after the interrupted step.
	LandedOld, LandedNew int
	// boundaries digests the store before step 0 and after every step.
	boundaries []string
	landings   []landing
}

func bootSweepDevice() (*sweepEnv, error) {
	vendor, err := trustzone.NewVendor("sweep-vendor")
	if err != nil {
		return nil, err
	}
	device, err := trustzone.NewDevice("sweep-storage", vendor)
	if err != nil {
		return nil, err
	}
	atf := vendor.SignImage("atf", "2.4", []byte("atf"))
	tos := vendor.SignImage("optee", "3.4", []byte("optee"))
	nwImg := trustzone.FirmwareImage{Name: "nw", Version: "1.0", Code: []byte("storage stack")}
	var m simtime.Meter
	_, nw, err := device.Boot(atf, tos, nwImg, &m)
	if err != nil {
		return nil, err
	}
	return &sweepEnv{nw: nw, meter: &m}, nil
}

// sweepPage deterministically derives 32 bytes of workload content from the
// seed and two indices.
func sweepPage(seed uint64, t, p int) []byte {
	h := sha256.Sum256([]byte{
		byte(seed), byte(seed >> 8), byte(seed >> 16), byte(seed >> 24),
		byte(seed >> 32), byte(seed >> 40), byte(seed >> 48), byte(seed >> 56),
		byte(t), byte(t >> 8), byte(p), byte(p >> 8),
	})
	return h[:]
}

// sweepDigest canonically hashes the store's visible plaintext state.
func sweepDigest(s *securestore.Store) (string, error) {
	h := sha256.New()
	n := s.NumPages()
	h.Write([]byte{byte(n), byte(n >> 8), byte(n >> 16), byte(n >> 24)})
	for i := uint32(0); i < n; i++ {
		p, err := s.ReadPage(i)
		if err != nil {
			return "", err
		}
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// run executes the sweep and fails on the first crash point whose recovery
// is not exactly-old-or-new.
func (sw *crashSweep) run() (*CrashPoints, error) {
	env, err := bootSweepDevice()
	if err != nil {
		return nil, err
	}

	// Fault-free reference: total write count plus the digest of every
	// step-boundary state.
	ref := faultinject.NewPowerCut(pager.NewMemDevice(), sw.node)
	s, step, err := sw.setUp(env, ref, 0)
	if err != nil {
		return nil, err
	}
	d, err := sweepDigest(s)
	if err != nil {
		return nil, err
	}
	res := &CrashPoints{boundaries: []string{d}}
	ref.Arm(0, false, 1) // count workload writes only
	for i := 0; i < sw.steps; i++ {
		if err := step(i); err != nil {
			return nil, fmt.Errorf("reference run: step %d: %w", i, err)
		}
		if d, err = sweepDigest(s); err != nil {
			return nil, err
		}
		res.boundaries = append(res.boundaries, d)
	}
	res.Writes = ref.Writes()

	tears := []bool{false}
	if sw.tear {
		tears = append(tears, true)
	}
	slot := uint16(1)
	for _, tear := range tears {
		for k := 1; k <= res.Writes; k++ {
			l, err := sw.crashPoint(env, slot, k, tear, res.boundaries)
			if err != nil {
				return nil, fmt.Errorf("k=%d tear=%t: %w", k, tear, err)
			}
			res.Points++
			if l.boundary == l.failed+1 {
				res.LandedNew++
			} else {
				res.LandedOld++
			}
			res.landings = append(res.landings, l)
			slot++
		}
	}
	return res, nil
}

// crashPoint replays the workload with a power cut at write k, then recovers
// and classifies the landed state.
func (sw *crashSweep) crashPoint(env *sweepEnv, slot uint16, k int, tear bool, boundaries []string) (landing, error) {
	l := landing{k: k, torn: tear, failed: -1}
	medium := pager.NewMemDevice()
	cut := faultinject.NewPowerCut(medium, sw.node)
	_, step, err := sw.setUp(env, cut, slot)
	if err != nil {
		return l, fmt.Errorf("setup: %w", err)
	}
	cut.Arm(k, tear, sw.seed)
	for i := 0; i < sw.steps; i++ {
		if err := step(i); err != nil {
			if !sw.died(err) {
				return l, fmt.Errorf("step %d failed, and not of the injected cut: %w", i, err)
			}
			l.failed = i
			break
		}
	}
	if l.failed < 0 {
		return l, fmt.Errorf("workload completed despite the armed cut (writes=%d)", cut.Writes())
	}

	// Power back on and recover: reopen must always succeed (a crash is not
	// a rollback) and must land on exactly the old or the new boundary state
	// of the interrupted step. Boundary states are cumulative, so either one
	// holds every step that had returned (committed, acked) before the cut.
	cut.Disarm()
	cut.Revive()
	s2, err := securestore.Open(medium, env.nw, env.meter, securestore.Options{RPMBSlot: slot})
	if err != nil {
		return l, fmt.Errorf("recovery reopen failed: %w", err)
	}
	if err := s2.VerifyAll(); err != nil {
		return l, fmt.Errorf("recovered store failed verification: %w", err)
	}
	if sw.recovered != nil {
		if err := sw.recovered(env, s2); err != nil {
			return l, err
		}
	}
	d, err := sweepDigest(s2)
	if err != nil {
		return l, fmt.Errorf("digesting recovered state: %w", err)
	}
	switch d {
	case boundaries[l.failed]:
		l.boundary = l.failed
	case boundaries[l.failed+1]:
		l.boundary = l.failed + 1
	default:
		return l, fmt.Errorf("recovered state matches neither boundary of step %d — torn state survived recovery", l.failed)
	}
	return l, nil
}

// digestTo commits to the sweep's outcome: the boundary digests, then one
// (k, torn, landed-state) record per crash point, each behind tag.
func (res *CrashPoints) digestTo(acc hash.Hash, tag string) {
	for _, b := range res.boundaries {
		acc.Write([]byte(b))
	}
	for _, l := range res.landings {
		torn := byte(0)
		if l.torn {
			torn = 1
		}
		acc.Write(append([]byte(tag), byte(l.k), byte(l.k>>8), torn, byte(l.boundary)))
	}
}
