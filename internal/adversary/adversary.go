// Package adversary is IronSafe's active-attacker harness: a seeded,
// deterministic man-in-the-middle that sits on the untrusted substrates —
// transport channels, control-plane connections, and the raw storage medium —
// and mounts *semantic* protocol attacks rather than random corruption.
//
// Where faultinject's wrappers mount accidents (resets, stalls, bit flips),
// adversary mounts the paper's real threat: privileged software that records,
// replays, reorders, duplicates, splices, and forges whole protocol units.
// What to attack, and when, is decided by the same seeded faultinject.Plan
// the accidents come from — the attack classes are rule classes of that plan
// — so a fixed seed mounts exactly the same attack sequence. This package
// holds only what is the attacker's own: the library of recorded frames, the
// protocol-unit stepper on a connection, and the capturing medium.
//
// The attacks are deliberately *valid-looking*: a replayed frame is a real
// frame the peer once sent (just at the wrong time), a spliced frame is a
// real frame from a different session, a rolled-back medium is a valid old
// state (not a bit flip). The defense contract under test is fail-closed:
// every attack must be absorbed by retry/failover or surface as a typed
// error — never as wrong rows, a false ack, an untyped failure, or a hang.
package adversary

import (
	"sync"

	"ironsafe/internal/faultinject"
)

// maxLibraryPerLeg bounds recorded frames per leg; maxLibraryTotal bounds the
// cross-leg splice pool. Oldest entries are evicted first.
const (
	maxLibraryPerLeg = 16
	maxLibraryTotal  = 64
)

type libFrame struct {
	leg   string
	frame []byte
}

// Engine is an attack plan plus the adversary's recording library: the
// embedded plan decides which protocol unit of which leg is attacked with
// which class, the library holds the genuine units attacks are mounted from.
// Safe for concurrent use; determinism holds as long as each leg's units
// occur in a deterministic order (the conformance sweep runs its traffic
// sequentially for exactly this reason).
type Engine struct {
	*faultinject.Plan

	mu     sync.Mutex
	perLeg map[string][][]byte
	pool   []libFrame
}

// NewEngine creates an engine from a seed and initial rules. Rules may also
// be armed later with Arm.
func NewEngine(seed uint64, rules ...faultinject.Rule) *Engine {
	return &Engine{Plan: faultinject.NewPlan(seed, rules...), perLeg: map[string][][]byte{}}
}

// Remember adds a genuine observed unit to the adversary's library so later
// Replay/Splice decisions have real material to mount.
func (e *Engine) Remember(leg string, frame []byte) {
	cp := append([]byte(nil), frame...)
	e.mu.Lock()
	defer e.mu.Unlock()
	frames := append(e.perLeg[leg], cp)
	if len(frames) > maxLibraryPerLeg {
		frames = frames[1:]
	}
	e.perLeg[leg] = frames
	e.pool = append(e.pool, libFrame{leg: leg, frame: cp})
	if len(e.pool) > maxLibraryTotal {
		e.pool = e.pool[1:]
	}
}

// anySize lifts the size restriction of a library lookup.
const anySize = -1

// sameLeg returns a deterministic earlier frame recorded on leg, or nil when
// the library holds none. size restricts the choice to units of exactly that
// many bytes — identity units (preambles, public keys) can only be
// substituted by same-shaped material.
func (e *Engine) sameLeg(leg string, bits uint64, size int) []byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	var candidates [][]byte
	for _, f := range e.perLeg[leg] {
		if size == anySize || len(f) == size {
			candidates = append(candidates, f)
		}
	}
	return pick(candidates, bits)
}

// otherLeg returns a deterministic frame recorded on any leg other than leg
// (cross-session splice material), or nil when none exists; size as in
// sameLeg.
func (e *Engine) otherLeg(leg string, bits uint64, size int) []byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	var candidates [][]byte
	for _, lf := range e.pool {
		if lf.leg != leg && (size == anySize || len(lf.frame) == size) {
			candidates = append(candidates, lf.frame)
		}
	}
	return pick(candidates, bits)
}

func pick(candidates [][]byte, bits uint64) []byte {
	if len(candidates) == 0 {
		return nil
	}
	return append([]byte(nil), candidates[int(bits%uint64(len(candidates)))]...)
}

// SoakRules is the broad-spectrum rule set the deployment binaries arm for
// adversarial soak runs (ironsafe-host -adversary-seed; the sweep's broad
// phase uses its own tuning of the same shape): every frame attack class at a
// low per-unit probability, skipping each leg's first two units so handshakes
// complete and the attacks land on authenticated traffic, where fail-closed
// behaviour — not connection refusal — is the property under test.
func SoakRules() []faultinject.Rule {
	return []faultinject.Rule{
		{Site: ":read", Class: faultinject.Replay, Prob: 0.05, After: 2},
		{Site: ":read", Class: faultinject.Duplicate, Prob: 0.04, After: 2},
		{Site: ":read", Class: faultinject.Reorder, Prob: 0.03, After: 2},
		{Site: ":write", Class: faultinject.Inject, Prob: 0.04, After: 2},
		{Site: ":write", Class: faultinject.Splice, Prob: 0.03, After: 2},
	}
}
