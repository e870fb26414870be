// Package faultinject is IronSafe's deterministic fault plane: a seed-driven
// Plan decides, per instrumented operation, whether the untrusted substrate
// beneath it misbehaves and how. Accident and attack are rule classes of the
// one Plan, not two engines. The accident classes — a connection reset, an
// indefinite stall, a corrupted or truncated frame, slow-peer latency, a node
// crash, a torn block write, a restart with rolled-back state — are mounted
// by this package's wrappers; the attack classes — replay, duplication,
// reordering, splicing and forgery of whole protocol units, stale medium
// reads — by package adversary's, which asks the same Plan. Decisions come
// from per-site xorshift streams keyed by (seed, site), so for a fixed seed
// the same sequence of operations experiences exactly the same faults — the
// sweeps' byte-for-byte reproducibility rests on this, not on wall-clock
// timing.
//
// The package wraps the repo's untrusted substrates — net.Conn channels and
// pager.BlockDevice media. It never touches the
// real clock except to honor I/O deadlines already armed by the resilience
// layer (stalls must end when the victim's deadline fires, or the test for
// "no query ever hangs" would be meaningless).
package faultinject

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"
)

// Class enumerates the injectable fault and attack classes. A wrapper acts
// on the classes it knows and passes an operation through unharmed on any
// other, so a rule reaches only the wrappers that can mount its class.
type Class int

const (
	// None means the operation proceeds unharmed.
	None Class = iota
	// Reset closes the channel abruptly (TCP RST / peer crash mid-frame).
	Reset
	// Stall blocks the operation until the caller's deadline fires (or the
	// channel is closed) — a hung peer.
	Stall
	// Corrupt flips one bit of the data read (in-flight corruption; the
	// AEAD layer must reject the frame).
	Corrupt
	// Truncate delivers a prefix of the data then closes the channel
	// (a frame cut short by a dying peer).
	Truncate
	// Slow delays the operation without failing it (a congested or
	// overloaded peer).
	Slow
	// Crash models whole-node failure: the channel resets and the plan's
	// crash callback marks the node dead until it restarts and
	// re-attests.
	Crash
	// Rollback is recorded when a harness reverts a medium to a valid old
	// state — a restart from a stale snapshot, or adversary.Device.Rollback;
	// the secure store must refuse it.
	Rollback
	// TornWrite persists only a prefix of the block being written (the
	// suffix keeps its prior contents) and then fails the operation — a
	// power cut tearing a sector-buffered write mid-block. The store's
	// journal recovery must land on exactly the old or the new state.
	TornWrite

	// The attack classes: semantic, valid-looking tampering with whole
	// protocol units, mounted by package adversary.

	// Replay substitutes the unit with an earlier frame recorded on the
	// same leg. Frames recorded before a channel was re-dialed belong to a
	// *previous session* (fresh handshake, fresh keys), so a replay across a
	// redial is a cross-session replay; within one session it is a stale
	// retransmission. Either way the sequence-bound AEAD must reject it —
	// including replayed offload replies whose sealed payload carries a
	// stale epoch or stale budget prefix.
	Replay
	// Duplicate delivers the genuine unit and then injects a byte-identical
	// copy behind it, so the *next* exchange on the channel finds a stale
	// valid frame where its reply should be.
	Duplicate
	// Reorder holds the genuine unit back and delivers an out-of-order
	// frame (a recorded one, or a forgery when none exists) in its place;
	// the held unit is released in front of the next one.
	Reorder
	// Splice substitutes a frame recorded on a DIFFERENT leg — cross-
	// session, cross-node traffic stitched into this channel. At the
	// preamble or handshake step it splices another session's identity into
	// the connection setup.
	Splice
	// Inject prepends a forged ciphertext frame of plausible shape before
	// the genuine unit.
	Inject
	// Banner forges a plaintext pre-handshake overload banner (0x01 +
	// retry-after) on a control-plane connection — the one protocol unit an
	// off-path attacker can fabricate without any key material.
	Banner
	// StaleRead is the medium-level attack: a read of a block that changed
	// since the adversary's capture returns the captured *valid old* image.
	StaleRead
)

var classNames = [...]string{
	None: "none", Reset: "reset", Stall: "stall", Corrupt: "corrupt",
	Truncate: "truncate", Slow: "slow", Crash: "crash", Rollback: "rollback",
	TornWrite: "torn-write", Replay: "replay", Duplicate: "duplicate",
	Reorder: "reorder", Splice: "splice", Inject: "inject", Banner: "banner",
	StaleRead: "stale-read",
}

// String names a class for logs, stats and trace lines.
func (c Class) String() string {
	if c >= 0 && int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// ErrInjected is the root of every injected failure; errors.Is(err,
// ErrInjected) distinguishes scripted faults from genuine bugs in tests.
var ErrInjected = errors.New("faultinject: injected fault")

// InjectedError reports one injected fault with its class and site.
type InjectedError struct {
	Class Class
	Site  string
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultinject: injected %s at %s", e.Class, e.Site)
}

// Unwrap ties every injected error to ErrInjected.
func (e *InjectedError) Unwrap() error { return ErrInjected }

// Rule arms one class against matching sites. Sites are hierarchical strings
// like "conn:storage-01:read", "device:storage-02:write", or — for protocol
// units under attack — "storage-01:write:preamble" and
// "ctl:ingest:read:banner"; a Rule matches when Site is a substring of the
// operation's site.
type Rule struct {
	// Site substring to match ("" matches everything).
	Site string
	// Class to inject.
	Class Class
	// Prob is the per-operation injection probability (0..1]. Rules that
	// apply to the same operation occupy disjoint bands of one uniform
	// draw, so their probabilities add rather than overlap: with rules at
	// 0.02 and 0.015 on the same site, 3.5% of operations fault — 2%
	// with the first class, 1.5% with the second.
	Prob float64
	// After skips the site's first After operations (lets handshakes
	// complete before faulting steady-state traffic, or targets them
	// specifically with After: 0).
	After int
	// MaxCount bounds injections from this rule per site stream
	// (0 = unlimited).
	MaxCount int
}

// Fault is one decision to inject.
type Fault struct {
	Class Class
	Site  string
	// Bits is the decision's deterministic entropy: the bit a Corrupt fault
	// flips, a torn write's cut offset, the library index and forged bytes
	// of an attack.
	Bits uint64
}

// bit is the non-negative offset Corrupt and TornWrite faults derive their
// position from.
func (f Fault) bit() int { return int(f.Bits>>16) & 0x7fffffff }

// flip inverts the fault's bit of b in place.
func (f Fault) flip(b []byte) {
	bit := f.bit() % (len(b) * 8)
	b[bit/8] ^= 1 << (bit % 8)
}

// Fill overwrites b with the byte stream the fault's entropy expands to —
// the body of a forged frame.
func (f Fault) Fill(b []byte) {
	x := f.Bits | 1
	for i := range b {
		x = xorshift(x)
		b[i] = byte(x)
	}
}

// Plan is a deterministic fault plan: rules plus per-site decision streams.
// Safe for concurrent use; determinism holds as long as each site's
// operations occur in a deterministic order (the chaos suite runs queries
// sequentially for exactly this reason).
type Plan struct {
	seed uint64

	// SlowDelay is how long a Slow fault delays the operation (real time;
	// keep it far below the victim's IOTimeout so Slow degrades but never
	// fails). Zero disables the delay while still counting the fault.
	SlowDelay time.Duration

	// OpCost and StallPenalty price operations on the plan's virtual
	// clocks: every decided operation advances its site's clock by OpCost,
	// a Slow fault additionally advances it by SlowDelay, and a Stall by
	// StallPenalty (standing in for the victim's armed deadline). The
	// clocks give the gray-failure sweep a deterministic latency source —
	// NodeVirtualNow moves exactly with the seeded fault schedule, never
	// with the host machine's speed.
	OpCost       time.Duration
	StallPenalty time.Duration

	// OnCrash, when set, is invoked (once per Crash fault, outside plan
	// locks) with the site's node name — the chaos harness wires this to
	// Cluster.KillStorage.
	OnCrash func(node string)

	mu      sync.Mutex
	rules   []Rule
	streams map[string]*stream
	counts  map[Class]int
	log     []string
}

// stream is one site's deterministic decision state.
type stream struct {
	rng       uint64
	ops       int
	ruleCount map[int]int
	vnanos    int64 // virtual clock: operation costs + fault penalties
}

// NewPlan creates a plan from a seed and rules.
func NewPlan(seed uint64, rules ...Rule) *Plan {
	return &Plan{
		seed:         seed,
		rules:        rules,
		SlowDelay:    2 * time.Millisecond,
		OpCost:       100 * time.Microsecond,
		StallPenalty: 20 * time.Millisecond,
		streams:      map[string]*stream{},
		counts:       map[Class]int{},
	}
}

// Arm appends a rule to the plan (drills target one protocol step at a time).
// Calling it at a deterministic point in the run keeps the whole schedule
// reproducible.
func (p *Plan) Arm(r Rule) {
	p.mu.Lock()
	p.rules = append(p.rules, r)
	p.mu.Unlock()
}

// fnv1a hashes a site name into the stream seed.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func xorshift(x uint64) uint64 {
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	return x
}

func (p *Plan) stream(site string) *stream {
	s, ok := p.streams[site]
	if !ok {
		seed := p.seed ^ fnv1a(site)
		if seed == 0 {
			seed = 1
		}
		s = &stream{rng: seed, ruleCount: map[int]int{}}
		p.streams[site] = s
	}
	return s
}

// next draws the stream's next uniform value in [0,1) plus raw bits.
func (s *stream) next() (float64, uint64) {
	s.rng = xorshift(s.rng)
	bits := s.rng * 0x2545f4914f6cdd1d
	return float64(bits>>11) / float64(1<<53), bits
}

// Decide returns the fault (if any) to inject at site for its next
// operation. Exactly one rule can fire per operation; rules are consulted
// in order.
func (p *Plan) Decide(site string) Fault {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stream(site)
	op := s.ops
	s.ops++
	s.vnanos += int64(p.OpCost)
	u, bits := s.next()
	for i, r := range p.rules {
		if r.Class == None || r.Prob <= 0 {
			continue
		}
		if r.Site != "" && !strings.Contains(site, r.Site) {
			continue
		}
		if op < r.After {
			continue
		}
		if r.MaxCount > 0 && s.ruleCount[i] >= r.MaxCount {
			continue
		}
		if u >= r.Prob {
			// This rule's band passed over; shift the draw so later rules
			// see their own disjoint slice instead of being shadowed.
			u -= r.Prob
			continue
		}
		s.ruleCount[i]++
		p.counts[r.Class]++
		p.log = append(p.log, fmt.Sprintf("%s@%s#%d", r.Class, site, op))
		switch r.Class {
		case Slow:
			s.vnanos += int64(p.SlowDelay)
		case Stall:
			s.vnanos += int64(p.StallPenalty)
		}
		return Fault{Class: r.Class, Site: site, Bits: bits}
	}
	return Fault{Class: None, Site: site}
}

// NodeVirtualNow reads node's virtual clock: the summed operation costs and
// fault penalties of every site stream mentioning node (its read and write
// legs). The clock advances exactly with the seeded fault schedule, so
// latencies measured on it — and every ejection/hedging decision derived
// from them — are byte-identical per seed. Monotone non-decreasing per node.
func (p *Plan) NodeVirtualNow(node string) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	var sum int64
	for site, s := range p.streams {
		if strings.Contains(site, node) {
			sum += s.vnanos
		}
	}
	return time.Duration(sum)
}

// OpsAt reports how many operations site has decided so far — the rebuild
// and adversary sweeps count a clean pass's operations per site, then replay
// with a fault armed at each ordinal.
func (p *Plan) OpsAt(site string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s, ok := p.streams[site]; ok {
		return s.ops
	}
	return 0
}

// Record counts a fault a harness or wrapper mounted itself (Crash
// scheduling, Rollback restarts, stale medium reads) so Stats and Trace cover
// every class exercised.
func (p *Plan) Record(class Class, site string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.counts[class]++
	p.log = append(p.log, fmt.Sprintf("%s@%s", class, site))
}

// Stats returns the number of injections per class.
func (p *Plan) Stats() map[Class]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[Class]int, len(p.counts))
	for k, v := range p.counts {
		out[k] = v
	}
	return out
}

// Trace returns the injection log in order — part of the chaos suite's
// determinism digest.
func (p *Plan) Trace() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.log...)
}

// notifyCrash runs the crash callback outside the plan lock.
func (p *Plan) notifyCrash(node string) {
	p.mu.Lock()
	cb := p.OnCrash
	p.mu.Unlock()
	if cb != nil {
		cb(node)
	}
}
