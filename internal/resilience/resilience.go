// Package resilience is IronSafe's fault-tolerance layer: deadlines on
// blocking I/O, retry with capped exponential backoff and deterministic
// jitter, per-node health tracking with circuit breaking, and the dial
// helpers every distributed component uses instead of naked net.Dial.
//
// The package is deliberately clock-disciplined. Durations configure real
// I/O deadlines (genuinely real-time guards against hung peers, annotated
// for the wallclock analyzer), while backoff *waiting* is injectable: the
// default Sleep is nil, which makes retries immediate — correct for the
// deterministic chaos suite and unit tests — and the cmd binaries install
// RealSleep for production pacing. Jitter comes from a seeded xorshift
// stream, never from the global math/rand, so a fixed seed reproduces the
// exact retry schedule byte for byte.
package resilience

import (
	"errors"
	"fmt"
	"net"
	"time"
)

// Typed failure classes. Every error the resilience layer returns wraps one
// of these, so callers (and the chaos suite) can classify failures with
// errors.Is instead of string matching.
var (
	// ErrExhausted reports that every retry attempt failed.
	ErrExhausted = errors.New("resilience: retries exhausted")
	// ErrCircuitOpen reports a call skipped because the node's breaker is
	// open (the node failed repeatedly and is not yet probed again).
	ErrCircuitOpen = errors.New("resilience: circuit open")
	// ErrNodeDown reports a node known to be crashed or administratively
	// removed; no connection attempt is made.
	ErrNodeDown = errors.New("resilience: node down")
	// ErrDeadline reports an I/O deadline expiry (a hung or stalled peer).
	ErrDeadline = errors.New("resilience: deadline exceeded")
)

// Config tunes the resilience layer. The zero value is usable: WithDefaults
// fills production-grade settings. All knobs are per-cluster (or per-binary)
// so the chaos suite can shrink deadlines to milliseconds.
type Config struct {
	// DialTimeout bounds one TCP connect attempt.
	DialTimeout time.Duration
	// HandshakeTimeout bounds the secure-channel handshake (preamble, key
	// exchange, key confirmation) after the socket connects.
	HandshakeTimeout time.Duration
	// IOTimeout bounds each message send/recv on an established secure
	// channel. Zero disables per-message deadlines (server-side idle reads
	// legitimately block forever).
	IOTimeout time.Duration
	// DialAttempts is how many times dial+handshake is retried.
	DialAttempts int
	// RetryBase / RetryMax bound the exponential backoff envelope.
	RetryBase time.Duration
	RetryMax  time.Duration
	// RetryJitter is the fraction of each delay randomized (0..1).
	RetryJitter float64
	// Seed drives the deterministic jitter stream.
	Seed uint64
	// Sleep waits between retries. Nil means no waiting (virtual backoff):
	// the delay schedule is still computed and reported, but the caller
	// does not block — the mode used by tests and the chaos suite. Install
	// RealSleep in deployed binaries.
	Sleep func(time.Duration)
	// FailureThreshold consecutive failures open a node's circuit.
	FailureThreshold int
	// ProbeEvery allows one probe through an open circuit every N blocked
	// attempts (count-based half-open, deterministic without a clock).
	ProbeEvery int

	// AttemptCost is the deterministic budget charge for one offload or
	// retry attempt whose real duration is unknown (a stalled attempt burns
	// exactly its armed deadline; the budget charges AttemptCost so the
	// accounting never reads the wall clock). Defaults to IOTimeout when
	// set, else 100ms.
	AttemptCost time.Duration
	// EjectFactor soft-ejects a node whose EWMA latency exceeds EjectFactor×
	// the median of the rest of the cohort (deprioritized, probed,
	// readmitted — distinct from the fail-stop down-set). The candidate's
	// own EWMA is excluded from its comparison median so an outlier cannot
	// inflate the benchmark it is judged against. Defaults to 4.
	EjectFactor int
	// ReadmitFactor readmits an ejected node once its EWMA falls back under
	// ReadmitFactor× the median of the rest of the cohort (hysteresis so a
	// node on the boundary does not flap). Defaults to 2.
	ReadmitFactor int
	// EjectMinSamples is the minimum latency reports a node needs before it
	// can be ejected (no ejecting on one slow outlier). Defaults to 3.
	EjectMinSamples int
	// EjectFloor is an absolute latency below which a node is never ejected
	// regardless of the cohort ratio (all-fast cohorts have harmless
	// multiplicative spread). Defaults to 1ms.
	EjectFloor time.Duration
	// LatencyClock, when set, supplies the current per-node time used to
	// measure offload latencies for the EWMA estimator, and switches the
	// gray-failure machinery on: latency tracking, cohort-median
	// soft-ejection and hedged offloads. Nil leaves all three off. The gray
	// sweep injects a virtual clock derived from the fault plan so ejection
	// decisions are deterministic per seed.
	LatencyClock func(node string) time.Duration
}

// queryBudgetAttempts sizes the per-query deadline budget in AttemptCost
// units: generous enough that fail-stop retry patterns (worst case one
// attempt plus one fresh-channel handshake per ship per candidate) never hit
// it; only sustained gray failure does.
const queryBudgetAttempts = 32

// WithDefaults returns c with zero fields replaced by production defaults.
func (c Config) WithDefaults() Config {
	if c.DialTimeout == 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.HandshakeTimeout == 0 {
		c.HandshakeTimeout = 3 * time.Second
	}
	// IOTimeout deliberately keeps its zero value unless set: per-message
	// deadlines are opt-in per channel role.
	if c.DialAttempts == 0 {
		c.DialAttempts = 3
	}
	if c.RetryBase == 0 {
		c.RetryBase = 20 * time.Millisecond
	}
	if c.RetryMax == 0 {
		c.RetryMax = 2 * time.Second
	}
	if c.RetryJitter == 0 {
		c.RetryJitter = 0.2
	}
	if c.FailureThreshold == 0 {
		c.FailureThreshold = 3
	}
	if c.ProbeEvery == 0 {
		c.ProbeEvery = 4
	}
	if c.AttemptCost == 0 {
		if c.IOTimeout > 0 {
			c.AttemptCost = c.IOTimeout
		} else {
			c.AttemptCost = 100 * time.Millisecond
		}
	}
	if c.EjectFactor == 0 {
		c.EjectFactor = 4
	}
	if c.ReadmitFactor == 0 {
		c.ReadmitFactor = 2
	}
	if c.EjectMinSamples == 0 {
		c.EjectMinSamples = 3
	}
	if c.EjectFloor == 0 {
		c.EjectFloor = time.Millisecond
	}
	return c
}

// NewQueryBudget creates the per-query deadline budget: queryBudgetAttempts
// charges of AttemptCost (call on a WithDefaults config; a zero AttemptCost
// yields a nil = unlimited budget).
func (c Config) NewQueryBudget() *Budget {
	return NewBudget(queryBudgetAttempts*c.AttemptCost, c.AttemptCost)
}

// RealSleep blocks for d on the real clock — deployed-binary pacing only;
// simulations leave Config.Sleep nil.
func RealSleep(d time.Duration) {
	time.Sleep(d) //ironsafe:allow wallclock -- genuinely real-time retry pacing in deployed binaries
}

// permanentError marks an error that must not be retried.
type permanentError struct{ err error }

func (p *permanentError) Error() string { return p.err.Error() }
func (p *permanentError) Unwrap() error { return p.err }

// Permanent wraps err so Retry stops immediately instead of retrying:
// policy denials, authentication failures, and malformed requests do not
// become less denied by trying again.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err (or anything it wraps) was marked
// Permanent.
func IsPermanent(err error) bool {
	var p *permanentError
	return errors.As(err, &p)
}

// xorshift64star is the deterministic jitter stream.
type xorshift64star struct{ state uint64 }

func newRNG(seed uint64) *xorshift64star {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &xorshift64star{state: seed}
}

func (r *xorshift64star) next() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// float64 returns a uniform value in [0, 1).
func (r *xorshift64star) float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// Backoff computes a capped exponential retry schedule with deterministic
// jitter. Not safe for concurrent use; create one per retry loop.
type Backoff struct {
	base, max time.Duration
	jitter    float64
	rng       *xorshift64star
}

// NewBackoff builds a Backoff from the config (seed offsets allow distinct
// streams per call site without correlating their jitter).
func (c Config) NewBackoff(seedOffset uint64) *Backoff {
	return &Backoff{
		base:   c.RetryBase,
		max:    c.RetryMax,
		jitter: c.RetryJitter,
		rng:    newRNG(c.Seed ^ (seedOffset*0x9e3779b97f4a7c15 + 1)),
	}
}

// Next returns the delay before retry attempt (attempt 0 = first retry):
// min(base<<attempt, max), with ±jitter/2 randomization.
func (b *Backoff) Next(attempt int) time.Duration {
	d := b.base
	for i := 0; i < attempt && d < b.max; i++ {
		d *= 2
	}
	if d > b.max {
		d = b.max
	}
	if b.jitter > 0 {
		f := 1 + b.jitter*(b.rng.float64()-0.5)
		d = time.Duration(float64(d) * f)
	}
	return d
}

// ExhaustedError is the typed failure Retry returns when every attempt
// failed: it wraps ErrExhausted and the last attempt's error, and carries
// per-attempt elapsed time so budget accounting can see where a query's
// slice went. PerAttempt holds each attempt's deterministic charge
// (AttemptCost per attempt, or the budget slice an attempt was armed with),
// never measured wall time, so error values are reproducible per seed.
type ExhaustedError struct {
	// Attempts is how many times op ran before giving up.
	Attempts int
	// PerAttempt is each attempt's elapsed-time charge, in attempt order.
	PerAttempt []time.Duration
	// Last is the final attempt's error.
	Last error
}

func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("%v after %d attempts: %v", ErrExhausted, e.Attempts, e.Last)
}

// Unwrap lets errors.Is match both ErrExhausted and the underlying failure.
func (e *ExhaustedError) Unwrap() []error { return []error{ErrExhausted, e.Last} }

// Elapsed sums the per-attempt charges — the total budget the failed retry
// cycle consumed.
func (e *ExhaustedError) Elapsed() time.Duration {
	var total time.Duration
	for _, d := range e.PerAttempt {
		total += d
	}
	return total
}

// Retry runs op up to attempts times, backing off between failures. A nil
// cfg.Sleep computes but does not wait the delays; no backoff is slept after
// the final failed attempt. Errors marked Permanent stop the loop at once;
// exhausting attempts returns an *ExhaustedError wrapping both ErrExhausted
// and the last failure.
func Retry(cfg Config, attempts int, op func(attempt int) error) error {
	return RetryBudgeted(cfg, attempts, nil, op)
}

// RetryBudgeted is Retry gated by a per-query deadline budget: each attempt
// first charges cfg.AttemptCost (via b.SpendAttempt) and the loop stops with
// an error wrapping ErrBudgetExhausted the moment the budget runs dry —
// even if attempts remain. A nil budget is unlimited, making this exactly
// Retry. This is the sanctioned retry form inside the cluster/hostengine
// subtree (enforced by the ironsafe-vet budgetless analyzer).
func RetryBudgeted(cfg Config, attempts int, bud *Budget, op func(attempt int) error) error {
	if attempts <= 0 {
		attempts = 1
	}
	cost := cfg.AttemptCost
	if cost <= 0 {
		cost = cfg.WithDefaults().AttemptCost
	}
	b := cfg.NewBackoff(uint64(attempts))
	var err error
	var perAttempt []time.Duration
	for i := 0; i < attempts; i++ {
		if !bud.SpendAttempt() {
			exh := &ExhaustedError{Attempts: i, PerAttempt: perAttempt, Last: err}
			if err == nil {
				return fmt.Errorf("%w before attempt %d", ErrBudgetExhausted, i+1)
			}
			return fmt.Errorf("%w: %w", ErrBudgetExhausted, exh)
		}
		perAttempt = append(perAttempt, cost)
		if err = op(i); err == nil {
			return nil
		}
		if IsPermanent(err) {
			return err
		}
		if i+1 < attempts {
			if d := b.Next(i); cfg.Sleep != nil && d > 0 {
				cfg.Sleep(d)
			}
		}
	}
	return &ExhaustedError{Attempts: attempts, PerAttempt: perAttempt, Last: err}
}

// DialTCP opens a TCP connection with per-attempt timeout and backoff —
// the sanctioned replacement for naked net.Dial in distributed components
// (enforced by the ironsafe-vet rawnet analyzer).
func DialTCP(addr string, cfg Config) (net.Conn, error) {
	cfg = cfg.WithDefaults()
	var conn net.Conn
	err := Retry(cfg, cfg.DialAttempts, func(int) error {
		c, err := net.DialTimeout("tcp", addr, cfg.DialTimeout)
		if err != nil {
			return err
		}
		conn = c
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("resilience: dial %s: %w", addr, err)
	}
	return conn, nil
}

// WithConnDeadline arms an absolute deadline on conn around fn and clears
// it after — the standard guard for handshakes and preambles so a hung peer
// cannot block the caller forever. A zero d runs fn unguarded.
func WithConnDeadline(conn net.Conn, d time.Duration, fn func() error) error {
	if conn == nil || d <= 0 {
		return fn()
	}
	deadline := time.Now().Add(d) //ironsafe:allow wallclock -- genuinely real-time I/O deadline against hung peers
	if err := conn.SetDeadline(deadline); err != nil {
		return err
	}
	defer conn.SetDeadline(time.Time{})
	return fn()
}

// WithBudgetedConnDeadline is WithConnDeadline gated by a per-query deadline
// budget: the attempt is refused with ErrBudgetExhausted when the budget is
// dry, the armed deadline is clipped to min(d, remaining budget) so a
// stalled peer can never burn more real time than the query has left, and
// one deterministic AttemptCost is charged. The charge is deliberately NOT
// the armed slice — a 3 s handshake timeout must not drain a whole query
// budget paying for a handshake that completes instantly. A nil budget is
// unlimited. This is the sanctioned deadline form inside the
// cluster/hostengine subtree (enforced by the ironsafe-vet budgetless
// analyzer).
func WithBudgetedConnDeadline(conn net.Conn, bud *Budget, d time.Duration, fn func() error) error {
	slice := bud.Slice(d)
	if !bud.SpendAttempt() {
		return fmt.Errorf("%w: conn deadline refused", ErrBudgetExhausted)
	}
	return WithConnDeadline(conn, slice, fn)
}
