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
// RealSleep for production pacing. Jitter comes from a xorshift stream with
// a fixed seed per call site, never from the global math/rand, so every run
// reproduces the exact retry schedule byte for byte.
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
// fills the handshake deadline. Each field has more than one value in use:
// the chaos suite shrinks the deadlines to milliseconds, the binaries pace
// retries on the real clock, and the gray sweep measures latency on a
// virtual one.
type Config struct {
	// HandshakeTimeout bounds the secure-channel handshake (preamble, key
	// exchange, key confirmation) after the socket connects.
	HandshakeTimeout time.Duration
	// IOTimeout bounds each message send/recv on an established secure
	// channel. Zero disables per-message deadlines (server-side idle reads
	// legitimately block forever).
	IOTimeout time.Duration
	// Sleep waits between retries. Nil means no waiting (virtual backoff):
	// the delay schedule is still computed and reported, but the caller
	// does not block — the mode used by tests and the chaos suite. Install
	// RealSleep in deployed binaries.
	Sleep func(time.Duration)
	// LatencyClock, when set, supplies the current per-node time used to
	// measure offload latencies for the EWMA estimator, and switches the
	// gray-failure machinery on: latency tracking, cohort-median
	// soft-ejection and hedged offloads. Nil leaves all three off. The gray
	// sweep injects a virtual clock derived from the fault plan so ejection
	// decisions are deterministic per seed.
	LatencyClock func(node string) time.Duration
}

// DialAttempts is how many times a dial (TCP connect, or a control client's
// connect and handshake through an overload refusal) is tried.
const DialAttempts = 3

// The layer's settings, one value each in use. A circuit opens after
// failureThreshold consecutive failures and lets a probe through every
// probeEvery blocked attempts (count-based, so deterministic without a
// clock); Prioritize likewise keeps a soft-ejected node in place at every
// probeEvery-th demotion. A node is soft-ejected once it has ejectMinSamples
// latency reports and its EWMA exceeds both ejectFloor and ejectFactor× the
// median of the rest of the cohort, and readmitted under ejectFloor or
// readmitFactor× that median (hysteresis against flapping). The floor spares
// all-fast cohorts, whose spread is harmless; the sample minimum spares a
// node one slow outlier.
const (
	dialTimeout             = 2 * time.Second // one TCP connect attempt
	defaultHandshakeTimeout = 3 * time.Second
	retryBase               = 20 * time.Millisecond // the backoff envelope: doubling from retryBase,
	retryMax                = 2 * time.Second       // capped at retryMax,
	retryJitter             = 0.2                   // each delay scaled by 1 ± retryJitter/2
	failureThreshold        = 3
	probeEvery              = 4
	ejectFactor             = 4
	readmitFactor           = 2
	ejectMinSamples         = 3
	ejectFloor              = time.Millisecond
	defaultAttemptCost      = 100 * time.Millisecond // an attempt's budget charge without IOTimeout
)

// queryBudgetAttempts sizes the per-query deadline budget in attempt-cost
// units: generous enough that fail-stop retry patterns (worst case one
// attempt plus one fresh-channel handshake per ship per candidate) never hit
// it; only sustained gray failure does.
const queryBudgetAttempts = 32

// WithDefaults returns c with an unset HandshakeTimeout replaced by the
// production default. IOTimeout deliberately keeps its zero value unless
// set: per-message deadlines are opt-in per channel role.
func (c Config) WithDefaults() Config {
	if c.HandshakeTimeout == 0 {
		c.HandshakeTimeout = defaultHandshakeTimeout
	}
	return c
}

// attemptCost is the deterministic budget charge for one offload or retry
// attempt whose real duration is unknown: a stalled attempt burns exactly its
// armed deadline, so the charge is IOTimeout when set, else 100 ms, and the
// accounting never reads the wall clock.
func (c Config) attemptCost() time.Duration {
	if c.IOTimeout > 0 {
		return c.IOTimeout
	}
	return defaultAttemptCost
}

// NewQueryBudget creates the per-query deadline budget: queryBudgetAttempts
// charges of the attempt cost.
func (c Config) NewQueryBudget() *Budget {
	cost := c.attemptCost()
	return NewBudget(queryBudgetAttempts*cost, cost)
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

// jitterStream is a retry loop's jitter stream, fixed by seed — the loop's
// attempt count — so distinct call sites draw distinct streams.
func jitterStream(seed uint64) *xorshift64star { return newRNG(seed*0x9e3779b97f4a7c15 + 1) }

// backoff returns the delay before retry attempt (attempt 0 = first retry):
// min(retryBase<<attempt, retryMax), with ±retryJitter/2 drawn from jitter.
func backoff(attempt int, jitter *xorshift64star) time.Duration {
	d := retryBase
	for i := 0; i < attempt && d < retryMax; i++ {
		d *= 2
	}
	d = min(d, retryMax)
	return time.Duration(float64(d) * (1 + retryJitter*(jitter.float64()-0.5)))
}

// ExhaustedError is the typed failure Retry returns when every attempt
// failed: it wraps ErrExhausted and the last attempt's error, and carries
// per-attempt elapsed time so budget accounting can see where a query's
// slice went. PerAttempt holds each attempt's deterministic charge
// (the attempt cost per attempt, or the budget slice an attempt was armed with),
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
// first charges the budget's attempt cost (via b.SpendAttempt) and the loop stops with
// an error wrapping ErrBudgetExhausted the moment the budget runs dry —
// even if attempts remain. A nil budget is unlimited, making this exactly
// Retry. This is the sanctioned retry form inside the cluster/hostengine
// subtree (enforced by the ironsafe-vet budgetless analyzer).
func RetryBudgeted(cfg Config, attempts int, bud *Budget, op func(attempt int) error) error {
	if attempts <= 0 {
		attempts = 1
	}
	cost := cfg.attemptCost()
	jitter := jitterStream(uint64(attempts))
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
		if i+1 < attempts && cfg.Sleep != nil {
			cfg.Sleep(backoff(i, jitter))
		}
	}
	return &ExhaustedError{Attempts: attempts, PerAttempt: perAttempt, Last: err}
}

// DialTCP opens a TCP connection with per-attempt timeout and backoff —
// the sanctioned replacement for naked net.Dial in distributed components
// (enforced by the ironsafe-vet rawnet analyzer).
func DialTCP(addr string, cfg Config) (net.Conn, error) {
	var conn net.Conn
	err := Retry(cfg, DialAttempts, func(int) error {
		c, err := net.DialTimeout("tcp", addr, dialTimeout)
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
// one deterministic attempt cost is charged. The charge is deliberately NOT
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
