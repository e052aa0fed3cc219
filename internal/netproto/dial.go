package netproto

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"cooper/internal/faults"
	"cooper/internal/telemetry"
)

// Default backoff schedule for DialWith retries.
const (
	DefaultBackoff    = 100 * time.Millisecond
	DefaultMaxBackoff = 5 * time.Second
)

// DialOptions configures DialWith. The zero value gives one attempt with
// the default connect timeout and no fault injection — exactly Dial.
type DialOptions struct {
	// Timeout bounds one connect attempt (and the registration reply's
	// read deadline); zero means DefaultDialTimeout, negative disables.
	Timeout time.Duration
	// Retries is how many additional attempts follow a retryable failure
	// (connect error, injected fault, timeout). Registration rejections —
	// the coordinator answered, and said no — are permanent and never
	// retried.
	Retries int
	// Backoff is the initial retry delay; it doubles per retry up to
	// MaxBackoff, with jitter drawing the actual sleep uniformly from
	// [backoff/2, backoff). Zeros mean DefaultBackoff / DefaultMaxBackoff.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// ReadTimeout and WriteTimeout are copied onto the resulting Client.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// Clock times the backoff sleeps; nil means the real clock. Tests
	// pass a faults.FakeClock so a multi-second backoff ladder asserts
	// instantly.
	Clock faults.Clock
	// Faults, when non-nil, injects connect failures before each attempt
	// and wraps the resulting conn for message-level chaos.
	Faults *faults.Injector
	// Metrics, when non-nil, counts each backoff retry as net.retry.
	Metrics *telemetry.Registry
	// Jitter supplies the backoff jitter draw in [0, 1); nil means
	// math/rand. Deterministic harnesses pin it.
	Jitter func() float64
	// Span, when non-nil, parents one "dial" sub-span per connect
	// attempt (attrs: attempt index, and on success the assigned agent
	// ID) and is installed as the resulting Client's Span — the
	// agent-side span tree that Rebase later stitches under the
	// coordinator's trace.
	Span *telemetry.Span
}

// permanentError marks a dial failure that retrying cannot fix: the
// coordinator was reached and rejected the registration.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Dial connects to the coordinator and registers the agent's job, with
// the default connect timeout and no retries.
func Dial(addr, job string) (*Client, error) {
	return DialWith(addr, job, DialOptions{})
}

// DialWith connects to the coordinator and registers the agent's job,
// retrying retryable failures with capped exponential backoff and
// jitter. Each retry sleeps uniformly in [backoff/2, backoff), doubles
// the backoff up to the cap, and counts net.retry.
func DialWith(addr, job string, opts DialOptions) (*Client, error) {
	clock := opts.Clock
	if clock == nil {
		clock = faults.RealClock()
	}
	backoff := opts.Backoff
	if backoff <= 0 {
		backoff = DefaultBackoff
	}
	maxBackoff := opts.MaxBackoff
	if maxBackoff <= 0 {
		maxBackoff = DefaultMaxBackoff
	}
	jitter := opts.Jitter
	if jitter == nil {
		jitter = rand.Float64
	}

	var lastErr error
	for attempt := 0; ; attempt++ {
		c, err := dialOnce(addr, job, opts, attempt)
		if err == nil {
			return c, nil
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return nil, perm.err
		}
		lastErr = err
		if attempt >= opts.Retries {
			break
		}
		opts.Metrics.Counter("net.retry").Inc()
		clock.Sleep(time.Duration((0.5 + 0.5*jitter()) * float64(backoff)))
		backoff *= 2
		if backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
	if opts.Retries > 0 {
		return nil, fmt.Errorf("netproto: dial %s: %d attempts exhausted: %w",
			addr, opts.Retries+1, lastErr)
	}
	return nil, lastErr
}

// dialOnce performs a single connect-and-register attempt, timed by its
// own "dial" span so retry ladders are visible in the stitched trace.
func dialOnce(addr, job string, opts DialOptions, attempt int) (*Client, error) {
	sp := opts.Span.Child("dial")
	sp.SetAttr("attempt", attempt)
	defer sp.Finish()
	if opts.Faults.FailConnect() {
		sp.SetAttr("error", "injected connect failure")
		return nil, fmt.Errorf("netproto: dial %s: %w", addr, faults.ErrInjected)
	}
	timeout := timeoutOrDefault(opts.Timeout, DefaultDialTimeout)
	d := net.Dialer{Timeout: timeout}
	conn, err := d.DialContext(context.Background(), "tcp", addr)
	if err != nil {
		return nil, err
	}
	conn = opts.Faults.Wrap(conn)
	c := &Client{
		conn:         conn,
		rd:           newLineReader(conn),
		OwnJob:       job,
		ReadTimeout:  opts.ReadTimeout,
		WriteTimeout: opts.WriteTimeout,
		Span:         opts.Span,
	}
	// The register write and its reply share the connect timeout: a
	// coordinator that accepted the conn but won't read or answer is a
	// dial failure, not a hang.
	if timeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(timeout))
	}
	if err := c.write(&Message{Type: "register", Job: job}); err != nil {
		conn.Close()
		return nil, err
	}
	if timeout > 0 {
		conn.SetReadDeadline(time.Now().Add(timeout))
	}
	var reg Message
	if err := readMessage(c.rd, &reg); err != nil {
		conn.Close()
		return nil, err
	}
	if reg.Type == "error" {
		conn.Close()
		return nil, &permanentError{fmt.Errorf("netproto: %s", reg.Error)}
	}
	if reg.Type != "registered" {
		conn.Close()
		return nil, &permanentError{fmt.Errorf("netproto: expected registered, got %q", reg.Type)}
	}
	c.AgentID = reg.AgentID
	sp.SetAttr("agent", reg.AgentID)
	// A malformed trace context degrades to "no propagation" rather than
	// failing the dial: tracing must never take down an agent.
	if tc, err := telemetry.ParseTraceContext(reg.TraceContext); err == nil {
		c.TraceCtx = tc
	}
	return c, nil
}
