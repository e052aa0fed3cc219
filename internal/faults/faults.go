// Package faults is Cooper's deterministic fault-injection subsystem: a
// seeded Plan that wraps net.Conn to inject connect failures, read/write
// stalls, message drops and duplicates, and abrupt resets, plus a
// schedule of agent crashes and rejoins — the hostile-network regime the
// coordinator must keep clearing the matching market under.
//
// Determinism is the package's contract, mirroring internal/parallel:
// every injection decision is drawn from a per-key SplitMix64-derived RNG
// (parallel.SplitSeed(plan seed, key)), one draw per protocol message, so
// the same Plan seed over the same message sequence reproduces the same
// faults — and the same fault.injected.* telemetry counters — byte for
// byte across runs. The wire protocol is JSON lines; the conn wrapper
// exploits that framing to make injection message-granular: writes are
// one message per Write call, and reads are chunked line-by-line so a
// single decision covers a whole inbound message regardless of how TCP
// fragments it.
//
// Every injected fault is counted through internal/telemetry under
// fault.injected.{connect_fail,drop,dup,stall,reset,crash,rejoin}; the
// counters are pre-created by NewPlan so exposition snapshots list them
// even before the first injection. Faults are counted, never logged: the
// injector runs on connection goroutines, and the flight recorder has one
// writer (the coordinator), so its event order stays deterministic.
package faults

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"cooper/internal/parallel"
	"cooper/internal/telemetry"
)

// ErrInjected marks a failure manufactured by the injector rather than
// the network. Test with errors.Is.
var ErrInjected = errors.New("faults: injected failure")

// Crash schedules one agent's abrupt death (and optional rejoin) at an
// epoch boundary. The harness driving the agents executes the schedule —
// the plan only holds and counts it — so crashes land at deterministic
// points in each agent's message stream.
type Crash struct {
	// Agent is the injector key of the agent to crash.
	Agent int64
	// Epoch is the 0-based scheduling epoch at which the crash fires.
	Epoch int
	// Rejoin re-dials the coordinator after the crash; the agent comes
	// back as a fresh registration under a new AgentID.
	Rejoin bool
}

// Config parameterizes a Plan. All probabilities are per-message (or
// per-connect for ConnectFailProb) in [0, 1]; ResetProb + DropProb +
// DupProb + StallProb must not exceed 1 since a single draw selects at
// most one fault per message.
type Config struct {
	// Seed drives every injection decision via per-key SplitSeed streams.
	Seed int64
	// ConnectFailProb fails a dial attempt before it touches the network.
	ConnectFailProb float64
	// DropProb silently discards an outbound message.
	DropProb float64
	// DupProb sends an outbound message twice.
	DupProb float64
	// StallProb delays a message (inbound or outbound) by Stall.
	StallProb float64
	// Stall is the injected delay; zero stalls are still counted.
	Stall time.Duration
	// ResetProb abruptly closes the connection mid-operation.
	ResetProb float64
	// Crashes schedules agent deaths and rejoins at epoch boundaries.
	Crashes []Crash
}

// Validate checks the probabilities are well-formed.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"ConnectFailProb", c.ConnectFailProb},
		{"DropProb", c.DropProb},
		{"DupProb", c.DupProb},
		{"StallProb", c.StallProb},
		{"ResetProb", c.ResetProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("faults: %s = %v outside [0, 1]", p.name, p.v)
		}
	}
	if sum := c.ResetProb + c.DropProb + c.DupProb + c.StallProb; sum > 1 {
		return fmt.Errorf("faults: per-message fault probabilities sum to %v > 1", sum)
	}
	return nil
}

// Hostile returns the canonical chaos profile armed by the daemons'
// -chaos-seed flag: a network that drops a fifth of all traffic,
// duplicates and stalls some of the rest, and occasionally resets
// connections outright.
func Hostile(seed int64) Config {
	return Config{
		Seed:            seed,
		ConnectFailProb: 0.10,
		DropProb:        0.20,
		DupProb:         0.10,
		StallProb:       0.10,
		Stall:           2 * time.Millisecond,
		ResetProb:       0.02,
	}
}

// CounterNames lists every fault.injected.* counter a Plan records, in
// stable order, so exposition tests can assert the full set is present.
func CounterNames() []string {
	return []string{
		"fault.injected.connect_fail",
		"fault.injected.crash",
		"fault.injected.drop",
		"fault.injected.dup",
		"fault.injected.rejoin",
		"fault.injected.reset",
		"fault.injected.stall",
	}
}

// Plan is a seeded fault-injection plan shared by all the connections of
// one process. It hands out per-key Injectors whose RNG streams are
// independent, so concurrent connections cannot perturb each other's
// fault sequences. A nil *Plan disables injection: every method is a
// no-op and Wrap returns the conn unchanged.
type Plan struct {
	cfg     Config
	clock   Clock
	metrics *telemetry.Registry

	mu  sync.Mutex
	inj map[int64]*Injector
}

// NewPlan builds a Plan. metrics may be nil (faults go uncounted); clock
// nil means RealClock. The fault.injected.* counters are pre-created in
// the registry so snapshots expose them at zero. An invalid Config is a
// programmer error and panics: a malformed plan would silently skew the
// cumulative-threshold fault selection, exactly what Validate guards.
func NewPlan(cfg Config, metrics *telemetry.Registry, clock Clock) *Plan {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if clock == nil {
		clock = RealClock()
	}
	for _, name := range CounterNames() {
		metrics.Counter(name)
	}
	return &Plan{cfg: cfg, clock: clock, metrics: metrics, inj: make(map[int64]*Injector)}
}

// Config returns the plan's configuration (zero value for a nil plan).
func (p *Plan) Config() Config {
	if p == nil {
		return Config{}
	}
	return p.cfg
}

// Injector returns the plan's injector for key, creating it on first use
// with an RNG seeded by SplitSeed(plan seed, key). The same key always
// returns the same injector, so an agent that reconnects continues its
// fault stream where it left off. Nil plans return a nil (no-op)
// injector.
func (p *Plan) Injector(key int64) *Injector {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	in, ok := p.inj[key]
	if !ok {
		in = &Injector{
			key:     key,
			cfg:     p.cfg,
			clock:   p.clock,
			metrics: p.metrics,
			rng:     rand.New(rand.NewSource(parallel.SplitSeed(p.cfg.Seed, key))),
		}
		p.inj[key] = in
	}
	return in
}

// Wrap is shorthand for Injector(key).Wrap(c).
func (p *Plan) Wrap(key int64, c net.Conn) net.Conn {
	return p.Injector(key).Wrap(c)
}

// CrashesDue returns the crash events scheduled for the given epoch.
func (p *Plan) CrashesDue(epoch int) []Crash {
	if p == nil {
		return nil
	}
	var due []Crash
	for _, cr := range p.cfg.Crashes {
		if cr.Epoch == epoch {
			due = append(due, cr)
		}
	}
	return due
}

// RecordCrash counts one executed scheduled crash.
func (p *Plan) RecordCrash() {
	if p == nil {
		return
	}
	p.metrics.Counter("fault.injected.crash").Inc()
}

// RecordRejoin counts one executed scheduled rejoin.
func (p *Plan) RecordRejoin() {
	if p == nil {
		return
	}
	p.metrics.Counter("fault.injected.rejoin").Inc()
}

// Injector draws fault decisions for one connection key. All methods are
// nil-safe no-ops so call sites need no guards when injection is off.
type Injector struct {
	key     int64
	cfg     Config
	clock   Clock
	metrics *telemetry.Registry

	mu    sync.Mutex
	rng   *rand.Rand
	draws int64
}

func (in *Injector) draw() float64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.draws++
	return in.rng.Float64()
}

// Draws reports how many decisions this injector has drawn so far. Two
// runs of the same plan must show the same per-key draw counts at the
// same protocol points; comparing them localizes a determinism leak to a
// key and an epoch.
func (in *Injector) Draws() int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.draws
}

func (in *Injector) count(kind string) {
	in.metrics.Counter("fault.injected." + kind).Inc()
}

// Float64 exposes the injector's RNG stream for auxiliary randomness
// (e.g. deterministic backoff jitter in tests).
func (in *Injector) Float64() float64 {
	if in == nil {
		return 0
	}
	return in.draw()
}

// FailConnect decides whether the next dial attempt should fail before
// touching the network. Exactly one draw per call.
func (in *Injector) FailConnect() bool {
	if in == nil {
		return false
	}
	if in.draw() < in.cfg.ConnectFailProb {
		in.count("connect_fail")
		return true
	}
	return false
}

type action int

const (
	actNone action = iota
	actDrop
	actDup
	actStall
	actReset
)

// writeAction draws one per-message decision for an outbound message.
// Cumulative thresholds keep it to a single draw: reset, then drop, then
// dup, then stall, else clean.
func (in *Injector) writeAction() action {
	if in == nil {
		return actNone
	}
	r := in.draw()
	c := in.cfg
	switch {
	case r < c.ResetProb:
		in.count("reset")
		return actReset
	case r < c.ResetProb+c.DropProb:
		in.count("drop")
		return actDrop
	case r < c.ResetProb+c.DropProb+c.DupProb:
		in.count("dup")
		return actDup
	case r < c.ResetProb+c.DropProb+c.DupProb+c.StallProb:
		in.count("stall")
		return actStall
	}
	return actNone
}

// readAction draws one per-message decision for an inbound message:
// reset, then stall, else clean. Drops and dups are sender-side faults.
func (in *Injector) readAction() action {
	if in == nil {
		return actNone
	}
	r := in.draw()
	c := in.cfg
	switch {
	case r < c.ResetProb:
		in.count("reset")
		return actReset
	case r < c.ResetProb+c.StallProb:
		in.count("stall")
		return actStall
	}
	return actNone
}

// Wrap returns c with this injector's faults applied to every message
// crossing it. A nil injector returns c unchanged. The wrapper assumes a
// line-delimited protocol: each Write call is one message, and inbound
// bytes are chunked at newlines so one decision covers one message.
func (in *Injector) Wrap(c net.Conn) net.Conn {
	if in == nil {
		return c
	}
	return &conn{Conn: c, in: in, br: bufio.NewReader(c)}
}

type conn struct {
	net.Conn
	in      *Injector
	br      *bufio.Reader
	pending []byte
}

func (fc *conn) Read(p []byte) (int, error) {
	if len(fc.pending) == 0 {
		line, err := fc.br.ReadBytes('\n')
		if len(line) == 0 {
			return 0, err
		}
		if err == nil {
			// A complete message arrived: one injection decision for the
			// whole line. Partial lines (broken peer) pass through without
			// a draw so a torn connection cannot skew the fault stream.
			switch fc.in.readAction() {
			case actStall:
				fc.in.clock.Sleep(fc.in.cfg.Stall)
			case actReset:
				fc.Conn.Close()
				return 0, fmt.Errorf("faults: read reset on key %d: %w", fc.in.key, ErrInjected)
			}
		}
		fc.pending = line
	}
	n := copy(p, fc.pending)
	fc.pending = fc.pending[n:]
	return n, nil
}

func (fc *conn) Write(p []byte) (int, error) {
	switch fc.in.writeAction() {
	case actDrop:
		// The caller sees success; the peer sees silence.
		return len(p), nil
	case actDup:
		if n, err := fc.Conn.Write(p); err != nil {
			return n, err
		}
		if _, err := fc.Conn.Write(p); err != nil {
			return len(p), err
		}
		return len(p), nil
	case actStall:
		fc.in.clock.Sleep(fc.in.cfg.Stall)
	case actReset:
		fc.Conn.Close()
		return 0, fmt.Errorf("faults: write reset on key %d: %w", fc.in.key, ErrInjected)
	}
	return fc.Conn.Write(p)
}
