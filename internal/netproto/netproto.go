// Package netproto implements Cooper's coordinator/agent wire protocol: a
// JSON-lines exchange over TCP in which remote agents register their jobs,
// the coordinator batches an epoch, computes colocations, pushes
// assignments, collects each agent's strategic assessment, and finishes
// with an epoch summary — the networked deployment style of the paper's
// Java agents.
//
// Message flow:
//
//	agent -> coordinator   {"type":"register","job":"dedup"}
//	coordinator -> agent   {"type":"registered","agent_id":3}
//	coordinator -> agent   {"type":"assignment","partner_id":7,"seq":1,...}
//	agent -> coordinator   {"type":"assess","action":"participate","seq":1}
//	coordinator -> agent   {"type":"summary","mean_penalty":...}
//
// Framing is one JSON object per line, and a line is at most 4 KiB,
// newline included: a longer one is a malformed message, counted by the
// coordinator as net.rejected.line_too_long. Both ends write each message
// with exactly one conn.Write, in the bytes encoding/json would write
// (same field order, omitempty, float format and HTML-safe escaping), and
// accept exactly what encoding/json accepts; a small codec (codec.go)
// does both without reflection for the messages the protocol exchanges.
// A line holding two objects, or an object split across lines, is
// malformed.
//
// The coordinator is resilient to agent churn: every read and write
// carries a deadline, an agent that dies or goes mute mid-epoch is reaped
// (its session closed, net.reaped counted) and the survivors re-matched
// in a fresh assignment round — the epoch completes degraded
// (epoch.degraded) instead of wedging Serve. Assignment rounds carry a
// sequence number so stale or duplicated assessments from superseded
// rounds are recognized and skipped. Agents that rejoin after a crash
// re-register as new sessions under a fresh AgentID. Deterministic fault
// injection for all of this lives in internal/faults.
package netproto

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cooper/internal/faults"
	"cooper/internal/market"
	"cooper/internal/matching"
	"cooper/internal/policy"
	"cooper/internal/stats"
	"cooper/internal/telemetry"
	"cooper/internal/workload"
)

// ErrServerClosed is returned by Serve after Shutdown: the listener was
// closed deliberately, any in-flight epoch was drained, and no error
// occurred. Mirrors net/http.ErrServerClosed so callers can distinguish a
// graceful stop from a failure.
var ErrServerClosed = errors.New("netproto: server closed")

// Default deadlines. A zero timeout field selects the default; a
// negative one disables the deadline entirely (the pre-resilience
// block-forever behaviour, for callers that really want it).
const (
	// DefaultReadTimeout bounds each server-side message read.
	DefaultReadTimeout = 30 * time.Second
	// DefaultWriteTimeout bounds each server-side message write.
	DefaultWriteTimeout = 10 * time.Second
	// DefaultDialTimeout bounds one connect attempt.
	DefaultDialTimeout = 10 * time.Second
	// DefaultClientReadTimeout bounds each client-side message read. It
	// is deliberately generous: an agent legitimately idles while the
	// coordinator waits out a full epoch of registrations.
	DefaultClientReadTimeout = 2 * time.Minute
	// DefaultClientWriteTimeout bounds each client-side message write, so
	// an agent writing to a stalled coordinator with a full TCP buffer
	// cannot block indefinitely.
	DefaultClientWriteTimeout = 10 * time.Second

	// maxStaleMessages bounds how many stale messages (assessments for a
	// superseded assignment round, injector duplicates) the server skips
	// per expected message before declaring the peer broken.
	maxStaleMessages = 16
)

// timeoutOrDefault resolves a timeout knob: zero means def, negative
// means disabled (returned as zero).
func timeoutOrDefault(d, def time.Duration) time.Duration {
	if d == 0 {
		return def
	}
	if d < 0 {
		return 0
	}
	return d
}

// Message is the single wire envelope; Type selects which fields matter.
type Message struct {
	Type string `json:"type"`

	// register
	Job string `json:"job,omitempty"`

	// registered. agent_id must NOT carry omitempty: the first agent to
	// register is assigned ID 0, and omitting the field would make its
	// "registered" reply indistinguishable from a malformed one for strict
	// clients.
	AgentID int `json:"agent_id"`

	// assignment
	PartnerID        int     `json:"partner_id"` // -1 when running solo
	PartnerJob       string  `json:"partner_job,omitempty"`
	PredictedPenalty float64 `json:"predicted_penalty,omitempty"`
	// Shard is the market shard that matched this agent when the
	// coordinator clears sharded (Server.Shards > 1); omitted otherwise.
	Shard int `json:"shard,omitempty"`

	// Seq is the assignment round within the connection's lifetime: the
	// coordinator stamps each assignment push with a monotonically
	// increasing sequence and agents echo it in their assessment, letting
	// the coordinator discard assessments for rounds superseded by a
	// degraded re-match. Zero (absent) is accepted as "current" for
	// minimal hand-rolled clients.
	Seq int `json:"seq,omitempty"`

	// assess
	Action string `json:"action,omitempty"` // "participate" | "break-away"
	With   int    `json:"with,omitempty"`   // preferred blocking partner

	// summary
	MeanPenalty   float64 `json:"mean_penalty,omitempty"`
	BreakAways    int     `json:"break_aways,omitempty"`
	Participating int     `json:"participating,omitempty"`

	// error
	Error string `json:"error,omitempty"`

	// TraceContext propagates causal identity across the wire as
	// telemetry.TraceContext's string form ("<trace>-<span>", 16 hex
	// digits each). The coordinator stamps it on the "registered" reply
	// with its root span's coordinate so the agent can rebase its own
	// span tree under the server's trace (telemetry.Span.Rebase), and
	// agents echo it on their assessments. Empty when either side
	// predates tracing — absent propagation is legal, not malformed.
	TraceContext string `json:"trace_ctx,omitempty"`
}

// Server is the networked coordinator: it accepts Epoch-size agent
// registrations, assigns colocations with the configured policy, and
// reports a summary after each of Epochs scheduling rounds. Agents that
// die mid-epoch are reaped and the survivors re-matched; agents that
// rejoin are admitted at the next epoch boundary under a fresh AgentID.
type Server struct {
	// Epoch is the number of agents per scheduling epoch.
	Epoch int
	// Epochs is how many scheduling rounds to run over the registered
	// agents before closing. Zero means one.
	Epochs int
	// Policy assigns colocations; nil means SMR.
	Policy policy.Policy
	// Catalog maps job names to models; required.
	Catalog []workload.Job
	// Penalties is the job-level penalty matrix used to evaluate
	// colocations (typically the predictor's output); required.
	Penalties [][]float64
	// Kernel optionally names the prediction kernel that produced
	// Penalties (core.Framework.Kernel); stamped into the wire epoch
	// snapshots for auditors and cooper-top.
	Kernel string
	// Seed drives the policy's randomness.
	Seed int64
	// Shards, when > 1, clears each epoch through the sharded colocation
	// market: registered agents are consistent-hashed into shards, every
	// shard is matched in parallel over its own members, and a bounded
	// cross-shard refinement pass reconciles the boundaries. Zero or one
	// keeps the single all-pairs market.
	Shards int
	// Workers bounds the sharded market's per-shard fan-out (<= 0 means
	// GOMAXPROCS). Matchings are bit-identical at any worker count.
	Workers int
	// Rematch enables the streaming admission path: agents that register
	// while an epoch is in flight are admitted into the live epoch and the
	// standing matching repaired incrementally around them (see
	// internal/rematch) instead of waiting out the epoch; agents that die
	// mid-epoch are likewise absorbed as repair rounds rather than full
	// re-matches of the survivors. Each epoch's first round is still a
	// full clear, so the repair baseline is always a fresh matching.
	Rematch bool
	// ChurnThreshold is the fraction of the population whose cumulative
	// churn since the epoch's last full clear forces the next round to
	// re-match from scratch (<= 0 means rematch.DefaultChurnThreshold).
	ChurnThreshold float64
	// Metrics, when non-nil, receives wire and epoch counters
	// (net.connections, net.msg_in.*, net.msg_out.*, net.epoch_latency_s,
	// net.reaped, net.stale, epoch.*). Nil disables recording.
	Metrics *telemetry.Registry
	// Events, when non-nil, receives the typed flight-recorder stream:
	// agent_registered at admission, agent_reaped, rematch_round,
	// epoch_start/epoch_end, one epoch_snapshot per epoch pinning the
	// roster and penalty matrix (what makes the log self-contained for
	// cooper-replay), and pair_matched or agent_unpaired for every
	// assignment push. All emission happens on the Serve goroutine, so
	// two runs with the same seed and fault plan produce the same
	// sequence (timestamps aside). Nil disables recording.
	Events *telemetry.EventRing
	// Span, when non-nil, is the root span the server's per-epoch spans
	// nest under (typically Telemetry.Trace). Every flight-recorder
	// event the server emits is stamped with the current epoch span's
	// trace/span IDs, its coordinate is sent to agents on the
	// "registered" reply (Message.TraceContext), and the sharded
	// market's shard and refinement spans parent here — which is what
	// lets cooper-trace stitch a multi-process picture of one epoch.
	// Nil disables causal stamping; events still flow.
	Span *telemetry.Span
	// StabilityAlpha is the stability contract recorded in each epoch
	// snapshot when AuditStability is set: auditors flag any blocking
	// pair in which both agents would gain strictly more than α by
	// defecting. Zero is a meaningful (maximally strict) contract, hence
	// the separate enable bit.
	StabilityAlpha float64
	// AuditStability opts the run into the stability contract above.
	// When false, snapshots record a negative α and auditors report
	// blocking pairs without failing — the right default, since the
	// baseline policies (GR, CO, TH) promise no stability and the
	// marriage policies are stable only within their random partition.
	AuditStability bool
	// OnEpoch, when non-nil, is invoked after each epoch with its index
	// (0-based) and the summary broadcast to the agents.
	OnEpoch func(epoch int, summary Message)
	// BeforeEpoch, when non-nil, is invoked before each epoch's matching,
	// after pending registrations have been admitted. Chaos harnesses use
	// it to execute scheduled crashes and rejoins at deterministic points
	// in the epoch sequence.
	BeforeEpoch func(epoch int)

	// ReadTimeout bounds each per-message read from an agent; zero means
	// DefaultReadTimeout, negative disables. An agent that stays mute
	// past the deadline mid-epoch is reaped.
	ReadTimeout time.Duration
	// WriteTimeout bounds each per-message write to an agent; zero means
	// DefaultWriteTimeout, negative disables.
	WriteTimeout time.Duration
	// EpochTimeout, when positive, bounds one epoch's wall-clock time:
	// reads past the epoch deadline fail, the laggards are reaped, and
	// the epoch completes degraded with whoever remains.
	EpochTimeout time.Duration
	// Faults, when non-nil, wraps every accepted connection in the
	// injector keyed by its accept index — server-side chaos for soak
	// runs (cooperd -chaos-seed).
	Faults *faults.Plan

	ln       net.Listener
	mu       sync.Mutex
	closing  bool
	pending  map[net.Conn]struct{} // conns mid-registration, closed by Shutdown
	sessions []*session
	done     chan struct{}
	// engine clears and repairs the market; the server only feeds it
	// rosters and churn and pushes what it decides (Serve goroutine only).
	engine *market.Engine

	registrations chan *session
	idSeq         atomic.Int64 // next wire AgentID; never reused, so rejoins get fresh IDs
	connSeq       atomic.Int64 // accept index, keys the server-side fault injector
	seq           int          // assignment round sequence (epoch loop only)

	// curSpan is the in-flight epoch's span (Serve goroutine only); nil
	// between epochs, when events stamp under the root Span instead.
	curSpan *telemetry.Span
	// traceCtx is Span's wire coordinate, precomputed before the accept
	// loop starts so registration goroutines can stamp replies without
	// touching the span tree.
	traceCtx string
	// msgIn and msgOut count net.msg_in.<type> and net.msg_out.<type>.
	msgIn, msgOut msgCounters
}

// wireTypes are the protocol's message types.
var wireTypes = [...]string{"register", "registered", "assignment", "assess", "summary", "error"}

// msgCounters caches one direction's per-type message counters for the
// protocol's types, each resolved from the registry on first use, so a
// message costs neither a name concatenation nor a registry lock. Any
// other type a peer sends is looked up every time.
type msgCounters [len(wireTypes)]atomic.Pointer[telemetry.Counter]

func (mc *msgCounters) inc(reg *telemetry.Registry, prefix, typ string) {
	for i, t := range wireTypes {
		if t == typ {
			c := mc[i].Load()
			if c == nil {
				c = reg.Counter(prefix + typ)
				mc[i].Store(c)
			}
			c.Inc()
			return
		}
	}
	reg.Counter(prefix + typ).Inc()
}

// spanNow returns the span open "now" from the Serve goroutine's
// perspective: the in-flight epoch's span, or the root between epochs.
func (s *Server) spanNow() *telemetry.Span {
	if s.curSpan != nil {
		return s.curSpan
	}
	return s.Span
}

// record emits one flight-recorder event through the engine's
// Telemetry, stamped with the current span's causal identity, returning
// the stamped sequence (-1 with no recorder). Every server-side emission
// funnels through here, on the Serve goroutine, so the trace/span stamps
// are as deterministic as the event sequence itself.
func (s *Server) record(e telemetry.Event) int64 {
	return s.engine.Tel.RecordIn(s.spanNow(), e)
}

type session struct {
	conn net.Conn
	rd   *bufio.Reader // line reader, capped at maxLine
	buf  []byte        // encode buffer, reused under writeMu
	job  workload.Job
	id   int // wire AgentID: stable for the connection's lifetime
	// queuedAt is when the registration entered the admission queue,
	// stamped just before the session is handed to the Serve goroutine;
	// admission observes the wait in the net.admit_wait histogram.
	queuedAt time.Time

	// writeMu serializes all writes to the conn and guards buf. A session
	// is queued for admission before its "registered" reply goes out (so
	// an agent that has seen the reply is guaranteed visible to the next
	// admission), which means the Serve goroutine can start pushing
	// assignments while the registration goroutine is still around —
	// without the mutex the two would race on the buffer, and the
	// assignment could overtake the reply on the wire. needsReply marks
	// the queued-but-unreplied window; whichever goroutine writes first
	// flushes the reply, so it always precedes the session's first
	// assignment.
	writeMu    sync.Mutex
	needsReply bool
}

// Shutdown requests a graceful stop: the listener closes immediately (so
// no new agents can register), conns stuck mid-registration are closed,
// and Serve returns ErrServerClosed after the in-flight epoch, if any,
// has drained. Safe to call from any goroutine, at any time, more than
// once.
func (s *Server) Shutdown() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return
	}
	s.closing = true
	if s.ln != nil {
		s.ln.Close()
	}
	for conn := range s.pending {
		conn.Close()
	}
}

// shuttingDown reports whether Shutdown has been requested.
func (s *Server) shuttingDown() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closing
}

// trackPending registers a conn as mid-registration so Shutdown can
// unblock it; returns false (closing the conn) when shutdown has begun.
func (s *Server) trackPending(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		conn.Close()
		return false
	}
	s.pending[conn] = struct{}{}
	return true
}

func (s *Server) untrackPending(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.pending, conn)
}

// send encodes msg to the session under the write deadline and counts it
// as net.msg_out.<type>. All writes funnel through the session's write
// mutex, and a pending "registered" reply is flushed before msg so it can
// neither race nor trail the first assignment push.
func (s *Server) send(sess *session, msg Message) error {
	sess.writeMu.Lock()
	defer sess.writeMu.Unlock()
	if err := s.flushReplyLocked(sess); err != nil {
		return err
	}
	return s.encodeLocked(sess, &msg)
}

// sendLine is send for a message already encoded as line: a payload every
// session receives is encoded once.
func (s *Server) sendLine(sess *session, typ string, line []byte) error {
	sess.writeMu.Lock()
	defer sess.writeMu.Unlock()
	if err := s.flushReplyLocked(sess); err != nil {
		return err
	}
	return s.writeLocked(sess, typ, line)
}

// flushReplyLocked sends the session's "registered" reply if it is still
// pending. Caller holds sess.writeMu.
func (s *Server) flushReplyLocked(sess *session) error {
	if !sess.needsReply {
		return nil
	}
	sess.needsReply = false
	return s.encodeLocked(sess, &Message{Type: "registered", AgentID: sess.id,
		PartnerID: -1, TraceContext: s.traceCtx})
}

// encodeLocked encodes msg into the session's buffer and writes it.
// Caller holds sess.writeMu.
func (s *Server) encodeLocked(sess *session, msg *Message) error {
	line, err := appendMessage(sess.buf[:0], msg)
	if err != nil {
		return err
	}
	sess.buf = line
	return s.writeLocked(sess, msg.Type, line)
}

// writeLocked writes one encoded message with one conn.Write under the
// write deadline and counts it as net.msg_out.<typ>. Caller holds
// sess.writeMu.
func (s *Server) writeLocked(sess *session, typ string, line []byte) error {
	if t := timeoutOrDefault(s.WriteTimeout, DefaultWriteTimeout); t > 0 {
		sess.conn.SetWriteDeadline(time.Now().Add(t))
	}
	s.msgOut.inc(s.Metrics, "net.msg_out.", typ)
	_, err := sess.conn.Write(line)
	return err
}

// recv decodes one message from the session under the read deadline
// (clamped to epochDeadline when set) and counts it as
// net.msg_in.<type>, or as net.rejected.line_too_long when the line
// overflows maxLine.
func (s *Server) recv(sess *session, epochDeadline time.Time) (Message, error) {
	var dl time.Time
	if t := timeoutOrDefault(s.ReadTimeout, DefaultReadTimeout); t > 0 {
		dl = time.Now().Add(t)
	}
	if !epochDeadline.IsZero() && (dl.IsZero() || epochDeadline.Before(dl)) {
		dl = epochDeadline
	}
	sess.conn.SetReadDeadline(dl)
	var msg Message
	if err := readMessage(sess.rd, &msg); err != nil {
		if err == errLineTooLong {
			s.Metrics.Counter("net.rejected.line_too_long").Inc()
		}
		return msg, err
	}
	s.msgIn.inc(s.Metrics, "net.msg_in.", msg.Type)
	return msg, nil
}

// Serve listens on addr (e.g. "127.0.0.1:0"), runs Epochs scheduling
// rounds once Epoch agents have registered, and then closes. It returns
// the bound address through the callback before blocking, so tests and
// tools can connect. After Shutdown it returns ErrServerClosed.
func (s *Server) Serve(addr string, ready func(boundAddr string)) error {
	if s.Epoch <= 0 {
		return fmt.Errorf("netproto: Epoch must be positive")
	}
	if len(s.Catalog) == 0 || len(s.Penalties) == 0 {
		return fmt.Errorf("netproto: server needs a catalog and penalties")
	}
	if err := checkPenalties(s.Penalties, len(s.Catalog)); err != nil {
		return err
	}
	epochs := s.Epochs
	if epochs <= 0 {
		epochs = 1
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.ln = ln
	s.pending = make(map[net.Conn]struct{})
	if s.closing {
		// Shutdown raced Serve before the listener existed.
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.mu.Unlock()
	s.done = make(chan struct{})
	// The market's α is the stability contract when one is declared, and
	// zero (any mutual gain trades) otherwise.
	alpha := 0.0
	if s.AuditStability {
		alpha = s.StabilityAlpha
	}
	s.engine = market.New(market.Engine{
		Config: market.Config{
			Policy: s.Policy, Alpha: alpha, Shards: s.Shards,
			Rematch: s.Rematch, ChurnThreshold: s.ChurnThreshold,
		},
		Workers:  s.Workers,
		Catalog:  s.Catalog,
		Matrix:   s.Penalties,
		Rand:     stats.NewRand(s.Seed),
		Tel:      &telemetry.Telemetry{Metrics: s.Metrics, Events: s.Events, Trace: s.Span},
		Source:   telemetry.SnapshotSourceWire,
		Seed:     s.Seed,
		Kernel:   s.Kernel,
		Contract: s.AuditStability,
	})
	s.registrations = make(chan *session, s.Epoch+16)
	if tc := s.Span.Context(); !tc.IsZero() {
		// Precomputed before the accept loop exists, so registration
		// goroutines read it without synchronization.
		s.traceCtx = tc.String()
	}
	// Pre-create the resilience counters so exposition snapshots list
	// them at zero before the first fault.
	s.Metrics.Counter("net.reaped")
	s.Metrics.Counter("net.stale")
	s.Metrics.Counter("net.rejected.line_too_long")
	s.Metrics.Counter("epoch.degraded")
	s.Metrics.Histogram("net.admit_wait", telemetry.DurationBuckets())
	go s.acceptLoop(ln)
	if ready != nil {
		ready(ln.Addr().String())
	}

	// Installed before the initial fill so that an early return (Shutdown,
	// listener closed before Epoch agents registered) also releases every
	// conn already admitted or still queued.
	defer func() {
		for _, sess := range s.sessions {
			sess.conn.Close()
		}
		ln.Close()
		// Late registrations still in flight land in the channel after
		// the accept loop notices the closed listener; drain and close
		// them so nothing leaks.
		go func() {
			for sess := range s.registrations {
				sess.conn.Close()
			}
		}()
		close(s.done)
	}()

	for len(s.sessions) < s.Epoch {
		sess, ok := <-s.registrations
		if !ok {
			if s.shuttingDown() {
				return ErrServerClosed
			}
			return fmt.Errorf("netproto: listener closed before %d agents registered", s.Epoch)
		}
		s.admit(sess, 0)
	}

	for e := 0; e < epochs; e++ {
		// Every iteration opens exactly one engine epoch, so ep.Index == e.
		// Its span exists from here on: boundary admissions stamp under it.
		ep := s.engine.Begin()
		s.curSpan = ep.Span()
		s.admitPending(e)
		if s.BeforeEpoch != nil {
			s.BeforeEpoch(e)
			// Re-drain: a chaos harness may register sessions during the
			// barrier (crash rejoins, redials after reaps) that belong in
			// this epoch's population, not the next one's.
			s.admitPending(e)
		}
		start := time.Now()
		summary, err := s.runEpoch(ep)
		ep.Close() // a no-op unless the engine failed mid-epoch
		s.curSpan = nil
		if err != nil {
			return err
		}
		s.Metrics.Histogram("net.epoch_latency_s", telemetry.DurationBuckets()).
			Observe(time.Since(start).Seconds())
		if s.OnEpoch != nil {
			s.OnEpoch(e, summary)
		}
		if s.shuttingDown() {
			// The in-flight epoch drained; stop before starting another.
			return ErrServerClosed
		}
	}
	return nil
}

// checkPenalties reports why m cannot be served over a catalog of n jobs:
// it must be n×n, or the first clear indexes out of range, and finite,
// or the assignment of a pair it prices cannot be encoded.
func checkPenalties(m [][]float64, n int) error {
	if len(m) != n {
		return fmt.Errorf("netproto: penalty matrix has %d rows for %d catalog jobs", len(m), n)
	}
	for i, row := range m {
		if len(row) != n {
			return fmt.Errorf("netproto: penalty row %d has %d entries, want %d", i, len(row), n)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("netproto: penalty [%d][%d] = %v is not finite", i, j, v)
			}
		}
	}
	return nil
}

// acceptLoop accepts connections for the listener's lifetime and
// registers each on its own goroutine, so one slow or half-written
// registration cannot block the others. It closes the registrations
// channel once the listener dies and every in-flight registration has
// finished.
func (s *Server) acceptLoop(ln net.Listener) {
	var wg sync.WaitGroup
	for {
		conn, err := ln.Accept()
		if err != nil {
			wg.Wait()
			close(s.registrations)
			return
		}
		s.Metrics.Counter("net.connections").Inc()
		if s.Faults != nil {
			conn = s.Faults.Wrap(s.connSeq.Add(1)-1, conn)
		}
		if !s.trackPending(conn) {
			continue
		}
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			s.register(conn)
		}(conn)
	}
}

// register performs one registration exchange. A successful session is
// queued for admission before the "registered" reply is sent, so an
// agent that has seen its reply is guaranteed to be visible to the next
// epoch's admission. The reply itself is flushed under the session's
// write mutex — by this goroutine, or by the Serve goroutine if it
// admits the session and pushes its first assignment first (see send).
func (s *Server) register(conn net.Conn) {
	defer s.untrackPending(conn)
	sess := &session{conn: conn, rd: newLineReader(conn)}
	reg, err := s.recv(sess, time.Time{})
	if err != nil || reg.Type != "register" {
		_ = s.send(sess, Message{Type: "error", Error: "expected register", PartnerID: -1})
		conn.Close()
		return
	}
	job, ok := workload.Find(s.Catalog, reg.Job)
	if !ok {
		_ = s.send(sess, Message{Type: "error",
			Error: fmt.Sprintf("unknown job %q", reg.Job), PartnerID: -1})
		conn.Close()
		return
	}
	sess.job = job
	sess.id = int(s.idSeq.Add(1) - 1)
	sess.needsReply = true
	sess.queuedAt = time.Now()
	s.registrations <- sess
	sess.writeMu.Lock()
	err = s.flushReplyLocked(sess)
	sess.writeMu.Unlock()
	if err != nil {
		// The session is already queued; the dead conn will be reaped the
		// first time the epoch loop touches it.
		conn.Close()
	}
}

// admit moves one queued registration into the population, observing
// its queue wait in net.admit_wait and emitting the agent_queued /
// agent_registered event pair. The wait observation carries an exemplar
// pointing at the agent_queued event it came from, so "what's behind the
// p99?" resolves to a concrete agent, event Seq, and trace. Runs on the
// Serve goroutine only.
func (s *Server) admit(sess *session, epoch int) {
	s.sessions = append(s.sessions, sess)
	queuedSeq := s.record(telemetry.Event{Type: telemetry.EventAgentQueued,
		Epoch: epoch, Agent: sess.id, Partner: -1, Job: sess.job.Name})
	if !sess.queuedAt.IsZero() {
		ex := telemetry.Exemplar{Seq: queuedSeq, Agent: sess.id}
		if tr := s.spanNow().Trace(); tr != 0 {
			ex.Trace = tr.String()
		}
		s.Metrics.Histogram("net.admit_wait", telemetry.DurationBuckets()).
			ObserveExemplar(time.Since(sess.queuedAt).Seconds(), ex)
	}
	s.record(telemetry.Event{Type: telemetry.EventAgentRegistered,
		Epoch: epoch, Agent: sess.id, Partner: -1, Job: sess.job.Name})
}

// admitPending moves every queued registration (rejoining agents, late
// arrivals) into the epoch population. Runs on the Serve goroutine at
// epoch boundaries — and, in streaming mode, between a live epoch's
// assignment rounds, where the admitted sessions become the next repair
// round's joiners. Returns the sessions admitted by this call.
func (s *Server) admitPending(epoch int) []*session {
	var admitted []*session
	for {
		select {
		case sess, ok := <-s.registrations:
			if !ok {
				return admitted
			}
			s.admit(sess, epoch)
			admitted = append(admitted, sess)
		default:
			return admitted
		}
	}
}

// reap closes and removes dead sessions from the population, counting
// each as net.reaped. Events are emitted in session order, not dead-list
// order: whether a dead peer surfaced at write time or at the following
// read is a kernel timing artifact (see runEpoch), and the flight
// recorder's sequence must not depend on it. Returns the reaped wire IDs,
// in session order for the same reason.
func (s *Server) reap(dead []*session, epoch int) (reaped []int) {
	gone := make(map[*session]bool, len(dead))
	for _, sess := range dead {
		if gone[sess] {
			continue
		}
		gone[sess] = true
		sess.conn.Close()
		s.Metrics.Counter("net.reaped").Inc()
	}
	live := make([]*session, 0, len(s.sessions)-len(gone))
	for _, sess := range s.sessions {
		if gone[sess] {
			s.record(telemetry.Event{Type: telemetry.EventAgentReaped,
				Epoch: epoch, Agent: sess.id, Partner: -1, Job: sess.job.Name})
			reaped = append(reaped, sess.id)
			continue
		}
		live = append(live, sess)
	}
	s.sessions = live
	return reaped
}

// recvAssess reads the session's assessment for the current assignment
// round, skipping a bounded amount of stale traffic: assessments echoing
// a superseded round's seq, duplicated messages replayed by a fault
// injector, or leftover junk from registration. Seq 0 (absent) is
// accepted as current for minimal hand-rolled clients.
func (s *Server) recvAssess(sess *session, epochDeadline time.Time) (Message, error) {
	for tries := 0; tries < maxStaleMessages; tries++ {
		msg, err := s.recv(sess, epochDeadline)
		if err != nil {
			return msg, err
		}
		if msg.Type == "assess" && (msg.Seq == 0 || msg.Seq == s.seq) {
			return msg, nil
		}
		s.Metrics.Counter("net.stale").Inc()
	}
	return Message{}, fmt.Errorf("netproto: agent %d: %d stale messages while awaiting assess",
		sess.id, maxStaleMessages)
}

// roster describes sessions to the market engine: wire AgentIDs, which
// are stable across reaps and rejoins, and the jobs they registered.
func roster(sessions []*session) market.Roster {
	r := market.Roster{IDs: make([]int, len(sessions)), Jobs: make([]workload.Job, len(sessions))}
	for i, sess := range sessions {
		r.IDs[i], r.Jobs[i] = sess.id, sess.job
	}
	return r
}

// runEpoch clears one scheduling epoch. The first round is a full clear
// of the boundary population. After each round's assessments are
// collected the dead are reaped — a failed write, a read deadline, a
// stale-message flood all make an agent unreachable — and, in streaming
// mode, every registration queued while the round ran is admitted; any
// such churn costs another round, and the epoch completes degraded
// instead of erroring. Rematch decides only what that round is. Without
// it the survivors are re-matched from scratch and every agent gets a
// fresh assignment (an odd survivor parks solo, as the matching layer
// already allows); each retry strictly shrinks the population, so the
// loop terminates even under total loss, yielding an empty summary. With
// it the engine steps the churn into the standing matching — an
// incremental repair that re-runs proposals only inside the affected
// neighborhood, or a full re-match once cumulative churn since the
// epoch's last full clear exceeds ChurnThreshold×population — and only
// the agents whose assignment the round decided are pushed to; the epoch
// closes once a round ends with no churn left to absorb, and
// EpochTimeout bounds a registration flood.
func (s *Server) runEpoch(ep *market.Epoch) (Message, error) {
	var epochDeadline time.Time
	if s.EpochTimeout > 0 {
		epochDeadline = time.Now().Add(s.EpochTimeout)
	}
	degraded := false
	defer func() {
		if degraded {
			s.Metrics.Counter("epoch.degraded").Inc()
		}
	}()

	var (
		r         *market.Round
		joined    []*session           // admitted since the previous round
		departed  []int                // wire IDs reaped since the previous round
		breakAway = make(map[int]bool) // latest assessment per wire ID
	)
	for first := true; ; first = false {
		var err error
		if s.Rematch && !first && len(s.sessions) > 0 {
			r, err = ep.Step(context.Background(), roster(joined), departed)
		} else {
			r, err = ep.Clear(context.Background(), roster(s.sessions))
		}
		if err != nil {
			return Message{}, err
		}
		if len(s.sessions) == 0 {
			// Every participant died and nobody joined; the epoch
			// completes trivially rather than wedging Serve.
			ep.End(market.Summary{})
			return Message{Type: "summary", PartnerID: -1}, nil
		}

		// Push assignments to the agents whose assignment this round
		// decided; the rest keep their standing assignment and owe
		// nothing. Partner identity goes out as the partner's wire
		// AgentID, not its transient index in this round's population.
		s.seq++
		touched := r.Touched()
		deadWrite := make(map[*session]bool)
		var dead []*session
		for _, i := range touched {
			sess := s.sessions[i]
			msg := Message{Type: "assignment", Seq: s.seq, PartnerID: -1}
			if r.ShardOf != nil {
				msg.Shard = r.ShardOf[i]
			}
			if j := r.Match[i]; j != matching.Unmatched {
				msg.PartnerID = s.sessions[j].id
				msg.PartnerJob = s.sessions[j].job.Name
				msg.PredictedPenalty = r.Penalty(i)
			}
			ep.Assigned(r, i, 0)
			if err := s.send(sess, msg); err != nil {
				dead = append(dead, sess)
				deadWrite[sess] = true
			}
		}

		// Collect assessments from every session whose assignment write
		// succeeded, even when some writes failed. Whether a dead peer
		// surfaces at write time or at the subsequent read is a kernel
		// timing artifact (a write to a just-closed conn can still land in
		// the buffer), so the set of agents reaped this round must not
		// depend on it — skipping the collect pass after a write failure
		// would let an unrelated mute agent survive into the retry round
		// on some runs and not others. Reads keep going past individual
		// failures so one mute agent costs one deadline, not one per
		// survivor.
		for _, i := range touched {
			sess := s.sessions[i]
			if deadWrite[sess] {
				continue
			}
			assess, err := s.recvAssess(sess, epochDeadline)
			if err != nil {
				dead = append(dead, sess)
				continue
			}
			breakAway[sess.id] = assess.Action == "break-away"
		}

		// Absorb churn: reap the dead (their agent_reaped events precede
		// the rematch_round that declares them departed) and, in streaming
		// mode, admit every registration queued while the round ran.
		departed, joined = nil, nil
		if len(dead) > 0 {
			departed = s.reap(dead, ep.Index)
			degraded = true
		}
		if s.Rematch {
			joined = s.admitPending(ep.Index)
		}
		if len(departed) == 0 && len(joined) == 0 {
			break
		}
	}

	// The population is stable; account and broadcast the summary. The
	// epoch's result stands even if some agents prove unreachable here;
	// they are reaped for the next epoch rather than triggering a
	// re-match.
	live := s.sessions
	penalties, meanPenalty := r.Penalties()
	breakAways := 0
	for _, sess := range live {
		if breakAway[sess.id] {
			breakAways++
		}
	}
	summary := Message{
		Type:          "summary",
		PartnerID:     -1,
		MeanPenalty:   meanPenalty,
		BreakAways:    breakAways,
		Participating: len(live) - breakAways,
	}
	// Every live session gets the same bytes, encoded once; a summary that
	// cannot be encoded reaches nobody.
	line, err := appendMessage(nil, &summary)
	var dead []*session
	for _, sess := range live {
		if err != nil || s.sendLine(sess, summary.Type, line) != nil {
			dead = append(dead, sess)
		}
	}
	if len(dead) > 0 {
		s.reap(dead, ep.Index)
		degraded = true
	}
	s.Metrics.Counter("epoch.participating").Add(int64(summary.Participating))
	ep.End(market.Summary{Penalties: penalties, MeanPenalty: meanPenalty, BreakAways: breakAways})
	return summary, nil
}

// Client is one networked agent.
type Client struct {
	conn net.Conn
	rd   *bufio.Reader // line reader, capped at maxLine
	buf  []byte        // encode buffer
	// echoed is the TraceCtx whose string form echoedAs holds, so an
	// assessment echoes it without formatting it again.
	echoed   telemetry.TraceContext
	echoedAs string

	// AgentID is assigned at registration.
	AgentID int
	// Alpha is the minimum gain for recommending break-away.
	Alpha float64
	// Penalties is the agent's own predicted penalty row by job name,
	// used to assess the assignment. Optional: without it the agent
	// always participates.
	Penalties map[string]float64
	// OwnJob is the name of the job this agent runs.
	OwnJob string
	// ReadTimeout bounds each message read from the coordinator; zero
	// means DefaultClientReadTimeout, negative disables. It is what keeps
	// RunEpoch from blocking forever on a hung coordinator.
	ReadTimeout time.Duration
	// WriteTimeout bounds each message write to the coordinator; zero
	// means DefaultClientWriteTimeout, negative disables.
	WriteTimeout time.Duration
	// TraceCtx is the coordinator's causal coordinate from the
	// registration reply (zero when the coordinator sent none). Dial
	// fills it; cooper-agent rebases its span tree onto it and RunEpoch
	// echoes it on assessments so server-side logs can attribute wire
	// traffic.
	TraceCtx telemetry.TraceContext
	// Span, when non-nil, is the client's root span: RunEpoch opens one
	// "epoch" child per call with an "await_assignment" sub-span per
	// assignment round, giving the agent-side half of the stitched
	// multi-process trace.
	Span *telemetry.Span
}

// Close releases the connection.
func (c *Client) Close() error { return c.conn.Close() }

// write encodes msg into the client's buffer and sends it with one
// conn.Write.
func (c *Client) write(msg *Message) error {
	line, err := appendMessage(c.buf[:0], msg)
	if err != nil {
		return err
	}
	c.buf = line
	_, err = c.conn.Write(line)
	return err
}

func (c *Client) setReadDeadline() {
	if t := timeoutOrDefault(c.ReadTimeout, DefaultClientReadTimeout); t > 0 {
		c.conn.SetReadDeadline(time.Now().Add(t))
	} else {
		c.conn.SetReadDeadline(time.Time{})
	}
}

func (c *Client) setWriteDeadline() {
	if t := timeoutOrDefault(c.WriteTimeout, DefaultClientWriteTimeout); t > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(t))
	} else {
		c.conn.SetWriteDeadline(time.Time{})
	}
}

// RunEpoch waits for the coordinator's assignment, assesses it against
// the agent's predicted penalties, replies, and returns the assignment
// and the epoch summary. The coordinator may push several assignment
// rounds within one epoch (degraded re-matching after agent churn); each
// is assessed in turn and the last one is returned alongside the
// summary that closes the epoch.
func (c *Client) RunEpoch() (assignment, summary Message, err error) {
	ep := c.Span.Child("epoch")
	defer ep.Finish()
	assigned := false
	for {
		var msg Message
		wait := ep.Child("await_assignment")
		c.setReadDeadline()
		if err = readMessage(c.rd, &msg); err != nil {
			wait.Finish()
			return
		}
		wait.Finish()
		switch msg.Type {
		case "assignment":
			assigned = true
			assignment = msg
			ep.SetAttr("partner", msg.PartnerID)
			assess := c.assess(msg)
			c.setWriteDeadline()
			if err = c.write(&assess); err != nil {
				return
			}
		case "summary":
			if !assigned {
				err = fmt.Errorf("netproto: expected assignment, got %q", msg.Type)
				return
			}
			summary = msg
			return
		default:
			err = fmt.Errorf("netproto: expected assignment, got %q", msg.Type)
			return
		}
	}
}

// assess evaluates one assignment, echoing its round sequence so the
// coordinator can discard assessments for superseded rounds, and the
// trace context received at registration so wire captures attribute the
// reply to the server's trace.
func (c *Client) assess(assignment Message) Message {
	assess := Message{Type: "assess", Action: "participate", Seq: assignment.Seq}
	if !c.TraceCtx.IsZero() {
		if c.TraceCtx != c.echoed {
			c.echoed, c.echoedAs = c.TraceCtx, c.TraceCtx.String()
		}
		assess.TraceContext = c.echoedAs
	}
	if assignment.PartnerID >= 0 && c.Penalties != nil {
		current := assignment.PredictedPenalty
		bestJob, bestPen := "", current
		for job, pen := range c.Penalties {
			if current-pen > c.Alpha && pen < bestPen {
				bestJob, bestPen = job, pen
			}
		}
		if bestJob != "" {
			// A better co-runner class exists; recommend break-away
			// toward it. (Mutuality is resolved coordinator-side in the
			// in-process framework; the wire demo reports desire only.)
			assess.Action = "break-away"
		}
	}
	return assess
}
