package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// EventType names one kind of flight-recorder event.
type EventType string

// The typed event vocabulary. Every record the pipeline emits is one of
// these; renderers and tests can switch on the type without parsing
// free-form strings.
const (
	// EventEpochStart opens a scheduling epoch (Value = population size).
	EventEpochStart EventType = "epoch_start"
	// EventEpochEnd closes a scheduling epoch (Value = mean penalty; for
	// in-process epochs Value is the oracle mean and Predicted the
	// matrix-derived mean, which auditors recompute from the epoch
	// snapshot). Kind is KindAborted when the epoch errored or was
	// canceled after it opened: the bracket closes, but the unfinished
	// round carries no matching to check.
	EventEpochEnd EventType = "epoch_end"
	// EventPairMatched records one colocation assignment: Agent with
	// Partner, Predicted (and, where the oracle is available, True)
	// penalty for Agent's side.
	EventPairMatched EventType = "pair_matched"
	// EventAgentRegistered records an agent's admission to the population.
	EventAgentRegistered EventType = "agent_registered"
	// EventAgentReaped records an agent's removal after a dead or mute
	// connection.
	EventAgentReaped EventType = "agent_reaped"
	// EventCacheHitRate samples the pair-penalty cache at an epoch
	// boundary (Value = hit rate in [0, 1]).
	EventCacheHitRate EventType = "cache_hit_rate"
	// EventRematchRound records a re-matching round inside an epoch
	// (Round = assignment round sequence, Value = post-churn population).
	// Kind distinguishes the flavor: "" is a legacy degraded re-match
	// after reaps, KindFull a from-scratch re-clear of a streaming epoch,
	// KindRepair an incremental neighborhood repair. A streaming round's
	// Data payload is a JSON RematchChurn (see audit's InvRepair).
	EventRematchRound EventType = "rematch_round"
	// EventAgentQueued records, at admission time, that an agent's
	// registration arrived mid-epoch and waited in the pending queue
	// (the wait duration feeds the net.admit_wait histogram, never event
	// fields, which must stay canonical). It immediately precedes the
	// agent's agent_registered event.
	EventAgentQueued EventType = "agent_queued"
	// EventBatchScheduled records one coordinator batch: Value = mean
	// queueing delay in seconds, Queued = jobs still waiting afterwards.
	EventBatchScheduled EventType = "batch_scheduled"
	// EventEpochSnapshot pins the inputs of one epoch — seed, policy,
	// stability contract, the roster in session order, and the job-level
	// penalty matrix with its digests — as a JSON payload in Data (see
	// EpochSnapshot). It makes an event log self-contained: internal/audit
	// and cooper-replay can recompute matchings, penalties, and blocking
	// pairs from the log alone, and resynchronize mid-stream from a ring
	// tail.
	EventEpochSnapshot EventType = "epoch_snapshot"
	// EventAgentUnpaired records an explicitly solo assignment: the agent
	// was admitted to the round but matched with no partner (odd
	// population, Threshold policy, degraded re-match). Emitting it —
	// rather than emitting nothing — is what lets the auditor's coverage
	// invariant distinguish "deliberately solo" from "dropped on the
	// floor".
	EventAgentUnpaired EventType = "agent_unpaired"
	// EventInvariantViolated records a live audit failure: Kind is the
	// invariant (stability, conservation, coverage, lifecycle, bracket,
	// snapshot, shard, refinement, repair), Data the human-readable detail.
	EventInvariantViolated EventType = "invariant_violated"
	// EventShardMatched records one cleared market shard: Round is the
	// shard index, Value the shard's population size, and Data a JSON
	// array of the member agent IDs (session order). One event per shard,
	// emitted in shard order after the parallel per-shard matching joins,
	// so the sequence is invariant to worker count.
	EventShardMatched EventType = "shard_matched"
	// EventRefinementRound records one bounded cross-shard refinement
	// round: Round is the 1-based round number, Value the number of trades
	// applied, Predicted the summed predicted-penalty improvement across
	// both sides of every trade, and Data a JSON array of [agent, partner]
	// pairs that were newly paired across shard boundaries.
	EventRefinementRound EventType = "refinement_round"
)

// KindAborted is the Kind of an epoch_end that closes an epoch which did
// not complete (see EventEpochEnd).
const KindAborted = "aborted"

// KindFull and KindRepair are the Kinds of a streaming epoch's
// rematch_round (see EventRematchRound).
const (
	KindFull   = "full"
	KindRepair = "repair"
)

// RematchChurn is a streaming rematch_round's Data payload: the churn
// the round absorbed, in event-log agent IDs. The market writes it and
// the auditor parses it.
type RematchChurn struct {
	Joined       []int `json:"joined,omitempty"`
	Departed     []int `json:"departed,omitempty"`
	Neighborhood []int `json:"neighborhood,omitempty"`
}

// Event is one flight-recorder record: something that happened at a
// point in an epoch, in a form stable enough to diff across runs. Seq
// and TimeUnixNano are stamped by the ring at record time; everything
// else is the emitter's. Agent and Partner deliberately do not carry
// omitempty — agent 0 is a legal ID (the Message.AgentID lesson) — so
// emitters set them to -1 when not applicable.
type Event struct {
	// Seq is the record's position in the ring's total order, starting
	// at 0. Monotonic even across overflow (dropped records keep their
	// numbers).
	Seq int64 `json:"seq"`
	// TimeUnixNano is the wall-clock stamp. It is the one field excluded
	// from determinism comparisons; Canon zeroes it.
	TimeUnixNano int64     `json:"time_unix_nano"`
	Type         EventType `json:"type"`

	// Epoch is the 0-based scheduling epoch, -1 when not tied to one.
	Epoch int `json:"epoch"`
	// Agent and Partner are agent IDs (wire IDs, or epoch-local indices
	// for in-process epochs); -1 means not applicable.
	Agent   int `json:"agent"`
	Partner int `json:"partner"`

	Job  string `json:"job,omitempty"`
	Kind string `json:"kind,omitempty"`

	// Round is the assignment round sequence for re-match events.
	Round int `json:"round,omitempty"`
	// Queued is the post-batch queue depth for coordinator events.
	Queued int `json:"queued,omitempty"`

	// Predicted and True are the penalties for pair_matched events.
	Predicted float64 `json:"predicted,omitempty"`
	True      float64 `json:"true,omitempty"`
	// Value is the type-specific payload (population size, mean penalty,
	// hit rate, ...).
	Value float64 `json:"value,omitempty"`

	// Data carries a structured payload as a JSON string for event types
	// that need more than the scalar fields: epoch_snapshot stores an
	// EpochSnapshot here, invariant_violated its detail message. A string
	// (not a nested object) so Event stays comparable — determinism tests
	// and cooper-replay -diff compare events with ==.
	Data string `json:"data,omitempty"`

	// Trace and Span tie the event to the span that was open when it was
	// emitted, as 16-hex-digit IDs (see TraceID/SpanID). Empty means the
	// emitter predates causal stamping or had no span in scope. Strings,
	// not uint64s, so Event stays comparable and the JSONL form matches
	// SpanSnapshot's. Telemetry.RecordIn stamps them.
	Trace string `json:"trace,omitempty"`
	Span  string `json:"span,omitempty"`
}

// Canon returns the event with its wall-clock stamp zeroed — the
// canonical form determinism tests compare, since two same-seed runs
// must agree on everything but time.
func (e Event) Canon() Event {
	e.TimeUnixNano = 0
	return e
}

// DefaultEventRingSize is the retained-event bound New gives a
// Telemetry's ring: big enough for several 1000-agent epochs of pair
// events, small enough to stay cache-resident.
const DefaultEventRingSize = 4096

// EventRing is the flight recorder: a bounded ring of the most recent
// events, safe for concurrent writers, with a monotonic sequence, an
// overflow counter, and an optional JSONL sink that sees every record
// (the ring bounds memory, not the sink). A nil *EventRing is a valid
// no-op recorder, like every other telemetry sink.
type EventRing struct {
	mu        sync.Mutex
	buf       []Event
	start     int // index of the oldest retained event
	n         int // retained count
	seq       int64
	dropped   int64
	dropCtr   *Counter // mirrors dropped into a registry (events.dropped)
	sink      *json.Encoder
	sinkErr   error
	now       func() time.Time
	observers []func(Event)
}

// NewEventRing returns a ring retaining at most size events (size <= 0
// means DefaultEventRingSize).
func NewEventRing(size int) *EventRing {
	if size <= 0 {
		size = DefaultEventRingSize
	}
	return &EventRing{buf: make([]Event, size), now: time.Now}
}

// AttachDroppedCounter mirrors the ring's overflow count into c
// (typically reg.Counter("events.dropped")), so exposition snapshots
// surface recorder overflow without asking the ring.
func (r *EventRing) AttachDroppedCounter(c *Counter) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.dropCtr = c
	r.mu.Unlock()
}

// SetSink streams every subsequent record to w as one JSON object per
// line, in ring order, as it is recorded. Writes happen under the
// ring's lock, so lines never interleave; the first write error stops
// the sink and is reported by Err.
func (r *EventRing) SetSink(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if w == nil {
		r.sink = nil
	} else {
		r.sink = json.NewEncoder(w)
	}
	r.mu.Unlock()
}

// AddObserver registers fn to be called with every subsequent record,
// after it has been stamped and appended, alongside any observers
// already present, so the live auditor and the journey builder can both
// watch one ring. Observers run in registration order, outside the
// ring's lock on the recording goroutine, so one may itself Record (a
// live auditor turning a violation into an event) without deadlocking.
// Observers see records in Seq order because the ring has one writer;
// records from a second goroutine could reach them out of order. A nil
// fn is ignored.
func (r *EventRing) AddObserver(fn func(Event)) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.observers = append(r.observers, fn)
	r.mu.Unlock()
}

// Err returns the first sink write error, if any.
func (r *EventRing) Err() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sinkErr
}

// Record stamps e with the next sequence number and the current time
// and appends it, evicting the oldest retained event on overflow (the
// ring keeps the tail — the newest records — and counts the eviction).
// It returns the stamped sequence number (-1 on a nil ring), so callers
// can cross-link the record elsewhere — histogram exemplars store it.
func (r *EventRing) Record(e Event) int64 {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	e.Seq = r.seq
	r.seq++
	e.TimeUnixNano = r.now().UnixNano()
	if r.n == len(r.buf) {
		// Overwrite the oldest slot.
		r.buf[r.start] = e
		r.start = (r.start + 1) % len(r.buf)
		r.dropped++
		r.dropCtr.Inc()
	} else {
		r.buf[(r.start+r.n)%len(r.buf)] = e
		r.n++
	}
	if r.sink != nil && r.sinkErr == nil {
		if err := r.sink.Encode(e); err != nil {
			r.sinkErr = err
			r.sink = nil
		}
	}
	observers := r.observers
	r.mu.Unlock()
	for _, fn := range observers {
		fn(e)
	}
	return e.Seq
}

// Events returns the retained tail, oldest first. The slice is a copy.
func (r *EventRing) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	return out
}

// Tail returns the newest n retained events, oldest first (all of them
// when n <= 0 or n exceeds the retained count).
func (r *EventRing) Tail(n int) []Event {
	all := r.Events()
	if n <= 0 || n >= len(all) {
		return all
	}
	return all[len(all)-n:]
}

// Len returns the retained event count.
func (r *EventRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Dropped returns how many events overflow has evicted from the ring.
// Evicted events were still delivered to the sink, if one was set.
func (r *EventRing) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// ReadEvents parses a JSONL event stream (a sink file or /debug/events
// body) back into events, in order.
func ReadEvents(rd io.Reader) ([]Event, error) {
	dec := json.NewDecoder(rd)
	var out []Event
	for {
		var e Event
		if err := dec.Decode(&e); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, err
		}
		out = append(out, e)
	}
}
