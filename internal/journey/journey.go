// Package journey folds the flight recorder's event stream into
// per-agent timelines: each agent's path through the coordinator's
// lifecycle — queued → admitted → matched/unpaired (→ severed →
// repaired …) → reaped — with the latency of every transition and the
// causal trace/span identity of the event behind it.
//
// The same Builder works live (registered on the EventRing via
// AddObserver, feeding /debug/journey) and offline (Build over a
// decoded -events-out log, feeding cooper-trace). Both paths fold the
// identical event sequence, so a journey reconstructed from a flight
// log is byte-identical to the one the daemon served while running.
package journey

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"cooper/internal/telemetry"
)

// State names one stop on an agent's journey.
type State string

const (
	// StateQueued is the agent_queued event: the registration reached
	// the coordinator and sat in the admission queue.
	StateQueued State = "queued"
	// StateAdmitted is the agent_registered event: the agent joined the
	// population at an epoch boundary. (The wire calls this
	// "registered"; the journey calls it admitted because that is the
	// transition the admit-wait histogram measures.)
	StateAdmitted State = "admitted"
	// StateMatched is a pair_matched assignment naming this agent on
	// either side.
	StateMatched State = "matched"
	// StateUnpaired is an explicit solo assignment (odd population,
	// Threshold policy).
	StateUnpaired State = "unpaired"
	// StateSevered is synthesized when the agent's current partner is
	// reaped while the pair stood: the colocation ended without this
	// agent doing anything. Partner names the reaped peer; Seq and the
	// causal IDs come from the partner's agent_reaped event.
	StateSevered State = "severed"
	// StateRepaired is a re-assignment that heals a standing placement:
	// a pair_matched that follows a severed step, or one that replaces
	// an existing assignment inside an epoch that ran an incremental
	// repair round (rematch_round kind "repair").
	StateRepaired State = "repaired"
	// StateReaped is the agent_reaped event: the coordinator removed
	// the agent after a dead or mute connection. Terminal.
	StateReaped State = "reaped"
)

// Step is one journey transition, carrying the source event's identity.
type Step struct {
	State State `json:"state"`
	// Epoch is the scheduling epoch the transition happened in.
	Epoch int `json:"epoch"`
	// Seq is the source event's flight-recorder sequence number. For a
	// synthesized severed step it is the partner's agent_reaped Seq.
	Seq          int64 `json:"seq"`
	TimeUnixNano int64 `json:"time_unix_nano"`
	// Partner is the other agent for matched/repaired steps, the reaped
	// peer for severed steps, and -1 otherwise.
	Partner int    `json:"partner"`
	Job     string `json:"job,omitempty"`
	// Trace and Span are the causal IDs stamped on the source event.
	Trace string `json:"trace,omitempty"`
	Span  string `json:"span,omitempty"`
	// SinceNS is the wall-clock latency since the previous step (0 for
	// the first).
	SinceNS int64 `json:"since_ns"`
}

// Journey is one agent's reconstructed timeline.
type Journey struct {
	Agent int    `json:"agent"`
	Job   string `json:"job,omitempty"`
	// Trace is the journey's home trace ID — the first non-empty step
	// trace. Steps stamped with a different trace are reported as
	// orphans in Problems.
	Trace string `json:"trace,omitempty"`
	Steps []Step `json:"steps"`
	// AdmitWaitNS is the queued → admitted latency, MatchWaitNS the
	// admitted → first assignment latency, LifetimeNS first → last step.
	AdmitWaitNS int64 `json:"admit_wait_ns"`
	MatchWaitNS int64 `json:"match_wait_ns"`
	LifetimeNS  int64 `json:"lifetime_ns"`
	// Reaped marks a terminal journey; a false value on a finished log
	// means the agent was still live when the stream ended.
	Reaped bool `json:"reaped"`
	// Problems lists lifecycle-order violations and orphaned trace IDs;
	// empty means the journey is complete and gap-free.
	Problems []string `json:"problems,omitempty"`
}

// agentState is the builder's mutable per-agent fold state.
type agentState struct {
	j       Journey
	partner int  // current partner, -1 when none
	paired  bool // has a standing pair assignment
}

// Builder folds events into journeys. Safe for one writer (Observe on
// the recording goroutine) and concurrent readers; all accessors return
// deep copies. A nil *Builder is a valid no-op observer.
type Builder struct {
	mu     sync.Mutex
	agents map[int]*agentState
	order  []int // agent IDs in first-seen order
	// repairEpochs marks epochs that ran an incremental repair round,
	// which is what lets a mid-epoch re-assignment count as "repaired"
	// rather than a routine new epoch's matching.
	repairEpochs map[int]bool
	lastNano     int64 // latest event time seen, closes live spans in exports
}

// NewBuilder returns an empty Builder, ready for Observe or AddObserver.
func NewBuilder() *Builder {
	return &Builder{
		agents:       make(map[int]*agentState),
		repairEpochs: make(map[int]bool),
	}
}

// Build folds a complete event slice (a decoded -events-out log) into a
// Builder. The offline twin of the live AddObserver path.
func Build(events []telemetry.Event) *Builder {
	b := NewBuilder()
	for _, e := range events {
		b.Observe(e)
	}
	return b
}

// Observe folds one event. Non-lifecycle events (epoch bookkeeping,
// snapshots, audit violations) only advance the clock.
func (b *Builder) Observe(e telemetry.Event) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if e.TimeUnixNano > b.lastNano {
		b.lastNano = e.TimeUnixNano
	}
	switch e.Type {
	case telemetry.EventAgentQueued:
		st := b.state(e.Agent)
		st.j.Job = e.Job
		b.step(st, e, StateQueued, -1)
	case telemetry.EventAgentRegistered:
		st := b.state(e.Agent)
		if st.j.Job == "" {
			st.j.Job = e.Job
		}
		b.step(st, e, StateAdmitted, -1)
	case telemetry.EventPairMatched:
		b.assign(e, e.Agent, e.Partner)
		b.assign(e, e.Partner, e.Agent)
	case telemetry.EventAgentUnpaired:
		st := b.state(e.Agent)
		st.paired, st.partner = false, -1
		b.step(st, e, StateUnpaired, -1)
	case telemetry.EventAgentReaped:
		st := b.state(e.Agent)
		st.j.Reaped = true
		b.step(st, e, StateReaped, -1)
		// Sever the surviving half of a standing pair: its colocation
		// ended here even though no event names it directly.
		if st.paired {
			if p, ok := b.agents[st.partner]; ok && !p.j.Reaped && p.paired && p.partner == e.Agent {
				p.paired, p.partner = false, -1
				b.step(p, e, StateSevered, e.Agent)
			}
		}
		st.paired, st.partner = false, -1
	case telemetry.EventRematchRound:
		if e.Kind == telemetry.KindRepair {
			b.repairEpochs[e.Epoch] = true
		}
	}
}

// assign records one side of a pair_matched event. A re-assignment is
// "repaired" when it heals a severed pair, or replaces a standing one
// inside an epoch that ran a repair round; otherwise it is a routine
// "matched".
func (b *Builder) assign(e telemetry.Event, agent, partner int) {
	st := b.state(agent)
	state := StateMatched
	if n := len(st.j.Steps); n > 0 {
		last := st.j.Steps[n-1].State
		if last == StateSevered || (st.paired && b.repairEpochs[e.Epoch]) {
			state = StateRepaired
		}
	}
	st.paired, st.partner = true, partner
	b.step(st, e, state, partner)
}

func (b *Builder) state(agent int) *agentState {
	st, ok := b.agents[agent]
	if !ok {
		st = &agentState{partner: -1}
		st.j.Agent = agent
		b.agents[agent] = st
		b.order = append(b.order, agent)
	}
	return st
}

func (b *Builder) step(st *agentState, e telemetry.Event, state State, partner int) {
	s := Step{
		State: state, Epoch: e.Epoch, Seq: e.Seq,
		TimeUnixNano: e.TimeUnixNano, Partner: partner,
		Job: e.Job, Trace: e.Trace, Span: e.Span,
	}
	if n := len(st.j.Steps); n > 0 {
		s.SinceNS = s.TimeUnixNano - st.j.Steps[n-1].TimeUnixNano
	}
	if st.j.Trace == "" {
		st.j.Trace = e.Trace
	}
	st.j.Steps = append(st.j.Steps, s)
}

// Journey returns the agent's journey, or false if the agent was never
// seen. The copy is deep; the caller may keep it across later folds.
func (b *Builder) Journey(agent int) (Journey, bool) {
	if b == nil {
		return Journey{}, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	st, ok := b.agents[agent]
	if !ok {
		return Journey{}, false
	}
	return finish(st.j), true
}

// Journeys returns every journey, ordered by agent ID.
func (b *Builder) Journeys() []Journey {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Journey, 0, len(b.agents))
	for _, id := range b.order {
		out = append(out, finish(b.agents[id].j))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Agent < out[j].Agent })
	return out
}

// Slowest returns up to n journeys ranked by admit wait (descending),
// breaking ties by match wait, then by agent ID — the journeys behind a
// fat admit-wait tail, in the order an operator should read them.
func (b *Builder) Slowest(n int) []Journey {
	all := b.Journeys()
	sort.Slice(all, func(i, j int) bool {
		a, c := all[i], all[j]
		if a.AdmitWaitNS != c.AdmitWaitNS {
			return a.AdmitWaitNS > c.AdmitWaitNS
		}
		if a.MatchWaitNS != c.MatchWaitNS {
			return a.MatchWaitNS > c.MatchWaitNS
		}
		return a.Agent < c.Agent
	})
	if n >= 0 && len(all) > n {
		all = all[:n]
	}
	return all
}

// LastTimeUnixNano reports the latest event time folded so far — the
// "now" that closes still-open journey intervals in exports.
func (b *Builder) LastTimeUnixNano() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lastNano
}

// finish deep-copies the folded journey and derives its waits and
// problems.
func finish(j Journey) Journey {
	j.Steps = append([]Step(nil), j.Steps...)
	j.Problems = nil
	var queuedAt, admittedAt int64
	haveQueued, haveAdmitted := false, false
	for i, s := range j.Steps {
		switch s.State {
		case StateQueued:
			queuedAt, haveQueued = s.TimeUnixNano, true
		case StateAdmitted:
			if haveQueued && !haveAdmitted {
				j.AdmitWaitNS = s.TimeUnixNano - queuedAt
			}
			admittedAt, haveAdmitted = s.TimeUnixNano, true
		case StateMatched, StateUnpaired:
			if haveAdmitted && j.MatchWaitNS == 0 {
				j.MatchWaitNS = s.TimeUnixNano - admittedAt
			}
		}
		if i > 0 {
			j.LifetimeNS = s.TimeUnixNano - j.Steps[0].TimeUnixNano
		}
	}
	j.Problems = problems(j)
	return j
}

// problems checks the journey against the lifecycle the coordinator
// promises: queued first, admitted second, assignments only in between
// admission and reaping, severed only off a standing pair, nothing
// after reaped, monotone sequence numbers, and every step inside the
// journey's home trace.
func problems(j Journey) []string {
	var out []string
	add := func(format string, args ...any) {
		out = append(out, fmt.Sprintf(format, args...))
	}
	admitted, reaped, paired := false, false, false
	var lastSeq int64 = -1
	for i, s := range j.Steps {
		if s.Seq < lastSeq {
			add("step %d (%s) seq %d before predecessor's %d", i, s.State, s.Seq, lastSeq)
		}
		lastSeq = s.Seq
		if reaped {
			add("step %d (%s) after reaped", i, s.State)
		}
		switch s.State {
		case StateQueued:
			if i != 0 {
				add("queued at step %d, not first", i)
			}
		case StateAdmitted:
			if i != 1 {
				add("admitted at step %d, not immediately after queued", i)
			}
			admitted = true
		case StateMatched, StateRepaired:
			if !admitted {
				add("step %d (%s) before admission", i, s.State)
			}
			paired = true
		case StateUnpaired:
			if !admitted {
				add("step %d (unpaired) before admission", i)
			}
			paired = false
		case StateSevered:
			if !paired {
				add("step %d (severed) without a standing pair", i)
			}
			paired = false
		case StateReaped:
			reaped = true
		}
		if s.Trace != "" && j.Trace != "" && s.Trace != j.Trace {
			add("step %d (%s) orphaned trace %s (journey trace %s)", i, s.State, s.Trace, j.Trace)
		}
	}
	if len(j.Steps) > 0 && !admitted && !reaped {
		// Queued-only journeys are routine on a truncated live view, so
		// only a *finished* journey missing admission is flagged — and a
		// reaped-but-never-admitted journey already fails the step-order
		// checks above.
		if j.Reaped {
			add("reaped without admission")
		}
	}
	return out
}

// Render writes the journey as a human-readable timeline.
func (j Journey) Render(w io.Writer) {
	fmt.Fprintf(w, "agent %d", j.Agent)
	if j.Job != "" {
		fmt.Fprintf(w, " (%s)", j.Job)
	}
	if j.Trace != "" {
		fmt.Fprintf(w, " trace %s", j.Trace)
	}
	fmt.Fprintf(w, "  admit_wait %s  match_wait %s  lifetime %s",
		time.Duration(j.AdmitWaitNS), time.Duration(j.MatchWaitNS), time.Duration(j.LifetimeNS))
	if j.Reaped {
		fmt.Fprint(w, "  [reaped]")
	}
	fmt.Fprintln(w)
	for _, s := range j.Steps {
		fmt.Fprintf(w, "  seq %-6d e%-3d %-9s", s.Seq, s.Epoch, s.State)
		if s.Partner >= 0 {
			fmt.Fprintf(w, " partner %-5d", s.Partner)
		} else {
			fmt.Fprintf(w, "              ")
		}
		fmt.Fprintf(w, " +%s", time.Duration(s.SinceNS))
		if s.Span != "" {
			fmt.Fprintf(w, "  span %s", s.Span)
		}
		fmt.Fprintln(w)
	}
	for _, p := range j.Problems {
		fmt.Fprintf(w, "  !! %s\n", p)
	}
}

// String is Render into a string.
func (j Journey) String() string {
	var sb strings.Builder
	j.Render(&sb)
	return sb.String()
}

// AppendChromeEvents flattens journeys onto one Chrome trace process:
// each agent is a thread (tid = agent ID), each step a complete event
// lasting until the next step — the final step runs to nowNano (pass
// the builder's LastTimeUnixNano, or the log's last event time). Pair
// it with telemetry.AppendSpanEvents on other pids for a merged
// multi-process trace.
func AppendChromeEvents(out *[]telemetry.ChromeEvent, journeys []Journey, epochNano int64, pid int, nowNano int64) {
	*out = append(*out, telemetry.ProcessNameEvent(pid, "agent journeys"))
	for _, j := range journeys {
		name := fmt.Sprintf("agent %d", j.Agent)
		if j.Job != "" {
			name += " (" + j.Job + ")"
		}
		*out = append(*out, telemetry.ThreadNameEvent(pid, j.Agent, name))
		for i, s := range j.Steps {
			end := nowNano
			if i+1 < len(j.Steps) {
				end = j.Steps[i+1].TimeUnixNano
			}
			ts := (s.TimeUnixNano - epochNano) / 1e3
			if ts < 0 {
				ts = 0
			}
			dur := (end - s.TimeUnixNano) / 1e3
			if dur < 0 {
				dur = 0
			}
			ev := telemetry.ChromeEvent{
				Name: string(s.State), Cat: "journey", Ph: "X",
				TS: ts, Dur: dur, PID: pid, TID: j.Agent,
				Args: map[string]any{"seq": s.Seq, "epoch": s.Epoch},
			}
			if s.Partner >= 0 {
				ev.Args["partner"] = s.Partner
			}
			if s.Trace != "" {
				ev.Args["trace"] = s.Trace
				ev.Args["span"] = s.Span
			}
			*out = append(*out, ev)
		}
	}
}

// EpochNano returns the earliest step time across journeys — the time
// origin for AppendChromeEvents. Zero when no journey has steps.
func EpochNano(journeys []Journey) int64 {
	var min int64
	for _, j := range journeys {
		for _, s := range j.Steps {
			if min == 0 || s.TimeUnixNano < min {
				min = s.TimeUnixNano
			}
		}
	}
	return min
}
