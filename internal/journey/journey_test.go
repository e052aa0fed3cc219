package journey

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"cooper/internal/telemetry"
)

// ev is a shorthand event constructor: lifecycle events in tests differ
// only in the fields that matter.
func ev(seq int64, t telemetry.EventType, epoch, agent, partner int, nano int64) telemetry.Event {
	return telemetry.Event{
		Seq: seq, TimeUnixNano: nano, Type: t,
		Epoch: epoch, Agent: agent, Partner: partner,
		Trace: "aaaaaaaaaaaaaaaa", Span: "bbbbbbbbbbbbbbbb",
	}
}

// TestJourneyFold drives one agent through the full lifecycle —
// queued, admitted, matched, severed by a partner reap, repaired, and
// finally reaped — and checks states, partners, waits, and latencies.
func TestJourneyFold(t *testing.T) {
	us := int64(1000) // 1µs in nanos
	events := []telemetry.Event{
		ev(0, telemetry.EventAgentQueued, 0, 7, -1, 10*us),
		ev(1, telemetry.EventAgentRegistered, 0, 7, -1, 15*us),
		ev(2, telemetry.EventAgentQueued, 0, 8, -1, 16*us),
		ev(3, telemetry.EventAgentRegistered, 0, 8, -1, 17*us),
		ev(4, telemetry.EventPairMatched, 0, 7, 8, 40*us),
		ev(5, telemetry.EventAgentReaped, 1, 8, -1, 90*us),
		// The repair round that heals the severed agent.
		func() telemetry.Event {
			e := ev(6, telemetry.EventRematchRound, 1, -1, -1, 95*us)
			e.Kind = "repair"
			return e
		}(),
		ev(7, telemetry.EventAgentQueued, 1, 9, -1, 96*us),
		ev(8, telemetry.EventAgentRegistered, 1, 9, -1, 97*us),
		ev(9, telemetry.EventPairMatched, 1, 7, 9, 100*us),
		ev(10, telemetry.EventAgentReaped, 2, 7, -1, 200*us),
	}
	b := Build(events)

	j, ok := b.Journey(7)
	if !ok {
		t.Fatal("agent 7 has no journey")
	}
	var states []State
	for _, s := range j.Steps {
		states = append(states, s.State)
	}
	want := []State{StateQueued, StateAdmitted, StateMatched, StateSevered, StateMatched, StateReaped}
	// Agent 7 was severed (partner 8 reaped), and the next assignment
	// follows a severed step, so it must be "repaired" — not matched.
	want[4] = StateRepaired
	if len(states) != len(want) {
		t.Fatalf("agent 7 states = %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("agent 7 step %d = %s, want %s (all: %v)", i, states[i], want[i], states)
		}
	}
	if j.Steps[3].Partner != 8 || j.Steps[3].Seq != 5 {
		t.Errorf("severed step should carry the reaped partner and its seq: %+v", j.Steps[3])
	}
	if j.Steps[4].Partner != 9 {
		t.Errorf("repaired step partner = %d, want 9", j.Steps[4].Partner)
	}
	if j.AdmitWaitNS != 5*us {
		t.Errorf("admit wait = %d, want %d", j.AdmitWaitNS, 5*us)
	}
	if j.MatchWaitNS != 25*us {
		t.Errorf("match wait = %d, want %d", j.MatchWaitNS, 25*us)
	}
	if j.LifetimeNS != 190*us {
		t.Errorf("lifetime = %d, want %d", j.LifetimeNS, 190*us)
	}
	if !j.Reaped {
		t.Error("agent 7 should be reaped")
	}
	if len(j.Problems) != 0 {
		t.Errorf("clean journey reported problems: %v", j.Problems)
	}
	if j.Steps[2].SinceNS != 25*us {
		t.Errorf("matched step latency = %d, want %d", j.Steps[2].SinceNS, 25*us)
	}

	// Agent 8's journey ends at the reap; the sever lands on 7 only.
	j8, _ := b.Journey(8)
	last := j8.Steps[len(j8.Steps)-1]
	if last.State != StateReaped || len(j8.Problems) != 0 {
		t.Errorf("agent 8 journey = %v problems %v", j8.Steps, j8.Problems)
	}

	if got := b.Journeys(); len(got) != 3 || got[0].Agent != 7 || got[1].Agent != 8 || got[2].Agent != 9 {
		t.Errorf("Journeys() = %v, want agents 7, 8 and 9 in order", got)
	}
	if _, ok := b.Journey(99); ok {
		t.Error("unknown agent should report no journey")
	}
}

// TestRepairedNeedsRepairRound pins the matched/repaired distinction:
// a routine next-epoch re-match of a standing pair stays "matched";
// only a repair round (or a sever) upgrades it.
func TestRepairedNeedsRepairRound(t *testing.T) {
	events := []telemetry.Event{
		ev(0, telemetry.EventAgentQueued, 0, 1, -1, 10),
		ev(1, telemetry.EventAgentRegistered, 0, 1, -1, 20),
		ev(2, telemetry.EventAgentQueued, 0, 2, -1, 30),
		ev(3, telemetry.EventAgentRegistered, 0, 2, -1, 40),
		ev(4, telemetry.EventPairMatched, 0, 1, 2, 50),
		ev(5, telemetry.EventPairMatched, 1, 1, 2, 60), // plain epoch 1: no repair round
	}
	b := Build(events)
	j, _ := b.Journey(1)
	if got := j.Steps[len(j.Steps)-1].State; got != StateMatched {
		t.Errorf("re-match without a repair round = %s, want matched", got)
	}

	// The same second assignment inside a repair epoch is "repaired".
	rr := ev(5, telemetry.EventRematchRound, 1, -1, -1, 55)
	rr.Kind = "repair"
	events[5].Seq = 6
	b = Build(append(events[:5:5], events[4], rr, events[5]))
	j, _ = b.Journey(1)
	if got := j.Steps[len(j.Steps)-1].State; got != StateRepaired {
		t.Errorf("re-match inside a repair epoch = %s, want repaired", got)
	}
}

// TestProblems checks the validator flags out-of-order lifecycles and
// orphaned traces.
func TestProblems(t *testing.T) {
	// Matched before admission.
	b := Build([]telemetry.Event{
		ev(0, telemetry.EventPairMatched, 0, 1, 2, 10),
	})
	j, _ := b.Journey(1)
	if len(j.Problems) == 0 {
		t.Error("match before admission should be a problem")
	}

	// Orphaned trace: one step stamped with a foreign trace ID.
	stray := ev(2, telemetry.EventPairMatched, 0, 3, 4, 30)
	stray.Trace = "ffffffffffffffff"
	b = Build([]telemetry.Event{
		ev(0, telemetry.EventAgentQueued, 0, 3, -1, 10),
		ev(1, telemetry.EventAgentRegistered, 0, 3, -1, 20),
		stray,
	})
	j, _ = b.Journey(3)
	found := false
	for _, p := range j.Problems {
		if strings.Contains(p, "orphaned trace") {
			found = true
		}
	}
	if !found {
		t.Errorf("foreign trace should be flagged as orphaned: %v", j.Problems)
	}

	// A queued-only journey on a live view is routine, not a problem.
	b = Build([]telemetry.Event{ev(0, telemetry.EventAgentQueued, 0, 5, -1, 10)})
	j, _ = b.Journey(5)
	if len(j.Problems) != 0 {
		t.Errorf("queued-only live journey should be clean: %v", j.Problems)
	}
}

// TestSlowest checks the ranking: admit wait descending, then match
// wait, then agent ID.
func TestSlowest(t *testing.T) {
	var events []telemetry.Event
	var seq int64
	add := func(agent int, queuedAt, admittedAt int64) {
		events = append(events,
			ev(seq, telemetry.EventAgentQueued, 0, agent, -1, queuedAt),
			ev(seq+1, telemetry.EventAgentRegistered, 0, agent, -1, admittedAt))
		seq += 2
	}
	add(1, 0, 100) // wait 100
	add(2, 0, 500) // wait 500 — slowest
	add(3, 0, 100) // wait 100, ties with 1, higher ID loses
	b := Build(events)
	got := b.Slowest(2)
	if len(got) != 2 || got[0].Agent != 2 || got[1].Agent != 1 {
		ids := []int{}
		for _, j := range got {
			ids = append(ids, j.Agent)
		}
		t.Fatalf("Slowest(2) = %v, want [2 1]", ids)
	}
	if len(b.Slowest(0)) != 0 || len(b.Slowest(10)) != 3 {
		t.Error("Slowest should clamp to the population")
	}
}

// TestLiveObserverMatchesOffline folds the same events live (Observe)
// and offline (Build) and requires identical JSON — the property that
// makes cooper-trace's offline reconstruction trustworthy.
func TestLiveObserverMatchesOffline(t *testing.T) {
	events := []telemetry.Event{
		ev(0, telemetry.EventAgentQueued, 0, 1, -1, 10),
		ev(1, telemetry.EventAgentRegistered, 0, 1, -1, 20),
		ev(2, telemetry.EventAgentQueued, 0, 2, -1, 21),
		ev(3, telemetry.EventAgentRegistered, 0, 2, -1, 22),
		ev(4, telemetry.EventPairMatched, 0, 1, 2, 30),
		ev(5, telemetry.EventAgentReaped, 1, 2, -1, 40),
	}
	live := NewBuilder()
	ring := telemetry.NewEventRing(16)
	ring.AddObserver(live.Observe)
	for _, e := range events {
		e := e
		ring.Record(e)
	}
	// Ring stamping rewrites Seq/time; fold the ring's actual contents
	// offline for the comparison.
	offline := Build(ring.Events())
	a, _ := json.Marshal(live.Journeys())
	b, _ := json.Marshal(offline.Journeys())
	if !bytes.Equal(a, b) {
		t.Errorf("live and offline folds differ:\n%s\n%s", a, b)
	}
}

// TestRenderAndChrome smoke-tests the text and Chrome exports.
func TestRenderAndChrome(t *testing.T) {
	b := Build([]telemetry.Event{
		ev(0, telemetry.EventAgentQueued, 0, 1, -1, 1000),
		ev(1, telemetry.EventAgentRegistered, 0, 1, -1, 2000),
		ev(2, telemetry.EventAgentQueued, 0, 2, -1, 2100),
		ev(3, telemetry.EventAgentRegistered, 0, 2, -1, 2200),
		ev(4, telemetry.EventPairMatched, 0, 1, 2, 3000),
	})
	js := b.Journeys()
	text := js[0].String()
	for _, want := range []string{"agent 1", "queued", "admitted", "matched", "partner 2", "trace aaaaaaaaaaaaaaaa"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q:\n%s", want, text)
		}
	}

	var evs []telemetry.ChromeEvent
	AppendChromeEvents(&evs, js, EpochNano(js), 1, b.LastTimeUnixNano())
	var buf bytes.Buffer
	if err := telemetry.WriteChromeEvents(&buf, evs); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"thread_name"`, `"agent 1"`, `"matched"`, `"process_name"`} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome export missing %s:\n%s", want, out)
		}
	}
	// The first step starts at the time origin.
	if !strings.Contains(out, `"ts":0`) {
		t.Errorf("expected a ts-0 event at the origin:\n%s", out)
	}

	// Nil safety across the read API.
	var nilB *Builder
	nilB.Observe(telemetry.Event{})
	if nilB.Journeys() != nil || nilB.LastTimeUnixNano() != 0 {
		t.Error("nil builder reads should be empty")
	}
	if _, ok := nilB.Journey(1); ok {
		t.Error("nil builder should have no journeys")
	}
}
