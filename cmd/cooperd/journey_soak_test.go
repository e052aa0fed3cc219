package main

// Journey chaos soak: a 50-epoch fault-armed coordinator run with
// scheduled crashes and rejoins, a live journey builder and live
// auditor riding the same event ring (the cooperd -audit wiring), and
// causal tracing on (seeded telemetry, Server.Span). The test asserts
// what the journey tentpole promises: every registered agent folds
// into a complete, gap-free journey under one trace ID with zero
// orphans, the journeys agree with the audit engine (no lifecycle
// violations), the live auditor fed by the ring reports no warning
// either — so no Seq gap, which a second writer to the log would open —
// the offline fold of the sink reproduces the live fold byte for byte,
// and a second same-seed run stitches byte-identical trace/span ID
// sequences.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cooper/internal/audit"
	"cooper/internal/faults"
	"cooper/internal/journey"
	"cooper/internal/telemetry"
)

const (
	journeySoakEpochs = 50
	journeySoakSeed   = 20260808
)

func journeySoakConfig(seed int64) faults.Config {
	return faults.Config{
		Seed:      seed,
		DupProb:   0.06,
		StallProb: 0.06,
		Stall:     200 * time.Microsecond,
		ResetProb: 0.03,
		Crashes: []faults.Crash{
			{Agent: 1, Epoch: 3, Rejoin: true},
			{Agent: 2, Epoch: 14},
			{Agent: 0, Epoch: 27, Rejoin: true},
			{Agent: 3, Epoch: 41, Rejoin: true},
		},
	}
}

// journeySoakRun is one run's observable output.
type journeySoakRun struct {
	events     []telemetry.Event // canonicalized (timestamps zeroed)
	journeys   []journey.Journey // live builder's fold
	offline    []journey.Journey // offline fold of the sink file
	violations []audit.Violation
	warnings   []string // the live auditor's, at the end of the run
	trace      string   // the run's root trace ID
	admitWait  telemetry.HistogramSummary
}

func runJourneySoak(t *testing.T, seed int64, dir string) journeySoakRun {
	t.Helper()
	tel := telemetry.NewSeeded(42)
	reg := tel.Registry()
	sinkPath := filepath.Join(dir, "events.jsonl")
	sink, err := os.Create(sinkPath)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	tel.Events.SetSink(sink)

	// The cooperd wiring: journeys and the auditor share the ring's
	// observer hook.
	jb := journey.NewBuilder()
	tel.Events.AddObserver(jb.Observe)
	var violations []audit.Violation
	auditor := audit.New(audit.Options{OnViolation: func(v audit.Violation) {
		violations = append(violations, v)
	}})
	tel.Events.AddObserver(auditor.Feed)

	plan := faults.NewPlan(journeySoakConfig(seed), reg, nil)

	h := newSoakHarness(t, len(soakJobs))
	srv := newSoakServer(t, tel, plan, h)
	srv.Epochs = journeySoakEpochs
	srv.Span = tel.Trace

	driveSoak(t, srv, h, 240*time.Second)

	if err := tel.Events.Err(); err != nil {
		t.Fatalf("event sink: %v", err)
	}
	f, err := os.Open(sinkPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sunk, err := telemetry.ReadEvents(f)
	if err != nil {
		t.Fatalf("parsing sink JSONL: %v", err)
	}
	events := tel.Events.Events()
	canon := make([]telemetry.Event, len(events))
	for i, e := range events {
		canon[i] = e.Canon()
	}
	return journeySoakRun{
		events:     canon,
		journeys:   jb.Journeys(),
		offline:    journey.Build(sunk).Journeys(),
		violations: violations,
		warnings:   auditor.Finish().Warnings,
		trace:      tel.Trace.Trace().String(),
		admitWait:  reg.Snapshot().Histograms["net.admit_wait"],
	}
}

func TestJourneySoak(t *testing.T) {
	if testing.Short() {
		t.Skip("journey soak runs 50 chaos epochs, twice")
	}
	run := runJourneySoak(t, journeySoakSeed, t.TempDir())

	// Every registered agent yields a journey, and every journey is
	// complete and gap-free: no lifecycle-order violations, no orphaned
	// trace IDs — each step carries the run's single trace.
	registered := map[int]bool{}
	for _, e := range run.events {
		if e.Type == telemetry.EventAgentRegistered {
			registered[e.Agent] = true
		}
	}
	if len(registered) < len(soakJobs)+3 {
		t.Fatalf("only %d agents registered; expected the fleet plus 3 rejoins", len(registered))
	}
	byAgent := map[int]journey.Journey{}
	for _, j := range run.journeys {
		byAgent[j.Agent] = j
	}
	reaped := 0
	for id := range registered {
		j, ok := byAgent[id]
		if !ok {
			t.Errorf("registered agent %d has no journey", id)
			continue
		}
		for _, p := range j.Problems {
			t.Errorf("agent %d journey problem: %s", id, p)
		}
		if j.Trace != run.trace {
			t.Errorf("agent %d journey trace %q, want the run trace %q (orphaned)", id, j.Trace, run.trace)
		}
		for _, s := range j.Steps {
			if s.Trace != run.trace {
				t.Errorf("agent %d step %s at seq %d carries orphan trace %q", id, s.State, s.Seq, s.Trace)
			}
		}
		if j.Reaped {
			reaped++
		}
	}
	if reaped < 4 {
		t.Errorf("%d journeys reaped, want >= 4 (four scheduled crashes)", reaped)
	}

	// The journeys agree with the audit engine: zero lifecycle
	// violations (and nothing else, either — chaos must not corrupt the
	// coordinator's bookkeeping).
	for _, v := range run.violations {
		if v.Invariant == audit.InvLifecycle {
			t.Errorf("lifecycle violation contradicts journey completeness: %v", v)
		} else {
			t.Errorf("audit violation during soak: %v", v)
		}
	}
	// The live auditor checks Seq continuity like an offline replay: with
	// one writer, observers see a gap-free sequence and no warning.
	for _, w := range run.warnings {
		t.Errorf("live audit warning during soak: %s", w)
	}

	// The offline fold of the -events-out sink reproduces the live fold
	// exactly — cooper-trace sees what /debug/journey served.
	liveJSON, _ := json.Marshal(run.journeys)
	offJSON, _ := json.Marshal(run.offline)
	if string(liveJSON) != string(offJSON) {
		t.Error("offline journey fold diverges from the live builder")
	}

	// The admit-wait histogram carries exemplars pointing at real
	// queued events of real agents.
	if len(run.admitWait.Exemplars) == 0 {
		t.Fatal("admit-wait histogram has no exemplars after 50 epochs of admissions")
	}
	for _, ex := range run.admitWait.Exemplars {
		if !registered[ex.Agent] {
			t.Errorf("exemplar names unknown agent %d", ex.Agent)
		}
		if ex.Trace != run.trace {
			t.Errorf("exemplar trace %q, want %q", ex.Trace, run.trace)
		}
		if ex.Seq < 0 || ex.Seq >= int64(len(run.events)) {
			t.Errorf("exemplar seq %d out of range", ex.Seq)
			continue
		}
		if e := run.events[ex.Seq]; e.Type != telemetry.EventAgentQueued || e.Agent != ex.Agent {
			t.Errorf("exemplar seq %d resolves to %s of agent %d, want agent_queued of %d",
				ex.Seq, e.Type, e.Agent, ex.Agent)
		}
	}

	// Determinism: a second same-seed run produces byte-identical causal
	// identity — every event's trace and span ID sequence matches, and
	// the journey fold (timestamps aside) is identical.
	run2 := runJourneySoak(t, journeySoakSeed, t.TempDir())
	if run.trace != run2.trace {
		t.Fatalf("root trace diverged: %s vs %s", run.trace, run2.trace)
	}
	if len(run.events) != len(run2.events) {
		t.Fatalf("event counts diverged: %d vs %d", len(run.events), len(run2.events))
	}
	for i := range run.events {
		if run.events[i] != run2.events[i] {
			t.Fatalf("event %d diverged across same-seed runs:\n run1: %+v\n run2: %+v",
				i, run.events[i], run2.events[i])
		}
	}
	stable := func(js []journey.Journey) string {
		type stableStep struct {
			State   journey.State
			Epoch   int
			Seq     int64
			Partner int
			Trace   string
			Span    string
		}
		var out [][]stableStep
		for _, j := range js {
			var steps []stableStep
			for _, s := range j.Steps {
				steps = append(steps, stableStep{s.State, s.Epoch, s.Seq, s.Partner, s.Trace, s.Span})
			}
			out = append(out, steps)
		}
		b, _ := json.Marshal(out)
		return string(b)
	}
	if stable(run.journeys) != stable(run2.journeys) {
		t.Error("journey structure diverged across same-seed runs")
	}
}
