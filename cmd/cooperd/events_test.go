package main

// End-to-end flight-recorder soak: a fault-armed coordinator (the
// cooperd -chaos-seed configuration: a server-side plan wrapping every
// accepted conn) runs a multi-epoch soak with scheduled crashes and a
// rejoin, streaming every event to a JSONL sink the way -events-out
// does. The test asserts the event log is complete — every reap the
// counters saw appears as a typed event, every epoch is bracketed, the
// log audits clean — and deterministic: two runs of the same seed
// produce identical event sequences once timestamps are zeroed.
//
// Determinism here rests on one writer: the flight log is written only
// by the Serve goroutine. Injected faults are counted, never logged (the
// injector runs on connection goroutines), all dials are sequential
// (DialWith returns only after the "registered" reply), and crashes
// plus redials execute inside the BeforeEpoch barrier on the Serve
// goroutine, so the event order is schedule-independent. Drops are
// deliberately absent from the plan: a server-side drop of an epoch
// summary would park its agent inside RunEpoch across the barrier (the
// drop counter is unit-tested in internal/faults instead; dup, stall,
// and reset are exercised here).

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"cooper/internal/arch"
	"cooper/internal/audit"
	"cooper/internal/faults"
	"cooper/internal/netproto"
	"cooper/internal/policy"
	"cooper/internal/profiler"
	"cooper/internal/telemetry"
	"cooper/internal/workload"
)

const (
	soakEpochs = 8
	soakSeed   = 20260807
)

var soakJobs = []string{"correlation", "dedup", "swapt", "stream"}

func soakConfig(seed int64) faults.Config {
	return faults.Config{
		Seed:      seed,
		DupProb:   0.12,
		StallProb: 0.15,
		Stall:     500 * time.Microsecond,
		ResetProb: 0.05,
		Crashes: []faults.Crash{
			{Agent: 1, Epoch: 2},
			{Agent: 2, Epoch: 4, Rejoin: true},
		},
	}
}

// soakHarness drives the agent fleet in lockstep with the epoch loop.
// Agents only ever run RunEpoch; every dial happens sequentially inside
// the BeforeEpoch barrier on the Serve goroutine.
type soakHarness struct {
	t    *testing.T
	addr string

	mu       sync.Mutex
	cond     *sync.Cond
	alive    []bool
	conn     []*netproto.Client
	ran      []int
	goEpoch  int
	entered  int
	inflight int
	stopped  bool
}

func newSoakHarness(t *testing.T, n int) *soakHarness {
	h := &soakHarness{t: t, alive: make([]bool, n), conn: make([]*netproto.Client, n), ran: make([]int, n), goEpoch: -1}
	h.cond = sync.NewCond(&h.mu)
	for i := range h.alive {
		h.alive[i] = true
		h.ran[i] = -1
	}
	return h
}

func (h *soakHarness) runAgent(i int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for !h.stopped {
		if c := h.conn[i]; c != nil && h.goEpoch > h.ran[i] {
			h.ran[i] = h.goEpoch
			h.inflight++
			h.entered++
			h.cond.Broadcast()
			h.mu.Unlock()
			_, _, err := c.RunEpoch()
			h.mu.Lock()
			h.inflight--
			if err != nil {
				// Reaped, reset, or fed a duplicated summary: drop the conn;
				// the next barrier redials.
				c.Close()
				if h.conn[i] == c {
					h.conn[i] = nil
				}
			}
			h.cond.Broadcast()
			continue
		}
		h.cond.Wait()
	}
	if c := h.conn[i]; c != nil {
		c.Close()
		h.conn[i] = nil
	}
}

// dialLocked connects agent i, retrying through injected faults on the
// registration exchange (a reset or stall can cost an attempt). Runs on
// the Serve goroutine with h.mu held; sequential dials keep the accept
// order — and so each conn's injector key — deterministic.
func (h *soakHarness) dialLocked(i int) {
	for attempt := 0; h.conn[i] == nil && !h.stopped; attempt++ {
		if attempt > 25 {
			h.t.Errorf("agent %d: %d dial attempts exhausted", i, attempt)
			return
		}
		c, err := netproto.DialWith(h.addr, soakJobs[i], netproto.DialOptions{
			Timeout:     2 * time.Second,
			ReadTimeout: 30 * time.Second,
		})
		if err == nil {
			h.conn[i] = c
		}
	}
}

// beforeEpoch is the lockstep barrier, run on the Serve goroutine.
func (h *soakHarness) beforeEpoch(plan *faults.Plan, e int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for h.inflight > 0 && !h.stopped {
		h.cond.Wait()
	}
	for _, cr := range plan.CrashesDue(e) {
		i := int(cr.Agent)
		if c := h.conn[i]; c != nil {
			c.Close()
			h.conn[i] = nil
		}
		h.alive[i] = cr.Rejoin
		plan.RecordCrash()
		if cr.Rejoin {
			plan.RecordRejoin()
		}
	}
	for i := range h.alive {
		if h.alive[i] && h.conn[i] == nil {
			h.dialLocked(i)
		}
	}
	// Release the fleet and wait for every connected agent to be inside
	// RunEpoch before assignments go out. The sessions dialed above are
	// admitted by Serve's post-barrier admitPending drain.
	want := 0
	for i := range h.conn {
		if h.conn[i] != nil {
			want++
		}
	}
	h.entered = 0
	h.goEpoch = e
	h.cond.Broadcast()
	for h.entered < want && !h.stopped {
		h.cond.Wait()
	}
}

// newSoakServer builds the fault-armed coordinator every soak shares,
// wired to the harness's lockstep barrier. Callers override Epochs (and
// set Span) before driving it.
func newSoakServer(t *testing.T, tel *telemetry.Telemetry, plan *faults.Plan, h *soakHarness) *netproto.Server {
	t.Helper()
	cmp := arch.DefaultCMP()
	catalog, err := workload.Catalog(cmp)
	if err != nil {
		t.Fatal(err)
	}
	return &netproto.Server{
		Epoch:        len(soakJobs),
		Epochs:       soakEpochs,
		Policy:       policy.Greedy{},
		Catalog:      catalog,
		Penalties:    profiler.DensePenalties(cmp, catalog),
		Seed:         7,
		Metrics:      tel.Registry(),
		Events:       tel.Events,
		Faults:       plan,
		ReadTimeout:  400 * time.Millisecond,
		WriteTimeout: 400 * time.Millisecond,
		EpochTimeout: 30 * time.Second,
		BeforeEpoch:  func(e int) { h.beforeEpoch(plan, e) },
	}
}

// driveSoak serves the soak to completion: sequential initial dials (so
// the accept order — and with it each conn's server-side injector key —
// is the agent index, identically on every run), the agent fleet in
// lockstep, and a wedge timeout.
func driveSoak(t *testing.T, srv *netproto.Server, h *soakHarness, timeout time.Duration) {
	t.Helper()
	addrCh := make(chan string, 1)
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.Serve("127.0.0.1:0", func(a string) { addrCh <- a }) }()
	h.addr = <-addrCh

	h.mu.Lock()
	for i := range soakJobs {
		h.dialLocked(i)
	}
	h.mu.Unlock()

	var wg sync.WaitGroup
	for i := range soakJobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h.runAgent(i)
		}(i)
	}

	select {
	case err := <-srvErr:
		if err != nil {
			t.Errorf("soak serve: %v", err)
		}
	case <-time.After(timeout):
		srv.Shutdown()
		t.Fatalf("soak wedged: Serve did not finish %d epochs in %s", srv.Epochs, timeout)
	}
	h.mu.Lock()
	h.stopped = true
	h.cond.Broadcast()
	h.mu.Unlock()
	wg.Wait()
}

// runEventSoak runs the instrumented soak once: returns the metrics
// snapshot, the canonicalized event sequence, and the sink file's path.
func runEventSoak(t *testing.T, seed int64, dir string) (telemetry.Snapshot, []telemetry.Event, string) {
	t.Helper()
	tel := telemetry.New()
	reg := tel.Registry()
	sinkPath := filepath.Join(dir, "events.jsonl")
	sink, err := os.Create(sinkPath)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	tel.Events.SetSink(sink)

	plan := faults.NewPlan(soakConfig(seed), reg, nil)

	h := newSoakHarness(t, len(soakJobs))
	srv := newSoakServer(t, tel, plan, h)
	driveSoak(t, srv, h, 90*time.Second)

	if err := tel.Events.Err(); err != nil {
		t.Fatalf("event sink: %v", err)
	}
	events := tel.Events.Events()
	canon := make([]telemetry.Event, len(events))
	for i, e := range events {
		canon[i] = e.Canon()
	}
	return reg.Snapshot(), canon, sinkPath
}

func TestEventLogCompleteAndDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("event soak runs for seconds")
	}
	snap, events, sinkPath := runEventSoak(t, soakSeed, t.TempDir())

	// The sink saw the same stream the ring retained (nothing overflowed
	// at this scale), and it parses back as typed events.
	f, err := os.Open(sinkPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sunk, err := telemetry.ReadEvents(f)
	if err != nil {
		t.Fatalf("parsing sink JSONL: %v", err)
	}
	if len(sunk) != len(events) {
		t.Fatalf("sink carries %d events, ring %d", len(sunk), len(events))
	}
	for i := range sunk {
		if sunk[i].Canon() != events[i] {
			t.Fatalf("sink event %d diverges from ring: %+v vs %+v", i, sunk[i].Canon(), events[i])
		}
	}

	// The plan's faults fired and were counted; the counters, not the
	// log, are where injections live.
	for _, kind := range []string{"dup", "stall", "reset"} {
		if snap.Counter("fault.injected."+kind) == 0 {
			t.Errorf("fault kind %q never fired over %d epochs; soak is too quiet", kind, soakEpochs)
		}
	}
	if got, want := snap.Counter("fault.injected.crash"), int64(2); got != want {
		t.Errorf("fault.injected.crash = %d, want %d", got, want)
	}
	if got, want := snap.Counter("fault.injected.rejoin"), int64(1); got != want {
		t.Errorf("fault.injected.rejoin = %d, want %d", got, want)
	}

	// Completeness: every reap the counters saw is in the log as a typed
	// event, and vice versa.
	byType := map[telemetry.EventType]int64{}
	for _, e := range events {
		byType[e.Type]++
	}
	if got, want := byType[telemetry.EventAgentReaped], snap.Counter("net.reaped"); got != want {
		t.Errorf("agent_reaped events = %d, net.reaped = %d", got, want)
	}
	if snap.Counter("net.reaped") < 2 {
		t.Errorf("net.reaped = %d, want >= 2 (two scheduled crashes)", snap.Counter("net.reaped"))
	}
	if got, want := byType[telemetry.EventEpochStart], int64(soakEpochs); got != want {
		t.Errorf("epoch_start events = %d, want %d", got, want)
	}
	if got, want := byType[telemetry.EventEpochEnd], int64(soakEpochs); got != want {
		t.Errorf("epoch_end events = %d, want %d", got, want)
	}
	if byType[telemetry.EventPairMatched] == 0 {
		t.Error("no pair_matched events recorded")
	}
	if byType[telemetry.EventAgentRegistered] < int64(len(soakJobs))+1 {
		t.Errorf("agent_registered events = %d, want >= %d (fleet + rejoin)",
			byType[telemetry.EventAgentRegistered], len(soakJobs)+1)
	}
	if byType[telemetry.EventRematchRound] != snap.Counter("epoch.degraded") &&
		byType[telemetry.EventRematchRound] < snap.Counter("epoch.degraded") {
		t.Errorf("rematch_round events = %d, want >= epoch.degraded = %d",
			byType[telemetry.EventRematchRound], snap.Counter("epoch.degraded"))
	}

	// The invariant auditor must pass the sink's recording end to end:
	// every epoch's pairing conserves against its snapshot matrix, every
	// agent is accounted for, every lifecycle transition is legal.
	rep := audit.Replay(sunk, audit.Options{})
	for _, w := range rep.Warnings {
		t.Logf("audit warning: %s", w)
	}
	for _, v := range rep.Violations {
		t.Errorf("audit violation: %s", v)
	}
	if rep.Epochs != soakEpochs {
		t.Errorf("audit replayed %d epochs, want %d", rep.Epochs, soakEpochs)
	}

	// Determinism: a second run of the identical plan yields the identical
	// event sequence, timestamps aside.
	snap2, events2, _ := runEventSoak(t, soakSeed, t.TempDir())
	if !reflect.DeepEqual(snap.CountersWithPrefix("fault."), snap2.CountersWithPrefix("fault.")) {
		t.Errorf("fault counters diverged:\n run1: %v\n run2: %v",
			snap.CountersWithPrefix("fault."), snap2.CountersWithPrefix("fault."))
	}
	if len(events) != len(events2) {
		t.Fatalf("event counts diverged: %d vs %d", len(events), len(events2))
	}
	for i := range events {
		if events[i] != events2[i] {
			t.Fatalf("event %d diverged across same-seed runs:\n run1: %+v\n run2: %+v",
				i, events[i], events2[i])
		}
	}
}
