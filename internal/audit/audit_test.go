package audit

import (
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"cooper/internal/telemetry"
)

// wireLog builds a synthetic coordinator event stream, stamping Seq the
// way the flight recorder does. The default fixture: catalog {alpha,
// beta}, a 2x2 job penalty matrix, four agents in session order
// 0:alpha 1:beta 2:alpha 3:beta.
type wireLog struct {
	seq    int64
	events []telemetry.Event
}

var (
	testCatalog = []string{"alpha", "beta"}
	// testMatrix[i][j] is job i's penalty against job j. Chosen so the
	// standard matching below is NOT stable at α=0: agents 0 and 2 (both
	// alpha-jobs, penalty 0.0625 together) each sit at 0.5 with their
	// beta partners and would both gain 0.4375 by defecting.
	testMatrix = [][]float64{{0.0625, 0.5}, {0.25, 0.75}}
)

func jobOf(id int) string { return testCatalog[id%2] }

func pen(a, b int) float64 {
	return testMatrix[a%2][b%2]
}

func (l *wireLog) add(e telemetry.Event) *telemetry.Event {
	e.Seq = l.seq
	l.seq++
	l.events = append(l.events, e)
	return &l.events[len(l.events)-1]
}

func (l *wireLog) register(epoch int, ids ...int) {
	for _, id := range ids {
		l.add(telemetry.Event{Type: telemetry.EventAgentRegistered,
			Epoch: epoch, Agent: id, Partner: -1, Job: jobOf(id)})
	}
}

func (l *wireLog) snapshot(epoch int, alpha float64, ids []int) {
	jobs := make([]string, len(ids))
	for i, id := range ids {
		jobs[i] = jobOf(id)
	}
	s := telemetry.EpochSnapshot{
		Epoch: epoch, Source: telemetry.SnapshotSourceWire,
		Policy: "GR", Seed: 1, Alpha: alpha,
		Agents: ids, Jobs: jobs, Catalog: testCatalog, Matrix: testMatrix,
	}
	l.add(s.Event())
}

func (l *wireLog) pair(epoch, a, b int) {
	l.add(telemetry.Event{Type: telemetry.EventPairMatched, Epoch: epoch,
		Agent: a, Partner: b, Job: jobOf(a), Predicted: pen(a, b)})
}

// epoch appends one complete epoch: start, snapshot, the pairing
// (0,1),(2,3), and an end whose mean reproduces the session-order sum.
func (l *wireLog) epoch(epoch int, alpha float64) {
	ids := []int{0, 1, 2, 3}
	l.add(telemetry.Event{Type: telemetry.EventEpochStart, Epoch: epoch,
		Agent: -1, Partner: -1, Value: 4})
	l.snapshot(epoch, alpha, ids)
	l.pair(epoch, 0, 1)
	l.pair(epoch, 2, 3)
	mean := (pen(0, 1) + pen(1, 0) + pen(2, 3) + pen(3, 2)) / 4
	l.add(telemetry.Event{Type: telemetry.EventEpochEnd, Epoch: epoch,
		Agent: -1, Partner: -1, Value: mean})
}

// cleanLog is two healthy epochs with no stability contract.
func cleanLog() *wireLog {
	l := &wireLog{}
	l.register(0, 0, 1, 2, 3)
	l.epoch(0, -1)
	l.epoch(1, -1)
	return l
}

func replayOK(t *testing.T, events []telemetry.Event) *Report {
	t.Helper()
	rep := Replay(events, Options{})
	if !rep.OK() {
		t.Fatalf("unexpected violations: %v", rep.Violations)
	}
	return rep
}

func wantViolation(t *testing.T, rep *Report, invariant, substr string) {
	t.Helper()
	for _, v := range rep.Violations {
		if v.Invariant == invariant && strings.Contains(v.Detail, substr) {
			return
		}
	}
	t.Fatalf("no %s violation containing %q; got %v", invariant, substr, rep.Violations)
}

func TestCleanLogPasses(t *testing.T) {
	rep := replayOK(t, cleanLog().events)
	if rep.Epochs != 2 || rep.Pairs != 4 {
		t.Fatalf("epochs=%d pairs=%d, want 2/4", rep.Epochs, rep.Pairs)
	}
	if len(rep.Warnings) != 0 {
		t.Fatalf("unexpected warnings: %v", rep.Warnings)
	}
	// The fixture matching deliberately leaves (0,2) blocking in each
	// epoch — informational without a contract.
	if rep.BlockingPairs != 2 {
		t.Fatalf("blocking pairs = %d, want 2", rep.BlockingPairs)
	}
}

func TestStabilityContract(t *testing.T) {
	// The same matching audited under a declared contract fails: 0 and 2
	// both gain 0.4375 > α by defecting.
	l := &wireLog{}
	l.register(0, 0, 1, 2, 3)
	l.epoch(0, 0.02)
	rep := Replay(l.events, Options{})
	wantViolation(t, rep, InvStability, "block the matching")

	// A forced α wide enough to absorb the gain passes.
	rep = Replay(l.events, Options{Alpha: 0.45, ForceAlpha: true})
	if !rep.OK() {
		t.Fatalf("α=0.45 should absorb the 0.4375 gain: %v", rep.Violations)
	}
	// And ForceAlpha overrides a no-contract log the other way.
	rep = Replay(cleanLog().events, Options{Alpha: 0, ForceAlpha: true})
	wantViolation(t, rep, InvStability, "block the matching")
}

func TestConservationMutatedPairPenalty(t *testing.T) {
	l := cleanLog()
	for i := range l.events {
		if l.events[i].Type == telemetry.EventPairMatched {
			l.events[i].Predicted += 1e-9 // one nudge, far below any tolerance
			break
		}
	}
	rep := Replay(l.events, Options{})
	wantViolation(t, rep, InvConservation, "snapshot matrix says")
}

func TestConservationMeanMismatch(t *testing.T) {
	l := cleanLog()
	for i := range l.events {
		if l.events[i].Type == telemetry.EventEpochEnd {
			l.events[i].Value *= 1.0000001
			break
		}
	}
	rep := Replay(l.events, Options{})
	wantViolation(t, rep, InvConservation, "pair penalties sum to")
}

func TestCoverage(t *testing.T) {
	// Drop one pair event: two agents go unaccounted.
	l := cleanLog()
	var events []telemetry.Event
	dropped := false
	for _, e := range l.events {
		if !dropped && e.Type == telemetry.EventPairMatched && e.Agent == 2 {
			dropped = true
			// Keep Seq contiguous: this models the coordinator silently
			// forgetting agents, not ring overflow.
			continue
		}
		events = append(events, e)
	}
	for i := range events {
		events[i].Seq = int64(i)
	}
	rep := Replay(events, Options{})
	wantViolation(t, rep, InvCoverage, "neither matched nor explicitly unpaired")

	// Redirect a partner: one agent doubly assigned, one missing.
	l = cleanLog()
	for i := range l.events {
		if l.events[i].Type == telemetry.EventPairMatched && l.events[i].Agent == 2 {
			l.events[i].Partner = 1
			break
		}
	}
	rep = Replay(l.events, Options{})
	wantViolation(t, rep, InvCoverage, "matched twice")
}

func TestUnpairedCoverage(t *testing.T) {
	// An odd roster with an explicit solo passes; without it, coverage
	// fails. Roster 0,1,2: pair (0,1), agent 2 solo.
	build := func(withUnpaired bool) []telemetry.Event {
		l := &wireLog{}
		ids := []int{0, 1, 2}
		l.register(0, ids...)
		l.add(telemetry.Event{Type: telemetry.EventEpochStart, Epoch: 0,
			Agent: -1, Partner: -1, Value: 3})
		l.snapshot(0, -1, ids)
		l.pair(0, 0, 1)
		if withUnpaired {
			l.add(telemetry.Event{Type: telemetry.EventAgentUnpaired, Epoch: 0,
				Agent: 2, Partner: -1, Job: jobOf(2)})
		}
		mean := (pen(0, 1) + pen(1, 0)) / 3
		l.add(telemetry.Event{Type: telemetry.EventEpochEnd, Epoch: 0,
			Agent: -1, Partner: -1, Value: mean})
		return l.events
	}
	replayOK(t, build(true))
	rep := Replay(build(false), Options{})
	wantViolation(t, rep, InvCoverage, "neither matched nor explicitly unpaired")
}

func TestLifecycle(t *testing.T) {
	// Double registration.
	l := &wireLog{}
	l.register(0, 0, 1, 1)
	rep := Replay(l.events, Options{})
	wantViolation(t, rep, InvLifecycle, "registered twice")

	// Reaping an agent that never registered.
	l = &wireLog{}
	l.register(0, 0, 1)
	l.add(telemetry.Event{Type: telemetry.EventEpochStart, Epoch: 0,
		Agent: -1, Partner: -1, Value: 2})
	l.add(telemetry.Event{Type: telemetry.EventAgentReaped, Epoch: 0,
		Agent: 9, Partner: -1, Job: "alpha"})
	rep = Replay(l.events, Options{})
	wantViolation(t, rep, InvLifecycle, "never registered")

	// Roster drift: the snapshot disagrees with derived lifecycle state.
	l = &wireLog{}
	l.register(0, 0, 1, 2, 3)
	l.add(telemetry.Event{Type: telemetry.EventEpochStart, Epoch: 0,
		Agent: -1, Partner: -1, Value: 4})
	l.snapshot(0, -1, []int{0, 1, 2}) // missing agent 3
	rep = Replay(l.events, Options{})
	wantViolation(t, rep, InvLifecycle, "disagrees with roster")
}

func TestRematchRound(t *testing.T) {
	// Epoch with churn: 4 agents, round 1 pairs all, agent 3 dies, round
	// 2 re-matches the 3 survivors. The final round carries the
	// accounting.
	l := &wireLog{}
	ids := []int{0, 1, 2, 3}
	l.register(0, ids...)
	l.add(telemetry.Event{Type: telemetry.EventEpochStart, Epoch: 0,
		Agent: -1, Partner: -1, Value: 4})
	l.snapshot(0, -1, ids)
	l.pair(0, 0, 1)
	l.pair(0, 2, 3)
	l.add(telemetry.Event{Type: telemetry.EventAgentReaped, Epoch: 0,
		Agent: 3, Partner: -1, Job: jobOf(3)})
	l.add(telemetry.Event{Type: telemetry.EventRematchRound, Epoch: 0,
		Agent: -1, Partner: -1, Round: 1, Value: 3})
	l.pair(0, 0, 1)
	l.add(telemetry.Event{Type: telemetry.EventAgentUnpaired, Epoch: 0,
		Agent: 2, Partner: -1, Job: jobOf(2)})
	mean := (pen(0, 1) + pen(1, 0)) / 3
	l.add(telemetry.Event{Type: telemetry.EventEpochEnd, Epoch: 0,
		Agent: -1, Partner: -1, Value: mean})
	rep := replayOK(t, l.events)
	if rep.Epochs != 1 || rep.Pairs != 3 {
		t.Fatalf("epochs=%d pairs=%d", rep.Epochs, rep.Pairs)
	}

	// A reaped agent still assigned in the re-match round is a coverage
	// violation: it left the population.
	l2 := append([]telemetry.Event(nil), l.events...)
	for i := range l2 {
		if l2[i].Type == telemetry.EventAgentUnpaired {
			l2[i].Agent = 3
		}
	}
	rep = Replay(l2, Options{})
	wantViolation(t, rep, InvCoverage, "not in this round's population")
}

func TestBracket(t *testing.T) {
	l := &wireLog{}
	l.add(telemetry.Event{Type: telemetry.EventEpochEnd, Epoch: 0,
		Agent: -1, Partner: -1})
	rep := Replay(l.events, Options{})
	wantViolation(t, rep, InvBracket, "epoch_end without epoch_start")

	l = &wireLog{}
	l.register(0, 0, 1, 2, 3)
	l.add(telemetry.Event{Type: telemetry.EventEpochStart, Epoch: 0,
		Agent: -1, Partner: -1, Value: 4})
	l.add(telemetry.Event{Type: telemetry.EventEpochStart, Epoch: 1,
		Agent: -1, Partner: -1, Value: 4})
	rep = Replay(l.events, Options{})
	wantViolation(t, rep, InvBracket, "still open")
}

func TestSnapshotTamper(t *testing.T) {
	l := cleanLog()
	for i := range l.events {
		if l.events[i].Type == telemetry.EventEpochSnapshot {
			// Doctor the payload without resealing the digests.
			l.events[i].Data = strings.Replace(l.events[i].Data, "0.0625", "0.0626", 1)
			break
		}
	}
	rep := Replay(l.events, Options{})
	wantViolation(t, rep, InvSnapshot, "does not reproduce")
}

// TestOverflowDegradesToWarning models ring overflow: the stream starts
// past Seq 0 and has a mid-epoch gap. Both degrade to warnings, the
// damaged epoch is skipped, and auditing resynchronizes at the next
// epoch_snapshot instead of reporting false violations.
func TestOverflowDegradesToWarning(t *testing.T) {
	full := cleanLog().events
	var events []telemetry.Event
	for _, e := range full {
		// Drop the registrations (a tail that lost the beginning) and one
		// pair event inside epoch 0 (overflow mid-epoch).
		if e.Type == telemetry.EventAgentRegistered {
			continue
		}
		if e.Type == telemetry.EventPairMatched && e.Epoch == 0 && e.Agent == 2 {
			continue
		}
		events = append(events, e)
	}
	rep := Replay(events, Options{})
	if !rep.OK() {
		t.Fatalf("overflow must degrade to warnings, got violations: %v", rep.Violations)
	}
	if len(rep.Warnings) == 0 {
		t.Fatal("want warnings about the losses")
	}
	var sawStart, sawGap bool
	for _, w := range rep.Warnings {
		if strings.Contains(w, "starts at seq") {
			sawStart = true
		}
		if strings.Contains(w, "seq gap") {
			sawGap = true
		}
	}
	if !sawStart || !sawGap {
		t.Fatalf("warnings = %v", rep.Warnings)
	}
	// Epoch 1 resynchronized from its snapshot and was fully audited;
	// its pairs counted.
	if rep.Epochs != 2 {
		t.Fatalf("epochs = %d, want 2", rep.Epochs)
	}
}

func TestTruncatedLogWarns(t *testing.T) {
	events := cleanLog().events
	cut := events[:len(events)-2] // lose epoch 1's last pair and end
	rep := Replay(cut, Options{})
	if !rep.OK() {
		t.Fatalf("truncation must not be a violation: %v", rep.Violations)
	}
	var sawMidEpoch bool
	for _, w := range rep.Warnings {
		if strings.Contains(w, "ends inside epoch 1") {
			sawMidEpoch = true
		}
	}
	if !sawMidEpoch {
		t.Fatalf("warnings = %v", rep.Warnings)
	}
}

// TestLiveObserver wires the auditor the way cooperd -audit does: Feed
// on the ring's observer hook, violations recorded back into the same
// ring. The re-entrant record must not deadlock, and it reaches Feed in
// Seq order, so the live stream stays gap-free.
func TestLiveObserver(t *testing.T) {
	ring := telemetry.NewEventRing(64)
	var violations []Violation
	a := New(Options{OnViolation: func(v Violation) {
		violations = append(violations, v)
		ring.Record(v.Event())
	}})
	ring.AddObserver(a.Feed)

	clean := cleanLog().events
	for _, e := range clean {
		e.Seq = 0 // the ring stamps its own
		ring.Record(e)
	}
	if len(violations) != 0 {
		t.Fatalf("clean live stream produced %v", violations)
	}

	// A bad event mid-stream surfaces immediately and lands in the ring.
	ring.Record(telemetry.Event{Type: telemetry.EventEpochEnd, Epoch: 7,
		Agent: -1, Partner: -1})
	if len(violations) != 1 || violations[0].Invariant != InvBracket {
		t.Fatalf("violations = %v", violations)
	}
	tail := ring.Tail(1)
	if tail[0].Type != telemetry.EventInvariantViolated || tail[0].Kind != InvBracket {
		t.Fatalf("ring tail = %+v", tail[0])
	}

	// The auditor saw every record, its own violation included, with no
	// Seq gap.
	rep := a.Finish()
	if want := len(clean) + 2; rep.Events != want {
		t.Errorf("auditor fed %d events, want %d", rep.Events, want)
	}
	if len(rep.Warnings) != 0 {
		t.Errorf("live stream warned: %v", rep.Warnings)
	}
}

// TestFinishTwiceMidEpoch: Finish reports a stream that ends inside an
// epoch on the copy it returns, so calling it again reports the same
// single warning rather than accumulating one per call.
func TestFinishTwiceMidEpoch(t *testing.T) {
	events := cleanLog().events
	a := New(Options{})
	for _, e := range events[:len(events)-2] {
		a.Feed(e)
	}
	first, second := a.Finish(), a.Finish()
	if len(first.Warnings) != 1 || !strings.Contains(first.Warnings[0], "ends inside epoch 1") {
		t.Fatalf("first Finish warnings = %v, want the one mid-epoch warning", first.Warnings)
	}
	if !reflect.DeepEqual(first.Warnings, second.Warnings) {
		t.Errorf("second Finish warnings = %v, want %v", second.Warnings, first.Warnings)
	}
	// The stream continues past the live tail: once the epoch closes,
	// the warning is gone.
	for _, e := range events[len(events)-2:] {
		a.Feed(e)
	}
	if rep := a.Finish(); len(rep.Warnings) != 0 || !rep.OK() {
		t.Errorf("after the epoch closes: warnings %v, violations %v", rep.Warnings, rep.Violations)
	}
}

func TestDiff(t *testing.T) {
	a := cleanLog().events
	b := cleanLog().events
	if d := Diff(a, b); d != nil {
		t.Fatalf("identical logs diverge: %v", d)
	}

	// Timestamps are canonicalized away.
	b2 := append([]telemetry.Event(nil), b...)
	for i := range b2 {
		b2[i].TimeUnixNano = int64(1000 + i)
	}
	if d := Diff(a, b2); d != nil {
		t.Fatalf("timestamp-only difference diverges: %v", d)
	}

	// A real difference pinpoints the first diverging Seq.
	b3 := append([]telemetry.Event(nil), b...)
	b3[6].Predicted += 0.5
	d := Diff(a, b3)
	if d == nil || d.A == nil || d.B == nil || d.A.Seq != 6 {
		t.Fatalf("divergence = %v", d)
	}
	if !strings.Contains(d.String(), "seq 6") {
		t.Fatalf("String() = %q", d.String())
	}

	// One log being a prefix of the other is a divergence too.
	d = Diff(a[:4], a)
	if d == nil || d.A != nil || d.B == nil {
		t.Fatalf("prefix divergence = %v", d)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Invariant: InvCoverage, Epoch: 3, SeqStart: 10, SeqEnd: 20, Detail: "x"}
	if got := v.String(); got != "coverage: epoch 3 seq 10..20: x" {
		t.Fatalf("String() = %q", got)
	}
	v.SeqEnd = 10
	if got := v.String(); got != "coverage: epoch 3 seq 10: x" {
		t.Fatalf("String() = %q", got)
	}
}

// --- sharded-market invariants ---

// snapshotSharded is snapshot with a declared shard count.
func (l *wireLog) snapshotSharded(epoch, shards int, ids []int) {
	jobs := make([]string, len(ids))
	for i, id := range ids {
		jobs[i] = jobOf(id)
	}
	s := telemetry.EpochSnapshot{
		Epoch: epoch, Source: telemetry.SnapshotSourceWire,
		Policy: "GR", Seed: 1, Alpha: -1, Shards: shards,
		Agents: ids, Jobs: jobs, Catalog: testCatalog, Matrix: testMatrix,
	}
	l.add(s.Event())
}

func (l *wireLog) shard(epoch, s int, members []int) {
	data, _ := json.Marshal(members)
	l.add(telemetry.Event{Type: telemetry.EventShardMatched, Epoch: epoch,
		Agent: -1, Partner: -1, Round: s,
		Value: float64(len(members)), Data: string(data)})
}

func (l *wireLog) refinement(epoch, round int, trades [][2]int) {
	data, _ := json.Marshal(trades)
	l.add(telemetry.Event{Type: telemetry.EventRefinementRound, Epoch: epoch,
		Agent: -1, Partner: -1, Round: round,
		Value: float64(len(trades)), Predicted: 0.1, Data: string(data)})
}

// shardedEpoch is one healthy sharded epoch: two shards {0,2} and
// {1,3}, one refinement round trading 0 with 1 (cross-shard), and the
// post-refinement pairing (0,1),(2,3).
func shardedEpoch() *wireLog {
	l := &wireLog{}
	l.register(0, 0, 1, 2, 3)
	ids := []int{0, 1, 2, 3}
	l.add(telemetry.Event{Type: telemetry.EventEpochStart, Epoch: 0,
		Agent: -1, Partner: -1, Value: 4})
	l.snapshotSharded(0, 2, ids)
	l.shard(0, 0, []int{0, 2})
	l.shard(0, 1, []int{1, 3})
	l.refinement(0, 1, [][2]int{{0, 1}})
	l.pair(0, 0, 1)
	l.pair(0, 2, 3)
	mean := (pen(0, 1) + pen(1, 0) + pen(2, 3) + pen(3, 2)) / 4
	l.add(telemetry.Event{Type: telemetry.EventEpochEnd, Epoch: 0,
		Agent: -1, Partner: -1, Value: mean})
	return l
}

func TestShardedCleanLogPasses(t *testing.T) {
	rep := replayOK(t, shardedEpoch().events)
	if len(rep.Warnings) != 0 {
		t.Fatalf("unexpected warnings: %v", rep.Warnings)
	}
	if rep.Epochs != 1 || rep.Pairs != 2 {
		t.Fatalf("epochs=%d pairs=%d, want 1/2", rep.Epochs, rep.Pairs)
	}
}

func TestShardCoverage(t *testing.T) {
	// An agent no shard claims.
	l := shardedEpoch()
	l.events = nil
	l.seq = 0
	l.register(0, 0, 1, 2, 3)
	l.add(telemetry.Event{Type: telemetry.EventEpochStart, Epoch: 0,
		Agent: -1, Partner: -1, Value: 4})
	l.snapshotSharded(0, 2, []int{0, 1, 2, 3})
	l.shard(0, 0, []int{0, 2})
	l.shard(0, 1, []int{1}) // 3 dropped
	l.pair(0, 0, 1)
	l.pair(0, 2, 3)
	mean := (pen(0, 1) + pen(1, 0) + pen(2, 3) + pen(3, 2)) / 4
	l.add(telemetry.Event{Type: telemetry.EventEpochEnd, Epoch: 0,
		Agent: -1, Partner: -1, Value: mean})
	wantViolation(t, Replay(l.events, Options{}), InvShard, "in no shard")

	// The same agent in two shards.
	l2 := shardedEpoch()
	for i, e := range l2.events {
		if e.Type == telemetry.EventShardMatched && e.Round == 1 {
			data, _ := json.Marshal([]int{1, 3, 0}) // 0 already in shard 0
			l2.events[i].Data = string(data)
			l2.events[i].Value = 3
		}
	}
	wantViolation(t, Replay(l2.events, Options{}), InvShard, "must partition")

	// A shard naming an agent outside the round's population.
	l3 := shardedEpoch()
	for i, e := range l3.events {
		if e.Type == telemetry.EventShardMatched && e.Round == 1 {
			data, _ := json.Marshal([]int{1, 3, 9})
			l3.events[i].Data = string(data)
			l3.events[i].Value = 3
		}
	}
	wantViolation(t, Replay(l3.events, Options{}), InvShard, "not in this round's population")

	// A snapshot that declares shards with no shard events behind it.
	l4 := shardedEpoch()
	var kept []telemetry.Event
	for _, e := range l4.events {
		if e.Type != telemetry.EventShardMatched && e.Type != telemetry.EventRefinementRound {
			kept = append(kept, e)
		}
	}
	for i := range kept {
		kept[i].Seq = int64(i)
	}
	wantViolation(t, Replay(kept, Options{}), InvShard, "no shard_matched events")
}

func TestRefinementInvariant(t *testing.T) {
	mutate := func(alter func(*telemetry.Event)) []telemetry.Event {
		l := shardedEpoch()
		for i := range l.events {
			if l.events[i].Type == telemetry.EventRefinementRound {
				alter(&l.events[i])
			}
		}
		return l.events
	}
	set := func(e *telemetry.Event, trades [][2]int) {
		data, _ := json.Marshal(trades)
		e.Data = string(data)
		e.Value = float64(len(trades))
	}

	// A trade inside one shard.
	rep := Replay(mutate(func(e *telemetry.Event) { set(e, [][2]int{{0, 2}}) }), Options{})
	wantViolation(t, rep, InvRefinement, "only crosses shard boundaries")

	// Overlapping trades within one round.
	rep = Replay(mutate(func(e *telemetry.Event) { set(e, [][2]int{{0, 1}, {2, 1}}) }), Options{})
	wantViolation(t, rep, InvRefinement, "must be disjoint")

	// A self-trade.
	rep = Replay(mutate(func(e *telemetry.Event) { set(e, [][2]int{{1, 1}}) }), Options{})
	wantViolation(t, rep, InvRefinement, "with itself")

	// A declared count that disagrees with the list.
	rep = Replay(mutate(func(e *telemetry.Event) { e.Value = 7 }), Options{})
	wantViolation(t, rep, InvRefinement, "declares 7 trades")

	// A trade naming an agent no shard placed.
	rep = Replay(mutate(func(e *telemetry.Event) { set(e, [][2]int{{0, 9}}) }), Options{})
	wantViolation(t, rep, InvRefinement, "no shard_matched event placed")

	// An unparseable payload.
	rep = Replay(mutate(func(e *telemetry.Event) { e.Data = "{" }), Options{})
	wantViolation(t, rep, InvRefinement, "unparseable")
}

// TestReplayAllocatesNoAgentMatrix pins the stability check to the class
// view: one clean round over 2000 agents used to build a 2000×2000
// penalty matrix (32 MB) to scan for blocking pairs, and must now replay
// in under 4 MiB — roster, partner maps and one penalty per agent.
func TestReplayAllocatesNoAgentMatrix(t *testing.T) {
	const n = 2000
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	l := &wireLog{}
	l.register(0, ids...)
	l.add(telemetry.Event{Type: telemetry.EventEpochStart, Epoch: 0,
		Agent: -1, Partner: -1, Value: n})
	l.snapshot(0, -1, ids)
	var sum float64
	for a := 0; a < n; a += 2 {
		l.pair(0, a, a+1)
		sum += pen(a, a+1) + pen(a+1, a)
	}
	l.add(telemetry.Event{Type: telemetry.EventEpochEnd, Epoch: 0,
		Agent: -1, Partner: -1, Value: sum / n})

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep := Replay(l.events, Options{})
	runtime.ReadMemStats(&after)
	if !rep.OK() || len(rep.Warnings) != 0 {
		t.Fatalf("violations %v, warnings %v", rep.Violations, rep.Warnings)
	}
	// Every two alpha-job agents of different pairs block, as in cleanLog.
	if want := (n / 2) * (n/2 - 1) / 2; rep.BlockingPairs != want {
		t.Fatalf("blocking pairs = %d, want %d", rep.BlockingPairs, want)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
		t.Fatalf("replaying one %d-agent round allocated %.1f MiB, want < 4", n, float64(got)/(1<<20))
	}
}
