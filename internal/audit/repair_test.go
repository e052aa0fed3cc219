package audit

import (
	"strconv"
	"strings"
	"testing"

	"cooper/internal/telemetry"
)

// The repair contract's negative cases, one per way a streaming round
// can break it, in both log dialects. Each test pins the invariant, the
// epoch and the agent the violation names, not the message wording.

// wantAgentViolation fails unless rep holds an inv violation in epoch
// whose Detail names agent id as a number of its own.
func wantAgentViolation(t *testing.T, rep *Report, inv string, epoch, id int) {
	t.Helper()
	for _, v := range rep.Violations {
		if v.Invariant != inv || v.Epoch != epoch {
			continue
		}
		notDigit := func(r rune) bool { return r < '0' || r > '9' }
		for _, tok := range strings.FieldsFunc(v.Detail, notDigit) {
			if tok == strconv.Itoa(id) {
				return
			}
		}
	}
	t.Fatalf("no %s violation in epoch %d naming agent %d; got %v", inv, epoch, id, rep.Violations)
}

// coreEpoch appends one in-process streaming epoch over roster ids: a
// core snapshot, a rematch_round of kind with payload data, the pairs
// and solos, and an epoch_end whose Predicted mean reproduces the pairs'
// roster-order sum.
func (l *wireLog) coreEpoch(epoch int, ids []int, kind, data string, pairs [][2]int, solos ...int) {
	jobs := make([]string, len(ids))
	for i, id := range ids {
		jobs[i] = jobOf(id)
	}
	l.add(telemetry.Event{Type: telemetry.EventEpochStart, Epoch: epoch,
		Agent: -1, Partner: -1, Value: float64(len(ids))})
	l.add(telemetry.EpochSnapshot{
		Epoch: epoch, Source: telemetry.SnapshotSourceCore,
		Policy: "GR", Seed: 1, Alpha: -1,
		Agents: ids, Jobs: jobs, Catalog: testCatalog, Matrix: testMatrix,
	}.Event())
	l.rematchRound(epoch, 0, kind, len(ids), data)
	partner := make(map[int]int)
	for _, p := range pairs {
		l.pair(epoch, p[0], p[1])
		partner[p[0]], partner[p[1]] = p[1], p[0]
	}
	for _, id := range solos {
		l.unpaired(epoch, id)
	}
	var sum float64
	for _, id := range ids {
		if p, ok := partner[id]; ok {
			sum += pen(id, p)
		}
	}
	l.add(telemetry.Event{Type: telemetry.EventEpochEnd, Epoch: epoch,
		Agent: -1, Partner: -1, Predicted: sum / float64(len(ids))})
}

// coreBase is a clean full epoch 0 over agents 0..3 paired (0,1),(2,3):
// the standing matching an epoch-1 repair is held to.
func coreBase() *wireLog {
	l := &wireLog{}
	l.coreEpoch(0, []int{0, 1, 2, 3}, "full", `{"joined":[0,1,2,3]}`, [][2]int{{0, 1}, {2, 3}})
	return l
}

func TestCoreRepairCleanEpoch(t *testing.T) {
	// Agent 4 joins and 3 departs; the neighborhood {2,4} re-pairs.
	l := coreBase()
	l.coreEpoch(1, []int{0, 1, 2, 4}, "repair", `{"joined":[4],"departed":[3],"neighborhood":[2,4]}`,
		[][2]int{{0, 1}, {2, 4}})
	if rep := replayOK(t, l.events); rep.Epochs != 2 {
		t.Fatalf("epochs = %d, want 2", rep.Epochs)
	}
}

func TestCoreRepairChangedPartnerOutsideNeighborhood(t *testing.T) {
	// Agents 0 and 1 swap partners although only {2,3} may change.
	l := coreBase()
	l.coreEpoch(1, []int{0, 1, 2, 3}, "repair", `{"neighborhood":[2,3]}`, [][2]int{{0, 3}, {1, 2}})
	rep := Replay(l.events, Options{})
	wantAgentViolation(t, rep, InvRepair, 1, 0)
	wantAgentViolation(t, rep, InvRepair, 1, 1)
}

func TestCoreRepairAppearedWithoutJoin(t *testing.T) {
	l := coreBase()
	l.coreEpoch(1, []int{0, 1, 2, 3, 4}, "repair", `{"neighborhood":[4]}`, [][2]int{{0, 1}, {2, 3}}, 4)
	wantAgentViolation(t, Replay(l.events, Options{}), InvRepair, 1, 4)
}

func TestCoreRepairVanishedWithoutDeparture(t *testing.T) {
	l := coreBase()
	l.coreEpoch(1, []int{0, 1, 2}, "repair", `{"neighborhood":[2]}`, [][2]int{{0, 1}}, 2)
	wantAgentViolation(t, Replay(l.events, Options{}), InvRepair, 1, 3)
}

func TestCoreRepairStillPairedWithDeparted(t *testing.T) {
	// Agent 3 departs, but 2 is still recorded next to it.
	l := coreBase()
	l.coreEpoch(1, []int{0, 1, 2}, "repair", `{"departed":[3],"neighborhood":[2]}`, [][2]int{{0, 1}, {2, 3}})
	wantAgentViolation(t, Replay(l.events, Options{}), InvRepair, 1, 2)
}

func TestCoreRepairPayloadOutsidePopulation(t *testing.T) {
	for _, round := range []struct{ kind, data string }{
		{"repair", `{"neighborhood":[2,9]}`}, // a neighbor outside the roster
		{"full", `{"joined":[9]}`},           // a joiner outside the roster
	} {
		l := coreBase()
		l.coreEpoch(1, []int{0, 1, 2, 3}, round.kind, round.data, [][2]int{{0, 1}, {2, 3}})
		wantAgentViolation(t, Replay(l.events, Options{}), InvRepair, 1, 9)
	}
}

// wireRepair is repairEpoch's prefix: agents 0..3 paired (0,1),(2,3) in
// round 0, agent 4 queued mid-epoch, then a repair round with payload
// data and the round's assignments, closed by an epoch_end whose mean
// the caller computes over population pop.
func wireRepair(data string, pop int, assign func(l *wireLog), mean float64) *wireLog {
	l := &wireLog{}
	ids := []int{0, 1, 2, 3}
	l.register(0, ids...)
	l.add(telemetry.Event{Type: telemetry.EventEpochStart, Epoch: 0,
		Agent: -1, Partner: -1, Value: 4})
	l.snapshot(0, -1, ids)
	l.pair(0, 0, 1)
	l.pair(0, 2, 3)
	if pop == 5 {
		l.register(0, 4)
	} else {
		l.reap(0, 3)
	}
	l.rematchRound(0, 1, "repair", pop, data)
	assign(l)
	l.add(telemetry.Event{Type: telemetry.EventEpochEnd, Epoch: 0,
		Agent: -1, Partner: -1, Value: mean})
	return l
}

func TestWireRepairPairDisplacesOutsideNeighborhood(t *testing.T) {
	// (2,4) re-pairs, leaving 3, outside the neighborhood, without its
	// partner.
	l := wireRepair(`{"joined":[4],"neighborhood":[2,4]}`, 5,
		func(l *wireLog) { l.pair(0, 2, 4) },
		(pen(0, 1)+pen(1, 0)+pen(2, 4)+pen(4, 2))/5)
	wantAgentViolation(t, Replay(l.events, Options{}), InvRepair, 0, 3)
}

func TestWireRepairUnpairingDisplacesOutsideNeighborhood(t *testing.T) {
	// Unpairing 2 displaces its partner 3, outside the neighborhood.
	l := wireRepair(`{"joined":[4],"neighborhood":[2,4]}`, 5,
		func(l *wireLog) { l.unpaired(0, 2); l.unpaired(0, 4) },
		(pen(0, 1)+pen(1, 0))/5)
	wantAgentViolation(t, Replay(l.events, Options{}), InvRepair, 0, 3)
}

func TestWireRepairDepartureDisplacesOutsideNeighborhood(t *testing.T) {
	// Agent 3 departs; its partner 2 is not in the (empty) neighborhood.
	l := wireRepair(`{"departed":[3]}`, 3, func(*wireLog) {}, (pen(0, 1)+pen(1, 0))/3)
	wantAgentViolation(t, Replay(l.events, Options{}), InvRepair, 0, 2)
}

func TestWireRepairStillPairedWithDeparted(t *testing.T) {
	// Agent 3 is reaped but the round declares no departure: 2 stays
	// recorded next to an agent that left.
	l := wireRepair(`{"neighborhood":[2]}`, 3, func(*wireLog) {}, (pen(0, 1)+pen(1, 0))/3)
	wantAgentViolation(t, Replay(l.events, Options{}), InvRepair, 0, 2)
}

func TestWireRepairNeighborhoodOutsidePopulation(t *testing.T) {
	l := wireRepair(`{"joined":[4],"neighborhood":[2,3,4,9]}`, 5,
		func(l *wireLog) { l.pair(0, 2, 4); l.unpaired(0, 3) },
		(pen(0, 1)+pen(1, 0)+pen(2, 4)+pen(4, 2))/5)
	wantAgentViolation(t, Replay(l.events, Options{}), InvRepair, 0, 9)
}

func TestWireRepairCleanDeparture(t *testing.T) {
	// The departure's survivor is in the neighborhood and goes solo.
	replayOK(t, wireRepair(`{"departed":[3],"neighborhood":[2]}`, 3,
		func(l *wireLog) { l.unpaired(0, 2) }, (pen(0, 1)+pen(1, 0))/3).events)
}
