package audit

import (
	"testing"

	"cooper/internal/telemetry"
)

// TestSnapshotJobOutsideCatalog pins that a snapshot naming a job its own
// catalog lacks is rejected: its penalties cannot be recomputed, and an
// unpaired agent on that job would otherwise leave the round's stability
// check skipped without a word.
func TestSnapshotJobOutsideCatalog(t *testing.T) {
	l := &wireLog{}
	ids := []int{0, 1, 2}
	l.add(telemetry.Event{Type: telemetry.EventEpochStart, Epoch: 0,
		Agent: -1, Partner: -1, Value: 3})
	l.add(telemetry.EpochSnapshot{
		Epoch: 0, Source: telemetry.SnapshotSourceCore, Policy: "GR", Seed: 1, Alpha: 0,
		Agents: ids, Jobs: []string{"alpha", "beta", "gamma"},
		Catalog: testCatalog, Matrix: testMatrix,
	}.Event())
	l.pair(0, 0, 1)
	l.unpaired(0, 2)
	l.add(telemetry.Event{Type: telemetry.EventEpochEnd, Epoch: 0,
		Agent: -1, Partner: -1, Predicted: (pen(0, 1) + pen(1, 0)) / 3})
	rep := Replay(l.events, Options{})
	for _, v := range rep.Violations {
		if v.Invariant == InvSnapshot && v.Epoch == 0 {
			return
		}
	}
	t.Fatalf("no snapshot violation in epoch 0; got %v", rep.Violations)
}
