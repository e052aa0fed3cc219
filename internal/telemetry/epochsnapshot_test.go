package telemetry

import (
	"strings"
	"testing"
)

func testSnapshot() EpochSnapshot {
	return EpochSnapshot{
		Epoch:   3,
		Source:  SnapshotSourceWire,
		Policy:  "SMR",
		Seed:    42,
		Alpha:   0.02,
		Agents:  []int{7, 0, 9},
		Jobs:    []string{"dedup", "vips", "dedup"},
		Catalog: []string{"dedup", "vips"},
		Matrix:  [][]float64{{0.125, 0.3}, {0.0625, 0.25}},
	}
}

func TestEpochSnapshotRoundTrip(t *testing.T) {
	s := testSnapshot()
	e := s.Event()
	if e.Type != EventEpochSnapshot || e.Epoch != 3 {
		t.Fatalf("sealed event = %+v", e)
	}
	if e.Value != 3 {
		t.Fatalf("Value = %v, want population size 3", e.Value)
	}
	got, err := e.SnapshotPayload()
	if err != nil {
		t.Fatalf("SnapshotPayload: %v", err)
	}
	if got.Policy != "SMR" || got.Seed != 42 || got.Alpha != 0.02 ||
		got.Source != SnapshotSourceWire {
		t.Fatalf("payload = %+v", got)
	}
	if len(got.Agents) != 3 || got.Agents[0] != 7 || got.Jobs[1] != "vips" {
		t.Fatalf("roster = %v / %v", got.Agents, got.Jobs)
	}
	// Penalties must survive the JSON round trip bit for bit — the
	// auditor's conservation checks depend on it.
	for i := range s.Matrix {
		for j := range s.Matrix[i] {
			if got.Matrix[i][j] != s.Matrix[i][j] {
				t.Fatalf("matrix[%d][%d] = %v, want %v", i, j, got.Matrix[i][j], s.Matrix[i][j])
			}
		}
	}
	// Sealed digests must reproduce from the payload's own contents.
	if d := PopulationDigest(got.Agents, got.Jobs); d != got.PopDigest {
		t.Fatalf("pop digest %s does not reproduce recorded %s", d, got.PopDigest)
	}
	if d := PenaltyMatrixDigest(got.Catalog, got.Matrix); d != got.MatrixDigest {
		t.Fatalf("matrix digest %s does not reproduce recorded %s", d, got.MatrixDigest)
	}
}

func TestSnapshotPayloadWrongType(t *testing.T) {
	if _, err := (Event{Type: EventEpochStart}).SnapshotPayload(); err == nil {
		t.Fatal("want error for non-snapshot event")
	}
	if _, err := (Event{Type: EventEpochSnapshot, Data: "{broken"}).SnapshotPayload(); err == nil {
		t.Fatal("want error for corrupt payload")
	}
}

func TestDigestsDiscriminate(t *testing.T) {
	s := testSnapshot()
	pop := PopulationDigest(s.Agents, s.Jobs)
	if got := PopulationDigest([]int{7, 0, 9}, []string{"dedup", "vips", "vips"}); got == pop {
		t.Fatal("population digest ignores a job change")
	}
	if got := PopulationDigest([]int{0, 7, 9}, s.Jobs); got == pop {
		t.Fatal("population digest ignores session order")
	}
	mat := PenaltyMatrixDigest(s.Catalog, s.Matrix)
	tampered := [][]float64{{0.125, 0.3}, {0.0625, 0.25000000000000003}}
	if got := PenaltyMatrixDigest(s.Catalog, tampered); got == mat {
		t.Fatal("matrix digest ignores a one-ulp change")
	}
	if got := PenaltyMatrixDigest([]string{"vips", "dedup"}, s.Matrix); got == mat {
		t.Fatal("matrix digest ignores catalog names")
	}
	// Deterministic across calls.
	if PenaltyMatrixDigest(s.Catalog, s.Matrix) != mat || PopulationDigest(s.Agents, s.Jobs) != pop {
		t.Fatal("digests are not deterministic")
	}
}

// TestObserverMayRecord is the live-auditor shape: the observer itself
// records into the same ring (a violation event). The callback runs
// outside the ring's lock, so this must not deadlock, and the re-entrant
// record must not re-trigger the observer into infinite recursion when
// the observer filters its own event type.
func TestObserverMayRecord(t *testing.T) {
	r := NewEventRing(8)
	r.AddObserver(func(e Event) {
		if e.Type == EventInvariantViolated {
			return
		}
		r.Record(Event{Type: EventInvariantViolated, Epoch: e.Epoch,
			Agent: -1, Partner: -1, Kind: "test"})
	})
	r.Record(Event{Type: EventEpochStart, Epoch: 5, Agent: -1, Partner: -1})
	events := r.Events()
	if len(events) != 2 {
		t.Fatalf("got %d events, want original + violation", len(events))
	}
	if events[1].Type != EventInvariantViolated || events[1].Seq != 1 {
		t.Fatalf("violation event = %+v", events[1])
	}
}

func TestReadEventsTruncated(t *testing.T) {
	r := NewEventRing(8)
	var sb strings.Builder
	r.SetSink(&sb)
	for i := 0; i < 3; i++ {
		r.Record(Event{Type: EventEpochStart, Epoch: i, Agent: -1, Partner: -1})
	}
	full := sb.String()

	// Truncate mid-line: the readable prefix parses, the tail errors.
	cut := full[:len(full)-10]
	events, err := ReadEvents(strings.NewReader(cut))
	if err == nil {
		t.Fatal("want error for truncated stream")
	}
	if len(events) != 2 || events[1].Seq != 1 {
		t.Fatalf("got %d events from truncated stream, want the 2 whole ones", len(events))
	}

	// Corrupt a middle line: the prefix before it still parses.
	lines := strings.SplitAfter(full, "\n")
	lines[1] = "{\"seq\": not json}\n"
	events, err = ReadEvents(strings.NewReader(strings.Join(lines, "")))
	if err == nil {
		t.Fatal("want error for corrupt line")
	}
	if len(events) != 1 || events[0].Seq != 0 {
		t.Fatalf("got %d events before the corrupt line, want 1", len(events))
	}

	// Garbage that is valid JSON but not an object-per-line event stream.
	if _, err := ReadEvents(strings.NewReader("\"just a string\"\n[1,2]\n")); err == nil {
		t.Fatal("want error for non-event JSON")
	}
}
