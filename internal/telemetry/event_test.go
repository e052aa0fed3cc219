package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// TestEventRingOverflow is the recorder's overflow contract: a full
// ring keeps the newest tail, counts every eviction, and mirrors the
// drop count into the attached events.dropped counter.
func TestEventRingOverflow(t *testing.T) {
	reg := NewRegistry()
	r := NewEventRing(4)
	r.AttachDroppedCounter(reg.Counter("events.dropped"))

	for i := 0; i < 10; i++ {
		r.Record(Event{Type: EventEpochStart, Epoch: i, Agent: -1, Partner: -1})
	}

	got := r.Events()
	if len(got) != 4 {
		t.Fatalf("retained %d events, want 4", len(got))
	}
	for i, e := range got {
		wantEpoch := 6 + i
		if e.Epoch != wantEpoch {
			t.Errorf("retained[%d].Epoch = %d, want %d (newest tail)", i, e.Epoch, wantEpoch)
		}
		if e.Seq != int64(wantEpoch) {
			t.Errorf("retained[%d].Seq = %d, want %d (seq survives overflow)", i, e.Seq, wantEpoch)
		}
	}
	if d := r.Dropped(); d != 6 {
		t.Errorf("Dropped() = %d, want 6", d)
	}
	if c := reg.Counter("events.dropped").Value(); c != 6 {
		t.Errorf("events.dropped counter = %d, want 6", c)
	}
	if n := r.Len(); n != 4 {
		t.Errorf("Len() = %d, want 4", n)
	}
	if tail := r.Tail(2); len(tail) != 2 || tail[1].Epoch != 9 {
		t.Errorf("Tail(2) = %+v, want the two newest", tail)
	}
}

// TestEventSinkSeesEverything: the JSONL sink receives every record,
// including the ones the ring later evicts, and round-trips through
// ReadEvents.
func TestEventSinkSeesEverything(t *testing.T) {
	var buf bytes.Buffer
	r := NewEventRing(2)
	r.SetSink(&buf)
	for i := 0; i < 5; i++ {
		r.Record(Event{Type: EventPairMatched, Epoch: 0, Agent: i, Partner: i + 1})
	}
	if r.Err() != nil {
		t.Fatalf("sink error: %v", r.Err())
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 5 {
		t.Fatalf("sink saw %d lines, want 5 (ring bounds memory, not the sink)", lines)
	}
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 {
		t.Fatalf("parsed %d events, want 5", len(events))
	}
	for i, e := range events {
		if e.Seq != int64(i) || e.Agent != i || e.Partner != i+1 || e.Type != EventPairMatched {
			t.Errorf("event %d round-tripped wrong: %+v", i, e)
		}
		if e.TimeUnixNano == 0 {
			t.Errorf("event %d missing timestamp", i)
		}
		if e.Canon().TimeUnixNano != 0 {
			t.Errorf("Canon should zero the timestamp")
		}
	}
}

func TestEventRingNilSafety(t *testing.T) {
	var r *EventRing
	r.Record(Event{Type: EventEpochStart})
	r.SetSink(&bytes.Buffer{})
	r.AttachDroppedCounter(nil)
	if r.Events() != nil || r.Tail(3) != nil || r.Len() != 0 || r.Dropped() != 0 || r.Err() != nil {
		t.Fatal("nil ring methods should no-op")
	}

	var tel *Telemetry
	tel.RecordIn(nil, Event{Type: EventEpochEnd})
	if tel.EventRing() != nil {
		t.Fatal("nil telemetry should yield nil ring")
	}

	// Enabled telemetry wires the recorder and the dropped counter.
	live := New()
	if live.Events == nil {
		t.Fatal("New should create the flight recorder")
	}
	live.RecordIn(nil, Event{Type: EventEpochStart, Epoch: 0, Agent: -1, Partner: -1})
	if live.Events.Len() != 1 {
		t.Fatal("RecordIn through Telemetry should land in the ring")
	}
	if _, ok := live.Metrics.Snapshot().Counters["events.dropped"]; !ok {
		t.Fatal("events.dropped should be pre-created in the registry")
	}
}

// TestEventRingConcurrent exercises racing recorders; run with -race.
func TestEventRingConcurrent(t *testing.T) {
	r := NewEventRing(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record(Event{Type: EventPairMatched, Agent: w, Partner: -1, Epoch: -1})
				if i%100 == 0 {
					_ = r.Events()
				}
			}
		}(w)
	}
	wg.Wait()
	if total := r.Dropped() + int64(r.Len()); total != 8*500 {
		t.Fatalf("dropped+retained = %d, want 4000", total)
	}
	// Sequence numbers in the retained tail must be strictly increasing.
	events := r.Events()
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatalf("retained seq not increasing at %d: %d then %d",
				i, events[i-1].Seq, events[i].Seq)
		}
	}
}
