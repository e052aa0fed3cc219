package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

// TestHistogramExemplars checks ObserveExemplar keeps the latest
// exemplar per bucket, that summaries expose them sorted, and that the
// quantile lookup lands on (or falls back near) the right bucket.
func TestHistogramExemplars(t *testing.T) {
	h := newHistogram([]float64{0.01, 0.1, 1})
	h.ObserveExemplar(0.005, Exemplar{Seq: 1, Trace: "aaaa", Agent: 3})
	h.ObserveExemplar(0.007, Exemplar{Seq: 2, Trace: "bbbb", Agent: 4}) // same bucket: replaces
	h.ObserveExemplar(0.5, Exemplar{Seq: 9, Trace: "cccc", Agent: 7})   // slow outlier
	h.Observe(0.002)                                                    // plain observation, no exemplar

	s := h.Summary()
	if len(s.Exemplars) != 2 {
		t.Fatalf("got %d exemplars, want 2 (latest-wins per bucket): %+v", len(s.Exemplars), s.Exemplars)
	}
	if s.Exemplars[0].Seq != 2 || s.Exemplars[0].Agent != 4 {
		t.Errorf("bucket 0 exemplar = %+v, want the later seq 2", s.Exemplars[0])
	}
	if s.Exemplars[0].Value != 0.007 || s.Exemplars[0].Bucket != 0 {
		t.Errorf("exemplar value/bucket not stamped: %+v", s.Exemplars[0])
	}

	// p99 of {0.002, 0.005, 0.007, 0.5} sits in the 0.5 bucket.
	ex, ok := s.Exemplar(0.99)
	if !ok || ex.Seq != 9 {
		t.Errorf("p99 exemplar = %+v ok=%v, want the slow outlier seq 9", ex, ok)
	}
	// p50 sits in bucket 0, which has its own exemplar.
	ex, ok = s.Exemplar(0.50)
	if !ok || ex.Seq != 2 {
		t.Errorf("p50 exemplar = %+v ok=%v, want seq 2", ex, ok)
	}
	// A summary without exemplars reports none.
	if _, ok := newHistogram(nil).Summary().Exemplar(0.99); ok {
		t.Error("empty histogram should have no exemplar")
	}
	// Nil safety.
	var nilH *Histogram
	nilH.ObserveExemplar(1, Exemplar{})
}

// TestPrometheusExemplarComments checks exemplars surface as "# EXEMPLAR"
// comment lines — visible to humans, invisible to 0.0.4 parsers — and
// that exemplar-free histograms emit none.
func TestPrometheusExemplarComments(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("net.admit_wait", []float64{0.01, 0.1})
	h.ObserveExemplar(0.05, Exemplar{Seq: 41, Trace: "00000000deadbeef", Agent: 12})
	reg.Histogram("plain", []float64{1}).Observe(0.5)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := `# EXEMPLAR net_admit_wait_bucket{le="0.1"} 0.05 {seq=41,trace="00000000deadbeef",agent=12}`
	if !strings.Contains(out, want) {
		t.Errorf("missing exemplar comment %q in:\n%s", want, out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "plain") && strings.Contains(line, "EXEMPLAR") {
			t.Errorf("exemplar-free histogram grew an exemplar line: %s", line)
		}
	}
}

// TestEventRingObservers checks AddObserver accumulates (auditor +
// journey builder on one ring), observers see every record stamped and
// in Seq order, a nil fn is ignored, and Record returns the stamped
// sequence.
func TestEventRingObservers(t *testing.T) {
	r := NewEventRing(8)
	var a []Event
	var b []int64
	r.AddObserver(func(e Event) { a = append(a, e) })
	r.AddObserver(nil)
	r.AddObserver(func(e Event) { b = append(b, e.Seq) })
	if seq := r.Record(Event{Type: EventEpochStart, Epoch: 0, Agent: -1, Partner: -1}); seq != 0 {
		t.Fatalf("Record returned %d, want 0", seq)
	}
	if seq := r.Record(Event{Type: EventEpochEnd, Epoch: 0, Agent: -1, Partner: -1}); seq != 1 {
		t.Fatalf("Record returned %d, want 1", seq)
	}
	if len(a) != 2 || a[0].Type != EventEpochStart || a[1].Seq != 1 || a[1].TimeUnixNano == 0 {
		t.Fatalf("first observer saw %+v, want both records stamped", a)
	}
	if len(b) != 2 || b[0] != 0 || b[1] != 1 {
		t.Fatalf("second observer saw seqs %v, want [0 1]", b)
	}
	// Nil ring: Record reports -1, registration is a no-op.
	var nilRing *EventRing
	if seq := nilRing.Record(Event{}); seq != -1 {
		t.Errorf("nil ring Record = %d, want -1", seq)
	}
	nilRing.AddObserver(func(Event) {})
}
