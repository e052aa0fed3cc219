package topui

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cooper/internal/telemetry"
)

// fakeEndpoint serves a live registry and event ring the way cooperd's
// metrics mux does: /metrics as the JSON snapshot, /debug/events as
// JSONL.
func fakeEndpoint(t *testing.T, reg *telemetry.Registry, ring *telemetry.EventRing) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := reg.WriteJSON(w); err != nil {
			t.Errorf("writing /metrics: %v", err)
		}
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, _ *http.Request) {
		enc := json.NewEncoder(w)
		for _, e := range ring.Tail(0) {
			if err := enc.Encode(e); err != nil {
				t.Errorf("writing /debug/events: %v", err)
			}
		}
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// snapOf adapts a live registry's snapshot to the pointer the renderer
// takes.
func snapOf(reg *telemetry.Registry) *telemetry.Snapshot {
	snap := reg.Snapshot()
	return &snap
}

func TestClientAndFrame(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("epoch.count").Add(4)
	reg.Counter("epoch.agents").Add(16)
	reg.Counter("net.reaped").Add(2)
	reg.Counter("fault.injected.drop").Add(7)
	reg.Gauge("epoch.mean_penalty").Set(0.12)
	reg.Gauge("runtime.goroutines").Set(9)
	h := reg.Histogram("epoch.penalty", telemetry.PenaltyBuckets())
	for _, v := range []float64{0.01, 0.05, 0.12, 0.3} {
		h.Observe(v)
	}
	ring := telemetry.NewEventRing(16)
	ring.Record(telemetry.Event{Type: telemetry.EventEpochStart, Epoch: 0, Agent: -1, Partner: -1, Value: 4})
	ring.Record(telemetry.Event{Type: telemetry.EventAgentReaped, Epoch: 0, Agent: 3, Partner: -1, Job: "dedup"})

	ts := fakeEndpoint(t, reg, ring)
	cl := &Client{BaseURL: ts.URL}

	snap, err := cl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counter("epoch.count") != 4 {
		t.Errorf("epoch.count = %d, want 4", snap.Counter("epoch.count"))
	}
	events, err := cl.Events(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[1].Type != telemetry.EventAgentReaped {
		t.Fatalf("events = %+v, want epoch_start then agent_reaped", events)
	}

	m := NewModel(8)
	frame := m.Frame(time.Unix(100, 0), snap, events, nil)
	for _, want := range []string{
		"epochs 4", "reaped 2", "goroutines 9",
		"penalty distribution", "fault injections:", "drop 7",
		"agent_reaped", "job=dedup",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}

	// A second poll after progress yields a rate from the counter delta.
	reg.Counter("epoch.count").Add(6)
	snap2, err := cl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	m.Frame(time.Unix(102, 0), snap2, nil, nil)
	if rate := m.EpochRate(); rate != 3 {
		t.Errorf("EpochRate = %v, want 3 (6 epochs over 2s)", rate)
	}
}

// TestFrameChurnPanel renders the streaming-market section: repair vs
// full counters, per-epoch population flow, and admission-wait
// quantiles — and checks the section stays hidden on endpoints with no
// rematch vocabulary.
func TestFrameChurnPanel(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("epoch.count").Add(4)
	reg.Counter("rematch.repairs").Add(6)
	reg.Counter("rematch.fulls").Add(2)
	reg.Counter("rematch.joined").Add(10)
	reg.Counter("rematch.departed").Add(6)
	h := reg.Histogram("net.admit_wait", telemetry.DurationBuckets())
	for _, v := range []float64{0.001, 0.002, 0.004} {
		h.Observe(v)
	}

	frame := NewModel(4).Frame(time.Unix(100, 0), snapOf(reg), nil, nil)
	for _, want := range []string{
		"streaming market: repairs 6  fulls 2  joined 10  departed 6",
		"(2.5 joined / 1.5 departed per epoch)",
		"admit wait: p50", "(3 admissions)",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}

	// Without either metric family the panel is absent entirely.
	plain := telemetry.NewRegistry()
	plain.Counter("epoch.count").Add(4)
	frame = NewModel(4).Frame(time.Unix(100, 0), snapOf(plain), nil, nil)
	if strings.Contains(frame, "streaming market") || strings.Contains(frame, "admit wait") {
		t.Errorf("churn panel rendered without rematch counters:\n%s", frame)
	}
}

// TestFramePartialStreamingMetrics renders snapshots where only one of
// the streaming families exists — an admit-wait histogram without
// rematch counters (batch-mode daemon, or a snapshot from a build
// missing one family), and rematch counters without the histogram.
// Each renders its own section; neither panics or drags in the other's
// columns.
func TestFramePartialStreamingMetrics(t *testing.T) {
	// Admit waits without any rematch vocabulary.
	reg := telemetry.NewRegistry()
	reg.Counter("epoch.count").Add(2)
	h := reg.Histogram("net.admit_wait", telemetry.DurationBuckets())
	h.Observe(0.001)
	h.ObserveExemplar(0.9, telemetry.Exemplar{Seq: 17, Agent: 5, Trace: "5c9b57351fc1f0dc"})

	frame := NewModel(4).Frame(time.Unix(100, 0), snapOf(reg), nil, nil)
	if !strings.Contains(frame, "admit wait: p50") || !strings.Contains(frame, "(2 admissions)") {
		t.Errorf("admit waits missing without rematch counters:\n%s", frame)
	}
	if strings.Contains(frame, "streaming market") {
		t.Errorf("rematch section rendered without rematch counters:\n%s", frame)
	}
	// The p99 exemplar names the agent, seq, and trace behind the tail.
	for _, want := range []string{"p99 exemplar: agent 5", "seq 17", "trace 5c9b57351fc1f0dc"} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing exemplar detail %q:\n%s", want, frame)
		}
	}

	// Rematch counters without an admit-wait histogram.
	reg = telemetry.NewRegistry()
	reg.Counter("epoch.count").Add(2)
	reg.Counter("rematch.repairs").Add(3)
	reg.Counter("rematch.joined").Add(1)
	frame = NewModel(4).Frame(time.Unix(100, 0), snapOf(reg), nil, nil)
	if !strings.Contains(frame, "streaming market: repairs 3") {
		t.Errorf("rematch section missing without admit-wait histogram:\n%s", frame)
	}
	if strings.Contains(frame, "admit wait") {
		t.Errorf("admit-wait line rendered with no observations:\n%s", frame)
	}

	// An exemplar-free histogram renders the quantile line only.
	reg = telemetry.NewRegistry()
	reg.Histogram("net.admit_wait", telemetry.DurationBuckets()).Observe(0.002)
	frame = NewModel(4).Frame(time.Unix(100, 0), snapOf(reg), nil, nil)
	if !strings.Contains(frame, "admit wait: p50") || strings.Contains(frame, "exemplar") {
		t.Errorf("exemplar-free admit waits misrendered:\n%s", frame)
	}
}

// TestFrameNilSafety feeds the renderer every shape of missing data: a
// nil model, a nil snapshot, an error, an empty snapshot with no
// counters or histograms, and events at their not-applicable field
// values. None may panic; all must render something sensible.
func TestFrameNilSafety(t *testing.T) {
	var nilModel *Model
	if got := nilModel.Frame(time.Now(), &telemetry.Snapshot{}, nil, nil); got != "" {
		t.Errorf("nil model rendered %q", got)
	}
	if nilModel.EpochRate() != 0 {
		t.Error("nil model has a rate")
	}

	m := NewModel(0)
	frame := m.Frame(time.Now(), nil, nil, nil)
	if !strings.Contains(frame, "waiting for metrics") {
		t.Errorf("nil snapshot frame = %q", frame)
	}
	frame = m.Frame(time.Now(), nil, nil, http.ErrServerClosed)
	if !strings.Contains(frame, http.ErrServerClosed.Error()) {
		t.Errorf("fetch error not surfaced: %q", frame)
	}

	// An empty snapshot (endpoint up, nothing recorded yet) renders the
	// status line with zeros and drops the optional sections.
	frame = m.Frame(time.Now(), &telemetry.Snapshot{}, nil, nil)
	if !strings.Contains(frame, "epochs 0") {
		t.Errorf("empty snapshot frame = %q", frame)
	}
	if strings.Contains(frame, "penalty distribution") || strings.Contains(frame, "fault injections") {
		t.Errorf("empty snapshot rendered optional sections:\n%s", frame)
	}

	// A histogram summary with no buckets (older endpoint) renders no bar
	// chart but must not panic.
	snap := &telemetry.Snapshot{
		Histograms: map[string]telemetry.HistogramSummary{
			"epoch.penalty": {Count: 3, P50: 0.1},
		},
	}
	frame = m.Frame(time.Now(), snap, []telemetry.Event{{Agent: -1, Partner: -1, Epoch: -1}}, nil)
	if !strings.Contains(frame, "penalty distribution") {
		t.Errorf("bucketless histogram dropped its header:\n%s", frame)
	}

	// Sparse events render only their set fields.
	line := FormatEvent(telemetry.Event{Seq: 7, Type: telemetry.EventEpochEnd, Epoch: 2, Agent: -1, Partner: -1})
	if strings.Contains(line, "agent=") || strings.Contains(line, "partner=") {
		t.Errorf("sparse event rendered N/A fields: %q", line)
	}
	if !strings.Contains(line, "epoch=2") {
		t.Errorf("event line missing epoch: %q", line)
	}
}
