package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("epoch.count")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("epoch.count"); again != c {
		t.Fatal("Counter should return the same instance per name")
	}
	g := r.Gauge("profile.sample_fraction")
	g.Set(0.25)
	if got := g.Value(); got != 0.25 {
		t.Fatalf("gauge = %v, want 0.25", got)
	}
}

func TestCountersWithPrefix(t *testing.T) {
	r := NewRegistry()
	r.Counter("fault.injected.drop").Add(3)
	r.Counter("fault.injected.dup") // present at zero
	r.Counter("net.retry").Add(7)
	got := r.Snapshot().CountersWithPrefix("fault.")
	want := map[string]int64{"fault.injected.drop": 3, "fault.injected.dup": 0}
	if len(got) != len(want) {
		t.Fatalf("CountersWithPrefix = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %d, want %d", k, got[k], v)
		}
	}
	if empty := (Snapshot{}).CountersWithPrefix("fault."); len(empty) != 0 {
		t.Errorf("zero snapshot prefix scan = %v, want empty", empty)
	}
}

func TestHistogramSummaryQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("epoch.penalty", PenaltyBuckets())
	// 100 evenly spread observations in [0, 0.5).
	for i := 0; i < 100; i++ {
		h.Observe(float64(i) * 0.005)
	}
	s := h.Summary()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if math.Abs(s.Mean-0.2475) > 1e-9 {
		t.Fatalf("mean = %v, want 0.2475", s.Mean)
	}
	if s.Min != 0 || math.Abs(s.Max-0.495) > 1e-9 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	if math.Abs(s.P50-0.25) > 0.03 {
		t.Fatalf("p50 = %v, want ~0.25", s.P50)
	}
	if math.Abs(s.P95-0.475) > 0.03 {
		t.Fatalf("p95 = %v, want ~0.475", s.P95)
	}
	if s.P99 < s.P95 || s.P99 > s.Max+1e-9 {
		t.Fatalf("p99 = %v outside [p95, max]", s.P99)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(10)
	s := h.Summary()
	if s.Counts[2] != 1 {
		t.Fatalf("overflow bucket = %d, want 1", s.Counts[2])
	}
	if s.Max != 10 || s.P99 <= 2 || s.P99 > s.Max {
		t.Fatalf("p99 = %v, max = %v: want the overflow bucket interpolated up to the max, 10", s.P99, s.Max)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(1)
	r.Gauge("y").Set(2)
	r.Histogram("z", DurationBuckets()).Observe(3)
	if n := len(r.Snapshot().Counters); n != 0 {
		t.Fatalf("nil registry snapshot has %d counters", n)
	}

	var tel *Telemetry
	sp := tel.Phase(nil, "match")
	if sp != nil {
		t.Fatal("nil telemetry should yield nil span")
	}
	sp.SetAttr("k", 1)
	sp.Finish()
	tel.End(sp)
	if snap := tel.Snapshot(); len(snap.Counters) != 0 || snap.Trace != nil {
		t.Fatal("nil telemetry snapshot should be empty")
	}

	var span *Span
	if span.Child("c") != nil || span.Find("c") != nil || span.Render() != "" {
		t.Fatal("nil span methods should no-op")
	}
}

// TestConcurrentWriters exercises the registry under racing writers and
// readers; run with -race.
func TestConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("shared").Inc()
				r.Gauge("g").Set(float64(i))
				r.Histogram("h", DurationBuckets()).Observe(float64(i) * 1e-6)
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("h", nil).Summary().Count; got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestSpanTreeAndRender(t *testing.T) {
	tel := New()
	epoch := tel.Phase(nil, "epoch")
	match := tel.Phase(epoch, "match")
	match.SetAttr("proposals", 42)
	time.Sleep(time.Millisecond)
	tel.End(match)
	tel.End(epoch)
	tel.Trace.Finish()

	if sp := tel.Trace.Find("match"); sp == nil || sp.Duration() <= 0 {
		t.Fatal("match span missing or zero duration")
	}
	out := tel.Trace.Render()
	for _, want := range []string{"pipeline", "epoch", "match", "proposals=42"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// Phase histogram was fed by End.
	if c := tel.Metrics.Histogram("phase.match_s", nil).Summary().Count; c != 1 {
		t.Fatalf("phase.match_s count = %d, want 1", c)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	tel := New()
	tel.Counter("epoch.count").Add(3)
	tel.Gauge("net.mean_penalty").Set(0.07)
	tel.End(tel.Phase(nil, "sample"))
	var buf bytes.Buffer
	if err := tel.Metrics.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counter("epoch.count") != 3 {
		t.Fatalf("round-tripped counter = %d, want 3", snap.Counter("epoch.count"))
	}
	if snap.Gauge("net.mean_penalty") != 0.07 {
		t.Fatalf("round-tripped gauge = %v", snap.Gauge("net.mean_penalty"))
	}
	if snap.Histogram("phase.sample_s").Count != 1 {
		t.Fatal("round-tripped histogram missing")
	}

	full := tel.Snapshot()
	if full.Trace == nil || full.Trace.Name != "pipeline" {
		t.Fatal("telemetry snapshot should embed the trace")
	}
}

func TestCoveredPhases(t *testing.T) {
	tel := New()
	for _, name := range PhaseNames() {
		sp := tel.Phase(nil, name)
		time.Sleep(10 * time.Microsecond)
		tel.End(sp)
	}
	got := tel.Trace.CoveredPhases()
	if len(got) != 6 {
		t.Fatalf("covered phases = %v, want all six", got)
	}
	for i, name := range PhaseNames() {
		if got[i] != name {
			t.Fatalf("phase order = %v", got)
		}
	}
}
