// Package telemetry is Cooper's zero-dependency observability layer: a
// concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms with quantile summaries) plus span-based tracing for the
// pipeline's phases (sample → profile → predict → match → assess →
// dispatch).
//
// Everything is nil-safe: every method on a nil *Registry, *Counter,
// *Gauge, *Histogram, *Span or *Telemetry is a no-op, so instrumented
// code can thread a possibly-nil sink through hot paths without guards
// and uninstrumented callers pay only a nil check.
package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins float metric.
type Gauge struct {
	bits atomic.Uint64
}

// Set records the gauge's current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last value set.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates observations into fixed buckets. Bounds are the
// inclusive upper edges of each bucket, ascending; one implicit overflow
// bucket catches everything above the last bound.
type Histogram struct {
	mu        sync.Mutex
	bounds    []float64
	counts    []uint64 // len(bounds)+1, last is overflow
	count     uint64
	sum       float64
	min       float64
	max       float64
	exemplars map[int]Exemplar // bucket index → latest exemplar
}

// Exemplar links one histogram observation back to its cause: the
// flight-recorder Seq and trace ID of the event that produced it, plus
// the agent involved. Buckets keep the latest exemplar they received
// (latest-wins, like OpenMetrics), so "what was the p99 admission wait?"
// has a concrete answer — this agent, this event, this trace.
type Exemplar struct {
	// Bucket is the index of the bucket the observation landed in
	// (len(bounds) = the overflow bucket); stamped by ObserveExemplar.
	Bucket int `json:"bucket"`
	// Value is the observed value, also stamped by ObserveExemplar.
	Value float64 `json:"value"`
	// Seq is the flight-recorder sequence number of the linked event
	// (-1 when no event was recorded).
	Seq int64 `json:"seq"`
	// Trace is the linked event's 16-hex-digit trace ID ("" when the
	// emitter had no trace in scope).
	Trace string `json:"trace,omitempty"`
	// Agent is the wire agent ID the observation belongs to (-1 n/a).
	Agent int `json:"agent"`
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// Observe adds one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	idx := sort.SearchFloat64s(h.bounds, v)
	h.counts[idx]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// ObserveExemplar adds one sample and attaches ex to the bucket the
// sample lands in, replacing that bucket's previous exemplar
// (latest-wins). ex.Bucket and ex.Value are stamped here; callers fill
// Seq/Trace/Agent.
func (h *Histogram) ObserveExemplar(v float64, ex Exemplar) {
	if h == nil {
		return
	}
	h.Observe(v)
	h.mu.Lock()
	idx := sort.SearchFloat64s(h.bounds, v)
	ex.Bucket = idx
	ex.Value = v
	if h.exemplars == nil {
		h.exemplars = make(map[int]Exemplar)
	}
	h.exemplars[idx] = ex
	h.mu.Unlock()
}

// HistogramSummary is a point-in-time digest of a histogram.
type HistogramSummary struct {
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Mean   float64   `json:"mean"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	P50    float64   `json:"p50"`
	P95    float64   `json:"p95"`
	P99    float64   `json:"p99"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	// Exemplars holds each populated bucket's latest exemplar, ascending
	// by bucket index; empty for histograms fed only by Observe.
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// Exemplar returns the exemplar for the bucket containing the
// q-quantile, falling back to the nearest exemplar-bearing bucket below
// it and then above it ("which admission produced the p99?" tolerates a
// bucket whose own exemplar was never set). ok is false when the
// summary carries no exemplars at all.
func (s HistogramSummary) Exemplar(q float64) (Exemplar, bool) {
	if len(s.Exemplars) == 0 || s.Count == 0 {
		return Exemplar{}, false
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Locate the bucket holding the q-quantile observation.
	target := q * float64(s.Count)
	bucket := len(s.Counts) - 1
	var cum float64
	for i, c := range s.Counts {
		cum += float64(c)
		if cum >= target && c > 0 {
			bucket = i
			break
		}
	}
	byBucket := make(map[int]Exemplar, len(s.Exemplars))
	for _, ex := range s.Exemplars {
		byBucket[ex.Bucket] = ex
	}
	for b := bucket; b >= 0; b-- {
		if ex, ok := byBucket[b]; ok {
			return ex, true
		}
	}
	for b := bucket + 1; b < len(s.Counts); b++ {
		if ex, ok := byBucket[b]; ok {
			return ex, true
		}
	}
	return Exemplar{}, false
}

// Summary digests the histogram: count, sum, mean, min/max, and
// bucket-interpolated p50/p95/p99.
func (h *Histogram) Summary() HistogramSummary {
	if h == nil {
		return HistogramSummary{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSummary{
		Count:  h.count,
		Sum:    h.sum,
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
	}
	if len(h.exemplars) > 0 {
		s.Exemplars = make([]Exemplar, 0, len(h.exemplars))
		for _, ex := range h.exemplars {
			s.Exemplars = append(s.Exemplars, ex)
		}
		sort.Slice(s.Exemplars, func(i, j int) bool {
			return s.Exemplars[i].Bucket < s.Exemplars[j].Bucket
		})
	}
	if h.count == 0 {
		return s
	}
	s.Mean = h.sum / float64(h.count)
	s.Min = h.min
	s.Max = h.max
	s.P50 = h.quantileLocked(0.50)
	s.P95 = h.quantileLocked(0.95)
	s.P99 = h.quantileLocked(0.99)
	return s
}

// quantileLocked estimates the q-quantile (q in [0,1]) by linear
// interpolation within the bucket containing it. Estimates are clamped to
// the observed [min, max] range, so degenerate single-bucket histograms
// stay sane. The caller holds h.mu.
func (h *Histogram) quantileLocked(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.count)
	var cum float64
	for i, c := range h.counts {
		next := cum + float64(c)
		if next >= target && c > 0 {
			lo := h.min
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.max
			if i < len(h.bounds) && h.bounds[i] < hi {
				hi = h.bounds[i]
			}
			if lo < h.min {
				lo = h.min
			}
			if hi < lo {
				hi = lo
			}
			frac := 0.0
			if c > 0 {
				frac = (target - cum) / float64(c)
			}
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return h.max
}

// DurationBuckets returns histogram bounds suited to phase and epoch wall
// times, in seconds: 1µs to 30s, roughly logarithmic.
func DurationBuckets() []float64 {
	return []float64{
		1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5,
		1, 2.5, 5, 10, 30,
	}
}

// PenaltyBuckets returns histogram bounds suited to colocation penalties
// d in [0, 1]: 2.5%-wide buckets through 50%, then a coarse tail.
func PenaltyBuckets() []float64 {
	b := make([]float64, 0, 24)
	for v := 0.025; v <= 0.5+1e-9; v += 0.025 {
		b = append(b, v)
	}
	return append(b, 0.75, 1.0)
}

// Registry is a named collection of metrics, safe for concurrent use.
// The zero value is not usable; NewRegistry returns a ready one, and a
// nil *Registry is a valid no-op sink.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Returns a
// nil (no-op) counter when the registry is nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (later calls reuse the original bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time, JSON-serializable copy of a registry's
// metrics (plus, when taken through Telemetry.Snapshot, the trace).
type Snapshot struct {
	Counters   map[string]int64            `json:"counters"`
	Gauges     map[string]float64          `json:"gauges"`
	Histograms map[string]HistogramSummary `json:"histograms"`
	Trace      *SpanSnapshot               `json:"trace,omitempty"`
}

// Counter returns a counter's value from the snapshot (0 when absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns a gauge's value from the snapshot (0 when absent).
func (s Snapshot) Gauge(name string) float64 { return s.Gauges[name] }

// Histogram returns a histogram's summary from the snapshot (zero value
// when absent).
func (s Snapshot) Histogram(name string) HistogramSummary { return s.Histograms[name] }

// CountersWithPrefix returns every counter whose name starts with prefix,
// as a fresh map. Determinism harnesses use it to compare one family of
// counters (e.g. "fault.") across runs without dragging in unrelated,
// legitimately run-dependent metrics.
func (s Snapshot) CountersWithPrefix(prefix string) map[string]int64 {
	out := make(map[string]int64)
	for name, v := range s.Counters {
		if strings.HasPrefix(name, prefix) {
			out[name] = v
		}
	}
	return out
}

// Snapshot copies every metric's current value. Safe to call while
// writers are active. A nil registry yields an empty (non-nil-mapped)
// snapshot.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSummary),
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()
	for k, c := range counters {
		snap.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		snap.Gauges[k] = g.Value()
	}
	for k, h := range hists {
		snap.Histograms[k] = h.Summary()
	}
	return snap
}

// WriteJSON writes the registry's snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
