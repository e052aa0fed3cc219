package telemetry

// Telemetry bundles a metrics registry with a trace: the one handle the
// framework, coordinator, and CLIs thread through the pipeline. A nil
// *Telemetry disables everything at near-zero cost.
type Telemetry struct {
	// Metrics is the registry counters, gauges and histograms live in.
	Metrics *Registry
	// Trace is the root span the pipeline's phases nest under.
	Trace *Span
	// Events is the epoch flight recorder: a bounded ring of typed
	// events (epoch boundaries, matches, admissions, reaps) that the
	// coordinating goroutine appends to.
	Events *EventRing
}

// New returns an enabled Telemetry with an empty registry, a root
// "pipeline" span, and a flight recorder whose overflow count mirrors
// into the registry's events.dropped counter. Trace identity derives
// from seed 0; daemons that promise same-seed byte-identical traces use
// NewSeeded.
func New() *Telemetry {
	return NewSeeded(0)
}

// NewSeeded is New with the root span's TraceID/SpanID derived from the
// run seed, so two same-seed runs emit byte-identical trace and span ID
// sequences (given deterministic span-creation order or keyed spans).
func NewSeeded(seed int64) *Telemetry {
	t := &Telemetry{
		Metrics: NewRegistry(),
		Trace:   NewSpanSeeded("pipeline", seed),
		Events:  NewEventRing(DefaultEventRingSize),
	}
	t.Events.AttachDroppedCounter(t.Metrics.Counter("events.dropped"))
	return t
}

// Registry returns the metrics registry (nil for disabled telemetry), for
// passing to sinks that take a bare *Registry.
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.Metrics
}

// Phase opens a span named name under parent, or under the root trace
// when parent is nil. Finish it with End so its duration also lands in
// the "phase.<name>_s" histogram.
func (t *Telemetry) Phase(parent *Span, name string) *Span {
	if t == nil {
		return nil
	}
	if parent == nil {
		parent = t.Trace
	}
	return parent.Child(name)
}

// PhaseKeyed is Phase via Span.ChildKeyed: the span's ID derives from
// the key rather than a creation counter, so phases opened concurrently
// (per-shard clears) keep schedule-independent identities.
func (t *Telemetry) PhaseKeyed(parent *Span, name string, key int64) *Span {
	if t == nil {
		return nil
	}
	if parent == nil {
		parent = t.Trace
	}
	return parent.ChildKeyed(name, key)
}

// End finishes a phase span and records its duration in the phase
// histogram, so snapshots carry p50/p95/p99 phase timings across epochs.
func (t *Telemetry) End(s *Span) {
	if t == nil || s == nil {
		return
	}
	s.Finish()
	t.Metrics.Histogram("phase."+s.Name()+"_s", DurationBuckets()).
		Observe(s.Duration().Seconds())
}

// RecordIn appends an event to the flight recorder (nil-safe), first
// stamping it with sp's causal identity (Trace and Span fields) so the
// event is tied to the span that was open when it happened. A nil or
// identity-less sp leaves the fields as the caller set them. It returns
// the stamped sequence number (-1 when telemetry is disabled).
func (t *Telemetry) RecordIn(sp *Span, e Event) int64 {
	if t == nil {
		return -1
	}
	if tc := sp.Context(); !tc.IsZero() {
		e.Trace = tc.Trace.String()
		e.Span = tc.Span.String()
	}
	return t.Events.Record(e)
}

// EventRing returns the flight recorder (nil for disabled telemetry),
// for passing to sinks that take a bare *EventRing.
func (t *Telemetry) EventRing() *EventRing {
	if t == nil {
		return nil
	}
	return t.Events
}

// Counter is shorthand for t.Metrics.Counter (nil-safe).
func (t *Telemetry) Counter(name string) *Counter { return t.Registry().Counter(name) }

// Gauge is shorthand for t.Metrics.Gauge (nil-safe).
func (t *Telemetry) Gauge(name string) *Gauge { return t.Registry().Gauge(name) }

// Histogram is shorthand for t.Metrics.Histogram (nil-safe).
func (t *Telemetry) Histogram(name string, bounds []float64) *Histogram {
	return t.Registry().Histogram(name, bounds)
}

// Snapshot copies the metrics and the trace. A nil Telemetry yields an
// empty snapshot, so library users can call Framework.Snapshot()
// unconditionally.
func (t *Telemetry) Snapshot() Snapshot {
	if t == nil {
		return (*Registry)(nil).Snapshot()
	}
	snap := t.Metrics.Snapshot()
	snap.Trace = t.Trace.Snapshot()
	return snap
}
