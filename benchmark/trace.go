package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"cooper/internal/telemetry"
)

// tracer collects the traced run's spans and per-layer numbers. Spans are
// telemetry.Spans (name, start, end, parent; one keyed child of the root per
// epoch, so an epoch's spans share its span ID as their ancestor) kept in
// memory and written out once at exit. A nil *tracer is the untraced run:
// every method is a no-op that still runs the timed function.
type tracer struct {
	root    *telemetry.Span
	timings map[string]*samples // per-layer metric -> ms samples, reported as the median
	values  map[string]float64  // per-layer metric -> value
	extra   []*telemetry.SpanSnapshot
}

func newTracer(workload string, seed int64) *tracer {
	return &tracer{
		root:    telemetry.NewSpanSeeded(workload, seed),
		timings: make(map[string]*samples),
		values:  make(map[string]float64),
	}
}

// epoch opens the span of one operation; nil when untraced.
func (t *tracer) epoch(k int) *telemetry.Span {
	if t == nil {
		return nil
	}
	sp := t.root.ChildKeyed("epoch", int64(k))
	sp.SetAttr("epoch", k)
	return sp
}

// child opens a span directly under the root; nil when untraced.
func (t *tracer) child(name string) *telemetry.Span {
	if t == nil {
		return nil
	}
	return t.root.Child(name)
}

// timed runs fn inside a span named after the layer call and files its
// duration under the per-layer metric (empty metric: span only).
func (t *tracer) timed(parent *telemetry.Span, call, metric string, fn func()) time.Duration {
	return t.timedIn(parent, call, metric, func(*telemetry.Span) { fn() })
}

// timedIn is timed for calls that take a span to parent their own under.
func (t *tracer) timedIn(parent *telemetry.Span, call, metric string, fn func(call *telemetry.Span)) time.Duration {
	if t == nil {
		start := time.Now()
		fn(nil)
		return time.Since(start)
	}
	if parent == nil {
		parent = t.root
	}
	sp := parent.Child(call)
	start := time.Now()
	fn(sp)
	d := time.Since(start)
	sp.Finish()
	if metric != "" {
		t.observe(metric, ms(d))
	}
	return d
}

func (t *tracer) observe(metric string, v float64) {
	if t == nil {
		return
	}
	s := t.timings[metric]
	if s == nil {
		s = new(samples)
		t.timings[metric] = s
	}
	s.add(v)
}

func (t *tracer) set(metric string, v float64) {
	if t != nil {
		t.values[metric] = v
	}
}

// attach adds another span tree (the program's own telemetry trace, an
// agent's client-side spans) as its own track of the Chrome trace.
func (t *tracer) attach(s *telemetry.SpanSnapshot) {
	if t != nil && s != nil {
		t.extra = append(t.extra, s)
	}
}

// layerRow is one span name folded over the whole run.
type layerRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// fold sums duration and self time (span minus its children) per span name.
func fold(root *telemetry.SpanSnapshot) []layerRow {
	rows := make(map[string]*layerRow)
	var walk func(s *telemetry.SpanSnapshot)
	walk = func(s *telemetry.SpanSnapshot) {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		self := s.DurationUS
		for _, c := range s.Children {
			self -= c.DurationUS
			walk(c)
		}
		r.Count++
		r.TotalMS += float64(s.DurationUS) / 1000
		r.SelfMS += float64(self) / 1000
	}
	walk(root)
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// write finishes the root span and writes the Chrome trace: the harness
// spans on track 1, attached trees on tracks of their own.
func (t *tracer) write(dir, workload string) (string, []layerRow, error) {
	t.root.Finish()
	snap := t.root.Snapshot()
	events := []telemetry.ChromeEvent{telemetry.ThreadNameEvent(1, 1, "harness: "+workload)}
	telemetry.AppendSpanEvents(&events, snap, snap.StartUnixUS, 1, 1)
	for i, s := range t.extra {
		tid := i + 2
		events = append(events, telemetry.ThreadNameEvent(1, tid, fmt.Sprintf("%s #%d", s.Name, i)))
		telemetry.AppendSpanEvents(&events, s, snap.StartUnixUS, 1, tid)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", nil, err
	}
	if err := telemetry.WriteChromeEvents(f, events); err != nil {
		f.Close()
		return "", nil, err
	}
	return path, fold(snap), f.Close()
}
