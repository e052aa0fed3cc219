package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span (e.g. the number of
// Gale-Shapley proposals inside a match span).
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// Span times one region of the pipeline. Spans nest: a root "pipeline"
// span holds the construction phases and one child per epoch. All methods
// are nil-safe no-ops, so disabled tracing costs a nil check.
//
// Every span carries a causal identity — a TraceID shared by the whole
// tree and a SpanID of its own, both derived from parallel.SplitSeed
// streams (see trace.go) so same-seed runs produce byte-identical IDs.
type Span struct {
	mu       sync.Mutex
	name     string
	start    time.Time
	dur      time.Duration
	done     bool
	attrs    []Attr
	children []*Span

	trace    TraceID
	id       SpanID
	parent   SpanID // zero for a root span
	childSeq int64  // next Child counter index (guarded by mu)
}

// NewSpan starts a root span with identity derived from seed 0; use
// NewSpanSeeded to tie the IDs to a run seed.
func NewSpan(name string) *Span {
	return NewSpanSeeded(name, 0)
}

// NewSpanSeeded starts a root span whose TraceID and SpanID derive
// deterministically from seed, so every span and event under it can be
// correlated across same-seed runs (and across processes, once the
// context crosses the wire).
func NewSpanSeeded(name string, seed int64) *Span {
	return &Span{
		name:  name,
		start: time.Now(),
		trace: deriveTraceID(seed),
		id:    deriveRootSpanID(seed),
	}
}

// Name returns the span's name ("" for a nil span).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Child starts a sub-span whose SpanID derives from the parent's ID and
// the child's creation index — deterministic as long as children are
// created in a deterministic order. For children created concurrently
// (per-shard spans inside a worker pool) use ChildKeyed, whose IDs do
// not depend on creation order. Returns nil on a nil receiver.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	c.trace = s.trace
	c.parent = s.id
	c.id = deriveChildSpanID(s.id, s.childSeq)
	s.childSeq++
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// ChildKeyed starts a sub-span whose SpanID derives from the parent's ID
// and a caller-supplied key (a shard index, an epoch number, a
// refinement round) instead of a creation counter. Concurrent creators
// therefore get schedule-independent IDs; the key space is disjoint from
// Child's counter space, so the two can mix under one parent. Callers
// must keep keys unique per parent — two children with the same key
// share an ID. Returns nil on a nil receiver.
func (s *Span) ChildKeyed(name string, key int64) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	c.trace = s.trace
	c.parent = s.id
	c.id = deriveChildSpanID(s.id, keyedChildOffset+key)
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Trace returns the span's trace ID (zero for a nil span).
func (s *Span) Trace() TraceID {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.trace
}

// Context returns the span's causal coordinate, the value that crosses
// process boundaries (zero for a nil span).
func (s *Span) Context() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return TraceContext{Trace: s.trace, Span: s.id}
}

// Rebase re-roots the span's subtree under a remote parent: the whole
// tree adopts tc.Trace and s's parent becomes tc.Span, while every
// SpanID is left untouched. cooper-agent calls it with the TraceContext
// the server stamped on the registration reply, which is what stitches
// client dial/admit/assess spans under the server's trace in offline
// reconstruction. Safe (and a no-op) on a nil span; a zero tc is
// ignored.
func (s *Span) Rebase(tc TraceContext) {
	if s == nil || tc.IsZero() {
		return
	}
	s.mu.Lock()
	s.parent = tc.Span
	s.mu.Unlock()
	s.setTrace(tc.Trace)
}

// setTrace rewrites the trace ID down the subtree, taking each span's
// own lock (children cannot be concurrently re-parented, so walking the
// copied slice outside the parent's lock is safe).
func (s *Span) setTrace(tr TraceID) {
	s.mu.Lock()
	s.trace = tr
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		c.setTrace(tr)
	}
}

// SetAttr annotates the span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// Finish records the span's duration. Later calls are ignored, so a span
// finished explicitly and again by a deferred cleanup keeps its first
// (accurate) duration.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.done {
		s.dur = time.Since(s.start)
		s.done = true
	}
	s.mu.Unlock()
}

// Duration returns the span's recorded duration; for an unfinished span,
// the time elapsed so far.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return s.dur
	}
	return time.Since(s.start)
}

// Find returns the first span named name in a pre-order depth-first
// walk of the tree rooted at s, or nil. The walk order — and therefore
// the winner when the name appears in several subtrees — is specified:
// s itself is checked first, then each child's entire subtree in
// creation order. So a match anywhere under the first child (however
// deep) wins over a match under the second child, and a parent named
// name shadows every descendant. TestSpanFindDuplicateNames pins this.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.Name() == name {
		return s
	}
	s.mu.Lock()
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		if found := c.Find(name); found != nil {
			return found
		}
	}
	return nil
}

// SpanSnapshot is the serializable form of a span tree. StartUnixUS
// anchors the span on the wall clock so exporters (the Chrome
// trace_event writer) can place children at their true offsets inside
// their parents.
type SpanSnapshot struct {
	Name        string          `json:"name"`
	StartUnixUS int64           `json:"start_unix_us,omitempty"`
	DurationUS  int64           `json:"duration_us"`
	Attrs       []Attr          `json:"attrs,omitempty"`
	Children    []*SpanSnapshot `json:"children,omitempty"`

	// Trace, Span, and Parent carry the causal identity as 16-hex-digit
	// strings (empty when the span predates identity — a decoded old
	// snapshot). Strings, not uint64s, so JSON round-trips exactly and
	// offline stitchers can compare them to Event.Trace/Span directly.
	Trace  string `json:"trace,omitempty"`
	Span   string `json:"span,omitempty"`
	Parent string `json:"parent,omitempty"`
}

// Snapshot copies the span tree into its serializable form.
func (s *Span) Snapshot() *SpanSnapshot {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	snap := &SpanSnapshot{
		Name:        s.name,
		StartUnixUS: s.start.UnixMicro(),
		DurationUS:  s.dur.Microseconds(),
		Attrs:       append([]Attr(nil), s.attrs...),
	}
	if s.trace != 0 {
		snap.Trace = s.trace.String()
	}
	if s.id != 0 {
		snap.Span = s.id.String()
	}
	if s.parent != 0 {
		snap.Parent = s.parent.String()
	}
	if !s.done {
		snap.DurationUS = time.Since(s.start).Microseconds()
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		snap.Children = append(snap.Children, c.Snapshot())
	}
	return snap
}

// Render draws the span tree as indented text:
//
//	pipeline                      52.1ms
//	├─ sample                     11µs  fraction=0.25 pairs=52
//	...
func (s *Span) Render() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	s.render(&b, "", true, true)
	return b.String()
}

func (s *Span) render(b *strings.Builder, prefix string, last, root bool) {
	s.mu.Lock()
	name := s.name
	dur := s.dur
	if !s.done {
		dur = time.Since(s.start)
	}
	attrs := append([]Attr(nil), s.attrs...)
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()

	line := prefix
	childPrefix := prefix
	if !root {
		if last {
			line += "└─ "
			childPrefix += "   "
		} else {
			line += "├─ "
			childPrefix += "│  "
		}
	}
	fmt.Fprintf(b, "%-42s %10s", line+name, dur.Round(time.Microsecond))
	for _, a := range attrs {
		fmt.Fprintf(b, "  %s=%s", a.Key, formatAttr(a.Value))
	}
	b.WriteString("\n")
	for i, c := range children {
		c.render(b, childPrefix, i == len(children)-1, false)
	}
}

func formatAttr(v any) string {
	switch x := v.(type) {
	case float64:
		return fmt.Sprintf("%.4g", x)
	case float32:
		return fmt.Sprintf("%.4g", x)
	default:
		return fmt.Sprintf("%v", x)
	}
}

// PhaseNames lists the six pipeline phases in execution order; renderers
// and tests use it to check trace coverage.
func PhaseNames() []string {
	return []string{"sample", "profile", "predict", "match", "assess", "dispatch"}
}

// CoveredPhases reports which of the six pipeline phases appear in the
// tree rooted at s with a positive duration, in phase order.
func (s *Span) CoveredPhases() []string {
	var covered []string
	for _, name := range PhaseNames() {
		if sp := s.Find(name); sp != nil && sp.Duration() > 0 {
			covered = append(covered, name)
		}
	}
	return covered
}
