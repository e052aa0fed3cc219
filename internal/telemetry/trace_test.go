package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// TestTraceIDsDeterministic pins the causal-identity contract: two
// same-seed telemetry instances performing the same span operations
// produce byte-identical trace/span ID sequences, and a different seed
// produces different ones.
func TestTraceIDsDeterministic(t *testing.T) {
	build := func(seed int64) []string {
		tel := NewSeeded(seed)
		var ids []string
		add := func(s *Span) {
			snap := s.Snapshot()
			ids = append(ids, snap.Trace, snap.Span, snap.Parent)
		}
		add(tel.Trace)
		epoch := tel.PhaseKeyed(nil, "epoch", 7)
		add(epoch)
		match := tel.Phase(epoch, "match")
		add(match)
		shard := epoch.ChildKeyed("shard", 3)
		add(shard)
		return ids
	}
	a, b := build(42), build(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed id %d differs: %s vs %s", i, a[i], b[i])
		}
	}
	c := build(43)
	if a[0] == c[0] {
		t.Fatalf("seed 42 and 43 share trace ID %s", a[0])
	}
	// The pinned values: regressions in the derivation (stream constants,
	// SplitSeed) must fail loudly, because persisted event logs embed
	// these strings.
	if got, want := a[0], "5c9b57351fc1f0dc"; got != want {
		t.Errorf("trace ID for seed 42 = %s, want %s", got, want)
	}
}

// TestChildKeyedScheduleIndependent creates keyed children from many
// goroutines and checks each child's ID depends only on its key — the
// property that keeps per-shard span IDs deterministic inside a worker
// pool — and that counter children and keyed children don't collide.
func TestChildKeyedScheduleIndependent(t *testing.T) {
	const n = 16
	run := func() map[int64]string {
		root := NewSpanSeeded("root", 99)
		out := make([]string, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				out[i] = root.ChildKeyed("shard", int64(i)).Context().Span.String()
			}(i)
		}
		wg.Wait()
		m := make(map[int64]string, n)
		for i, id := range out {
			m[int64(i)] = id
		}
		return m
	}
	a, b := run(), run()
	for k, id := range a {
		if b[k] != id {
			t.Fatalf("keyed child %d ID differs across runs: %s vs %s", k, id, b[k])
		}
	}
	// Counter-allocated children must not collide with keyed ones.
	root := NewSpanSeeded("root", 99)
	seen := map[SpanID]string{root.Context().Span: "root"}
	for i := 0; i < n; i++ {
		c := root.Child("c")
		if prev, dup := seen[c.Context().Span]; dup {
			t.Fatalf("counter child %d collides with %s", i, prev)
		}
		seen[c.Context().Span] = "counter"
	}
	for i := 0; i < n; i++ {
		c := root.ChildKeyed("k", int64(i))
		if prev, dup := seen[c.Context().Span]; dup {
			t.Fatalf("keyed child %d collides with %s", i, prev)
		}
		seen[c.Context().Span] = "keyed"
	}
}

// TestTraceContextRoundTrip checks the wire form parses back exactly,
// and that garbage is rejected while the empty string is the legal
// "no propagation" case.
func TestTraceContextRoundTrip(t *testing.T) {
	sp := NewSpanSeeded("root", 7).Child("epoch")
	tc := sp.Context()
	s := tc.String()
	if len(s) != 33 || s[16] != '-' {
		t.Fatalf("wire form %q not 16-hex '-' 16-hex", s)
	}
	back, err := ParseTraceContext(s)
	if err != nil {
		t.Fatal(err)
	}
	if back != tc {
		t.Fatalf("round trip %v != %v", back, tc)
	}
	if zero, err := ParseTraceContext(""); err != nil || !zero.IsZero() {
		t.Fatalf("empty string should parse to zero context, got %v, %v", zero, err)
	}
	for _, bad := range []string{"xyz", "0123", strings.Repeat("0", 33), s[:32], s + "0", "zzzzzzzzzzzzzzzz-zzzzzzzzzzzzzzzz"} {
		if _, err := ParseTraceContext(bad); err == nil {
			t.Errorf("ParseTraceContext(%q) accepted garbage", bad)
		}
	}
}

// TestSpanRebase checks a client span tree adopts the server's trace ID
// and parent span while keeping its own span IDs — the stitching
// operation cooper-agent performs after registration.
func TestSpanRebase(t *testing.T) {
	server := NewSpanSeeded("pipeline", 1)
	epoch := server.Child("epoch")

	client := NewSpanSeeded("agent", 2)
	dial := client.Child("dial")
	ownID, dialID := client.Context().Span, dial.Context().Span

	if client.Trace() == server.Trace() {
		t.Fatal("distinct seeds should yield distinct traces")
	}
	client.Rebase(epoch.Context())
	if client.Trace() != server.Trace() || dial.Trace() != server.Trace() {
		t.Error("rebased tree should adopt the server trace ID")
	}
	if got, want := client.Snapshot().Parent, epoch.Context().Span.String(); got != want {
		t.Errorf("rebased root parent = %s, want epoch %s", got, want)
	}
	if client.Context().Span != ownID || dial.Context().Span != dialID {
		t.Error("rebasing must not rewrite span IDs")
	}
	if dial.Snapshot().Parent != ownID.String() {
		t.Error("rebasing must not re-parent descendants")
	}
	// A zero context is ignored (no propagation received).
	client.Rebase(TraceContext{})
	if client.Trace() != server.Trace() {
		t.Error("zero-context rebase should be a no-op")
	}
	// Nil safety.
	var nilSpan *Span
	nilSpan.Rebase(epoch.Context())
	if nilSpan.Context() != (TraceContext{}) {
		t.Error("nil span context should be zero")
	}
}

// TestSpanFindDuplicateNames pins Find's documented pre-order DFS
// winner: self first, then each child's entire subtree in creation
// order — so a deep match under the first child beats a shallow match
// under the second, and a parent shadows its descendants.
func TestSpanFindDuplicateNames(t *testing.T) {
	root := NewSpan("root")
	first := root.Child("first")
	deep := first.Child("inner").Child("target")
	second := root.Child("target") // shallower, but under a later child
	if got := root.Find("target"); got != deep {
		t.Errorf("Find(target) = %q under %s, want the deep match under the first child",
			got.Name(), got.Snapshot().Parent)
	}
	_ = second
	// A parent named like a descendant shadows it.
	dup := root.Child("dup")
	dup.Child("dup")
	if got := root.Find("dup"); got != dup {
		t.Error("Find should return the parent, not its identically-named child")
	}
	// Self wins over everything.
	if got := root.Find("root"); got != root {
		t.Error("Find should check the receiver itself first")
	}
	var nilSpan *Span
	if nilSpan.Find("x") != nil {
		t.Error("nil span Find should be nil")
	}
}

// TestSnapshotCarriesIdentity checks SpanSnapshot serializes the causal
// IDs, that events recorded through RecordIn carry the same strings,
// and that the Chrome export surfaces them as args.
func TestSnapshotCarriesIdentity(t *testing.T) {
	tel := NewSeeded(5)
	epoch := tel.Phase(nil, "epoch")
	seq := tel.RecordIn(epoch, Event{Type: EventEpochStart, Epoch: 0, Agent: -1, Partner: -1})
	if seq != 0 {
		t.Fatalf("first record seq = %d, want 0", seq)
	}
	ev := tel.Events.Events()[0]
	if ev.Trace != epoch.Trace().String() || ev.Span != epoch.Context().Span.String() {
		t.Fatalf("event identity %s/%s, want %s/%s", ev.Trace, ev.Span, epoch.Trace(), epoch.Context().Span)
	}
	snap := tel.Trace.Snapshot()
	if snap.Trace != tel.Trace.Trace().String() || snap.Span != tel.Trace.Context().Span.String() {
		t.Error("root snapshot should carry trace/span IDs")
	}
	if snap.Parent != "" {
		t.Error("root snapshot should have no parent")
	}
	child := snap.Children[0]
	if child.Parent != snap.Span || child.Trace != snap.Trace {
		t.Error("child snapshot should link to its parent's span ID within the same trace")
	}
	if child.Span != ev.Span {
		t.Error("the span snapshot and the event it stamped should agree on the span ID")
	}

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(child.Span)) {
		t.Error("chrome export should carry span IDs in args")
	}
}
