package audit

import (
	"fmt"

	"cooper/internal/telemetry"
)

// Divergence pinpoints the first place two event streams disagree under
// Canon() comparison (wall-clock stamps zeroed, everything else exact).
type Divergence struct {
	// Index is the position in the streams where they diverge.
	Index int
	// A and B are the differing events; nil marks the stream that ended
	// early.
	A, B *telemetry.Event
}

func (d *Divergence) String() string {
	switch {
	case d.A == nil:
		return fmt.Sprintf("log A ends at index %d; log B continues with seq %d (%s)",
			d.Index, d.B.Seq, d.B.Type)
	case d.B == nil:
		return fmt.Sprintf("log B ends at index %d; log A continues with seq %d (%s)",
			d.Index, d.A.Seq, d.A.Type)
	default:
		at := firstDiff(d.A.Data, d.B.Data)
		return fmt.Sprintf("first divergence at seq %d:\n  A: %s\n  B: %s",
			d.A.Seq, describeEvent(*d.A, at), describeEvent(*d.B, at))
	}
}

// describeEvent renders an event's determinism-relevant fields compactly,
// trace and span IDs included. A Data payload is shown verbatim but cut
// to a 96-byte window that starts shortly before byte at, where the two
// diverging payloads first differ (a digest would hide the difference).
func describeEvent(e telemetry.Event, at int) string {
	s := fmt.Sprintf("seq=%d type=%s epoch=%d agent=%d partner=%d", e.Seq, e.Type, e.Epoch, e.Agent, e.Partner)
	if e.Job != "" {
		s += " job=" + e.Job
	}
	if e.Kind != "" {
		s += " kind=" + e.Kind
	}
	if e.Round != 0 {
		s += fmt.Sprintf(" round=%d", e.Round)
	}
	if e.Queued != 0 {
		s += fmt.Sprintf(" queued=%d", e.Queued)
	}
	if e.Predicted != 0 || e.True != 0 || e.Value != 0 {
		s += fmt.Sprintf(" predicted=%v true=%v value=%v", e.Predicted, e.True, e.Value)
	}
	if e.Trace != "" || e.Span != "" {
		s += fmt.Sprintf(" trace=%s span=%s", e.Trace, e.Span)
	}
	if e.Data != "" {
		lo := max(0, min(at-16, len(e.Data)-96))
		hi := min(len(e.Data), lo+96)
		s += " data="
		if lo > 0 {
			s += fmt.Sprintf("(from byte %d)...", lo)
		}
		s += e.Data[lo:hi]
		if hi < len(e.Data) {
			s += "..."
		}
	}
	return s
}

// firstDiff returns the index of the first byte where a and b differ, or
// the shorter one's length when it is a prefix of the other.
func firstDiff(a, b string) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// Diff compares two event streams in canonical form and returns the
// first divergence, or nil when they are identical. Two same-seed runs
// of the deterministic pipeline must diff nil; a non-nil result on such
// a pair is itself a determinism regression, and the returned Seq is
// where to start bisecting.
func Diff(a, b []telemetry.Event) *Divergence {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i].Canon() != b[i].Canon() {
			ea, eb := a[i], b[i]
			return &Divergence{Index: i, A: &ea, B: &eb}
		}
	}
	switch {
	case len(a) > n:
		ea := a[n]
		return &Divergence{Index: n, A: &ea}
	case len(b) > n:
		eb := b[n]
		return &Divergence{Index: n, B: &eb}
	}
	return nil
}
